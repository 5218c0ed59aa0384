// Positive fixture: a suppression without its mandatory reason, and one
// naming a rule that does not exist.

// bmf-lint: allow(panic-reachability)
pub fn missing_reason() {}

// bmf-lint: allow(not-a-rule) -- the rule name is wrong
pub fn unknown_rule() {}
