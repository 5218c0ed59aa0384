//! Golden fixture tests: every rule in the catalog has one positive
//! fixture that fires it and one negative fixture that stays completely
//! clean, under `tests/fixtures/<rule>/{pos,neg}.rs`. The path label
//! passed to `lint_source` places each fixture in the crate the rule
//! scopes itself to.

use bmf_lint::lint_source;
use bmf_lint::rules::{all_rules, graph_rules};

struct Case {
    rule: &'static str,
    label: &'static str,
    pos: &'static str,
    neg: &'static str,
}

const CASES: &[Case] = &[
    Case {
        rule: "no-float-eq",
        label: "crates/core/src/fixture.rs",
        pos: include_str!("fixtures/no-float-eq/pos.rs"),
        neg: include_str!("fixtures/no-float-eq/neg.rs"),
    },
    Case {
        rule: "no-partial-cmp-unwrap",
        label: "crates/stat/src/fixture.rs",
        pos: include_str!("fixtures/no-partial-cmp-unwrap/pos.rs"),
        neg: include_str!("fixtures/no-partial-cmp-unwrap/neg.rs"),
    },
    Case {
        rule: "no-lossy-cast-in-kernels",
        label: "crates/linalg/src/fixture.rs",
        pos: include_str!("fixtures/no-lossy-cast-in-kernels/pos.rs"),
        neg: include_str!("fixtures/no-lossy-cast-in-kernels/neg.rs"),
    },
    Case {
        rule: "forbid-unsafe-missing",
        label: "crates/demo/src/lib.rs",
        pos: include_str!("fixtures/forbid-unsafe-missing/pos.rs"),
        neg: include_str!("fixtures/forbid-unsafe-missing/neg.rs"),
    },
    Case {
        rule: "no-nondeterministic-sources",
        label: "crates/core/src/fixture.rs",
        pos: include_str!("fixtures/no-nondeterministic-sources/pos.rs"),
        neg: include_str!("fixtures/no-nondeterministic-sources/neg.rs"),
    },
    Case {
        rule: "panic-reachability",
        label: "crates/core/src/fixture.rs",
        pos: include_str!("fixtures/panic-reachability/pos.rs"),
        neg: include_str!("fixtures/panic-reachability/neg.rs"),
    },
    Case {
        rule: "alloc-reachability",
        label: "crates/core/src/fixture.rs",
        pos: include_str!("fixtures/alloc-reachability/pos.rs"),
        neg: include_str!("fixtures/alloc-reachability/neg.rs"),
    },
    Case {
        rule: "screen-reachability",
        label: "crates/core/src/fusion.rs",
        pos: include_str!("fixtures/screen-reachability/pos.rs"),
        neg: include_str!("fixtures/screen-reachability/neg.rs"),
    },
    Case {
        rule: "durability-ordering",
        label: "crates/persist/src/store.rs",
        pos: include_str!("fixtures/durability-ordering/pos.rs"),
        neg: include_str!("fixtures/durability-ordering/neg.rs"),
    },
    // Not a catalog rule: the scanner itself reports broken suppression
    // comments under this pseudo-rule, so it gets the same golden pair.
    Case {
        rule: "malformed-suppression",
        label: "crates/core/src/fixture.rs",
        pos: include_str!("fixtures/malformed-suppression/pos.rs"),
        neg: include_str!("fixtures/malformed-suppression/neg.rs"),
    },
];

fn case(rule: &str) -> &'static Case {
    CASES
        .iter()
        .find(|c| c.rule == rule)
        .unwrap_or_else(|| panic!("no fixture case for rule `{rule}`"))
}

#[test]
fn every_catalog_rule_has_a_fixture_pair() {
    let ids: Vec<&str> = all_rules()
        .iter()
        .map(|r| r.id())
        .chain(graph_rules().iter().map(|r| r.id()))
        .collect();
    for id in ids {
        let c = case(id);
        assert!(
            !c.pos.is_empty() && !c.neg.is_empty(),
            "empty fixture for `{id}`"
        );
    }
}

#[test]
fn positive_fixtures_fire_their_rule() {
    for c in CASES {
        let findings = lint_source(c.label, c.pos);
        let fired: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(
            fired.contains(&c.rule),
            "pos fixture for `{}` fired {fired:?} but not the rule itself",
            c.rule
        );
        for f in &findings {
            assert!(f.line >= 1 && f.col >= 1, "finding without a span: {f:?}");
            assert!(!f.message.is_empty(), "finding without a message: {f:?}");
        }
    }
}

#[test]
fn negative_fixtures_are_completely_clean() {
    for c in CASES {
        let findings = lint_source(c.label, c.neg);
        assert!(
            findings.is_empty(),
            "neg fixture for `{}` raised findings: {findings:#?}",
            c.rule
        );
    }
}

#[test]
fn rule_scoping_follows_crate_paths() {
    // The same offending source is invisible outside the crates a rule
    // guards: kernel-cast policing is linalg-only, bmf-bench may panic
    // (directly or transitively), and a broken durability corridor
    // outside bmf_persist::store is out of jurisdiction.
    let cast_src = case("no-lossy-cast-in-kernels").pos;
    assert!(lint_source("crates/core/src/fixture.rs", cast_src).is_empty());
    let reach_src = case("panic-reachability").pos;
    assert!(lint_source("crates/bench/src/fixture.rs", reach_src).is_empty());
    let durability_src = case("durability-ordering").pos;
    assert!(lint_source("crates/persist/src/vfs.rs", durability_src).is_empty());
}

/// `(line, snippet)` of every finding of `rule` on the rule's pos fixture.
fn flagged(rule: &str) -> Vec<(u32, String)> {
    let c = case(rule);
    lint_source(c.label, c.pos)
        .into_iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.line, f.snippet))
        .collect()
}

#[test]
fn panic_reachability_sees_what_the_token_rule_misses() {
    // The acceptance fixture for the flow-aware upgrade: the entry point
    // `fit` at line 6 is panic-free in its own body, yet it is flagged
    // with the witness chain; the helper holding the unwrap is flagged
    // directly, and the pass-through `prepare` not at all.
    let c = case("panic-reachability");
    let findings = lint_source(c.label, c.pos);
    let chain: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "panic-reachability" && f.line <= 16)
        .collect();
    assert_eq!(chain.len(), 2, "{findings:#?}");
    assert_eq!(chain[0].line, 6);
    assert_eq!(chain[0].snippet, "<pub fn core::fixture::fit>");
    assert!(
        chain[0]
            .message
            .contains("core::fixture::fit -> core::fixture::prepare -> core::fixture::head"),
        "witness chain missing: {}",
        chain[0].message
    );
    assert_eq!(chain[1].line, 14);
    assert_eq!(chain[1].snippet, "<fn core::fixture::head>");
    assert!(chain[1].message.contains("contains `.unwrap()` (line 15)"));
}

#[test]
fn direct_sinks_are_flagged_at_their_own_fn() {
    // Every panic or kernel allocation is reported once, at the fn that
    // holds it — public fns, private helpers, and trait-impl methods
    // alike — and each kernel reaching a helper's allocation by its chain.
    let s = |x: &str| x.to_string();
    assert_eq!(
        flagged("panic-reachability"),
        vec![
            (6, s("<pub fn core::fixture::fit>")),
            (14, s("<fn core::fixture::head>")),
            (20, s("<pub fn core::fixture::first>")),
            (24, s("<pub fn core::fixture::checked>")),
            (39, s("<fn core::fixture::Label::fmt>")),
        ]
    );
    assert_eq!(
        flagged("alloc-reachability"),
        vec![
            (5, s("<kernel fn core::fixture::scale_into>")),
            (19, s("<kernel fn core::fixture::accumulate_into>")),
            (26, s("<kernel fn core::fixture::refill_into>")),
        ]
    );
}

#[test]
fn durability_fixture_names_both_broken_corridors() {
    let c = case("durability-ordering");
    let findings = lint_source(c.label, c.pos);
    let durability: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "durability-ordering")
        .collect();
    assert_eq!(durability.len(), 2, "{findings:#?}");
    assert!(durability[0].message.contains("without an fsync between"));
    assert!(durability[1].message.contains("before `rewrite_index`"));
}
