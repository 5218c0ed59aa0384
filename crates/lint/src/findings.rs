//! Findings: what a rule reports, with a drift-stable fingerprint.

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that produced this finding (e.g. `panic-reachability`).
    pub rule: String,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// The trimmed source line the finding sits on.
    pub snippet: String,
}

impl Finding {
    /// Stable identity for baseline matching: a hash of the rule, the
    /// file, and the *content* of the offending line — deliberately not
    /// the line number, so unrelated edits above a pinned finding do not
    /// invalidate the baseline entry.
    pub fn fingerprint(&self) -> String {
        let mut h = Fnv1a::new();
        h.write(self.rule.as_bytes());
        h.write(b"|");
        h.write(self.file.as_bytes());
        h.write(b"|");
        h.write(self.snippet.as_bytes());
        format!("{:016x}", h.finish())
    }

    /// The sort key used everywhere findings are ordered, so every
    /// reporter and the baseline writer agree on one deterministic order.
    pub fn sort_key(&self) -> (String, u32, u32, String) {
        (self.file.clone(), self.line, self.col, self.rule.clone())
    }
}

/// Extracts the trimmed text of 1-based `line` from `src`.
pub fn line_snippet(src: &str, line: u32) -> String {
    src.lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or("")
        .trim()
        .to_string()
}

/// FNV-1a 64-bit: tiny, dependency-free, and stable across platforms —
/// exactly what a committed baseline file needs.
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Folds `bytes` into the running hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The final 64-bit hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(line: u32, snippet: &str) -> Finding {
        Finding {
            rule: "no-float-eq".to_string(),
            file: "crates/core/src/x.rs".to_string(),
            line,
            col: 5,
            message: "m".to_string(),
            snippet: snippet.to_string(),
        }
    }

    #[test]
    fn fingerprint_ignores_line_numbers() {
        assert_eq!(
            finding(10, "if x == 0.0 {").fingerprint(),
            finding(99, "if x == 0.0 {").fingerprint()
        );
        assert_ne!(
            finding(10, "if x == 0.0 {").fingerprint(),
            finding(10, "if y == 0.0 {").fingerprint()
        );
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 test vector: "a" -> 0xaf63dc4c8601ec8c.
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
