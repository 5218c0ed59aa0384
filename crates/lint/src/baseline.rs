//! The diff-aware baseline: `lint-baseline.toml`.
//!
//! Pre-existing, justified findings are pinned in a committed file; a
//! lint run then fails only on *new* findings. Entries match findings by
//! `(rule, file, fingerprint)` — the fingerprint hashes the offending
//! line's content, not its number, so edits elsewhere in the file do not
//! invalidate the pin.
//!
//! ## Duplicate fingerprints: multiset semantics
//!
//! Because the fingerprint is content-derived, two *textually identical*
//! offending lines in the same file produce the same fingerprint. The
//! diff therefore treats the baseline as a **multiset**: each entry is a
//! budget of one, consumed by exactly one finding, so two identical
//! lines need two (identical-keyed) entries. This is deliberate — it
//! keeps the invariant "every accepted finding has its own reviewed
//! entry" even when the offending text repeats. The historical worked
//! example: `AmplifierPerformance::evaluate` contained the exact line
//! `.expect("single-pole response rolls off")` twice (once per match
//! arm), pinned as fingerprint `fd890c73a92444a5` × 2 entries with the
//! same note. When one of the two lines is fixed, one entry becomes
//! stale and the diff reports it individually; `--deny-stale` prints the
//! surviving identity as `rule=… file=… fingerprint=…` so the right
//! entry (not "some entry") can be deleted.
//!
//! The format is a hand-parsed subset of TOML (the workspace has zero
//! external dependencies): `[[finding]]` tables with `key = "value"`
//! string pairs and `#` comments. A non-empty `note` is mandatory on
//! every entry, mirroring the `-- <reason>` clause of inline
//! suppressions.

use crate::findings::Finding;
use std::collections::BTreeMap;

/// One pinned finding in the baseline file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule name the pinned finding belongs to.
    pub rule: String,
    /// Workspace-relative file of the pinned finding.
    pub file: String,
    /// Content fingerprint (see [`Finding::fingerprint`]).
    pub fingerprint: String,
    /// Why the finding is accepted (required, mirrors inline suppressions).
    pub note: String,
}

impl BaselineEntry {
    fn key(&self) -> (String, String, String) {
        (
            self.rule.clone(),
            self.file.clone(),
            self.fingerprint.clone(),
        )
    }
}

/// The outcome of diffing current findings against the baseline.
#[derive(Debug, Default)]
pub struct BaselineDiff {
    /// Findings not covered by the baseline — these fail the build.
    pub new: Vec<Finding>,
    /// Number of findings matched (and silenced) by baseline entries.
    pub baselined: usize,
    /// Baseline entries that matched no current finding: the pinned
    /// finding was fixed, so the entry should be deleted. `--deny-stale`
    /// turns these into failures to keep the file in sync.
    pub stale: Vec<BaselineEntry>,
}

/// Parses the baseline file format. Unknown keys are rejected so typos
/// cannot silently weaken the gate.
pub fn parse(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let mut entries: Vec<BaselineEntry> = Vec::new();
    let mut current: Option<BaselineEntry> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[finding]]" {
            if let Some(entry) = current.take() {
                validate(&entry, lineno)?;
                entries.push(entry);
            }
            current = Some(BaselineEntry {
                rule: String::new(),
                file: String::new(),
                fingerprint: String::new(),
                note: String::new(),
            });
            continue;
        }
        let Some(entry) = current.as_mut() else {
            return Err(format!(
                "line {}: content outside a [[finding]] table",
                lineno + 1
            ));
        };
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {}: expected `key = \"value\"`", lineno + 1));
        };
        let value = value.trim();
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("line {}: value must be a double-quoted string", lineno + 1))?
            .to_string();
        match key.trim() {
            "rule" => entry.rule = value,
            "file" => entry.file = value,
            "fingerprint" => entry.fingerprint = value,
            "note" => entry.note = value,
            other => return Err(format!("line {}: unknown key `{other}`", lineno + 1)),
        }
    }
    if let Some(entry) = current.take() {
        validate(&entry, text.lines().count())?;
        entries.push(entry);
    }
    Ok(entries)
}

fn validate(entry: &BaselineEntry, lineno: usize) -> Result<(), String> {
    for (name, value) in [
        ("rule", &entry.rule),
        ("file", &entry.file),
        ("fingerprint", &entry.fingerprint),
        ("note", &entry.note),
    ] {
        if value.is_empty() {
            return Err(format!(
                "entry ending near line {}: `{name}` is required (a justification note is \
                 mandatory, like inline suppression reasons)",
                lineno + 1
            ));
        }
    }
    Ok(())
}

/// Renders entries in the canonical (sorted, deduplication-preserving)
/// order `--write-baseline` emits.
pub fn render(entries: &[BaselineEntry]) -> String {
    let mut sorted = entries.to_vec();
    sorted.sort_by_key(|e| {
        (
            e.file.clone(),
            e.rule.clone(),
            e.fingerprint.clone(),
            e.note.clone(),
        )
    });
    let mut out = String::from(
        "# bmf-lint baseline: pre-existing, justified findings pinned by content\n\
         # fingerprint. Only findings NOT listed here fail the lint gate. Regenerate\n\
         # with `cargo run -p bmf-lint -- --write-baseline` after intentional changes,\n\
         # then restore the per-entry notes (they are part of the review contract).\n",
    );
    for e in &sorted {
        out.push_str("\n[[finding]]\n");
        out.push_str(&format!("rule = \"{}\"\n", e.rule));
        out.push_str(&format!("file = \"{}\"\n", e.file));
        out.push_str(&format!("fingerprint = \"{}\"\n", e.fingerprint));
        out.push_str(&format!("note = \"{}\"\n", e.note));
    }
    out
}

/// Diffs `findings` against `baseline` (multiset matching on
/// `(rule, file, fingerprint)`).
pub fn diff(findings: Vec<Finding>, baseline: &[BaselineEntry]) -> BaselineDiff {
    let mut budget: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    for e in baseline {
        *budget.entry(e.key()).or_insert(0) += 1;
    }
    let mut out = BaselineDiff::default();
    for f in findings {
        let key = (f.rule.clone(), f.file.clone(), f.fingerprint());
        match budget.get_mut(&key) {
            Some(n) if *n > 0 => {
                *n -= 1;
                out.baselined += 1;
            }
            _ => out.new.push(f),
        }
    }
    // Whatever budget is left over is stale.
    for e in baseline {
        if let Some(n) = budget.get_mut(&e.key()) {
            if *n > 0 {
                *n -= 1;
                out.stale.push(e.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, file: &str, snippet: &str) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line: 1,
            col: 1,
            message: "m".to_string(),
            snippet: snippet.to_string(),
        }
    }

    fn entry_for(f: &Finding, note: &str) -> BaselineEntry {
        BaselineEntry {
            rule: f.rule.clone(),
            file: f.file.clone(),
            fingerprint: f.fingerprint(),
            note: note.to_string(),
        }
    }

    #[test]
    fn roundtrip_parse_render() {
        let f = finding(
            "panic-reachability",
            "crates/stat/src/prop.rs",
            "panic!(\"x\")",
        );
        let entries = vec![entry_for(&f, "harness panics by design")];
        let text = render(&entries);
        assert_eq!(parse(&text).unwrap(), entries);
    }

    #[test]
    fn diff_splits_new_baselined_stale() {
        let a = finding("r", "f.rs", "line a");
        let b = finding("r", "f.rs", "line b");
        let gone = finding("r", "f.rs", "line gone");
        let baseline = vec![entry_for(&a, "ok"), entry_for(&gone, "ok")];
        let d = diff(vec![a, b], &baseline);
        assert_eq!(d.baselined, 1);
        assert_eq!(d.new.len(), 1);
        assert_eq!(d.new[0].snippet, "line b");
        assert_eq!(d.stale.len(), 1);
        assert_eq!(
            d.stale[0].fingerprint,
            finding("r", "f.rs", "line gone").fingerprint()
        );
    }

    #[test]
    fn duplicate_lines_need_duplicate_entries() {
        let a = finding("r", "f.rs", "same line");
        let b = finding("r", "f.rs", "same line");
        let baseline = vec![entry_for(&a, "one pin only")];
        let d = diff(vec![a, b], &baseline);
        assert_eq!(d.baselined, 1);
        assert_eq!(d.new.len(), 1);
        assert!(d.stale.is_empty());
    }

    #[test]
    fn duplicate_entries_cancel_duplicate_findings_one_for_one() {
        // The fd890c73a92444a5 pattern: two textually identical offending
        // lines, two identical-keyed entries — both cancel, none stale.
        let a = finding("r", "f.rs", "same line");
        let b = finding("r", "f.rs", "same line");
        let baseline = vec![entry_for(&a, "pin one"), entry_for(&b, "pin two")];
        let d = diff(vec![a, b], &baseline);
        assert_eq!(d.baselined, 2);
        assert!(d.new.is_empty());
        assert!(d.stale.is_empty());
    }

    #[test]
    fn notes_are_mandatory() {
        let text = "[[finding]]\nrule = \"r\"\nfile = \"f.rs\"\nfingerprint = \"abc\"\n";
        assert!(parse(text).is_err());
    }
}
