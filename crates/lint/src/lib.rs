//! `bmf-lint`: in-tree static analysis for the BMF workspace.
//!
//! The workspace makes three structural promises — bit-identical results
//! at any thread count, panic-free library code, and zero-allocation
//! `_into`/`_in_place` kernels — that used to be policed by grep lines
//! and scattered clippy attributes. This crate replaces that with a
//! token-level analyzer (no false positives from comments or string
//! literals) and a rule engine with a committed, diff-aware baseline:
//! pre-existing justified findings are pinned in `lint-baseline.toml`,
//! and only *new* findings fail the gate.
//!
//! Pipeline: [`lexer`] tokenizes, one structural pass
//! ([`parse::FileModel`]) recovers test spans, inner attributes,
//! suppressions, and the function items with their calls and sinks,
//! [`callgraph`] resolves a workspace-wide call graph over those items,
//! [`rules`] (file rules and flow-aware graph rules over [`reach`])
//! produce [`findings::Finding`]s, [`baseline`] diffs them against the
//! pinned set, and [`report`] renders human or JSON output.
//!
//! Inline suppressions take the form
//! `// bmf-lint: allow(<rule>) -- <reason>` on the offending line or the
//! line above; the reason string is mandatory.
//!
//! ```
//! use bmf_lint::lint_source;
//!
//! let findings = lint_source(
//!     "crates/core/src/example.rs",
//!     "fn f(x: Option<u32>) -> u32 { x.unwrap() }",
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "panic-reachability");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod baseline;
pub mod callgraph;
pub mod findings;
pub mod lexer;
pub mod parse;
pub mod reach;
pub mod report;
pub mod rules;
pub mod workspace;

use findings::{line_snippet, Finding};
use parse::FileModel;
use rules::{all_rule_ids, all_rules, graph_rules};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// One source file presented to the rules: its workspace-relative path
/// (rules scope themselves by crate from it) and its full text.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Entire file contents.
    pub text: String,
}

/// One analyzed file: its source plus the structural model.
pub struct AnalyzedFile {
    /// The source file.
    pub source: SourceFile,
    /// The structural model (tokens, spans, fn items) the rules query.
    pub model: FileModel,
}

/// The whole-workspace analysis: every file's model plus the call graph
/// over the parsed function items. File rules see one file at a time;
/// graph rules see this.
pub struct Analysis {
    /// Analyzed files, in deterministic (sorted-path) order.
    pub files: Vec<AnalyzedFile>,
    /// The workspace call graph.
    pub graph: callgraph::CallGraph,
    by_path: BTreeMap<String, usize>,
}

impl Analysis {
    /// Builds the analysis: per-file models, then the call graph over
    /// their function items.
    pub fn build(sources: Vec<SourceFile>) -> Analysis {
        let files: Vec<AnalyzedFile> = sources
            .into_iter()
            .map(|source| {
                let model = FileModel::build(&source);
                AnalyzedFile { source, model }
            })
            .collect();
        let nodes = files.iter().flat_map(|f| f.model.fns.clone()).collect();
        let by_path = files
            .iter()
            .enumerate()
            .map(|(i, f)| (f.source.path.clone(), i))
            .collect();
        Analysis {
            graph: callgraph::CallGraph::build(nodes),
            files,
            by_path,
        }
    }

    /// The structural model for a workspace-relative path, if analyzed.
    pub fn model_for(&self, path: &str) -> Option<&FileModel> {
        self.by_path.get(path).map(|&i| &self.files[i].model)
    }
}

/// Runs every file rule and every graph rule over the analysis, applies
/// suppressions, and appends `malformed-suppression` findings. Sorted by
/// `(file, line, col, rule)`.
pub fn lint_analysis(analysis: &Analysis) -> Vec<Finding> {
    let mut raw = Vec::new();
    for f in &analysis.files {
        for rule in all_rules() {
            rule.check(&f.source, &f.model, &mut raw);
        }
    }
    for rule in graph_rules() {
        rule.check(analysis, &mut raw);
    }
    let mut out: Vec<Finding> = raw
        .into_iter()
        .filter(|fi| {
            !analysis
                .model_for(&fi.file)
                .is_some_and(|m| m.suppressed(&fi.rule, fi.line))
        })
        .collect();

    let known = all_rule_ids();
    for f in &analysis.files {
        for m in &f.model.malformed {
            out.push(Finding {
                rule: "malformed-suppression".to_string(),
                file: f.source.path.clone(),
                line: m.line,
                col: m.col,
                message: m.problem.clone(),
                snippet: line_snippet(&f.source.text, m.line),
            });
        }
        for s in &f.model.suppressions {
            if !known.contains(&s.rule.as_str()) {
                out.push(Finding {
                    rule: "malformed-suppression".to_string(),
                    file: f.source.path.clone(),
                    line: s.line,
                    col: 1,
                    message: format!("suppression names unknown rule `{}`", s.rule),
                    snippet: line_snippet(&f.source.text, s.line),
                });
            }
        }
    }
    out.sort_by_key(Finding::sort_key);
    out
}

/// Lints a single file's source text under the given workspace-relative
/// path label. Returns the surviving findings, sorted by
/// `(file, line, col, rule)`: rule output minus well-formed suppressions,
/// plus a `malformed-suppression` finding for every suppression comment
/// that lacks its reason or names an unknown rule. Graph rules run over
/// the one-file call graph, so fixtures exercise them too.
pub fn lint_source(path: &str, text: &str) -> Vec<Finding> {
    let analysis = Analysis::build(vec![SourceFile {
        path: path.to_string(),
        text: text.to_string(),
    }]);
    lint_analysis(&analysis)
}

/// Builds the analysis for every library source file in the workspace
/// rooted at `root`.
///
/// # Errors
///
/// Returns a description of the first I/O failure (unreadable directory
/// or file).
pub fn analyze_workspace(root: &Path) -> Result<Analysis, String> {
    let files = workspace::collect_sources(root)
        .map_err(|e| format!("cannot enumerate sources under {}: {e}", root.display()))?;
    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let text = fs::read_to_string(root.join(&rel)).map_err(|e| format!("{rel}: {e}"))?;
        sources.push(SourceFile { path: rel, text });
    }
    Ok(Analysis::build(sources))
}

/// Lints every library source file in the workspace rooted at `root`.
/// Findings come back sorted by `(file, line, col, rule)`.
///
/// # Errors
///
/// Returns a description of the first I/O failure (unreadable directory
/// or file).
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    Ok(lint_analysis(&analyze_workspace(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_silences_a_finding() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // bmf-lint: allow(panic-reachability) -- demo\n    x.unwrap()\n}\n";
        let findings = lint_source("crates/core/src/example.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unknown_rule_suppressions_are_flagged() {
        let src = "// bmf-lint: allow(no-such-rule) -- reason\nfn f() {}\n";
        let findings = lint_source("crates/core/src/example.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "malformed-suppression");
    }

    #[test]
    fn findings_are_sorted() {
        let src = "fn f(a: Option<u32>, b: f64) -> u32 {\n    if b == 1.0 { return 0; }\n    a.unwrap()\n}\n";
        let findings = lint_source("crates/core/src/example.rs", src);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        assert_eq!(findings.len(), 2);
    }
}
