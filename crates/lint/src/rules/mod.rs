//! The rule catalog.
//!
//! Two kinds of rules coexist. *File rules* ([`Rule`]) are token-pattern
//! matchers over one [`FileModel`]. *Graph rules* ([`GraphRule`]) run
//! once over the whole [`Analysis`] — the parsed items and the
//! workspace call graph — and catch violations that cross function and
//! crate boundaries. Rules are scoped by crate (derived from the
//! workspace-relative path): the fitting-stack guarantees apply to the
//! library crates, the determinism rules additionally police `bmf-lint`
//! itself, and the tool crate `bmf-bench` is exempt from panic-freedom
//! (benchmark binaries may abort).

pub mod alloc_reach;
pub mod durability;
pub mod float_eq;
pub mod forbid_unsafe;
pub mod lossy_cast;
pub mod nondet;
pub mod panic_reach;
pub mod partial_cmp;
pub mod screen_reach;

use crate::findings::{line_snippet, Finding};
use crate::lexer::Token;
use crate::parse::{FileModel, Sink, SinkKind};
use crate::reach::Reachability;
use crate::{Analysis, SourceFile};

/// A file-scoped lint rule: an identifier plus a check over one file.
pub trait Rule {
    /// The rule's stable name, as used in baselines and suppressions.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules` and the docs.
    fn describe(&self) -> &'static str;
    /// Long-form description for `--explain <rule>`.
    fn explain(&self) -> &'static str {
        self.describe()
    }
    /// Appends findings for `file` to `out`.
    fn check(&self, file: &SourceFile, model: &FileModel, out: &mut Vec<Finding>);
}

/// A workspace-scoped rule over the call graph.
pub trait GraphRule {
    /// The rule's stable name, as used in baselines and suppressions.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules` and the docs.
    fn describe(&self) -> &'static str;
    /// Long-form description for `--explain <rule>`.
    fn explain(&self) -> &'static str {
        self.describe()
    }
    /// Appends findings over the whole analysis to `out`.
    fn check(&self, analysis: &Analysis, out: &mut Vec<Finding>);
}

/// Every file rule, in catalog order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(float_eq::NoFloatEq),
        Box::new(partial_cmp::NoPartialCmpUnwrap),
        Box::new(lossy_cast::NoLossyCastInKernels),
        Box::new(forbid_unsafe::ForbidUnsafeMissing),
        Box::new(nondet::NoNondeterministicSources),
    ]
}

/// Every graph rule, in catalog order.
pub fn graph_rules() -> Vec<Box<dyn GraphRule>> {
    vec![
        Box::new(panic_reach::PanicReachability),
        Box::new(alloc_reach::AllocReachability),
        Box::new(screen_reach::ScreenReachability),
        Box::new(durability::DurabilityOrdering),
    ]
}

/// Every rule id across both catalogs (suppression validation,
/// `--explain` lookup).
pub fn all_rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = all_rules().iter().map(|r| r.id()).collect();
    ids.extend(graph_rules().iter().map(|r| r.id()));
    ids
}

/// The long-form description for `--explain <rule>`, if the rule exists.
pub fn explain_rule(id: &str) -> Option<String> {
    for r in all_rules() {
        if r.id() == id {
            return Some(format!("{}\n\n{}\n", r.describe(), r.explain()));
        }
    }
    for r in graph_rules() {
        if r.id() == id {
            return Some(format!("{}\n\n{}\n", r.describe(), r.explain()));
        }
    }
    None
}

/// Crates carrying the panic-free / screened fitting-stack guarantees.
/// `root` is the umbrella crate at `src/`.
pub(crate) const FITTING_CRATES: &[&str] = &[
    "basis", "circuits", "core", "linalg", "persist", "stat", "root",
];

/// Crates whose outputs must be bit-reproducible — the fitting stack plus
/// the lint itself (its reports are diffed byte-for-byte in CI).
pub(crate) const DETERMINISM_CRATES: &[&str] = &[
    "basis", "circuits", "core", "linalg", "persist", "stat", "root", "lint",
];

/// Maps a workspace-relative path to its crate short name:
/// `crates/core/src/x.rs` → `core`, `src/lib.rs` → `root`.
pub(crate) fn crate_of(path: &str) -> Option<&str> {
    if let Some(rest) = path.strip_prefix("crates/") {
        return rest.split('/').next();
    }
    if path.starts_with("src/") {
        return Some("root");
    }
    None
}

/// True when `path` belongs to one of `crates`.
pub(crate) fn in_crates(path: &str, crates: &[&str]) -> bool {
    crate_of(path).is_some_and(|c| crates.contains(&c))
}

/// Builds a finding at `tok`, filling in the snippet from the source.
pub(crate) fn finding_at(
    rule: &'static str,
    file: &SourceFile,
    tok: &Token,
    message: String,
) -> Finding {
    Finding {
        rule: rule.to_string(),
        file: file.path.clone(),
        line: tok.line,
        col: tok.col,
        message,
        snippet: line_snippet(&file.text, tok.line),
    }
}

/// Shared iteration helper: yields each code-index whose token is an
/// identifier equal to `word`, skipping test spans.
pub(crate) fn each_nontest_ident<'m>(
    file: &'m SourceFile,
    model: &'m FileModel,
    word: &'m str,
) -> impl Iterator<Item = usize> + 'm {
    (0..model.code.len()).filter(move |&ci| {
        model.code_text(&file.text, ci) == word
            && model.code_tok(ci).is_some_and(|t| {
                t.kind == crate::lexer::TokenKind::Ident && !model.in_test(t.start)
            })
    })
}

/// What a reachability rule reports about one fn: how to name it and
/// what to advise when it holds the sink itself.
pub(crate) struct Subject {
    /// Leads the message, e.g. "public fn `core::x::fit`".
    pub label: String,
    /// Follows a direct (distance-0) sink, e.g. "write into ... instead".
    pub advice: &'static str,
    /// The finding's fingerprinted snippet, e.g. `<pub fn core::x::fit>`.
    pub snippet: String,
}

/// The first sink of `kind` in node `i` that no `rule` suppression on its
/// line neutralizes.
pub(crate) fn live_sink<'a>(
    analysis: &'a Analysis,
    i: usize,
    kind: SinkKind,
    rule: &str,
) -> Option<&'a Sink> {
    let node = &analysis.graph.nodes[i];
    let model = analysis.model_for(&node.file)?;
    node.sinks
        .iter()
        .find(|s| s.kind == kind && !model.suppressed(rule, s.line))
}

/// The finding for fn `i`, anchored at its `fn` line: the sink it holds
/// itself, or the one its witness chain under `r` reaches. `None` when
/// `i` reaches no live sink.
pub(crate) fn reach_finding(
    analysis: &Analysis,
    r: &Reachability,
    i: usize,
    kind: SinkKind,
    rule: &'static str,
    subject: Subject,
) -> Option<Finding> {
    let g = &analysis.graph;
    let witness = r.witness(i);
    let sink_idx = *witness.last()?;
    let sink = live_sink(analysis, sink_idx, kind, rule)?;
    let message = if sink_idx == i {
        format!(
            "{} contains {} (line {}); {}",
            subject.label, sink.what, sink.line, subject.advice
        )
    } else {
        let chain: Vec<&str> = witness
            .iter()
            .map(|&k| g.nodes[k].qualified.as_str())
            .collect();
        format!(
            "{} can reach {} at {}:{} via {}",
            subject.label,
            sink.what,
            g.nodes[sink_idx].file,
            sink.line,
            chain.join(" -> ")
        )
    };
    let n = &g.nodes[i];
    Some(Finding {
        rule: rule.to_string(),
        file: n.file.clone(),
        line: n.line,
        col: 1,
        message,
        snippet: subject.snippet,
    })
}
