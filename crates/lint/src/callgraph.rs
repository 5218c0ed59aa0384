//! The workspace call graph.
//!
//! Nodes are the [`FnItem`]s parsed from every linted file; edges are
//! call sites resolved by name. Resolution is conservative and tiered
//! (DESIGN.md §16):
//!
//! - multi-segment paths (`a::b::f(..)`) resolve by qualified-path
//!   suffix match across the workspace;
//! - bare names (`f(..)`) resolve same-file first, then same-crate,
//!   then workspace-wide free functions — the first non-empty tier wins;
//! - `self.m(..)` resolves to same-type methods when the surrounding
//!   impl defines one, otherwise like any method call;
//! - `.m(..)` method calls resolve to *every* workspace method named
//!   `m` (no type inference — over-approximate on purpose);
//! - anything else (std calls, closures, macros) resolves to nothing.
//!
//! Edges carry a *strength*: path calls, bare calls, and `self.m(..)`
//! calls narrowed to the impl type are **strong** (the name resolution
//! is structural); plain `.m(..)` fan-out is **weak** (a `.len()` call
//! on a slice would otherwise "reach" every workspace type with a `len`
//! method). Rules choose: panic-reachability traverses every edge —
//! weak fan-out is exactly how trait dispatch like `.evaluate(..)` is
//! caught — while alloc-reachability traverses strong edges only, since
//! allocating builders are legal almost everywhere and weak fan-out
//! through ubiquitous method names would flag every kernel.
//!
//! Everything is index-ordered: nodes in file/parse order, adjacency
//! lists sorted, so the graph — and the `--emit=callgraph` dump built
//! from it — is byte-deterministic for a given workspace state.

use crate::parse::{Callee, FnItem};
use std::collections::BTreeMap;

/// The workspace call graph over parsed function items.
pub struct CallGraph {
    /// All parsed function items, in file order then source order.
    pub nodes: Vec<FnItem>,
    /// Sorted, deduplicated `(caller, callee)` node-index pairs.
    pub edges: Vec<(usize, usize)>,
    succ: Vec<Vec<usize>>,
    pred: Vec<Vec<usize>>,
    strong_pred: Vec<Vec<usize>>,
    call_targets: Vec<Vec<Vec<usize>>>,
}

impl CallGraph {
    /// Builds the graph from parsed items (already in deterministic
    /// file/source order).
    pub fn build(nodes: Vec<FnItem>) -> CallGraph {
        let qual_segments: Vec<Vec<String>> = nodes
            .iter()
            .map(|n| n.qualified.split("::").map(str::to_string).collect())
            .collect();
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            if n.self_ty.is_empty() {
                free_by_name.entry(n.name.as_str()).or_default().push(i);
            } else {
                methods_by_name.entry(n.name.as_str()).or_default().push(i);
            }
        }
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut strong_edges: Vec<(usize, usize)> = Vec::new();
        let mut call_targets: Vec<Vec<Vec<usize>>> = Vec::with_capacity(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            let mut per_call = Vec::with_capacity(n.calls.len());
            for call in &n.calls {
                let (targets, strong) = match &call.callee {
                    Callee::Path(segs) => (
                        resolve_path(
                            &nodes,
                            &qual_segments,
                            &free_by_name,
                            &methods_by_name,
                            i,
                            segs,
                        ),
                        true,
                    ),
                    Callee::Method { name, on_self } => {
                        resolve_method(&nodes, &methods_by_name, i, name, *on_self)
                    }
                };
                for &t in &targets {
                    edges.push((i, t));
                    if strong {
                        strong_edges.push((i, t));
                    }
                }
                per_call.push(targets);
            }
            call_targets.push(per_call);
        }
        edges.sort_unstable();
        edges.dedup();
        strong_edges.sort_unstable();
        strong_edges.dedup();
        let mut succ = vec![Vec::new(); nodes.len()];
        let mut pred = vec![Vec::new(); nodes.len()];
        let mut strong_pred = vec![Vec::new(); nodes.len()];
        for &(a, b) in &edges {
            succ[a].push(b);
            pred[b].push(a);
        }
        for &(a, b) in &strong_edges {
            strong_pred[b].push(a);
        }
        CallGraph {
            nodes,
            edges,
            succ,
            pred,
            strong_pred,
            call_targets,
        }
    }

    /// Callees of node `i`, sorted by index.
    pub fn succ(&self, i: usize) -> &[usize] {
        &self.succ[i]
    }

    /// Callers of node `i`, sorted by index.
    pub fn pred(&self, i: usize) -> &[usize] {
        &self.pred[i]
    }

    /// Callers of node `i` over strong edges only (path calls, bare
    /// calls, and impl-narrowed `self.m(..)` calls), sorted by index.
    pub fn strong_pred(&self, i: usize) -> &[usize] {
        &self.strong_pred[i]
    }

    /// Node indices resolved from call site `call_idx` of node `caller`
    /// (aligned with `nodes[caller].calls`).
    pub fn call_targets(&self, caller: usize, call_idx: usize) -> &[usize] {
        &self.call_targets[caller][call_idx]
    }

    /// Renders the graph as a deterministic Graphviz DOT document.
    pub fn to_dot(&self) -> String {
        let order = self.display_order();
        let mut out = String::from("digraph bmf_callgraph {\n");
        for &i in &order {
            let n = &self.nodes[i];
            out.push_str(&format!(
                "  \"{}\" [file=\"{}\", line={}{}];\n",
                n.qualified,
                n.file,
                n.line,
                if n.is_pub { ", pub=true" } else { "" }
            ));
        }
        let mut rendered: Vec<(String, String)> = self
            .edges
            .iter()
            .map(|&(a, b)| {
                (
                    self.nodes[a].qualified.clone(),
                    self.nodes[b].qualified.clone(),
                )
            })
            .collect();
        rendered.sort();
        rendered.dedup();
        for (a, b) in &rendered {
            out.push_str(&format!("  \"{a}\" -> \"{b}\";\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Renders the graph as deterministic JSON:
    /// `{"version":1,"nodes":[..],"edges":[["a","b"],..]}`.
    pub fn to_json(&self) -> String {
        let order = self.display_order();
        let mut out = String::from("{\"version\":1,\"nodes\":[");
        for (k, &i) in order.iter().enumerate() {
            let n = &self.nodes[i];
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"file\":{},\"line\":{},\"pub\":{}}}",
                crate::report::escape_str(&n.qualified),
                crate::report::escape_str(&n.file),
                n.line,
                n.is_pub
            ));
        }
        out.push_str("],\"edges\":[");
        let mut rendered: Vec<(String, String)> = self
            .edges
            .iter()
            .map(|&(a, b)| {
                (
                    self.nodes[a].qualified.clone(),
                    self.nodes[b].qualified.clone(),
                )
            })
            .collect();
        rendered.sort();
        rendered.dedup();
        for (k, (a, b)) in rendered.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "[{},{}]",
                crate::report::escape_str(a),
                crate::report::escape_str(b)
            ));
        }
        out.push_str("]}\n");
        out
    }

    /// Node indices sorted by `(qualified, file, line)` — the stable
    /// display order used by both emit formats.
    fn display_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by(|&a, &b| {
            let ka = (
                &self.nodes[a].qualified,
                &self.nodes[a].file,
                self.nodes[a].line,
            );
            let kb = (
                &self.nodes[b].qualified,
                &self.nodes[b].file,
                self.nodes[b].line,
            );
            ka.cmp(&kb)
        });
        order
    }
}

fn resolve_path(
    nodes: &[FnItem],
    qual_segments: &[Vec<String>],
    free_by_name: &BTreeMap<&str, Vec<usize>>,
    methods_by_name: &BTreeMap<&str, Vec<usize>>,
    caller: usize,
    segs: &[String],
) -> Vec<usize> {
    if segs.is_empty() {
        return Vec::new();
    }
    if segs.len() == 1 {
        // Bare name: same file, then same crate, then any free fn.
        let name = segs[0].as_str();
        let Some(cands) = free_by_name.get(name) else {
            return Vec::new();
        };
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| nodes[i].file == nodes[caller].file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| nodes[i].krate == nodes[caller].krate)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        return cands.clone();
    }
    // `Self::f(..)` names the surrounding impl type.
    let owned: Vec<String>;
    let segs: &[String] = if segs.contains(&"Self".to_string()) {
        owned = segs
            .iter()
            .map(|s| {
                if s == "Self" {
                    nodes[caller].self_ty.clone()
                } else {
                    s.clone()
                }
            })
            .collect();
        &owned
    } else {
        segs
    };
    // Suffix match against qualified ids, over both free fns and methods.
    let name = segs[segs.len() - 1].as_str();
    let mut out = Vec::new();
    for bucket in [free_by_name.get(name), methods_by_name.get(name)] {
        let Some(cands) = bucket else { continue };
        for &i in cands {
            let q = &qual_segments[i];
            if q.len() >= segs.len() && q[q.len() - segs.len()..] == *segs {
                out.push(i);
            }
        }
    }
    out.sort_unstable();
    out
}

fn resolve_method(
    nodes: &[FnItem],
    methods_by_name: &BTreeMap<&str, Vec<usize>>,
    caller: usize,
    name: &str,
    on_self: bool,
) -> (Vec<usize>, bool) {
    let Some(cands) = methods_by_name.get(name) else {
        return (Vec::new(), false);
    };
    if on_self && !nodes[caller].self_ty.is_empty() {
        let same_ty: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| nodes[i].self_ty == nodes[caller].self_ty)
            .collect();
        if !same_ty.is_empty() {
            return (same_ty, true);
        }
    }
    (cands.clone(), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Analysis, SourceFile};

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let sources = files
            .iter()
            .map(|(path, src)| SourceFile {
                path: path.to_string(),
                text: src.to_string(),
            })
            .collect();
        Analysis::build(sources).graph
    }

    fn idx(g: &CallGraph, qualified: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.qualified == qualified)
            .unwrap_or_else(|| panic!("no node {qualified}"))
    }

    #[test]
    fn bare_calls_prefer_same_file_then_crate() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "fn caller() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/core/src/b.rs", "fn helper() {}\n"),
            ("crates/stat/src/c.rs", "fn helper() {}\n"),
        ]);
        let caller = idx(&g, "core::a::caller");
        assert_eq!(g.succ(caller), &[idx(&g, "core::a::helper")]);
    }

    #[test]
    fn qualified_paths_resolve_across_crates() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "fn caller() { bmf_stat::moments::mean(x); }\n",
            ),
            ("crates/stat/src/moments.rs", "pub fn mean() {}\n"),
        ]);
        let caller = idx(&g, "core::a::caller");
        assert_eq!(g.succ(caller), &[idx(&g, "stat::moments::mean")]);
    }

    #[test]
    fn self_methods_narrow_to_the_impl_type() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "struct A; struct B;\nimpl A {\n    fn go(&self) { self.step(); }\n    fn step(&self) {}\n}\nimpl B {\n    fn step(&self) {}\n}\n",
        )]);
        let go = idx(&g, "core::a::A::go");
        assert_eq!(g.succ(go), &[idx(&g, "core::a::A::step")]);
    }

    #[test]
    fn plain_methods_fan_out_to_all_same_named() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "struct A; struct B;\nimpl A {\n    fn step(&self) {}\n}\nimpl B {\n    fn step(&self) {}\n}\nfn caller(x: &A) { x.step(); }\n",
        )]);
        let caller = idx(&g, "core::a::caller");
        assert_eq!(
            g.succ(caller),
            &[idx(&g, "core::a::A::step"), idx(&g, "core::a::B::step")]
        );
    }

    #[test]
    fn emit_formats_are_deterministic() {
        let files = [
            (
                "crates/core/src/a.rs",
                "pub fn caller() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/core/src/b.rs", "fn lone() {}\n"),
        ];
        let a = graph(&files);
        let b = graph(&files);
        assert_eq!(a.to_dot(), b.to_dot());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a
            .to_dot()
            .contains("\"core::a::caller\" -> \"core::a::helper\";"));
        assert!(a.to_json().starts_with("{\"version\":1,\"nodes\":["));
    }
}
