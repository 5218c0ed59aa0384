//! `alloc-reachability`: functions named `*_into` / `*_in_place` (and
//! `GrowingCholesky` methods, PR 8's row-growth engine) advertise "writes
//! into caller-provided storage, allocates nothing" — the contract that
//! took the fitting stack from ~2.4k to ~100 allocations per fit
//! (DESIGN.md §9), load-bearing for the alloc-budget assertions the
//! benches enforce in CI.
//!
//! Roots are those zero-allocation kernels; sinks are functions
//! containing live allocating constructs (`Vec::new`, called or passed
//! uncalled, `vec!`, `format!`, `.to_vec()`, `.clone()`, `.collect()`,
//! `.push(..)`, …). A kernel is flagged when it holds a sink itself or
//! reaches one; traversal skips the sanctioned growth path
//! (`reserve*`/`with_capacity*` helpers, where amortized allocation is
//! the documented contract).
//!
//! Traversal uses **strong edges only** (path calls, bare calls,
//! impl-narrowed `self.m(..)`): allocating builders are legal almost
//! everywhere, so weak `.m(..)` fan-out through ubiquitous names like
//! `len`/`iter`/`row` would connect every kernel to some builder and
//! drown the rule in noise. The direct sink list still catches
//! allocating method calls written in the kernel itself.

use super::{in_crates, live_sink, reach_finding, GraphRule, Subject, FITTING_CRATES};
use crate::findings::Finding;
use crate::parse::SinkKind;
use crate::reach;
use crate::Analysis;

/// See the module docs.
pub struct AllocReachability;

fn is_kernel(name: &str, self_ty: &str) -> bool {
    if name.ends_with("_into") || name.ends_with("_in_place") {
        return true;
    }
    self_ty == "GrowingCholesky" && !name.starts_with("reserve")
}

/// Fns on the sanctioned allocation path: traversal stops at them
/// instead of reporting their allocations.
fn is_reserve_path(name: &str) -> bool {
    name.starts_with("reserve") || name.starts_with("with_capacity")
}

impl GraphRule for AllocReachability {
    fn id(&self) -> &'static str {
        "alloc-reachability"
    }

    fn describe(&self) -> &'static str {
        "zero-allocation kernels (*_into/*_in_place/GrowingCholesky) reaching allocating calls"
    }

    fn explain(&self) -> &'static str {
        "`*_into`/`*_in_place` functions and `GrowingCholesky` methods advertise \
         `writes into caller-provided storage, allocates nothing` — the contract \
         behind the ~20x allocation reduction pinned by the alloc-budget benches. \
         A kernel is flagged when its own body allocates or when the call graph \
         connects it to an allocating helper, with the witness chain. The \
         sanctioned growth path is exempt: traversal does not descend into \
         `reserve*`/`with_capacity*` helpers, where amortized allocation is the \
         documented design. Traversal follows strong edges only (path calls, bare \
         calls, impl-narrowed `self.m(..)`): weak method fan-out through ubiquitous \
         names like `len` or `iter` would connect every kernel to some legal \
         builder. Suppress `alloc-reachability` on the allocating line for \
         allocations that are provably outside the hot loop."
    }

    fn check(&self, analysis: &Analysis, out: &mut Vec<Finding>) {
        let g = &analysis.graph;
        let allowed: Vec<bool> = g
            .nodes
            .iter()
            .map(|n| in_crates(&n.file, FITTING_CRATES) && !is_reserve_path(&n.name))
            .collect();
        let is_sink: Vec<bool> = (0..g.nodes.len())
            .map(|i| allowed[i] && live_sink(analysis, i, SinkKind::Alloc, self.id()).is_some())
            .collect();
        let r = reach::to_sinks(g, &is_sink, &allowed, reach::EdgeSet::Strong);
        for (i, n) in g.nodes.iter().enumerate() {
            if !is_kernel(&n.name, &n.self_ty) {
                continue;
            }
            let subject = Subject {
                label: format!("kernel `{}`", n.qualified),
                advice: "write into caller-provided scratch instead",
                snippet: format!("<kernel fn {}>", n.qualified),
            };
            out.extend(reach_finding(
                analysis,
                &r,
                i,
                SinkKind::Alloc,
                self.id(),
                subject,
            ));
        }
    }
}
