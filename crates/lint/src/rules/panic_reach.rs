//! `panic-reachability`: the fitting stack promises "structured error or
//! degraded `Ok`, never a panic" (README "Robustness", PR 4). Library code
//! must not reach `panic!`, `unreachable!`, `todo!`, `unimplemented!`,
//! `.unwrap()`, or `.expect(...)` outside test code.
//!
//! Every function containing a live panic construct (not neutralized by an
//! inline suppression on its line) is a sink and is flagged itself, pub or
//! not, so private helpers and trait-impl methods are covered. Every
//! `pub fn` in the fitting crates is additionally a root: a reverse BFS
//! over the workspace call graph flags each root that can reach a sink,
//! with one concrete witness chain in the message — the public entry point
//! three calls *above* an `.unwrap()` is where callers observe the abort.
//!
//! Soundness stance: the call graph over-approximates (method calls fan
//! out to every same-named method), so a finding is "possibly panics",
//! not "will panic" — and the absence of findings is only as strong as
//! name resolution. Panics outside any fn body (a `const` initializer)
//! and slice indexing (`x[i]` panics out of bounds, but workspace-wide it
//! would veto essentially every function) are out of scope (DESIGN.md
//! §16).

use super::{in_crates, live_sink, reach_finding, GraphRule, Subject, FITTING_CRATES};
use crate::findings::Finding;
use crate::parse::SinkKind;
use crate::reach;
use crate::Analysis;

/// See the module docs.
pub struct PanicReachability;

impl GraphRule for PanicReachability {
    fn id(&self) -> &'static str {
        "panic-reachability"
    }

    fn describe(&self) -> &'static str {
        "fitting-stack fns holding a panic construct, and pub fns that transitively reach one"
    }

    fn explain(&self) -> &'static str {
        "The fitting stack promises `structured error or degraded Ok, never a panic` \
         (PR 4). Any fitting-crate function, pub or not, whose body contains \
         `panic!`/`unreachable!`/`todo!`/`unimplemented!`/`.unwrap()`/`.expect()` \
         outside test code is flagged at its `fn` line; every `pub fn` is further \
         checked against the workspace call graph, and if any reachable callee \
         still holds such a construct the entry point is flagged with one concrete \
         call chain. An inline `panic-reachability` suppression on the sink line \
         neutralizes the sink everywhere; suppress at the `fn` line to accept a \
         specific function. The graph over-approximates method calls, so treat \
         findings as `possibly panics` and fix or justify rather than ignore."
    }

    fn check(&self, analysis: &Analysis, out: &mut Vec<Finding>) {
        let g = &analysis.graph;
        let allowed: Vec<bool> = g
            .nodes
            .iter()
            .map(|n| in_crates(&n.file, FITTING_CRATES))
            .collect();
        let is_sink: Vec<bool> = (0..g.nodes.len())
            .map(|i| allowed[i] && live_sink(analysis, i, SinkKind::Panic, self.id()).is_some())
            .collect();
        let r = reach::to_sinks(g, &is_sink, &allowed, reach::EdgeSet::All);
        for (i, n) in g.nodes.iter().enumerate() {
            if !(n.is_pub || is_sink[i]) {
                continue;
            }
            let subject = if n.is_pub {
                Subject {
                    label: format!("public fn `{}`", n.qualified),
                    advice: "callers cannot observe a structured error",
                    snippet: format!("<pub fn {}>", n.qualified),
                }
            } else {
                Subject {
                    label: format!("fn `{}`", n.qualified),
                    advice: "return a structured error instead",
                    snippet: format!("<fn {}>", n.qualified),
                }
            };
            out.extend(reach_finding(
                analysis,
                &r,
                i,
                SinkKind::Panic,
                self.id(),
                subject,
            ));
        }
    }
}
