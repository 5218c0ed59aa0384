//! Reachability over the call graph: multi-source shortest distance to a
//! sink set, with a deterministic witness successor per node so rules
//! can print one concrete call chain per finding.

use crate::callgraph::CallGraph;

/// Which edges a reverse BFS traverses.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum EdgeSet {
    /// Every resolved edge, including weak plain-method fan-out.
    All,
    /// Strong edges only: path calls, bare calls, impl-narrowed
    /// `self.m(..)` calls.
    Strong,
}

/// The result of a reverse BFS from a sink set.
pub struct Reachability {
    /// `dist[i]` = edge count of the shortest path from node `i` to any
    /// sink, `None` when no sink is reachable. Sinks themselves are `0`.
    pub dist: Vec<Option<u32>>,
    /// `next[i]` = the successor on one shortest path (the
    /// lowest-indexed among equally short ones); `None` at sinks and
    /// unreachable nodes.
    pub next: Vec<Option<usize>>,
}

/// Runs a reverse BFS from every node with `is_sink[i]`, traversing only
/// nodes with `allowed[i]` (a sink outside the allowed set is ignored)
/// and only the edges selected by `edges`.
/// Deterministic: seeds and predecessor scans run in node-index order.
pub fn to_sinks(
    graph: &CallGraph,
    is_sink: &[bool],
    allowed: &[bool],
    edges: EdgeSet,
) -> Reachability {
    let n = graph.nodes.len();
    let mut dist: Vec<Option<u32>> = vec![None; n];
    let mut next: Vec<Option<usize>> = vec![None; n];
    let mut frontier: Vec<usize> = (0..n).filter(|&i| is_sink[i] && allowed[i]).collect();
    for &i in &frontier {
        dist[i] = Some(0);
    }
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        let mut nextier: Vec<usize> = Vec::new();
        for &v in &frontier {
            let preds = match edges {
                EdgeSet::All => graph.pred(v),
                EdgeSet::Strong => graph.strong_pred(v),
            };
            for &u in preds {
                if allowed[u] && dist[u].is_none() {
                    dist[u] = Some(d);
                    next[u] = Some(v);
                    nextier.push(u);
                }
            }
        }
        nextier.sort_unstable();
        nextier.dedup();
        frontier = nextier;
    }
    Reachability { dist, next }
}

impl Reachability {
    /// The witness call chain from `root` to the sink it reaches, as
    /// node indices starting with `root`. Empty when `root` reaches no
    /// sink.
    pub fn witness(&self, root: usize) -> Vec<usize> {
        if self.dist[root].is_none() {
            return Vec::new();
        }
        let mut out = vec![root];
        let mut cur = root;
        while let Some(n) = self.next[cur] {
            out.push(n);
            cur = n;
            if out.len() > self.dist.len() {
                break; // cycle guard; cannot happen on BFS trees
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::{Analysis, SourceFile};

    fn graph(src: &str) -> CallGraph {
        Analysis::build(vec![SourceFile {
            path: "crates/core/src/a.rs".to_string(),
            text: src.to_string(),
        }])
        .graph
    }

    #[test]
    fn witness_is_the_shortest_chain() {
        let g = graph(
            "pub fn entry() { mid(); }\nfn mid() { deep(); }\nfn deep() { bad(); }\nfn bad() {}\n",
        );
        let bad = g.nodes.iter().position(|n| n.name == "bad").unwrap();
        let entry = g.nodes.iter().position(|n| n.name == "entry").unwrap();
        let mut is_sink = vec![false; g.nodes.len()];
        is_sink[bad] = true;
        let allowed = vec![true; g.nodes.len()];
        let r = to_sinks(&g, &is_sink, &allowed, EdgeSet::All);
        assert_eq!(r.dist[entry], Some(3));
        let names: Vec<&str> = r
            .witness(entry)
            .into_iter()
            .map(|i| g.nodes[i].name.as_str())
            .collect();
        assert_eq!(names, vec!["entry", "mid", "deep", "bad"]);
    }

    #[test]
    fn disallowed_nodes_block_traversal() {
        let g = graph("pub fn entry() { mid(); }\nfn mid() { bad(); }\nfn bad() {}\n");
        let bad = g.nodes.iter().position(|n| n.name == "bad").unwrap();
        let mid = g.nodes.iter().position(|n| n.name == "mid").unwrap();
        let entry = g.nodes.iter().position(|n| n.name == "entry").unwrap();
        let mut is_sink = vec![false; g.nodes.len()];
        is_sink[bad] = true;
        let mut allowed = vec![true; g.nodes.len()];
        allowed[mid] = false;
        let r = to_sinks(&g, &is_sink, &allowed, EdgeSet::All);
        assert_eq!(r.dist[entry], None);
    }

    #[test]
    fn strong_traversal_ignores_plain_method_fanout() {
        // `caller` calls `.step()` on an untyped receiver: the weak
        // fan-out reaches A::step, the strong traversal does not.
        let g = graph(
            "struct A;\nimpl A {\n    fn step(&self) { bad(); }\n}\npub fn caller(x: &A) { x.step(); }\nfn bad() {}\n",
        );
        let bad = g.nodes.iter().position(|n| n.name == "bad").unwrap();
        let caller = g.nodes.iter().position(|n| n.name == "caller").unwrap();
        let mut is_sink = vec![false; g.nodes.len()];
        is_sink[bad] = true;
        let allowed = vec![true; g.nodes.len()];
        let all = to_sinks(&g, &is_sink, &allowed, EdgeSet::All);
        assert_eq!(all.dist[caller], Some(2));
        let strong = to_sinks(&g, &is_sink, &allowed, EdgeSet::Strong);
        assert_eq!(strong.dist[caller], None);
    }
}
