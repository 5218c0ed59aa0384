//! `no-nondeterministic-sources`: the workspace promises bit-identical
//! results for a given seed at any thread count. Inside result-producing
//! library code that outlaws the standard library's ambient entropy:
//! `SystemTime` (wall clock), `RandomState` (per-process hasher seeds),
//! and `HashMap`/`HashSet` (whose iteration order inherits `RandomState`
//! randomness — use `BTreeMap`/`BTreeSet` or sorted `Vec`s instead).
//!
//! `Instant` is deliberately *not* flagged: monotonic phase timings on
//! `BmfFit`/`BatchReport` are diagnostics that never feed back into
//! numerical results.

use super::{each_nontest_ident, finding_at, in_crates, Rule, DETERMINISM_CRATES};
use crate::findings::Finding;
use crate::parse::FileModel;
use crate::SourceFile;

/// See the module docs.
pub struct NoNondeterministicSources;

const BANNED: &[(&str, &str)] = &[
    (
        "SystemTime",
        "wall-clock time is nondeterministic; results must be seed-driven",
    ),
    (
        "RandomState",
        "per-process hasher seeds randomize iteration order",
    ),
    (
        "HashMap",
        "iteration order is randomized; use `BTreeMap` or a sorted `Vec`",
    ),
    (
        "HashSet",
        "iteration order is randomized; use `BTreeSet` or a sorted `Vec`",
    ),
];

impl Rule for NoNondeterministicSources {
    fn id(&self) -> &'static str {
        "no-nondeterministic-sources"
    }

    fn describe(&self) -> &'static str {
        "SystemTime/RandomState/HashMap/HashSet in result-producing library code"
    }

    fn check(&self, file: &SourceFile, model: &FileModel, out: &mut Vec<Finding>) {
        if !in_crates(&file.path, DETERMINISM_CRATES) {
            return;
        }
        for (word, why) in BANNED {
            for ci in each_nontest_ident(file, model, word) {
                if let Some(tok) = model.code_tok(ci) {
                    out.push(finding_at(
                        self.id(),
                        file,
                        tok,
                        format!("`{word}` in library code: {why}"),
                    ));
                }
            }
        }
    }
}
