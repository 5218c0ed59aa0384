//! `no-partial-cmp-unwrap`: `.partial_cmp(..).unwrap()` (or `.expect(..)`)
//! panics on the first NaN, and NaN is exactly what adversarial inputs
//! feed the fitting stack (see the fault-injection suite). Sorting floats
//! should use `f64::total_cmp`, which is total, deterministic, and
//! panic-free.

use super::{each_nontest_ident, finding_at, in_crates, Rule, DETERMINISM_CRATES};
use crate::findings::Finding;
use crate::parse::FileModel;
use crate::SourceFile;

/// See the module docs.
pub struct NoPartialCmpUnwrap;

impl Rule for NoPartialCmpUnwrap {
    fn id(&self) -> &'static str {
        "no-partial-cmp-unwrap"
    }

    fn describe(&self) -> &'static str {
        "`.partial_cmp(..).unwrap()/.expect(..)`; use `f64::total_cmp` instead"
    }

    fn check(&self, file: &SourceFile, model: &FileModel, out: &mut Vec<Finding>) {
        if !in_crates(&file.path, DETERMINISM_CRATES) {
            return;
        }
        for ci in each_nontest_ident(file, model, "partial_cmp") {
            if ci == 0 || model.code_text(&file.text, ci - 1) != "." {
                continue;
            }
            if model.code_text(&file.text, ci + 1) != "(" {
                continue;
            }
            // Walk over the balanced argument list.
            let mut depth = 0i32;
            let mut cur = ci + 1;
            while cur < model.code.len() {
                match model.code_text(&file.text, cur) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                cur += 1;
            }
            let dot = cur + 1;
            let method = model.code_text(&file.text, dot + 1);
            if model.code_text(&file.text, dot) == "."
                && (method == "unwrap" || method == "expect")
                && model.code_text(&file.text, dot + 2) == "("
            {
                if let Some(tok) = model.code_tok(ci) {
                    out.push(finding_at(
                        self.id(),
                        file,
                        tok,
                        format!(
                            "`.partial_cmp(..).{method}(..)` panics on NaN; \
                             use `f64::total_cmp` for a total, panic-free order"
                        ),
                    ));
                }
            }
        }
    }
}
