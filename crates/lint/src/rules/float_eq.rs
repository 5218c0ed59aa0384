//! `no-float-eq`: `==`/`!=` against a floating-point literal silently
//! depends on exact bit patterns; in the MAP estimator and Woodbury
//! kernels that is either a deliberate exact-zero sentinel test (which
//! deserves a *named* predicate such as `is_exact_zero`) or a bug.
//!
//! The rule flags comparisons where either operand is a float literal,
//! except inside approved predicate helpers — functions named `is_*`,
//! `approx_eq`, or `ulps_eq` — whose whole purpose is to centralize the
//! exact comparison behind a documented name.

use super::{finding_at, in_crates, Rule, FITTING_CRATES};
use crate::findings::Finding;
use crate::lexer::{is_float_literal, TokenKind};
use crate::parse::FileModel;
use crate::SourceFile;

/// See the module docs.
pub struct NoFloatEq;

fn is_approved_helper(name: &str) -> bool {
    name.starts_with("is_") || name == "approx_eq" || name == "ulps_eq"
}

impl Rule for NoFloatEq {
    fn id(&self) -> &'static str {
        "no-float-eq"
    }

    fn describe(&self) -> &'static str {
        "`==`/`!=` against a float literal outside approved `is_*` predicate helpers"
    }

    fn check(&self, file: &SourceFile, model: &FileModel, out: &mut Vec<Finding>) {
        if !in_crates(&file.path, FITTING_CRATES) {
            return;
        }
        for ci in 0..model.code.len() {
            let op = model.code_text(&file.text, ci);
            if op != "==" && op != "!=" {
                continue;
            }
            let Some(tok) = model.code_tok(ci) else {
                continue;
            };
            if model.in_test(tok.start) {
                continue;
            }
            let float_neighbor = [ci.wrapping_sub(1), ci + 1].iter().any(|&ni| {
                model.code_tok(ni).is_some_and(|t| {
                    t.kind == TokenKind::Number && is_float_literal(t.text(&file.text))
                })
            });
            if !float_neighbor {
                continue;
            }
            if model
                .enclosing_fn(tok.start)
                .is_some_and(|f| is_approved_helper(&f.name))
            {
                continue;
            }
            out.push(finding_at(
                self.id(),
                file,
                tok,
                format!(
                    "float literal compared with `{op}`; use a named predicate \
                     (e.g. `is_exact_zero`) so the exact-comparison intent is explicit"
                ),
            ));
        }
    }
}
