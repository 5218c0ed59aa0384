//! `forbid-unsafe-missing`: every library crate's `lib.rs` must carry
//! `#![forbid(unsafe_code)]` so the guarantee cannot be eroded by a
//! module-level `allow`. The one sanctioned exception is `bmf-bench`,
//! whose counting global allocator needs a single `unsafe impl
//! GlobalAlloc` and therefore uses `deny` with a local, documented allow.

use super::{crate_of, finding_at, Rule};
use crate::findings::Finding;
use crate::parse::FileModel;
use crate::SourceFile;

/// See the module docs.
pub struct ForbidUnsafeMissing;

/// Crates allowed to weaken `forbid` to `deny` (with local allows).
const ALLOWLIST: &[&str] = &["bench"];

impl Rule for ForbidUnsafeMissing {
    fn id(&self) -> &'static str {
        "forbid-unsafe-missing"
    }

    fn describe(&self) -> &'static str {
        "crate lib.rs lacking #![forbid(unsafe_code)] (bmf-bench allowlisted)"
    }

    fn check(&self, file: &SourceFile, model: &FileModel, out: &mut Vec<Finding>) {
        let is_lib_root = file.path == "src/lib.rs"
            || (file.path.starts_with("crates/") && file.path.ends_with("/src/lib.rs"));
        if !is_lib_root {
            return;
        }
        if crate_of(&file.path).is_some_and(|c| ALLOWLIST.contains(&c)) {
            return;
        }
        if model.inner_attrs.iter().any(|a| a == "forbid(unsafe_code)") {
            return;
        }
        // Anchor the finding on the first token so the snippet (and thus
        // the baseline fingerprint) is stable under doc-comment edits.
        let anchor = crate::lexer::Token {
            kind: crate::lexer::TokenKind::Punct,
            start: 0,
            end: 0,
            line: 1,
            col: 1,
        };
        let tok = model.code_tok(0).unwrap_or(&anchor);
        let mut f = finding_at(
            self.id(),
            file,
            tok,
            "library crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
        f.snippet = format!("<crate root {}>", file.path);
        out.push(f);
    }
}
