//! The structural pass: one walk over the token stream that turns a file
//! into the [`FileModel`] every rule queries.
//!
//! From the flat token list of [`crate::lexer`] it recovers which byte
//! ranges are test-only code (`#[cfg(test)]` items and `#[test]`
//! functions), which inner attributes (`#![...]`) the file carries, which
//! `// bmf-lint: allow(<rule>) -- <reason>` suppression comments exist,
//! and every non-test function item with its qualified name, the calls it
//! makes, the panic/alloc sinks it contains, and (for the persistence
//! layer) the VFS operations it performs, in source order.
//!
//! This is deliberately *not* a Rust parser. It recovers exactly the
//! facts the rules need — `fn` items inside `mod`/`impl`/`trait` scopes,
//! `path::to::fn(...)` and `.method(...)` call sites, and a handful of
//! token-pattern "sink" constructs — using brace matching rather than
//! grammar. Anything it cannot classify is dropped, never guessed: the
//! call graph built from these items is conservative by construction
//! (see `DESIGN.md` §16 for the soundness stance).

use crate::lexer::{lex, Token, TokenKind};
use crate::SourceFile;

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `foo(..)` or `a::b::foo(..)` — normalized path segments, last one
    /// the function name. `crate`/`self`/`super` prefixes are stripped
    /// and `bmf_x` crate roots are rewritten to the short crate name
    /// used by [`crate::rules::crate_of`].
    Path(Vec<String>),
    /// `.foo(..)` — a method call resolved by name (and, when the
    /// receiver is literally `self`, by the surrounding impl type).
    Method {
        /// The method name.
        name: String,
        /// True when the receiver token is exactly `self`.
        on_self: bool,
    },
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// What is being called.
    pub callee: Callee,
    /// 1-based line of the callee token.
    pub line: u32,
    /// Code-index of the callee token — call sites, sinks, and VFS ops
    /// within one function are ordered by this.
    pub ci: usize,
}

/// The kind of a sink construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// `panic!`-family macros and `.unwrap()`/`.expect()`.
    Panic,
    /// Allocating constructs: `Vec::new`, `vec!`, `.to_vec()`, `.push()`, ...
    Alloc,
}

/// One sink occurrence inside a function body. Sinks are recorded
/// unconditionally; the rules decide which count (an inline suppression
/// for the consuming rule on the sink line neutralizes a sink).
#[derive(Debug, Clone)]
pub struct Sink {
    /// What kind of sink.
    pub kind: SinkKind,
    /// Short description for witness messages, e.g. "`.unwrap()`".
    pub what: String,
    /// 1-based line of the sink token.
    pub line: u32,
    /// Code-index of the sink token.
    pub ci: usize,
}

/// One VFS operation (`...vfs.<op>(<arg>, ..)`) inside a function body.
#[derive(Debug, Clone)]
pub struct VfsOp {
    /// The operation name: `write`, `append`, `sync_file`, `sync_dir`,
    /// `rename`, `remove`, ...
    pub op: String,
    /// The identifier at the head of the first argument (`&tmp` → `tmp`),
    /// or `""` when the argument is not a simple binding.
    pub arg: String,
    /// 1-based line of the operation token.
    pub line: u32,
    /// Code-index of the operation token.
    pub ci: usize,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// The bare function name.
    pub name: String,
    /// The `impl`/`trait` type the function is defined on, or `""` for a
    /// free function.
    pub self_ty: String,
    /// Fully qualified id: `crate::module[::Type]::name`.
    pub qualified: String,
    /// Short crate name (`core`, `linalg`, `root`, ...).
    pub krate: String,
    /// Whether the function is `pub` (bare `pub` only; restricted
    /// visibility sits behind an already-checked boundary).
    pub is_pub: bool,
    /// Whether the return type mentions `Result`.
    pub returns_result: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the signature mentions `f64` (gates arithmetic events in
    /// the screening rule: integer bookkeeping is not "math").
    pub sig_f64: bool,
    /// Every call site in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Every sink construct in the body, in source order.
    pub sinks: Vec<Sink>,
    /// Every VFS operation in the body, in source order.
    pub vfs_ops: Vec<VfsOp>,
    /// Code-index of the first binary arithmetic operator in the body.
    pub first_math_ci: Option<usize>,
    /// Code-index of the first direct `screen::` path call in the body.
    pub first_screen_ci: Option<usize>,
    /// Body byte range, *including* the braces.
    pub body: (usize, usize),
}

/// One inline suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule name inside `allow(...)`.
    pub rule: String,
    /// 1-based line the comment sits on. The suppression applies to
    /// findings on this line (trailing comment) and the next line
    /// (comment above the offending statement).
    pub line: u32,
}

/// A suppression comment that does not follow the required
/// `bmf-lint: allow(<rule>) -- <reason>` shape (most commonly: a missing
/// reason string). These become findings of their own.
#[derive(Debug, Clone)]
pub struct MalformedSuppression {
    /// 1-based line of the malformed comment.
    pub line: u32,
    /// 1-based column of the comment.
    pub col: u32,
    /// Why the comment was rejected.
    pub problem: String,
}

/// Everything the rules need to know about one file.
#[derive(Debug)]
pub struct FileModel {
    /// All tokens, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` items or `#[test]` functions.
    pub test_spans: Vec<(usize, usize)>,
    /// Every non-test function item with a body, in source order of its
    /// `fn` keyword (outer before nested).
    pub fns: Vec<FnItem>,
    /// Inner attributes (`#![...]`), rendered with their tokens joined
    /// without whitespace, e.g. `forbid(unsafe_code)`.
    pub inner_attrs: Vec<String>,
    /// Well-formed inline suppressions.
    pub suppressions: Vec<Suppression>,
    /// Ill-formed inline suppressions (reported as findings).
    pub malformed: Vec<MalformedSuppression>,
}

/// Keywords that can precede `(` without being a call.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "clone", "collect", "push"];
const VFS_OPS: &[&str] = &[
    "write",
    "append",
    "read",
    "sync_file",
    "sync_dir",
    "rename",
    "remove",
    "exists",
    "list",
    "len",
    "create_dir_all",
];

/// A `mod`/`impl`/`trait` scope: byte range of the braces plus the name
/// contributed to qualified ids inside it.
struct Scope {
    start: usize,
    end: usize,
    is_mod: bool,
    name: String,
}

impl FileModel {
    /// Builds the model for one file.
    pub fn build(file: &SourceFile) -> FileModel {
        let src = file.text.as_str();
        let tokens = lex(src);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let mut model = FileModel {
            tokens,
            code,
            test_spans: Vec::new(),
            fns: Vec::new(),
            inner_attrs: Vec::new(),
            suppressions: Vec::new(),
            malformed: Vec::new(),
        };
        model.scan_attributes(src);
        model.fns = model.scan_fns(file);
        model.scan_suppressions(src);
        model
    }

    /// True when the byte offset falls inside test-only code.
    pub fn in_test(&self, byte: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| byte >= s && byte < e)
    }

    /// The innermost non-test function whose body contains the byte
    /// offset.
    pub fn enclosing_fn(&self, byte: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| byte >= f.body.0 && byte < f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0)
    }

    /// The text of the code token at code-index `ci`, or `""` past the end.
    pub fn code_text<'a>(&self, src: &'a str, ci: usize) -> &'a str {
        match self.code.get(ci) {
            Some(&ti) => self.tokens[ti].text(src),
            None => "",
        }
    }

    /// The token at code-index `ci`.
    pub fn code_tok(&self, ci: usize) -> Option<&Token> {
        self.code.get(ci).map(|&ti| &self.tokens[ti])
    }

    /// True when a well-formed suppression for `rule` covers `line`.
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.rule == rule && (s.line == line || s.line + 1 == line))
    }

    fn is_ident(&self, ci: usize) -> bool {
        self.code_tok(ci)
            .is_some_and(|t| t.kind == TokenKind::Ident)
    }

    // --- attribute / test-span scanning ----------------------------------

    fn scan_attributes(&mut self, src: &str) {
        let mut ci = 0usize;
        while ci < self.code.len() {
            if self.code_text(src, ci) != "#" {
                ci += 1;
                continue;
            }
            if self.code_text(src, ci + 1) == "!" && self.code_text(src, ci + 2) == "[" {
                // Inner attribute: #![ ... ]
                let end = self.matching(src, ci + 2, "[", "]");
                let rendered = self.render(src, ci + 3, end);
                self.inner_attrs.push(rendered);
                ci = end + 1;
                continue;
            }
            if self.code_text(src, ci + 1) == "[" {
                // Outer attribute chain: one or more #[...], then an item.
                let attr_start_byte = match self.code_tok(ci) {
                    Some(t) => t.start,
                    None => break,
                };
                let mut any_test = false;
                let mut cur = ci;
                while self.code_text(src, cur) == "#" && self.code_text(src, cur + 1) == "[" {
                    let end = self.matching(src, cur + 1, "[", "]");
                    let rendered = self.render(src, cur + 2, end);
                    if rendered == "test" || is_cfg_test(&rendered) {
                        any_test = true;
                    }
                    cur = end + 1;
                }
                if any_test {
                    let item_end = self.item_end_byte(src, cur);
                    self.test_spans.push((attr_start_byte, item_end));
                }
                ci = cur;
                continue;
            }
            ci += 1;
        }
    }

    /// Code-index of the `close` delimiter matching the `open` one at
    /// code-index `at`, or the last code-index when unbalanced.
    fn matching(&self, src: &str, at: usize, open: &str, close: &str) -> usize {
        let mut depth = 0i32;
        for ci in at..self.code.len() {
            let text = self.code_text(src, ci);
            if text == open {
                depth += 1;
            } else if text == close {
                depth -= 1;
                if depth == 0 {
                    return ci;
                }
            }
        }
        self.code.len().saturating_sub(1)
    }

    /// The block opening at code-index `open`: the code-index of its
    /// matching `}` and its byte range, braces included.
    fn block(&self, src: &str, open: usize) -> (usize, (usize, usize)) {
        let close = self.matching(src, open, "{", "}");
        let start = self.code_tok(open).map_or(0, |t| t.start);
        let end = self.code_tok(close).map_or(src.len(), |t| t.end);
        (close, (start, end))
    }

    /// Joins the code tokens in `[from, to)` with no separators.
    fn render(&self, src: &str, from: usize, to: usize) -> String {
        let mut out = String::new();
        for ci in from..to.min(self.code.len()) {
            out.push_str(self.code_text(src, ci));
        }
        out
    }

    /// Byte offset one past the end of the item starting at code-index
    /// `ci`: the matching `}` of its first top-level brace, or the first
    /// top-level `;` for braceless items (`use`, `mod x;`, ...).
    fn item_end_byte(&self, src: &str, ci: usize) -> usize {
        let mut paren = 0i32;
        let mut bracket = 0i32;
        for cur in ci..self.code.len() {
            match self.code_text(src, cur) {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                ";" if paren == 0 && bracket == 0 => {
                    return self.code_tok(cur).map_or(src.len(), |t| t.end);
                }
                "{" if paren == 0 && bracket == 0 => return (self.block(src, cur).1).1,
                _ => {}
            }
        }
        src.len()
    }

    // --- scopes -------------------------------------------------------------

    /// Scans `mod name { .. }`, `impl [..] Type { .. }`, and
    /// `trait Name { .. }` scopes.
    fn scan_scopes(&self, src: &str) -> Vec<Scope> {
        let mut scopes = Vec::new();
        for ci in 0..self.code.len() {
            let (name, open, is_mod) = match self.code_text(src, ci) {
                "mod" if self.is_ident(ci + 1) && self.code_text(src, ci + 2) == "{" => {
                    (self.code_text(src, ci + 1).to_string(), ci + 2, true)
                }
                "impl" => match self.parse_impl_header(src, ci) {
                    Some((name, open)) => (name, open, false),
                    None => continue,
                },
                "trait" if self.is_ident(ci + 1) => {
                    // Walk to the opening brace (skipping bounds/generics);
                    // stop at `;` (associated `trait Alias = ..;` forms).
                    let open = (ci + 2..self.code.len())
                        .find(|&cur| matches!(self.code_text(src, cur), "{" | ";"))
                        .filter(|&cur| self.code_text(src, cur) == "{");
                    match open {
                        Some(open) => (self.code_text(src, ci + 1).to_string(), open, false),
                        None => continue,
                    }
                }
                _ => continue,
            };
            let (_, (start, end)) = self.block(src, open);
            scopes.push(Scope {
                start,
                end,
                is_mod,
                name,
            });
        }
        scopes
    }

    /// Parses an `impl` header starting at code-index `ci`: returns the
    /// implemented-on type name and the code-index of the body `{`.
    fn parse_impl_header(&self, src: &str, ci: usize) -> Option<(String, usize)> {
        let mut angle = 0i64;
        // The last type-position ident before and after `for`.
        let mut before_for: Option<&str> = None;
        let mut after_for: Option<&str> = None;
        let mut saw_for = false;
        for cur in ci + 1..self.code.len() {
            let text = self.code_text(src, cur);
            angle += match text {
                "<" => 1,
                "<<" => 2,
                ">" => -1,
                ">>" => -2,
                _ => 0,
            };
            if angle > 0 {
                continue;
            }
            let open = match text {
                "{" => cur,
                ";" => return None,
                // Idents in the where clause are bounds, not the type.
                "where" => (cur + 1..self.code.len()).find(|&i| self.code_text(src, i) == "{")?,
                "for" => {
                    saw_for = true;
                    continue;
                }
                _ => {
                    if self.is_ident(cur) && !KEYWORDS.contains(&text) {
                        *(if saw_for {
                            &mut after_for
                        } else {
                            &mut before_for
                        }) = Some(text);
                    }
                    continue;
                }
            };
            let name = if saw_for && after_for.is_some() {
                after_for
            } else {
                before_for
            };
            return Some((name?.to_string(), open));
        }
        None
    }

    // --- fn items -----------------------------------------------------------

    /// Lifts every non-test `fn` item with a body, then attributes each
    /// code token to the innermost enclosing fn (test fns included, so
    /// their events are dropped rather than leaking to an outer item).
    fn scan_fns(&self, file: &SourceFile) -> Vec<FnItem> {
        let src = file.text.as_str();
        let scopes = self.scan_scopes(src);
        let file_mods = file_module_path(&file.path);
        let krate = file_mods.first().cloned().unwrap_or_default();

        let mut items: Vec<FnItem> = Vec::new();
        let mut is_test: Vec<bool> = Vec::new();
        let mut owner: Vec<Option<usize>> = vec![None; self.code.len()];
        for ci in 0..self.code.len() {
            // `fn(...)` pointer types and `Fn(...)` bounds have no name.
            if self.code_text(src, ci) != "fn" || !self.is_ident(ci + 1) {
                continue;
            }
            let Some(sig) = self.signature(src, ci) else {
                continue; // bodyless: trait method or extern declaration
            };
            let (close, (start, end)) = self.block(src, sig.open);
            // Outer fns come first in keyword order, so nested bodies
            // overwrite: each token ends up owned by its innermost fn.
            for slot in &mut owner[sig.open..=close] {
                *slot = Some(items.len());
            }
            let mut mods = file_mods.clone();
            for s in &scopes {
                if s.is_mod && start >= s.start && start < s.end {
                    mods.push(s.name.clone());
                }
            }
            let self_ty = scopes
                .iter()
                .filter(|s| !s.is_mod && start >= s.start && start < s.end)
                .min_by_key(|s| s.end - s.start)
                .map(|s| s.name.clone())
                .unwrap_or_default();
            let name = self.code_text(src, ci + 1).to_string();
            let mut qualified = mods.join("::");
            if !self_ty.is_empty() {
                qualified.push_str("::");
                qualified.push_str(&self_ty);
            }
            qualified.push_str("::");
            qualified.push_str(&name);
            is_test.push(self.in_test(start));
            items.push(FnItem {
                file: file.path.clone(),
                name,
                self_ty,
                qualified,
                krate: krate.clone(),
                is_pub: self.fn_is_pub(src, ci),
                returns_result: sig.returns_result,
                line: self.code_tok(ci).map_or(1, |t| t.line),
                sig_f64: sig.f64,
                calls: Vec::new(),
                sinks: Vec::new(),
                vfs_ops: Vec::new(),
                first_math_ci: None,
                first_screen_ci: None,
                body: (start, end),
            });
        }

        for (ci, owner) in owner.into_iter().enumerate() {
            let (Some(k), Some(tok)) = (owner, self.code_tok(ci)) else {
                continue;
            };
            if is_test[k] {
                continue;
            }
            let item = &mut items[k];
            match tok.kind {
                TokenKind::Ident => self.scan_ident_event(src, ci, tok, item),
                TokenKind::Punct
                    if item.first_math_ci.is_none() && self.is_binary_arithmetic(src, ci) =>
                {
                    item.first_math_ci = Some(ci);
                }
                _ => {}
            }
        }
        items
            .into_iter()
            .zip(is_test)
            .filter_map(|(item, test)| (!test).then_some(item))
            .collect()
    }

    /// Walks the signature of the `fn` at code-index `fn_ci` to its body
    /// `{`; `None` for a bodyless declaration. `f64` counts from the start
    /// of the `fn` keyword's line (where/bounds included).
    fn signature(&self, src: &str, fn_ci: usize) -> Option<Signature> {
        let fn_line = self.code_tok(fn_ci)?.line;
        let mut sig = Signature {
            open: 0,
            returns_result: false,
            f64: (0..fn_ci)
                .rev()
                .map_while(|ci| self.code_tok(ci).filter(|t| t.line >= fn_line))
                .any(|t| t.text(src) == "f64"),
        };
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut saw_arrow = false;
        for cur in fn_ci + 1..self.code.len() {
            let text = self.code_text(src, cur);
            match text {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "->" if paren == 0 && bracket == 0 => saw_arrow = true,
                ";" if paren == 0 && bracket == 0 => return None,
                "{" if paren == 0 && bracket == 0 => {
                    sig.open = cur;
                    return Some(sig);
                }
                _ => sig.returns_result |= saw_arrow && text == "Result",
            }
            sig.f64 |= text == "f64";
        }
        None
    }

    /// Looks back over the modifier tokens preceding `fn` for a bare
    /// `pub`. Restricted visibility (`pub(crate)`, `pub(super)`, ...) is
    /// *not* public: those functions sit behind an already-screened
    /// module boundary.
    fn fn_is_pub(&self, src: &str, fn_ci: usize) -> bool {
        const MODIFIERS: &[&str] = &[
            "const", "unsafe", "async", "extern", "crate", "super", "self", "in", "(", ")",
        ];
        for back in 1..=fn_ci.min(10) {
            let text = self.code_text(src, fn_ci - back);
            if text == "pub" {
                return self.code_text(src, fn_ci - back + 1) != "(";
            }
            let is_abi_string = self
                .code_tok(fn_ci - back)
                .is_some_and(|t| t.kind == TokenKind::Str);
            if !MODIFIERS.contains(&text) && !is_abi_string {
                return false;
            }
        }
        false
    }

    /// Classifies one identifier token: call site, sink, VFS op, or nothing.
    fn scan_ident_event(&self, src: &str, ci: usize, tok: &Token, item: &mut FnItem) {
        let text = tok.text(src);
        let line = tok.line;
        let prev = if ci > 0 {
            self.code_text(src, ci - 1)
        } else {
            ""
        };
        let mut sink = |kind, what| {
            item.sinks.push(Sink {
                kind,
                what,
                line,
                ci,
            })
        };
        // Macros: `name!(..)` / `name!{..}` / `name![..]`.
        if self.code_text(src, ci + 1) == "!" {
            if PANIC_MACROS.contains(&text) {
                sink(SinkKind::Panic, format!("`{text}!`"));
            } else if text == "vec" || text == "format" {
                sink(SinkKind::Alloc, format!("allocating `{text}!`"));
            }
            return;
        }
        // `Vec::new`-style constructors allocate whether called here or
        // passed along uncalled (`.unwrap_or_else(Vec::new)`).
        let head = if ci >= 2 && prev == "::" {
            self.code_text(src, ci - 2)
        } else {
            ""
        };
        if matches!(head, "Vec" | "Box" | "String")
            && matches!(text, "new" | "with_capacity" | "from")
        {
            sink(SinkKind::Alloc, format!("allocating `{head}::{text}`"));
            return;
        }
        if !self.is_called(src, ci) {
            return;
        }
        if prev == "." {
            // Method call (or method-shaped sink).
            if PANIC_METHODS.contains(&text) {
                sink(SinkKind::Panic, format!("`.{text}()`"));
                return;
            }
            if ALLOC_METHODS.contains(&text) {
                // `.clone()` et al. never resolve to workspace fns by
                // path, but a workspace method may share the name; fall
                // through so the call edge exists too.
                sink(SinkKind::Alloc, format!("allocating `.{text}()`"));
            }
            let receiver = if ci >= 2 {
                self.code_text(src, ci - 2)
            } else {
                ""
            };
            if receiver == "vfs" && VFS_OPS.contains(&text) {
                item.vfs_ops.push(VfsOp {
                    op: text.to_string(),
                    arg: self.first_arg_ident(src, ci),
                    line,
                    ci,
                });
            }
            item.calls.push(CallSite {
                callee: Callee::Method {
                    name: text.to_string(),
                    on_self: receiver == "self",
                },
                line,
                ci,
            });
            return;
        }
        if KEYWORDS.contains(&text) || prev == "fn" {
            return;
        }
        // Path call: collect `a :: b :: name` going backward.
        let mut segments = vec![text.to_string()];
        let mut j = ci;
        while j >= 2 && self.code_text(src, j - 1) == "::" && self.is_ident(j - 2) {
            let seg = self.code_text(src, j - 2);
            if seg == "crate" || seg == "self" || seg == "super" {
                break;
            }
            segments.insert(0, normalize_crate_segment(seg));
            j -= 2;
        }
        if self.code_text(src, j.wrapping_sub(1)) == "fn" {
            return;
        }
        if item.first_screen_ci.is_none()
            && segments.len() >= 2
            && segments[segments.len() - 2] == "screen"
        {
            item.first_screen_ci = Some(ci);
        }
        item.calls.push(CallSite {
            callee: Callee::Path(segments),
            line,
            ci,
        });
    }

    /// True when the token at `ci` is immediately called: `name(..)` or the
    /// turbofish form `name::<T>(..)`.
    fn is_called(&self, src: &str, ci: usize) -> bool {
        if self.code_text(src, ci + 1) == "(" {
            return true;
        }
        if self.code_text(src, ci + 1) == "::" && self.code_text(src, ci + 2) == "<" {
            // Walk the turbofish generics to the matching `>`.
            let mut depth = 0i64;
            for cur in ci + 2..self.code.len() {
                match self.code_text(src, cur) {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    "<<" => depth += 2,
                    ">>" => depth -= 2,
                    _ => {}
                }
                if depth <= 0 {
                    return self.code_text(src, cur + 1) == "(";
                }
            }
        }
        false
    }

    /// The identifier at the head of a call's first argument, skipping `&`
    /// and `mut`: `(&tmp, ..)` → `tmp`.
    fn first_arg_ident(&self, src: &str, call_ci: usize) -> String {
        let mut cur = call_ci + 2; // skip `name` `(`
        while matches!(self.code_text(src, cur), "&" | "mut") {
            cur += 1;
        }
        if self.is_ident(cur) {
            self.code_text(src, cur).to_string()
        } else {
            String::new()
        }
    }

    /// True when the code token at `ci` can end a value expression
    /// (identifier, number, closing bracket) — separates binary operators
    /// from unary forms.
    fn is_value_like(&self, src: &str, ci: usize) -> bool {
        let Some(tok) = self.code_tok(ci) else {
            return false;
        };
        let text = tok.text(src);
        match tok.kind {
            TokenKind::Ident => !KEYWORDS.contains(&text),
            TokenKind::Number => true,
            _ => matches!(text, ")" | "]"),
        }
    }

    /// True when the punct at `ci` is a binary arithmetic operator or a
    /// compound assignment (same classification the screening rules use).
    fn is_binary_arithmetic(&self, src: &str, ci: usize) -> bool {
        let text = self.code_text(src, ci);
        if matches!(text, "+=" | "-=" | "*=" | "/=" | "%=") {
            return true;
        }
        matches!(text, "+" | "-" | "*" | "/" | "%") && ci > 0 && self.is_value_like(src, ci - 1)
    }

    // --- suppression scanning --------------------------------------------

    fn scan_suppressions(&mut self, src: &str) {
        const MARKER: &str = "bmf-lint:";
        for tok in &self.tokens {
            if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let text = tok.text(src);
            if is_doc_comment(text) {
                // Doc comments *describe* the suppression syntax (this
                // crate's own docs do); only plain comments suppress.
                continue;
            }
            let Some(pos) = text.find(MARKER) else {
                continue;
            };
            let rest = text[pos + MARKER.len()..].trim_start();
            match parse_allow(rest) {
                Ok(rule) => self.suppressions.push(Suppression {
                    rule,
                    line: tok.line,
                }),
                Err(problem) => self.malformed.push(MalformedSuppression {
                    line: tok.line,
                    col: tok.col,
                    problem,
                }),
            }
        }
    }
}

/// What the signature walk of one `fn` recovers.
struct Signature {
    /// Code-index of the body `{`.
    open: usize,
    /// Whether the return type mentions `Result`.
    returns_result: bool,
    /// Whether the signature mentions `f64`.
    f64: bool,
}

/// True for rustdoc comments: `///` (but not `////`), `//!`, `/**` (but
/// not `/***`), `/*!`.
fn is_doc_comment(text: &str) -> bool {
    (text.starts_with("///") && !text.starts_with("////"))
        || text.starts_with("//!")
        || (text.starts_with("/**") && !text.starts_with("/***") && text != "/**/")
        || text.starts_with("/*!")
}

/// Parses the tail of a suppression comment: `allow(<rule>) -- <reason>`.
fn parse_allow(rest: &str) -> Result<String, String> {
    let Some(inner) = rest.strip_prefix("allow(") else {
        return Err("expected `allow(<rule>) -- <reason>` after `bmf-lint:`".to_string());
    };
    let Some(close) = inner.find(')') else {
        return Err("unclosed `allow(` in suppression".to_string());
    };
    let rule = inner[..close].trim().to_string();
    if rule.is_empty() {
        return Err("empty rule name in `allow()`".to_string());
    }
    let tail = inner[close + 1..].trim_start();
    let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
    // Block comments may carry a trailing `*/`; a reason of only that is
    // still empty.
    let reason = reason.trim_end_matches("*/").trim();
    if reason.is_empty() {
        return Err(format!(
            "suppression for `{rule}` is missing its reason (`-- <reason>` is required)"
        ));
    }
    Ok(rule)
}

/// True when a rendered attribute body is a `cfg(...)` whose condition
/// mentions the bare `test` predicate (covers `cfg(test)` and composites
/// like `cfg(any(test, feature="x"))`).
fn is_cfg_test(rendered: &str) -> bool {
    let Some(body) = rendered.strip_prefix("cfg(") else {
        return false;
    };
    // Token-joined rendering has no spaces, so `test` appears delimited
    // by punctuation only.
    let bytes = body.as_bytes();
    let mut i = 0usize;
    while let Some(pos) = body[i..].find("test") {
        let at = i + pos;
        let before_ok = at == 0 || !bytes[at - 1].is_ascii_alphanumeric() && bytes[at - 1] != b'_';
        let after = at + 4;
        let after_ok =
            after >= bytes.len() || !bytes[after].is_ascii_alphanumeric() && bytes[after] != b'_';
        if before_ok && after_ok {
            return true;
        }
        i = at + 4;
    }
    false
}

/// Rewrites a leading `bmf_x` crate segment to the short name the rest of
/// the lint uses (`bmf_core` → `core`).
fn normalize_crate_segment(seg: &str) -> String {
    seg.strip_prefix("bmf_").unwrap_or(seg).to_string()
}

/// Module path derived from the file path: `crates/x/src/a/b.rs` →
/// `[x, a, b]`, `src/lib.rs` → `[root]`.
fn file_module_path(path: &str) -> Vec<String> {
    let (krate, rest) = if let Some(rest) = path.strip_prefix("crates/") {
        let mut parts = rest.splitn(2, '/');
        let name = parts.next().unwrap_or("").to_string();
        (name, parts.next().unwrap_or(""))
    } else if let Some(rest) = path.strip_prefix("src/") {
        ("root".to_string(), rest)
    } else {
        (String::new(), path)
    };
    let rest = rest.strip_prefix("src/").unwrap_or(rest);
    let mut out = Vec::new();
    if !krate.is_empty() {
        out.push(krate);
    }
    for comp in rest.split('/') {
        let comp = comp.strip_suffix(".rs").unwrap_or(comp);
        if comp.is_empty() || comp == "lib" || comp == "mod" || comp == "main" {
            continue;
        }
        out.push(comp.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(path: &str, src: &str) -> FileModel {
        FileModel::build(&SourceFile {
            path: path.to_string(),
            text: src.to_string(),
        })
    }

    fn parse(path: &str, src: &str) -> Vec<FnItem> {
        model(path, src).fns
    }

    #[test]
    fn cfg_test_items_are_test_spans() {
        let src = "fn live() { work(); }\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\n";
        let m = model("crates/core/src/demo.rs", src);
        let unwrap_at = src.find("unwrap").unwrap();
        assert!(m.in_test(unwrap_at));
        let work_at = src.find("work").unwrap();
        assert!(!m.in_test(work_at));
    }

    #[test]
    fn test_attr_fn_is_a_test_span() {
        let src = "#[test]\nfn check() { assert!(true); }\nfn live() {}\n";
        let m = model("crates/core/src/demo.rs", src);
        assert!(m.in_test(src.find("assert").unwrap()));
        assert!(!m.in_test(src.find("live").unwrap()));
    }

    #[test]
    fn fn_items_carry_name_visibility_and_signature_facts() {
        let src = "pub fn solve(a: f64) -> Result<f64, E> { inner() }\nfn inner() -> u32 { 1 }\ntrait T { fn bodyless(&self); }\n";
        let items = parse("crates/core/src/demo.rs", src);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name, "solve");
        assert!(items[0].is_pub && items[0].returns_result && items[0].sig_f64);
        assert!(!items[1].is_pub && !items[1].returns_result && !items[1].sig_f64);
    }

    #[test]
    fn nested_fns_resolve_to_innermost() {
        let src = "fn outer() { fn inner() { mark(); } inner(); }";
        let m = model("crates/core/src/demo.rs", src);
        let mark_at = src.find("mark").unwrap();
        assert_eq!(
            m.enclosing_fn(mark_at).map(|f| f.name.as_str()),
            Some("inner")
        );
        assert_eq!(m.fns[0].calls.len(), 1, "{:?}", m.fns[0].calls);
        assert_eq!(m.fns[1].calls.len(), 1, "{:?}", m.fns[1].calls);
    }

    #[test]
    fn inner_attrs_are_rendered() {
        let src = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\nfn f() {}\n";
        let m = model("crates/core/src/demo.rs", src);
        assert_eq!(
            m.inner_attrs,
            vec!["forbid(unsafe_code)", "deny(missing_docs)"]
        );
    }

    #[test]
    fn suppressions_need_reasons() {
        let good = "// bmf-lint: allow(no-float-eq) -- exact sentinel comparison\nlet x = 1;";
        let m = model("crates/core/src/demo.rs", good);
        assert_eq!(m.suppressions.len(), 1);
        assert!(m.suppressed("no-float-eq", 1));
        assert!(m.suppressed("no-float-eq", 2));
        assert!(!m.suppressed("no-float-eq", 3));
        assert!(!m.suppressed("panic-reachability", 2));

        let bad = "// bmf-lint: allow(no-float-eq)\nlet x = 1;";
        let m = model("crates/core/src/demo.rs", bad);
        assert!(m.suppressions.is_empty());
        assert_eq!(m.malformed.len(), 1);
    }

    #[test]
    fn cfg_test_matcher_is_token_aware() {
        assert!(is_cfg_test("cfg(test)"));
        assert!(is_cfg_test("cfg(any(test,feature=\"x\"))"));
        assert!(!is_cfg_test("cfg(feature=\"testing\")"));
        assert!(!is_cfg_test("cfg(attest)"));
    }

    #[test]
    fn qualified_names_cover_mods_impls_and_traits() {
        let src = "pub struct S;\nimpl S {\n    pub fn m(&self) {}\n}\nmod inner {\n    fn helper() {}\n}\ntrait T {\n    fn d(&self) { () }\n}\nfn free() {}\n";
        let items = parse("crates/core/src/demo.rs", src);
        let ids: Vec<&str> = items.iter().map(|i| i.qualified.as_str()).collect();
        assert!(ids.contains(&"core::demo::S::m"), "{ids:?}");
        assert!(ids.contains(&"core::demo::inner::helper"), "{ids:?}");
        assert!(ids.contains(&"core::demo::T::d"), "{ids:?}");
        assert!(ids.contains(&"core::demo::free"), "{ids:?}");
    }

    #[test]
    fn calls_sinks_and_order_are_recovered() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    helper();\n    bmf_core::screen::check(1);\n    self_thing.method_a();\n    x.unwrap()\n}\nfn helper() {}\n";
        let items = parse("crates/core/src/demo.rs", src);
        let f = &items[0];
        assert_eq!(f.calls.len(), 3, "{:?}", f.calls);
        assert_eq!(f.calls[0].callee, Callee::Path(vec!["helper".to_string()]));
        assert_eq!(
            f.calls[1].callee,
            Callee::Path(vec![
                "core".to_string(),
                "screen".to_string(),
                "check".to_string()
            ])
        );
        assert!(matches!(
            &f.calls[2].callee,
            Callee::Method { name, on_self: false } if name == "method_a"
        ));
        assert_eq!(f.sinks.len(), 1);
        assert_eq!(f.sinks[0].kind, SinkKind::Panic);
        assert!(f.first_screen_ci.is_some());
        assert!(f.calls[1].ci < f.sinks[0].ci);
    }

    #[test]
    fn uncalled_constructors_are_alloc_sinks() {
        let src = "fn f(x: Option<Vec<f64>>) -> Vec<f64> { x.unwrap_or_else(Vec::new) }\n";
        let items = parse("crates/core/src/demo.rs", src);
        let whats: Vec<&str> = items[0].sinks.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(whats, vec!["allocating `Vec::new`"]);
        assert_eq!(items[0].calls.len(), 1, "{:?}", items[0].calls);
    }

    #[test]
    fn vfs_ops_capture_op_and_first_arg() {
        let src = "impl Store {\n    fn put(&self) {\n        self.vfs.write(&tmp, bytes);\n        self.vfs.sync_file(&tmp);\n        self.vfs.rename(&tmp, &blob);\n        self.vfs.sync_dir(&root);\n    }\n}\n";
        let items = parse("crates/persist/src/store.rs", src);
        let ops: Vec<(&str, &str)> = items[0]
            .vfs_ops
            .iter()
            .map(|o| (o.op.as_str(), o.arg.as_str()))
            .collect();
        assert_eq!(
            ops,
            vec![
                ("write", "tmp"),
                ("sync_file", "tmp"),
                ("rename", "tmp"),
                ("sync_dir", "root")
            ]
        );
    }

    #[test]
    fn test_code_is_invisible() {
        let src = "fn live() { helper(); }\nfn helper() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let items = parse("crates/core/src/demo.rs", src);
        assert_eq!(items.len(), 2);
        assert!(items.iter().all(|i| i.sinks.is_empty()));
    }

    #[test]
    fn turbofish_calls_are_calls() {
        let src = "fn f() { parse::<u32>(\"1\"); }\nfn parse() {}\n";
        let items = parse("crates/core/src/demo.rs", src);
        assert_eq!(items[0].calls.len(), 1);
    }

    #[test]
    fn module_paths_from_file_layout() {
        assert_eq!(file_module_path("crates/core/src/lib.rs"), vec!["core"]);
        assert_eq!(
            file_module_path("crates/core/src/a/b.rs"),
            vec!["core", "a", "b"]
        );
        assert_eq!(
            file_module_path("crates/core/src/a/mod.rs"),
            vec!["core", "a"]
        );
        assert_eq!(file_module_path("src/lib.rs"), vec!["root"]);
    }
}
