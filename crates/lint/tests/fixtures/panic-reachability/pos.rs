// Positive fixture (linted as crates/core/src/fixture.rs): the public
// entry point is panic-free in its own body, but a private helper two
// calls down still unwraps, so callers can observe an abort instead of
// an error. The helper is flagged itself, the entry point by its chain.

pub fn fit(xs: &[f64]) -> f64 {
    prepare(xs)
}

fn prepare(xs: &[f64]) -> f64 {
    head(xs)
}

fn head(xs: &[f64]) -> f64 {
    xs.first().copied().unwrap()
}

// Panic constructs written directly in public fns.

pub fn first(xs: &[f64]) -> f64 {
    xs.first().copied().unwrap()
}

pub fn checked(flag: bool) -> u32 {
    if flag {
        panic!("boom");
    }
    0
}

// A trait-impl method: never `pub`, reached only through dynamic
// formatting, still flagged at its own fn.

use std::fmt;

pub struct Label(Option<String>);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0.as_deref().unwrap())
    }
}
