// Positive fixture (linted as crates/core/src/fixture.rs): the `_into`
// kernel allocates nothing in its own body, but the helper it calls
// builds a fresh Vec on every invocation.

pub fn scale_into(out: &mut [f64], xs: &[f64]) {
    let w = weights(xs.len());
    for (o, (x, wi)) in out.iter_mut().zip(xs.iter().zip(w.iter())) {
        *o = *x * *wi;
    }
}

fn weights(n: usize) -> Vec<f64> {
    vec![1.0; n]
}

// Allocations written in the kernel itself: a `vec!` literal, and a
// constructor passed along uncalled.

pub fn accumulate_into(out: &mut [f64], xs: &[f64]) {
    let tmp = vec![0.0; xs.len()];
    for (o, (t, x)) in out.iter_mut().zip(tmp.iter().zip(xs)) {
        *o = *t + *x;
    }
}

pub fn refill_into(out: &mut Vec<f64>, fresh: Option<Vec<f64>>) {
    *out = fresh.unwrap_or_else(Vec::new);
}
