//! The reference kernel: a fixed computation of the benchmark's own,
//! timed on the same thread between a workload's operations.
//!
//! Other guests of the host slow this machine's cores for seconds to
//! minutes at a time. On the 2-vCPU Xeon VM the benchmark was defined
//! on, a plain compute loop ran at half speed for stretches of up to
//! three minutes with no CPU time stolen, and the same K=300 fit took
//! 1.03 s in one minute and 1.6 s in the next. A time measured alone
//! then says more about the neighbours than about the code. Divided by
//! the reference's time, measured moments before and after on the same
//! core, most of that cancels; a change to the library moves only the
//! numerator, since the reference calls no library code.
//!
//! The reference is a Gram matrix `A Aᵀ` (lower triangle) of a fixed
//! `rows × cols` matrix, repeated `reps` times: dot products, the
//! operation that dominates every workload's fits. A workload whose
//! operations are mostly lookups adds a chase through a random cycle
//! ([`Reference::with_chase`]): pure arithmetic slowed more than the
//! service did when the host got busy, so their ratio moved with the
//! host.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// A fixed Gram-matrix computation.
#[derive(Debug, Clone)]
pub struct Reference {
    a: Vec<f64>,
    rows: usize,
    cols: usize,
    reps: usize,
    /// `next[i]` is the entry after `i` on one cycle through all.
    next: Vec<u32>,
    chase_steps: usize,
}

impl Reference {
    /// The Gram matrix of a `rows × cols` matrix, `reps` times per run.
    pub fn new(rows: usize, cols: usize, reps: usize) -> Self {
        let a = (0..rows * cols)
            .map(|i| ((i * 7919) % 1009) as f64 / 1009.0 - 0.5)
            .collect();
        Reference {
            a,
            rows,
            cols,
            reps: reps.max(1),
            next: Vec::new(),
            chase_steps: 0,
        }
    }

    /// Adds `steps` dependent loads per run, along one pseudo-random
    /// cycle through `2^log2_len` entries (`i ↦ a·i + c mod 2^k` with
    /// `a ≡ 1 mod 4` and odd `c` has a single cycle).
    pub fn with_chase(mut self, log2_len: u32, steps: usize) -> Self {
        let mask = (1u64 << log2_len) - 1;
        self.next = (0..=mask)
            .map(|i| (i.wrapping_mul(2_654_435_761).wrapping_add(12_345) & mask) as u32)
            .collect();
        self.chase_steps = steps;
        self
    }

    /// One run; returns the sum of the lower triangle of every Gram
    /// matrix, so none of the work can be skipped.
    pub fn run(&self) -> f64 {
        let a = black_box(&self.a);
        let mut at = 0usize;
        if !self.next.is_empty() {
            for _ in 0..self.chase_steps {
                at = self.next[at] as usize;
            }
        }
        let mut total = at as f64;
        for _ in 0..self.reps {
            for i in 0..self.rows {
                let x = &a[i * self.cols..(i + 1) * self.cols];
                for j in 0..=i {
                    let y = &a[j * self.cols..(j + 1) * self.cols];
                    // Eight independent partial sums, so the loop
                    // vectorises like a tuned dot product.
                    let mut acc = [0.0f64; 8];
                    let (xc, yc) = (x.chunks_exact(8), y.chunks_exact(8));
                    let tail: f64 = xc
                        .remainder()
                        .iter()
                        .zip(yc.remainder())
                        .map(|(p, q)| p * q)
                        .sum();
                    for (p, q) in xc.zip(yc) {
                        for k in 0..8 {
                            acc[k] += p[k] * q[k];
                        }
                    }
                    total += acc.iter().sum::<f64>() + tail;
                }
            }
        }
        total
    }

    /// Seconds one run takes now.
    pub fn time(&self) -> f64 {
        let t = Instant::now();
        black_box(self.run());
        t.elapsed().as_secs_f64()
    }
}

/// Times the reference at the boundaries of measurement windows, and
/// wherever the workload pauses inside one, and keeps per window the
/// time per operation over the window's mean reference time.
#[derive(Debug)]
pub struct Paced {
    reference: Reference,
    /// Reference times of the open window, its opening one first.
    window: Vec<f64>,
    ratios: Vec<f64>,
    reference_s: Vec<f64>,
}

impl Paced {
    /// Times the reference once, opening the first window.
    pub fn new(reference: Reference) -> Self {
        // One untimed run first, so the timed one finds warm caches.
        black_box(reference.run());
        let first = reference.time();
        Paced {
            reference,
            window: vec![first],
            ratios: Vec::new(),
            reference_s: vec![first],
        }
    }

    /// Times the reference inside the open window, where the workload
    /// is not being timed.
    pub fn sample(&mut self) {
        let t = self.reference.time();
        self.window.push(t);
        self.reference_s.push(t);
    }

    /// Closes a window in which `ops` operations took `secs` seconds:
    /// times the reference again and records the time per operation
    /// over the mean reference time of the window. The reference time
    /// also opens the next window; the caller starts timing that one
    /// after this returns.
    pub fn close(&mut self, secs: f64, ops: f64) {
        self.sample();
        let reference = self.window.iter().sum::<f64>() / self.window.len() as f64;
        if ops > 0.0 && reference > 0.0 {
            self.ratios.push(secs / ops / reference);
        }
        // The closing reference time also opens the next window.
        self.window.drain(..self.window.len() - 1);
    }

    /// Median over windows of the time per operation in reference
    /// runs (0 before any window closed).
    pub fn cost(&self) -> f64 {
        median(&mut self.ratios.clone())
    }

    /// Median reference time in seconds.
    pub fn reference_s(&self) -> f64 {
        median(&mut self.reference_s.clone())
    }
}

/// Set-up times at the reference speed.
///
/// `setup_s` is in seconds, and raw set-up seconds of the same code
/// moved by a third or more between two ten-run sets as the host's load
/// changed. So each set-up runs between two runs of the reference, and
/// its wall time is scaled by `nominal_s` over their mean, where
/// `nominal_s` is the reference's time on an uncontended core of the
/// 2-vCPU Xeon VM the benchmark was defined on: on such a core the
/// scaled and the wall time agree.
#[derive(Debug)]
pub struct SetupClock {
    reference: Reference,
    nominal_s: f64,
    scaled: Vec<f64>,
    wall: Vec<f64>,
}

impl SetupClock {
    /// A clock scaling by `reference`, whose uncontended time is
    /// `nominal_s`.
    pub fn new(reference: Reference, nominal_s: f64) -> Self {
        black_box(reference.run());
        SetupClock {
            reference,
            nominal_s,
            scaled: Vec::new(),
            wall: Vec::new(),
        }
    }

    /// Runs the set-up `f` between two runs of the reference and
    /// records its time.
    pub fn time<T, E>(&mut self, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let before = self.reference.time();
        let t = Instant::now();
        let r = f();
        let wall = t.elapsed().as_secs_f64();
        let reference = 0.5 * (before + self.reference.time());
        self.wall.push(wall);
        self.scaled.push(wall * self.nominal_s / reference);
        r
    }

    /// Median set-up time at the reference speed, in seconds.
    pub fn setup_s(&self) -> f64 {
        median(&mut self.scaled.clone())
    }

    /// Median set-up wall time, in seconds.
    pub fn wall_s(&self) -> f64 {
        median(&mut self.wall.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_repeats_and_scales_with_reps() {
        let one = Reference::new(8, 13, 1);
        let three = Reference::new(8, 13, 3);
        assert_eq!(one.run().to_bits(), one.run().to_bits());
        assert!((three.run() - 3.0 * one.run()).abs() <= 1e-9 * one.run().abs().max(1.0));
    }

    #[test]
    fn the_chase_visits_every_entry_once_per_cycle() {
        let r = Reference::new(2, 2, 1).with_chase(10, 0);
        let mut seen = vec![false; 1 << 10];
        let mut at = 0usize;
        for _ in 0..1 << 10 {
            assert!(!seen[at]);
            seen[at] = true;
            at = r.next[at] as usize;
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn paced_windows_divide_by_the_reference() {
        let mut p = Paced::new(Reference::new(4, 4, 1));
        p.close(1.0, 4.0);
        p.sample();
        p.close(2.0, 0.0);
        assert_eq!(p.ratios.len(), 1);
        assert!(p.cost() > 0.0);
        assert_eq!(p.reference_s.len(), 4);
        assert_eq!(p.window.len(), 1);
    }

    #[test]
    fn setup_clock_scales_wall_time_by_the_reference() {
        let reference = Reference::new(16, 16, 4);
        let nominal = reference.time();
        let mut c = SetupClock::new(reference, nominal);
        let v: Result<u8, ()> = c.time(|| Ok(7));
        assert_eq!(v, Ok(7));
        assert!(c.time(|| Err::<(), _>("set-up failed")).is_err());
        assert_eq!(c.wall.len(), 2);
        assert!(c.setup_s() > 0.0 && c.wall_s() > 0.0);
    }
}
