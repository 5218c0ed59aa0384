//! Reusable solve workspaces for the fitting stack (DESIGN.md §9).
//!
//! Cross-validation solves the same MAP system hundreds of times per fit
//! (`folds × grid × families` cells plus the final full-data solve).
//! Before this module each solve allocated its own right-hand side,
//! Woodbury intermediates, and fold-local response copies; now a single
//! [`SolveWorkspace`] owns every scratch buffer and is threaded through
//! the grid loops, so steady-state fitting performs no per-solve heap
//! allocation.
//!
//! Safety model: every kernel that writes into a workspace buffer fully
//! overwrites it (see `bmf_linalg::view`), so stale contents from a
//! previous solve — even one of a different shape — can never leak into
//! a result. The property tests in `crates/linalg/tests/view_properties.rs`
//! reuse one scratch across randomized shapes to pin this down.

use bmf_linalg::woodbury::WoodburyScratch;
use bmf_linalg::{LadderScratch, Matrix};

/// Caller-owned scratch for a whole cross-validated fit.
///
/// One workspace serves every `(fold, grid, family)` cell of a sweep and
/// the final full-data solve; buffers grow to the high-water mark of the
/// problem (`O(M + (K + missing)²)`) on first use and are reused
/// thereafter. The two sub-scratches are split so a fold sweep can
/// borrow its gathered responses while the MAP solver borrows its own
/// buffers mutably.
#[derive(Debug, Clone, Default)]
pub struct SolveWorkspace {
    /// Buffers for individual MAP solves (shared by the direct, fast,
    /// and swept solvers).
    pub(crate) map: MapScratch,
    /// Fold-local gathers and validation predictions.
    pub(crate) fold: FoldScratch,
}

impl SolveWorkspace {
    /// Creates an empty workspace; buffers are sized lazily by the first
    /// solve that uses them.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a workspace pre-sized for a `K × M` design matrix, so not
    /// even the first solve allocates mid-loop.
    pub fn for_problem(k: usize, m: usize) -> Self {
        let mut ws = Self::new();
        ws.map.rhs.reserve(m);
        ws.map.dt_inv.reserve(m);
        ws.map.t.reserve(m);
        ws.map.y.reserve(k + m);
        ws.map.uy.reserve(m);
        ws.fold.f_train.reserve(k);
        ws.fold.f_val.reserve(k);
        ws.fold.alpha.reserve(m);
        ws.fold.pred.reserve(k);
        ws
    }
}

/// Scratch for one MAP solve: the right-hand side, the Woodbury
/// intermediates of the sweep solver, and the assembled core system.
#[derive(Debug, Clone, Default)]
pub(crate) struct MapScratch {
    /// `Gᵀf + prior contribution` (length M). The sweep solver keeps
    /// `Gᵀf` alone here, shared by every grid point and prior family.
    pub(crate) rhs: Vec<f64>,
    /// Inverse modified prior precisions (length M).
    pub(crate) dt_inv: Vec<f64>,
    /// `D̃⁻¹·rhs` (length M).
    pub(crate) t: Vec<f64>,
    /// Core right-hand side `[G·t; t_Z]`, solved in place into the
    /// core-system solution (length K + missing).
    pub(crate) y: Vec<f64>,
    /// `Gᵀ·y₁` back-projection (length M).
    pub(crate) uy: Vec<f64>,
    /// The assembled core system (K×K, (K+missing)², or M×M for the
    /// direct solver), factorized in place.
    pub(crate) core: Matrix,
    /// LU pivot permutation for the augmented core (and for the LU rung
    /// of the degradation ladder).
    pub(crate) perm: Vec<usize>,
    /// Snapshot/rhs buffers for the solver degradation ladder.
    pub(crate) ladder: LadderScratch,
    /// Scratch for `bmf_linalg::woodbury`'s `_into` entry points.
    pub(crate) woodbury: WoodburyScratch,
}

/// Caller-owned scratch for the sequential (streaming) estimator.
///
/// Threaded through [`SequentialBmf`](crate::sequential::SequentialBmf)
/// exactly like [`SolveWorkspace`] is threaded through the batch stack:
/// one workspace serves every `add_sample` / `coefficients_into` /
/// `suggest_next` call on a stream, buffers grow to the high-water mark
/// (`O(M + K)`) and are reused thereafter. With
/// [`SeqWorkspace::for_problem`] sized up front, steady-state streaming
/// performs zero heap allocations per absorbed sample — asserted under
/// the counting allocator by the sequential bench's `--smoke` run.
#[derive(Debug, Clone, Default)]
pub struct SeqWorkspace {
    /// New core column `G D⁻¹ g_newᵀ` (length K).
    pub(crate) w: Vec<f64>,
    /// `Gᵀf + prior contribution` (length M).
    pub(crate) rhs: Vec<f64>,
    /// `D⁻¹·rhs` (length M).
    pub(crate) t: Vec<f64>,
    /// Core-system solution `core⁻¹(G·t)` (length K).
    pub(crate) y: Vec<f64>,
    /// `Gᵀ·y` back-projection (length M).
    pub(crate) uy: Vec<f64>,
    /// Candidate projection `G D⁻¹ g` for variance queries (length K).
    pub(crate) u: Vec<f64>,
}

impl SeqWorkspace {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a workspace pre-sized for `k` samples over `m`
    /// coefficients, so not even the first update allocates.
    pub fn for_problem(k: usize, m: usize) -> Self {
        let mut ws = Self::new();
        ws.w.reserve(k);
        ws.rhs.reserve(m);
        ws.t.reserve(m);
        ws.y.reserve(k);
        ws.uy.reserve(m);
        ws.u.reserve(k);
        ws
    }
}

/// Fold-local buffers for one cross-validation sweep.
#[derive(Debug, Clone, Default)]
pub(crate) struct FoldScratch {
    /// Response gathered over the fold's training rows.
    pub(crate) f_train: Vec<f64>,
    /// Response gathered over the fold's validation rows.
    pub(crate) f_val: Vec<f64>,
    /// MAP coefficients for the current grid cell (length M).
    pub(crate) alpha: Vec<f64>,
    /// Predictions on the validation rows.
    pub(crate) pred: Vec<f64>,
}

/// Clears and zero-fills `buf` to length `n`, reusing its capacity.
pub(crate) fn resize(buf: &mut Vec<f64>, n: usize) {
    buf.clear();
    buf.resize(n, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_problem_reserves_without_len() {
        let ws = SolveWorkspace::for_problem(8, 32);
        assert!(ws.map.rhs.capacity() >= 32);
        assert!(ws.map.y.capacity() >= 40);
        assert!(ws.fold.f_train.capacity() >= 8);
        assert!(ws.map.rhs.is_empty());
    }

    #[test]
    fn resize_reuses_capacity() {
        let mut buf = vec![1.0; 64];
        let ptr = buf.as_ptr();
        resize(&mut buf, 16);
        assert_eq!(buf, vec![0.0; 16]);
        assert_eq!(buf.as_ptr(), ptr, "capacity must be reused");
    }
}
