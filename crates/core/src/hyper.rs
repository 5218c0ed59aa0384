//! Hyper-parameter selection by N-fold cross-validation (§IV-D).
//!
//! The hyper-parameter (`σ₀²` for the zero-mean prior, `η = σ₀²/λ²` for
//! the nonzero-mean prior) controls how strongly the prior is weighted
//! against the late-stage data. Following the paper, it is chosen from a
//! grid by N-fold cross-validation: split the K training samples into N
//! non-overlapping groups; fit on N−1 groups, estimate the relative error
//! (eq. 59) on the held-out group; average over the N rotations; pick the
//! grid value with the smallest mean error.
//!
//! Three layers of work-sharing keep the sweep cheap, all bit-identical
//! to solving every `(fold, grid, family)` cell from scratch:
//!
//! * a [`FoldPlan`] computes the per-fold row index tables **once**;
//!   the fold "sub-matrices" are zero-copy row views of the one shared
//!   design matrix, reused across every grid point, both prior
//!   families, and (through [`crate::batch::BatchFitter`]) every job of
//!   a batch fit;
//! * the Θ(K²M) Woodbury kernels are built **once per fit** over all K
//!   rows; each fold's [`MapSweep`] takes its kernels as the principal
//!   sub-block on its training rows, so a fold costs Θ(K²) to set up;
//! * per fold, `Gᵀf` is projected once, and per grid point the core is
//!   factored once and shared by both prior families, so a grid point
//!   costs one factorization plus Θ(KM) matvecs per family.

use bmf_linalg::view::matvec_into;
use bmf_linalg::{Matrix, Vector};
use bmf_stat::crossval::KFold;

use crate::fusion::FitCounters;
use crate::map_estimate::MapSweep;
use crate::options::{validate_folds, validate_grid};
use crate::prior::{Prior, PriorKind};
use crate::workspace::{resize, SolveWorkspace};
use crate::{BmfError, Result};

/// Cross-validation configuration.
///
/// This is the cross-validation slice of
/// [`FitOptions`](crate::options::FitOptions); the standalone
/// `cross_validate_*` entry points keep accepting it directly.
#[derive(Debug, Clone, PartialEq)]
pub struct CvConfig {
    /// Number of folds (the paper's `N`).
    pub folds: usize,
    /// Candidate hyper-parameter values. Must be positive.
    pub grid: Vec<f64>,
    /// Seed for the fold shuffle.
    pub seed: u64,
}

impl Default for CvConfig {
    fn default() -> Self {
        CvConfig {
            folds: 5,
            grid: log_grid(1e-4, 1e4, 17),
            seed: 0,
        }
    }
}

/// Builds a logarithmically spaced grid from `lo` to `hi` inclusive.
///
/// # Panics
///
/// Panics when `lo` or `hi` is not positive, or `n < 2`.
///
/// ```
/// let g = bmf_core::hyper::log_grid(0.01, 100.0, 5);
/// assert_eq!(g.len(), 5);
/// assert!((g[2] - 1.0).abs() < 1e-12);
/// ```
pub fn log_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
    assert!(n >= 2, "need at least two grid points");
    let llo = lo.ln();
    let lhi = hi.ln();
    (0..n)
        .map(|i| (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// Outcome of a cross-validation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CvOutcome {
    /// The grid value with the lowest mean validation error.
    pub best_hyper: f64,
    /// The corresponding mean validation error.
    pub best_error: f64,
    /// Mean validation error for every grid value, in grid order.
    pub errors: Vec<(f64, f64)>,
}

/// One fold's row selection, as indices into the shared design matrix.
///
/// The fitting engines view `G` through these index tables
/// ([`Matrix::rows_view`]) instead of materializing per-fold copies —
/// the fold "sub-matrices" are zero-copy and always in sync with the
/// one shared `G`.
#[derive(Debug, Clone)]
pub(crate) struct PlannedFold {
    /// Row indices used for training in this fold.
    pub(crate) train: Vec<usize>,
    /// Row indices held out for validation.
    pub(crate) validate: Vec<usize>,
}

/// The per-fold row selections for one `(K, folds, seed)` triple.
#[derive(Debug, Clone)]
pub(crate) struct FoldPlan {
    pub(crate) folds: Vec<PlannedFold>,
}

impl FoldPlan {
    /// Splits `k` sample rows into `folds` seeded folds.
    pub(crate) fn new(k: usize, folds: usize, seed: u64) -> Result<Self> {
        let kfold = KFold::new(k, folds, seed).map_err(|_| BmfError::NotEnoughSamples {
            available: k,
            required: folds,
            context: "cross-validation folds",
        })?;
        let folds = kfold
            .iter()
            .map(|fold| PlannedFold {
                train: fold.train,
                validate: fold.validate,
            })
            .collect();
        Ok(FoldPlan { folds })
    }
}

/// Validation errors of one fold: `errors[kind][grid]`, `None` where the
/// (hyper-dependent) solve failed structurally. A fold that is too small
/// for the missing-prior block is represented as `None` at the fold
/// level (see [`sweep_fold`]).
pub(crate) type FoldErrors = Vec<Vec<Option<f64>>>;

/// Sweeps one fold over the whole grid for each requested prior family,
/// reusing `sweep`'s Woodbury kernels for every `(grid, kind)` cell.
///
/// `Gᵀf` of the fold's training responses is computed once per fold and
/// the core is factored once per grid point; every family then solves
/// against that one factor. The responses are gathered into (and every
/// solve runs out of) `ws`; the validation sub-matrix is a zero-copy row
/// view of the shared `g`. `counters.map_solves` and the resilience
/// record are incremented per successful cell; kernel-build accounting
/// belongs to whoever constructed `sweep`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_fold(
    sweep: &MapSweep<'_>,
    g: &Matrix,
    fold: &PlannedFold,
    f: &Vector,
    grid: &[f64],
    kinds: &[PriorKind],
    counters: &mut FitCounters,
    ws: &mut SolveWorkspace,
) -> Result<FoldErrors> {
    // Split the workspace so the fold buffers and the MAP scratch can be
    // borrowed simultaneously (the solver never touches fold buffers).
    let SolveWorkspace { map, fold: fs } = ws;
    fs.f_train.clear();
    fs.f_train.extend(fold.train.iter().map(|&i| f[i]));
    fs.f_val.clear();
    fs.f_val.extend(fold.validate.iter().map(|&i| f[i]));
    let g_val = g.rows_view(&fold.validate);
    let val_norm = fs
        .f_val
        .iter()
        .map(|x| x * x)
        .sum::<f64>()
        .sqrt()
        .max(f64::MIN_POSITIVE);
    resize(&mut fs.alpha, g.ncols());
    resize(&mut fs.pred, fold.validate.len());
    let mut errors: FoldErrors = vec![vec![None; grid.len()]; kinds.len()];
    sweep.project_into(&fs.f_train, map)?;
    for (gi, &h) in grid.iter().enumerate() {
        // A core the ladder cannot rescue fails every family's cell.
        let core = match sweep.factor_into(h, map) {
            Ok(core) => core,
            Err(BmfError::Linalg(_)) => continue,
            Err(e) => return Err(e),
        };
        for (ki, &kind) in kinds.iter().enumerate() {
            match sweep.solve_factored_into(&core, kind, map, &mut fs.alpha) {
                // A degraded cell still contributes its validation error —
                // the ladder made it solvable — but the escalation is
                // recorded so the fit can report it.
                Ok(()) => counters.record_resilience(&core.resilience),
                Err(BmfError::Linalg(_)) => continue,
                Err(e) => return Err(e),
            }
            counters.map_solves += 1;
            matvec_into(g_val, &fs.alpha, &mut fs.pred)?;
            // Fused validation error: bit-identical to
            // `pred.sub(f_val).norm2() / val_norm` (axpy with -1.0 is an
            // exact IEEE subtraction, and the sum runs in index order).
            let mut s = 0.0;
            for (p, v) in fs.pred.iter().zip(&fs.f_val) {
                let d = p - v;
                s += d * d;
            }
            errors[ki][gi] = Some(s.sqrt() / val_norm);
        }
    }
    Ok(errors)
}

/// Builds the full-data sweep — kernels over every row of the shared
/// design matrix, which each fold then slices with [`MapSweep::restrict`]
/// — or `None` when even all K rows are too few for the missing-prior
/// block. A fold whose slice is `None` (too few training rows for the
/// missing-prior block) is skipped, matching the historical behaviour.
pub(crate) fn build_full_sweep<'a>(
    g: &'a Matrix,
    prior_nzm: &Prior,
) -> Result<Option<MapSweep<'a>>> {
    match MapSweep::from_view(g.as_view(), prior_nzm) {
        Ok(s) => Ok(Some(s)),
        Err(BmfError::NotEnoughSamples { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Reduces per-fold error tables into one [`CvOutcome`] per prior family.
///
/// Accumulation runs fold-major in fold order, so the result is
/// bit-identical to the historical single-pass loop — and to any
/// parallel schedule that produced `fold_errors`, since the reduction
/// order is fixed here.
pub(crate) fn reduce_outcomes<'a, I>(
    grid: &[f64],
    num_kinds: usize,
    fold_errors: I,
    available: usize,
    required: usize,
) -> Result<Vec<CvOutcome>>
where
    I: IntoIterator<Item = Option<&'a FoldErrors>>,
{
    let mut sums = vec![vec![0.0f64; grid.len()]; num_kinds];
    let mut counts = vec![vec![0usize; grid.len()]; num_kinds];
    for fe in fold_errors.into_iter().flatten() {
        for ki in 0..num_kinds {
            for (gi, cell) in fe[ki].iter().enumerate() {
                if let Some(err) = cell {
                    sums[ki][gi] += err;
                    counts[ki][gi] += 1;
                }
            }
        }
    }
    let mut outcomes = Vec::with_capacity(num_kinds);
    for ki in 0..num_kinds {
        let mut errors = Vec::with_capacity(grid.len());
        let mut best: Option<(f64, f64)> = None;
        for (gi, &h) in grid.iter().enumerate() {
            if counts[ki][gi] == 0 {
                continue;
            }
            let mean = sums[ki][gi] / counts[ki][gi] as f64;
            errors.push((h, mean));
            if best.is_none_or(|(_, e)| mean < e) {
                best = Some((h, mean));
            }
        }
        let (best_hyper, best_error) = best.ok_or(BmfError::NotEnoughSamples {
            available,
            required,
            context: "cross-validation (all folds degenerate)",
        })?;
        outcomes.push(CvOutcome {
            best_hyper,
            best_error,
            errors,
        });
    }
    Ok(outcomes)
}

/// Runs the full cross-validation sweep for the requested prior families
/// over a pre-built [`FoldPlan`]: one full-data kernel build, sliced per
/// fold, shared across every `(grid, kind)` cell. Fold sub-matrices are
/// row views of the shared `g`; all per-cell scratch lives in `ws`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cv_on_plan(
    g: &Matrix,
    plan: &FoldPlan,
    f: &Vector,
    prior: &Prior,
    grid: &[f64],
    kinds: &[PriorKind],
    counters: &mut FitCounters,
    ws: &mut SolveWorkspace,
) -> Result<Vec<CvOutcome>> {
    // Kernels are built from the nonzero-mean view so prior means are
    // cached; zero-mean solves reuse the same kernels with the mean
    // dropped (the precisions — and thus the Woodbury kernels — are
    // identical for both families).
    let nzm = prior.with_kind(PriorKind::NonZeroMean);
    let full = build_full_sweep(g, &nzm)?;
    let mut fold_errors: Vec<Option<FoldErrors>> = Vec::with_capacity(plan.folds.len());
    for fold in &plan.folds {
        let Some(sweep) = full.as_ref().and_then(|s| s.restrict(&fold.train)) else {
            fold_errors.push(None);
            continue;
        };
        counters.kernels_built += 1;
        fold_errors.push(Some(sweep_fold(
            &sweep, g, fold, f, grid, kinds, counters, ws,
        )?));
    }
    let available = f.len();
    reduce_outcomes(
        grid,
        kinds.len(),
        fold_errors.iter().map(Option::as_ref),
        available,
        plan.folds.len(),
    )
}

fn validate_cv(g: &Matrix, f: &Vector, prior: &Prior, config: &CvConfig) -> Result<()> {
    validate_grid(&config.grid)?;
    validate_folds(config.folds)?;
    let k = g.nrows();
    if f.len() != k {
        return Err(BmfError::SampleShape {
            detail: format!("{k} design rows vs {} values", f.len()),
        });
    }
    crate::screen::finite_matrix("design matrix", g)?;
    crate::screen::finite_values("response values", f.as_slice())?;
    crate::screen::finite_prior(prior)?;
    Ok(())
}

/// Cross-validates the MAP hyper-parameter on an explicit design matrix,
/// using the prior family `prior` carries.
///
/// # Errors
///
/// * [`BmfError::Config`] for an empty or non-positive grid (`"grid"`),
///   or fewer than 2 folds (`"folds"`).
/// * [`BmfError::NotEnoughSamples`] when `K < folds` or a fold leaves too
///   few samples to identify the missing-prior coefficients.
/// * [`BmfError::Linalg`] when every grid value fails structurally.
pub fn cross_validate_hyper(
    g: &Matrix,
    f: &Vector,
    prior: &Prior,
    config: &CvConfig,
) -> Result<CvOutcome> {
    validate_cv(g, f, prior, config)?;
    let plan = FoldPlan::new(g.nrows(), config.folds, config.seed)?;
    let mut counters = FitCounters::default();
    let mut ws = SolveWorkspace::for_problem(g.nrows(), g.ncols());
    let mut outcomes = cv_on_plan(
        g,
        &plan,
        f,
        prior,
        &config.grid,
        &[prior.kind()],
        &mut counters,
        &mut ws,
    )?;
    outcomes.pop().ok_or(BmfError::Internal {
        detail: "cross-validation produced no outcome for the requested prior kind",
    })
}

/// Cross-validates *both* prior families over the grid in one pass,
/// sharing the per-fold row selections and the expensive Woodbury
/// kernels (which depend only on the prior precisions, identical for the
/// two families).
///
/// Returns `(zero_mean, nonzero_mean)` outcomes. This is what BMF-PS uses
/// internally; it is ~2× cheaper than calling
/// [`cross_validate_hyper`] twice.
///
/// # Errors
///
/// Same conditions as [`cross_validate_hyper`].
pub fn cross_validate_both(
    g: &Matrix,
    f: &Vector,
    prior: &Prior,
    config: &CvConfig,
) -> Result<(CvOutcome, CvOutcome)> {
    validate_cv(g, f, prior, config)?;
    let plan = FoldPlan::new(g.nrows(), config.folds, config.seed)?;
    let mut counters = FitCounters::default();
    let mut ws = SolveWorkspace::for_problem(g.nrows(), g.ncols());
    let mut outcomes = cv_on_plan(
        g,
        &plan,
        f,
        prior,
        &config.grid,
        &[PriorKind::ZeroMean, PriorKind::NonZeroMean],
        &mut counters,
        &mut ws,
    )?;
    let missing = BmfError::Internal {
        detail: "cross-validation produced fewer outcomes than prior kinds",
    };
    let nzm = outcomes.pop().ok_or(missing.clone())?;
    let zm = outcomes.pop().ok_or(missing)?;
    Ok((zm, nzm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prior::PriorKind;
    use bmf_stat::normal::StandardNormal;
    use bmf_stat::rng::seeded;

    fn design(k: usize, m: usize, seed: u64) -> Matrix {
        let mut rng = seeded(seed);
        let mut s = StandardNormal::new();
        Matrix::from_fn(k, m, |_, _| s.sample(&mut rng))
    }

    #[test]
    fn log_grid_endpoints() {
        let g = log_grid(0.1, 10.0, 3);
        assert!((g[0] - 0.1).abs() < 1e-12);
        assert!((g[1] - 1.0).abs() < 1e-12);
        assert!((g[2] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn accurate_prior_drives_hyper_up() {
        // When the early model equals the truth, CV should prefer a large
        // hyper (trust the prior); when it is garbage, a small one.
        let m = 25;
        let k = 20;
        let g = design(k, m, 1);
        let truth: Vec<f64> = (0..m).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let f = g.matvec(&Vector::from(truth.clone())).unwrap();

        let good = Prior::from_coeffs(PriorKind::NonZeroMean, &truth);
        let cfg = CvConfig {
            folds: 4,
            grid: log_grid(1e-3, 1e3, 13),
            seed: 3,
        };
        let out_good = cross_validate_hyper(&g, &f, &good, &cfg).unwrap();

        let garbage: Vec<f64> = truth.iter().map(|t| -t * 3.0 + 0.7).collect();
        let bad = Prior::from_coeffs(PriorKind::NonZeroMean, &garbage);
        let out_bad = cross_validate_hyper(&g, &f, &bad, &cfg).unwrap();

        assert!(
            out_good.best_hyper > out_bad.best_hyper,
            "good prior should be trusted more: {} vs {}",
            out_good.best_hyper,
            out_bad.best_hyper
        );
        assert!(out_good.best_error < out_bad.best_error);
    }

    #[test]
    fn best_is_argmin_of_reported_errors() {
        let m = 10;
        let g = design(12, m, 2);
        let truth: Vec<f64> = (0..m).map(|i| (i as f64 * 0.3).sin()).collect();
        let f = g.matvec(&Vector::from(truth.clone())).unwrap();
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &truth);
        let out = cross_validate_hyper(&g, &f, &prior, &CvConfig::default()).unwrap();
        let min = out
            .errors
            .iter()
            .fold(f64::INFINITY, |acc, &(_, e)| acc.min(e));
        assert!((out.best_error - min).abs() < 1e-15);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = design(10, 8, 4);
        let f = Vector::from_fn(10, |i| i as f64);
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0; 8]);
        let cfg = CvConfig::default();
        let a = cross_validate_hyper(&g, &f, &prior, &cfg).unwrap();
        let b = cross_validate_hyper(&g, &f, &prior, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn config_validation() {
        let g = design(10, 4, 5);
        let f = Vector::zeros(10);
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0; 4]);
        let empty = CvConfig {
            grid: vec![],
            ..CvConfig::default()
        };
        assert!(matches!(
            cross_validate_hyper(&g, &f, &prior, &empty),
            Err(BmfError::Config {
                parameter: "grid",
                ..
            })
        ));
        let one_fold = CvConfig {
            folds: 1,
            ..CvConfig::default()
        };
        assert!(matches!(
            cross_validate_hyper(&g, &f, &prior, &one_fold),
            Err(BmfError::Config {
                parameter: "folds",
                ..
            })
        ));
        let neg = CvConfig {
            grid: vec![-1.0],
            ..CvConfig::default()
        };
        assert!(matches!(
            cross_validate_hyper(&g, &f, &prior, &neg),
            Err(BmfError::Config {
                parameter: "grid",
                ..
            })
        ));
    }

    #[test]
    fn both_matches_individual_runs() {
        let m = 14;
        let g = design(16, m, 7);
        let truth: Vec<f64> = (0..m).map(|i| 0.8 / (1.0 + i as f64)).collect();
        let f = g.matvec(&Vector::from(truth.clone())).unwrap();
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &truth);
        let cfg = CvConfig {
            folds: 4,
            grid: log_grid(1e-2, 1e2, 7),
            seed: 5,
        };
        let (zm, nzm) = cross_validate_both(&g, &f, &prior, &cfg).unwrap();
        let zm_solo =
            cross_validate_hyper(&g, &f, &prior.with_kind(PriorKind::ZeroMean), &cfg).unwrap();
        let nzm_solo =
            cross_validate_hyper(&g, &f, &prior.with_kind(PriorKind::NonZeroMean), &cfg).unwrap();
        assert_eq!(zm.best_hyper, zm_solo.best_hyper);
        assert!((zm.best_error - zm_solo.best_error).abs() < 1e-12);
        assert_eq!(nzm.best_hyper, nzm_solo.best_hyper);
        assert!((nzm.best_error - nzm_solo.best_error).abs() < 1e-12);
    }

    #[test]
    fn too_few_samples_for_folds() {
        let g = design(3, 4, 6);
        let f = Vector::zeros(3);
        let prior = Prior::from_coeffs(PriorKind::ZeroMean, &[1.0; 4]);
        let cfg = CvConfig {
            folds: 5,
            ..CvConfig::default()
        };
        assert!(matches!(
            cross_validate_hyper(&g, &f, &prior, &cfg),
            Err(BmfError::NotEnoughSamples { .. })
        ));
    }

    #[test]
    fn fold_plan_selects_each_row_once_as_validation() {
        let g = design(13, 4, 8);
        let plan = FoldPlan::new(13, 5, 3).unwrap();
        let mut seen = vec![false; 13];
        for fold in &plan.folds {
            let g_train = g.rows_view(&fold.train);
            let g_val = g.rows_view(&fold.validate);
            assert_eq!(g_train.nrows(), fold.train.len());
            assert_eq!(g_val.nrows(), fold.validate.len());
            for (i, &row) in fold.validate.iter().enumerate() {
                assert!(!seen[row], "row {row} validated twice");
                seen[row] = true;
                for j in 0..4 {
                    assert_eq!(g_val.get(i, j), g[(row, j)]);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
