//! The top-level BMF fitter — Algorithm 1 of the paper.
//!
//! [`BmfFitter`] packages the full flow:
//!
//! 1. define the prior from the early-stage model coefficients (step 1),
//!    optionally through the multifinger prior mapping of §IV-A (step 2)
//!    and with missing-prior entries for late-only basis functions (step 3);
//! 2. take the K late-stage samples (step 4);
//! 3. select the prior family and hyper-parameter by N-fold
//!    cross-validation (§IV-D), then solve the MAP estimate with the fast
//!    low-rank solver (step 5).
//!
//! Configuration lives in one [`FitOptions`] value shared with
//! [`BatchFitter`](crate::batch::BatchFitter) and
//! [`map_estimate`](crate::map_estimate::map_estimate), so a tuned setup
//! carries across entry points unchanged.

use bmf_basis::basis::OrthonormalBasis;
use bmf_basis::expansion::ExpandedBasis;
use bmf_linalg::{Resilience, Vector};

use crate::hyper::FoldPlan;
use crate::map_estimate::map_estimate_ws;
use crate::model::PerformanceModel;
use crate::options::{validate_folds, validate_grid, FitOptions};
use crate::prior::{Prior, PriorKind};
use crate::select::{select_prior_on_plan, SelectionOutcome};
use crate::workspace::SolveWorkspace;
use crate::{BmfError, Result};

/// Lightweight work counters accumulated during a fit.
///
/// Counting is exact, not sampled: every MAP solve and every fold's
/// Woodbury kernel increments its counter. The batch engine adds
/// cache accounting — a *hit* is a kernel another job already built for
/// the same fold and prior, a *miss* is a kernel that had to be built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FitCounters {
    /// MAP systems solved (one per `(fold, grid, kind)` CV cell plus the
    /// final full-data solve).
    pub map_solves: usize,
    /// Fold Woodbury kernels built (one per usable cross-validation
    /// fold; the final full-data solve builds its own and is not
    /// counted).
    pub kernels_built: usize,
    /// Batch kernel-cache hits (kernels reused from another job).
    pub kernel_cache_hits: usize,
    /// Batch kernel-cache misses (kernels this job had to build).
    pub kernel_cache_misses: usize,
    /// Solves that needed the degradation ladder (rung > 0).
    pub degraded_solves: usize,
    /// Total ladder rungs climbed, summed over all solves.
    pub ladder_escalations: usize,
    /// SPD solves rescued by the final LU rung of the ladder.
    pub lu_fallbacks: usize,
    /// Worst ladder rung used by any solve of this fit.
    pub max_ladder_rung: u32,
}

impl FitCounters {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &FitCounters) {
        self.map_solves += other.map_solves;
        self.kernels_built += other.kernels_built;
        self.kernel_cache_hits += other.kernel_cache_hits;
        self.kernel_cache_misses += other.kernel_cache_misses;
        self.degraded_solves += other.degraded_solves;
        self.ladder_escalations += other.ladder_escalations;
        self.lu_fallbacks += other.lu_fallbacks;
        self.max_ladder_rung = self.max_ladder_rung.max(other.max_ladder_rung);
    }

    /// Folds one solve's [`Resilience`] record into the counters.
    pub fn record_resilience(&mut self, res: &Resilience) {
        if res.is_degraded() {
            self.degraded_solves += 1;
        }
        self.ladder_escalations += res.rung as usize;
        if res.lu_fallback {
            self.lu_fallbacks += 1;
        }
        self.max_ladder_rung = self.max_ladder_rung.max(res.rung);
    }
}

/// How hard the solver degradation ladder had to work during a fit.
///
/// `rung`/`ridge`/`rcond` describe the *final* full-data MAP solve — the
/// one that produced the returned coefficients; `degraded_solves` and
/// `max_rung` aggregate over every solve of the fit, including the
/// cross-validation cells. A clean fit reports `rung == 0`,
/// `ridge == 0.0`, and `degraded_solves == 0`, and its coefficients are
/// bit-identical to a build without the ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceReport {
    /// Ladder rung used by the final full-data solve (0 = clean).
    pub rung: u32,
    /// Ridge added to the final solve's system diagonal (0.0 = none).
    pub ridge: f64,
    /// Reciprocal-condition estimate of the final solve's factorization.
    pub rcond: f64,
    /// Solves (CV cells + final) that needed the ladder at all.
    pub degraded_solves: usize,
    /// Worst ladder rung used anywhere in the fit.
    pub max_rung: u32,
}

impl ResilienceReport {
    pub(crate) fn new(final_solve: &Resilience, counters: &FitCounters) -> Self {
        ResilienceReport {
            rung: final_solve.rung,
            ridge: final_solve.ridge,
            rcond: final_solve.rcond,
            degraded_solves: counters.degraded_solves,
            max_rung: counters.max_ladder_rung,
        }
    }

    /// `true` when any solve of the fit left rung 0.
    pub fn is_degraded(&self) -> bool {
        self.degraded_solves > 0
    }
}

impl Default for ResilienceReport {
    fn default() -> Self {
        ResilienceReport::new(&Resilience::default(), &FitCounters::default())
    }
}

/// Builder for a BMF late-stage fit.
///
/// See the [crate-level example](crate) for basic use; the
/// [`BmfFitter::from_mapped_early_model`] constructor covers the
/// multifinger case. Configure via [`BmfFitter::with_options`].
#[derive(Debug, Clone)]
pub struct BmfFitter {
    basis: OrthonormalBasis,
    prior_values: Vec<Option<f64>>,
    options: FitOptions,
}

/// Everything a completed fit reports.
#[derive(Debug, Clone)]
pub struct BmfFit {
    /// The fitted late-stage model.
    pub model: PerformanceModel,
    /// The selected prior family.
    pub prior_kind: PriorKind,
    /// The selected hyper-parameter (`σ₀²` or `η`).
    pub hyper: f64,
    /// Cross-validation error of the selected configuration (an estimate
    /// of the relative modeling error, eq. 59).
    pub cv_error: f64,
    /// The full selection record (per-grid-point errors for both priors).
    pub selection: SelectionOutcome,
    /// Work counters for this fit (solves, kernels built).
    pub counters: FitCounters,
    /// Degradation-ladder summary: rung/ridge/rcond of the final solve
    /// plus degraded-solve aggregates over the whole fit.
    pub resilience: ResilienceReport,
}

/// Serializable summary of a fit (for experiment reports).
#[derive(Debug, Clone, PartialEq)]
pub struct BmfFitSummary {
    /// The selected prior family.
    pub prior_kind: PriorKind,
    /// The selected hyper-parameter.
    pub hyper: f64,
    /// Cross-validation error estimate.
    pub cv_error: f64,
    /// Number of basis terms.
    pub terms: usize,
}

impl BmfFit {
    /// A serializable summary of this fit.
    pub fn summary(&self) -> BmfFitSummary {
        BmfFitSummary {
            prior_kind: self.prior_kind,
            hyper: self.hyper,
            cv_error: self.cv_error,
            terms: self.model.basis().len(),
        }
    }
}

impl BmfFitter {
    /// Creates a fitter for `basis` with per-term early-stage coefficient
    /// knowledge (`None` = missing prior, §IV-B).
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::PriorShape`] when `early.len() != basis.len()`.
    pub fn new(basis: OrthonormalBasis, early: Vec<Option<f64>>) -> Result<Self> {
        if early.len() != basis.len() {
            return Err(BmfError::PriorShape {
                basis_terms: basis.len(),
                prior_entries: early.len(),
            });
        }
        Ok(BmfFitter {
            basis,
            prior_values: early,
            options: FitOptions::default(),
        })
    }

    /// Creates a fitter whose basis and prior both come from an
    /// early-stage model: the late-stage basis equals the early basis and
    /// every coefficient has prior knowledge.
    pub fn from_early_model(early_model: &PerformanceModel) -> Self {
        BmfFitter {
            // Clone: the fitter owns its basis independently of the
            // borrowed early model.
            basis: early_model.basis().clone(),
            prior_values: early_model.coeffs().iter().map(|&a| Some(a)).collect(),
            options: FitOptions::default(),
        }
    }

    /// Creates a fitter for a multifinger post-layout basis (§IV-A): the
    /// schematic coefficients are mapped through `β = α_E/√T_m` (eq. 49)
    /// onto `expansion.basis()`, and `extra` additional basis terms are
    /// appended with missing priors (§IV-B).
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::PriorShape`] when `schematic_coeffs` does not
    /// match the expansion.
    pub fn from_mapped_early_model(
        expansion: &ExpandedBasis,
        schematic_coeffs: &[f64],
        extra: Vec<bmf_basis::multi_index::MultiIndex>,
    ) -> Result<Self> {
        let prior = Prior::mapped(
            PriorKind::NonZeroMean,
            expansion,
            schematic_coeffs,
            extra.len(),
        )?;
        let mut terms = expansion.basis().terms().to_vec();
        let num_vars = expansion.basis().num_vars();
        terms.extend(extra);
        let basis = OrthonormalBasis::from_terms(num_vars, terms);
        Ok(BmfFitter {
            basis,
            prior_values: prior.early_values().to_vec(),
            options: FitOptions::default(),
        })
    }

    /// Replaces the whole fitting configuration.
    pub fn with_options(mut self, options: FitOptions) -> Self {
        self.options = options;
        self
    }

    /// The current fitting configuration.
    pub fn options(&self) -> &FitOptions {
        &self.options
    }

    /// The late-stage basis this fitter will fit over.
    pub fn basis(&self) -> &OrthonormalBasis {
        &self.basis
    }

    /// Runs Algorithm 1 on K late-stage samples.
    ///
    /// # Errors
    ///
    /// * [`BmfError::Config`] when the options' grid or fold count is
    ///   invalid (the error names the parameter).
    /// * [`BmfError::SampleShape`] when points/values disagree or a point
    ///   has the wrong dimension (panics on dimension inside the basis —
    ///   length mismatches between points and values are errors).
    /// * [`BmfError::NotEnoughSamples`] when K is too small for the folds
    ///   or the missing-prior block.
    /// * [`BmfError::NonFiniteInput`] when a point, value, or prior
    ///   coefficient is NaN/±∞.
    /// * [`BmfError::Linalg`] on numerical failure the degradation ladder
    ///   could not absorb.
    pub fn fit(&self, points: &[Vec<f64>], values: &[f64]) -> Result<BmfFit> {
        if points.len() != values.len() {
            return Err(BmfError::SampleShape {
                detail: format!("{} points vs {} values", points.len(), values.len()),
            });
        }
        crate::screen::points(points, self.basis.num_vars())?;
        crate::screen::finite_values("response values", values)?;
        crate::screen::finite_early("prior early coefficients", &self.prior_values)?;
        validate_grid(&self.options.grid)?;
        validate_folds(self.options.folds)?;
        let g = self
            .basis
            .design_matrix(points.iter().map(|p| p.as_slice()));
        let plan = FoldPlan::new(g.nrows(), self.options.folds, self.options.seed)?;
        let mut counters = FitCounters::default();
        fit_prepared(
            &g,
            &plan,
            &self.basis,
            &self.prior_values,
            values,
            &self.options,
            &mut counters,
        )
    }
}

/// The shared fitting core: normalizes the response, selects prior family
/// and hyper-parameter over a pre-built [`FoldPlan`], and solves the
/// final full-data MAP system. [`BmfFitter::fit`] calls it with a fresh
/// plan; [`crate::batch::BatchFitter`] runs the same primitives with the
/// plan (and design matrix) shared across all jobs, so a one-job batch is
/// bit-identical to this path.
pub(crate) fn fit_prepared(
    g: &bmf_linalg::Matrix,
    plan: &FoldPlan,
    basis: &OrthonormalBasis,
    prior_values: &[Option<f64>],
    values: &[f64],
    options: &FitOptions,
    counters: &mut FitCounters,
) -> Result<BmfFit> {
    // Normalize the response (and the prior with it) so the problem is
    // dimensionless: raw physical units (hertz, watts) would otherwise
    // put the intercept prior variance tens of decades above the other
    // coefficients, wrecking both the conditioning of the MAP system
    // and the meaning of the fixed hyper-parameter grid. The relative
    // error (eq. 59) and the returned coefficients are unaffected —
    // coefficients are rescaled on the way out. The reported `hyper`
    // lives in the normalized space.
    let scale = response_scale(values);
    let f = Vector::from_fn(values.len(), |i| values[i] / scale);
    let prior = Prior::new(
        PriorKind::ZeroMean,
        prior_values.iter().map(|v| v.map(|a| a / scale)).collect(),
    );

    let mut ws = SolveWorkspace::for_problem(g.nrows(), g.ncols());
    let selection = select_prior_on_plan(
        g,
        plan,
        &f,
        &prior,
        options.selection,
        &options.grid,
        counters,
        &mut ws,
    )?;
    let chosen = prior.with_kind(selection.kind);
    let (alpha, final_res) =
        map_estimate_ws(g, &f, &chosen, selection.hyper, options.solver, &mut ws.map)?;
    counters.map_solves += 1;
    counters.record_resilience(&final_res);
    let coeffs: Vec<f64> = alpha.iter().map(|a| a * scale).collect();
    // Clone: once per fit (not per grid cell) — the returned model owns
    // its basis.
    let model = PerformanceModel::new(basis.clone(), coeffs)?;
    Ok(BmfFit {
        model,
        prior_kind: selection.kind,
        hyper: selection.hyper,
        cv_error: selection.cv_error,
        selection,
        counters: *counters,
        resilience: ResilienceReport::new(&final_res, counters),
    })
}

/// RMS of the response values, used to normalize the fitting problem.
/// Falls back to 1.0 for an all-zero (or empty) response.
pub fn response_scale(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let rms = (values.iter().map(|v| v * v).sum::<f64>() / values.len() as f64).sqrt();
    if rms > 0.0 && rms.is_finite() {
        rms
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_estimate::SolverKind;
    use crate::select::PriorSelection;
    use bmf_basis::expansion::FingerExpansion;
    use bmf_basis::multi_index::MultiIndex;
    use bmf_stat::normal::StandardNormal;
    use bmf_stat::rng::seeded;

    fn points(k: usize, r: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = seeded(seed);
        let mut s = StandardNormal::new();
        (0..k).map(|_| s.sample_vec(&mut rng, r)).collect()
    }

    #[test]
    fn few_samples_with_good_prior_beat_no_prior() {
        // M = 41 coefficients, K = 12 samples. The early model is a mildly
        // perturbed truth; BMF should fit well where LS cannot even run.
        let r = 40;
        let basis = OrthonormalBasis::linear(r);
        let truth: Vec<f64> = (0..=r)
            .map(|i| {
                if i == 0 {
                    5.0
                } else {
                    2.0 / (i as f64).powf(1.2)
                }
            })
            .collect();
        let eval = |p: &[f64]| -> f64 {
            truth[0]
                + p.iter()
                    .enumerate()
                    .map(|(i, x)| truth[i + 1] * x)
                    .sum::<f64>()
        };
        let early: Vec<Option<f64>> = truth
            .iter()
            .enumerate()
            .map(|(i, t)| Some(t * (1.0 + 0.1 * ((i * 7) as f64).sin())))
            .collect();
        let train = points(12, r, 1);
        let train_vals: Vec<f64> = train.iter().map(|p| eval(p)).collect();
        let fit = BmfFitter::new(basis, early)
            .unwrap()
            .with_options(FitOptions::new().folds(4).seed(9))
            .fit(&train, &train_vals)
            .unwrap();
        let test = points(100, r, 2);
        let test_vals: Vec<f64> = test.iter().map(|p| eval(p)).collect();
        let err = fit
            .model
            .relative_error(test.iter().map(|p| p.as_slice()), &test_vals)
            .unwrap();
        assert!(err < 0.05, "BMF error too high: {err}");
        // The fit accounts for its own work: at least one kernel per
        // usable fold plus the final solve.
        assert!(fit.counters.kernels_built >= 4);
        assert!(fit.counters.map_solves > fit.counters.kernels_built);
    }

    #[test]
    fn missing_prior_terms_are_learned() {
        // Basis term without early knowledge gets identified from data.
        let r = 10;
        let basis = OrthonormalBasis::linear(r);
        let eval = |p: &[f64]| 1.0 + 0.5 * p[0] + 2.0 * p[9];
        let mut early: Vec<Option<f64>> = vec![Some(1.0), Some(0.5)];
        early.extend(std::iter::repeat_n(Some(0.01), r - 2));
        early.push(None); // x10 has no early knowledge
        let train = points(20, r, 3);
        let train_vals: Vec<f64> = train.iter().map(|p| eval(p)).collect();
        let fit = BmfFitter::new(basis, early)
            .unwrap()
            .with_options(FitOptions::new().folds(4))
            .fit(&train, &train_vals)
            .unwrap();
        let c = fit.model.coeffs();
        assert!((c[r] - 2.0).abs() < 0.2, "missing-prior coeff: {}", c[r]);
    }

    #[test]
    fn from_early_model_roundtrip() {
        let basis = OrthonormalBasis::linear(3);
        let early_model = PerformanceModel::new(basis.clone(), vec![1.0, 0.3, -0.2, 0.05]).unwrap();
        let fitter = BmfFitter::from_early_model(&early_model);
        assert_eq!(fitter.basis().len(), 4);
        let train = points(10, 3, 4);
        let vals: Vec<f64> = train.iter().map(|p| early_model.predict(p) * 1.1).collect();
        let fit = fitter
            .with_options(FitOptions::new().folds(3))
            .fit(&train, &vals)
            .unwrap();
        // Late model ~ 1.1 x early model.
        let p = [0.5, -0.5, 1.0];
        assert!((fit.model.predict(&p) - early_model.predict(&p) * 1.1).abs() < 0.1);
    }

    #[test]
    fn mapped_fitter_builds_layout_basis_with_extras() {
        let exp = FingerExpansion::new(vec![2, 2]).unwrap();
        let schematic = OrthonormalBasis::linear(2);
        let expanded = exp.expand_basis(&schematic).unwrap();
        // Layout basis gets one extra parasitic-ish term on a new... the
        // expansion has 4 layout vars; add a cross term as the extra.
        let extra = vec![MultiIndex::from_pairs(&[(0, 1), (2, 1)])];
        let fitter =
            BmfFitter::from_mapped_early_model(&expanded, &[1.0, 2.0, -1.0], extra).unwrap();
        assert_eq!(fitter.basis().len(), 6); // 5 mapped + 1 extra
        let prior_missing = fitter.prior_values.iter().filter(|v| v.is_none()).count();
        assert_eq!(prior_missing, 1);
    }

    #[test]
    fn solver_choice_does_not_change_result() {
        let r = 15;
        let basis = OrthonormalBasis::linear(r);
        let truth: Vec<f64> = (0..=r).map(|i| (i as f64 * 0.7).cos()).collect();
        let eval = |p: &[f64]| -> f64 {
            truth[0]
                + p.iter()
                    .enumerate()
                    .map(|(i, x)| truth[i + 1] * x)
                    .sum::<f64>()
        };
        let early: Vec<Option<f64>> = truth.iter().map(|&t| Some(t)).collect();
        let train = points(10, r, 5);
        let vals: Vec<f64> = train.iter().map(|p| eval(p)).collect();
        let fast = BmfFitter::new(basis.clone(), early.clone())
            .unwrap()
            .fit(&train, &vals)
            .unwrap();
        let direct = BmfFitter::new(basis, early)
            .unwrap()
            .with_options(FitOptions::new().solver(SolverKind::Direct))
            .fit(&train, &vals)
            .unwrap();
        for (a, b) in fast.model.coeffs().iter().zip(direct.model.coeffs()) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
        assert_eq!(fast.prior_kind, direct.prior_kind);
    }

    #[test]
    fn physical_units_are_handled_by_normalization() {
        // GHz-scale response with a GHz-scale intercept prior: without
        // response normalization the MAP system is numerically singular
        // and the hyper grid meaningless.
        let r = 20;
        let basis = OrthonormalBasis::linear(r);
        let truth: Vec<f64> = std::iter::once(5.0e9)
            .chain((1..=r).map(|i| 2.0e7 / (i as f64)))
            .collect();
        let eval = |p: &[f64]| -> f64 {
            truth[0]
                + p.iter()
                    .enumerate()
                    .map(|(i, x)| truth[i + 1] * x)
                    .sum::<f64>()
        };
        let mut early: Vec<Option<f64>> = truth.iter().map(|&t| Some(t * 1.05)).collect();
        early[r] = None; // one missing-prior coefficient too
        let train = points(14, r, 8);
        let vals: Vec<f64> = train.iter().map(|p| eval(p)).collect();
        let fit = BmfFitter::new(basis, early)
            .unwrap()
            .with_options(FitOptions::new().folds(4))
            .fit(&train, &vals)
            .unwrap();
        let test = points(50, r, 9);
        let tvals: Vec<f64> = test.iter().map(|p| eval(p)).collect();
        let err = fit
            .model
            .relative_error(test.iter().map(|p| p.as_slice()), &tvals)
            .unwrap();
        assert!(err < 1e-3, "error {err} too high for near-exact prior");
    }

    #[test]
    fn response_scale_handles_edge_cases() {
        assert_eq!(response_scale(&[]), 1.0);
        assert_eq!(response_scale(&[0.0, 0.0]), 1.0);
        assert!((response_scale(&[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn shape_validation() {
        let basis = OrthonormalBasis::linear(2);
        assert!(BmfFitter::new(basis.clone(), vec![Some(1.0)]).is_err());
        let fitter = BmfFitter::new(basis, vec![Some(1.0); 3]).unwrap();
        assert!(matches!(
            fitter.fit(&[vec![0.0, 0.0]], &[1.0, 2.0]),
            Err(BmfError::SampleShape { .. })
        ));
    }

    #[test]
    fn invalid_options_name_the_parameter() {
        let basis = OrthonormalBasis::linear(2);
        let fitter = BmfFitter::new(basis, vec![Some(1.0); 3]).unwrap();
        let pts = points(8, 2, 11);
        let vals = vec![1.0; 8];
        let bad_grid = fitter
            .clone()
            .with_options(FitOptions::new().grid(vec![]))
            .fit(&pts, &vals);
        assert!(matches!(
            bad_grid,
            Err(BmfError::Config {
                parameter: "grid",
                ..
            })
        ));
        let bad_folds = fitter
            .with_options(FitOptions::new().folds(1))
            .fit(&pts, &vals);
        assert!(matches!(
            bad_folds,
            Err(BmfError::Config {
                parameter: "folds",
                ..
            })
        ));
    }

    #[test]
    fn with_options_routes_every_knob() {
        let basis = OrthonormalBasis::linear(2);
        let fitter = BmfFitter::new(basis, vec![Some(1.0); 3])
            .unwrap()
            .with_options(
                FitOptions::new()
                    .selection(PriorSelection::Fixed(PriorKind::ZeroMean))
                    .solver(SolverKind::Direct)
                    .folds(3)
                    .grid(vec![0.5, 1.0])
                    .seed(42),
            );
        let opts = fitter.options();
        assert_eq!(opts.selection, PriorSelection::Fixed(PriorKind::ZeroMean));
        assert_eq!(opts.solver, SolverKind::Direct);
        assert_eq!(opts.folds, 3);
        assert_eq!(opts.grid, vec![0.5, 1.0]);
        assert_eq!(opts.seed, 42);
    }
}
