//! Parallel batch fitting: many performance metrics, one sample set.
//!
//! A characterization run rarely fits a single metric. The same K
//! late-stage simulations yield gain *and* bandwidth *and* offset *and*
//! power — N responses measured at the same sample points, each with its
//! own early-stage prior. Fitting them through [`BmfFitter`] in a loop
//! repeats work that depends only on the shared inputs:
//!
//! * the design matrix `G` (Θ(K·M·basis) to evaluate) is identical for
//!   every job;
//! * the cross-validation fold row-selections depend only on `(K, folds,
//!   seed)`;
//! * the Woodbury kernels (`B_F`, `B_Z`, Θ(K²M)) depend only on the
//!   *normalized prior values* — jobs whose priors coincide after
//!   normalization share them exactly — and each fold's kernels are a
//!   principal sub-block of the full-data ones.
//!
//! [`BatchFitter`] evaluates the design matrix once, builds each distinct
//! full-data kernel once and slices it per fold, and dispatches the
//! remaining per-job work — grid sweeps over every `(fold, hyper,
//! family)` cell, then reduction and the final full-data solve — across
//! a scoped worker pool.
//!
//! # Determinism
//!
//! Results are **bit-identical for every thread count**, including 1.
//! Workers only compute pure functions of their task inputs and write
//! into per-task slots; every reduction (fold error accumulation, error
//! propagation, counter totals) happens after the join, in a fixed
//! order. A one-job batch reproduces [`BmfFitter::fit`] exactly, because
//! both run the same primitive kernels in the same order.
//!
//! ```
//! use bmf_basis::basis::OrthonormalBasis;
//! use bmf_core::batch::{BatchFitter, BatchJob};
//! use bmf_core::options::FitOptions;
//!
//! # fn main() -> Result<(), bmf_core::BmfError> {
//! let basis = OrthonormalBasis::linear(2);
//! let points: Vec<Vec<f64>> = (0..8)
//!     .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.61).cos()])
//!     .collect();
//! let gain: Vec<f64> = points.iter().map(|p| 1.0 + 0.5 * p[0]).collect();
//! let bw: Vec<f64> = points.iter().map(|p| 2.0 - 0.3 * p[1]).collect();
//!
//! let report = BatchFitter::new(basis)
//!     .with_options(FitOptions::new().folds(4).threads(2))
//!     .job(BatchJob::new("gain", vec![Some(1.0), Some(0.5), Some(0.0)], gain))
//!     .job(BatchJob::new("bw", vec![Some(2.0), Some(0.0), Some(-0.3)], bw))
//!     .fit(&points)?;
//! assert_eq!(report.fits.len(), 2);
//! assert_eq!(report.labels[0], "gain");
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bmf_basis::basis::OrthonormalBasis;
use bmf_linalg::Vector;

use crate::fusion::{response_scale, BmfFit, FitCounters, ResilienceReport};
use crate::hyper::{build_full_sweep, reduce_outcomes, sweep_fold, FoldErrors, FoldPlan};
use crate::map_estimate::{map_estimate_ws, MapSweep};
use crate::model::PerformanceModel;
use crate::options::{validate_folds, validate_grid, FitOptions};
use crate::prior::{Prior, PriorKind};
use crate::select::{choose_from_list, kinds_for};
use crate::workspace::SolveWorkspace;
use crate::{BmfError, Result};

/// One batch job: a response vector plus its early-stage prior, fitted
/// over the batch's shared basis and sample points.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Human-readable name reported back in [`BatchReport::labels`].
    pub label: String,
    /// Per-term early-coefficient knowledge (`None` = missing prior).
    pub prior: Vec<Option<f64>>,
    /// Late-stage response values, one per shared sample point.
    pub values: Vec<f64>,
}

impl BatchJob {
    /// Creates a job from a label, per-term prior knowledge, and the
    /// response values observed at the shared sample points.
    pub fn new(label: impl Into<String>, prior: Vec<Option<f64>>, values: Vec<f64>) -> Self {
        BatchJob {
            label: label.into(),
            prior,
            values,
        }
    }

    /// Creates a job whose prior is fully known (no missing entries).
    pub fn from_coeffs(label: impl Into<String>, early: &[f64], values: Vec<f64>) -> Self {
        BatchJob::new(label, early.iter().map(|&a| Some(a)).collect(), values)
    }
}

/// Wall-clock time spent in each phase of a batch fit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Design-matrix evaluation, fold planning, and response
    /// normalization (runs once, serially).
    pub prepare: Duration,
    /// Woodbury kernel builds (parallel; one task per distinct prior
    /// pattern: the full-data kernels, then each fold's sub-block).
    pub kernels: Duration,
    /// Cross-validation grid sweeps (parallel; one task per
    /// `(job, fold)` pair, covering every `(hyper, family)` cell).
    pub sweep: Duration,
    /// Per-job reduction, prior selection, and the final full-data MAP
    /// solve (parallel; one task per job).
    pub solve: Duration,
}

impl PhaseTimings {
    /// Total wall time across all phases.
    pub fn total(&self) -> Duration {
        self.prepare + self.kernels + self.sweep + self.solve
    }
}

/// Everything a completed batch fit reports.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One fit per job, in submission order. Each carries its own
    /// per-job [`FitCounters`].
    pub fits: Vec<BmfFit>,
    /// Job labels, in submission order.
    pub labels: Vec<String>,
    /// Work counters summed over every job.
    pub counters: FitCounters,
    /// Degradation-ladder summary aggregated over every job: the worst
    /// final-solve rung/ridge, the smallest reciprocal-condition
    /// estimate, and batch-wide degraded-solve totals.
    pub resilience: ResilienceReport,
    /// Per-phase wall time.
    pub timings: PhaseTimings,
    /// Worker threads the pool actually used.
    pub threads: usize,
}

/// Parallel batch fitter: N jobs over one shared sample-point set.
///
/// Construction mirrors [`BmfFitter`]; see the [module docs](self) for
/// the sharing and determinism story.
#[derive(Debug, Clone)]
pub struct BatchFitter {
    basis: OrthonormalBasis,
    jobs: Vec<BatchJob>,
    options: FitOptions,
}

impl BatchFitter {
    /// Creates an empty batch over `basis`.
    pub fn new(basis: OrthonormalBasis) -> Self {
        BatchFitter {
            basis,
            jobs: Vec::new(),
            options: FitOptions::default(),
        }
    }

    /// Replaces the whole fitting configuration (shared by every job).
    pub fn with_options(mut self, options: FitOptions) -> Self {
        self.options = options;
        self
    }

    /// The current fitting configuration.
    pub fn options(&self) -> &FitOptions {
        &self.options
    }

    /// The shared late-stage basis.
    pub fn basis(&self) -> &OrthonormalBasis {
        &self.basis
    }

    /// Adds a job (chainable).
    pub fn job(mut self, job: BatchJob) -> Self {
        self.jobs.push(job);
        self
    }

    /// Adds a job in place.
    pub fn push_job(&mut self, job: BatchJob) {
        self.jobs.push(job);
    }

    /// Replaces the whole job list (chainable). The service-layer
    /// coalescer uses this to hand a pre-assembled request group to the
    /// batch engine in one move instead of pushing job by job.
    pub fn with_jobs(mut self, jobs: Vec<BatchJob>) -> Self {
        self.jobs = jobs;
        self
    }

    /// The queued jobs, in submission order.
    pub fn jobs(&self) -> &[BatchJob] {
        &self.jobs
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the batch has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Fits every job over the shared sample points.
    ///
    /// # Errors
    ///
    /// * [`BmfError::Config`] for invalid options (`"grid"`, `"folds"`)
    ///   or an empty batch (`"jobs"`).
    /// * [`BmfError::PriorShape`] when a job's prior length disagrees
    ///   with the basis.
    /// * [`BmfError::SampleShape`] when a job's value count disagrees
    ///   with the point count.
    /// * [`BmfError::NotEnoughSamples`] / [`BmfError::Linalg`] as for
    ///   [`BmfFitter::fit`]. When several jobs fail, the error of the
    ///   lowest-indexed failing task is returned — independent of the
    ///   thread schedule.
    pub fn fit(&self, points: &[Vec<f64>]) -> Result<BatchReport> {
        validate_grid(&self.options.grid)?;
        validate_folds(self.options.folds)?;
        if self.jobs.is_empty() {
            return Err(BmfError::config("jobs", "batch needs at least one job"));
        }
        crate::screen::points(points, self.basis.num_vars())?;
        for job in &self.jobs {
            if job.prior.len() != self.basis.len() {
                return Err(BmfError::PriorShape {
                    basis_terms: self.basis.len(),
                    prior_entries: job.prior.len(),
                });
            }
            if job.values.len() != points.len() {
                return Err(BmfError::SampleShape {
                    detail: format!(
                        "job `{}` has {} values but the batch has {} points",
                        job.label,
                        job.values.len(),
                        points.len()
                    ),
                });
            }
            crate::screen::finite_values("response values", &job.values)?;
            crate::screen::finite_early("prior early coefficients", &job.prior)?;
        }

        // Phase 1 (serial): shared design matrix, fold plan, and per-job
        // normalization.
        let t0 = Instant::now();
        let g = self
            .basis
            .design_matrix(points.iter().map(|p| p.as_slice()));
        let plan = FoldPlan::new(g.nrows(), self.options.folds, self.options.seed)?;
        let num_folds = plan.folds.len();
        let prepared: Vec<PreparedJob> = self.jobs.iter().map(PreparedJob::new).collect();

        // Group jobs by normalized prior bit-pattern: jobs in one group
        // share every Woodbury kernel exactly (same `A`, same means).
        let mut pattern_of_job = Vec::with_capacity(prepared.len());
        let mut pattern_owner: Vec<usize> = Vec::new();
        let mut index: BTreeMap<Vec<Option<u64>>, usize> = BTreeMap::new();
        for (j, p) in prepared.iter().enumerate() {
            let key: Vec<Option<u64>> = p
                .prior
                .early_values()
                .iter()
                .map(|v| v.map(f64::to_bits))
                .collect();
            let next = pattern_owner.len();
            let pi = *index.entry(key).or_insert_with(|| {
                pattern_owner.push(j);
                next
            });
            pattern_of_job.push(pi);
        }
        let num_patterns = pattern_owner.len();
        let threads = self.options.effective_threads();
        let mut timings = PhaseTimings {
            prepare: t0.elapsed(),
            ..PhaseTimings::default()
        };

        // Phase 2 (parallel): one task per distinct prior pattern builds
        // the full-data kernels and slices every fold's principal
        // sub-block out of them, so only one full-data kernel per worker
        // is alive at a time. `None` marks a fold too small for the
        // pattern's missing-prior block (skipped, as in the serial path).
        let t1 = Instant::now();
        let per_pattern = run_indexed(threads, num_patterns, |pi| {
            let full = build_full_sweep(&g, &prepared[pattern_owner[pi]].prior)?;
            Ok(plan
                .folds
                .iter()
                .map(|fold| full.as_ref().and_then(|s| s.restrict(&fold.train)))
                .collect::<Vec<_>>())
        });
        let kernels: Vec<Option<MapSweep<'_>>> =
            first_error(per_pattern)?.into_iter().flatten().collect();
        timings.kernels = t1.elapsed();

        // Phase 3 (parallel): one grid sweep per (job, fold) pair, each
        // worker reusing its own solve workspace across tasks.
        let t2 = Instant::now();
        let kinds = kinds_for(self.options.selection);
        let swept: Vec<Result<(Option<FoldErrors>, FitCounters)>> = run_indexed_with(
            threads,
            prepared.len() * num_folds,
            SolveWorkspace::new,
            |ws, task| {
                let (j, fi) = (task / num_folds, task % num_folds);
                let Some(sweep) = &kernels[pattern_of_job[j] * num_folds + fi] else {
                    return Ok((None, FitCounters::default()));
                };
                let mut counters = FitCounters::default();
                let fold = &plan.folds[fi];
                let errors = sweep_fold(
                    sweep,
                    &g,
                    fold,
                    &prepared[j].f,
                    &self.options.grid,
                    &kinds,
                    &mut counters,
                    ws,
                )?;
                Ok((Some(errors), counters))
            },
        );
        let swept = first_error(swept)?;
        timings.sweep = t2.elapsed();

        // Phase 4 (parallel): per-job reduction (fold-major, fixed
        // order), prior selection, and the final full-data solve.
        let t3 = Instant::now();
        let fits: Vec<Result<BmfFit>> =
            run_indexed_with(threads, prepared.len(), SolveWorkspace::new, |ws, j| {
                let job = &prepared[j];
                let mut counters = FitCounters::default();
                for fi in 0..num_folds {
                    counters.merge(&swept[j * num_folds + fi].1);
                    // Kernel accounting: the first job of each pattern built
                    // its kernels; later jobs reused them from the cache.
                    if kernels[pattern_of_job[j] * num_folds + fi].is_some() {
                        if pattern_owner[pattern_of_job[j]] == j {
                            counters.kernels_built += 1;
                            counters.kernel_cache_misses += 1;
                        } else {
                            counters.kernel_cache_hits += 1;
                        }
                    }
                }
                // Error tables are reduced straight from the shared sweep
                // results — fold-major in fold order, so the accumulation is
                // bit-identical to the serial path.
                let outcomes = reduce_outcomes(
                    &self.options.grid,
                    kinds.len(),
                    (0..num_folds).map(|fi| swept[j * num_folds + fi].0.as_ref()),
                    job.f.len(),
                    num_folds,
                )?;
                let selection = choose_from_list(self.options.selection, outcomes)?;
                let chosen = job.prior.with_kind(selection.kind);
                let (alpha, final_res) = map_estimate_ws(
                    &g,
                    &job.f,
                    &chosen,
                    selection.hyper,
                    self.options.solver,
                    &mut ws.map,
                )?;
                counters.map_solves += 1;
                counters.record_resilience(&final_res);
                let coeffs: Vec<f64> = alpha.iter().map(|a| a * job.scale).collect();
                // Clone: once per job (not per grid cell) — each returned
                // model owns its basis.
                let model = PerformanceModel::new(self.basis.clone(), coeffs)?;
                Ok(BmfFit {
                    model,
                    prior_kind: selection.kind,
                    hyper: selection.hyper,
                    cv_error: selection.cv_error,
                    selection,
                    resilience: ResilienceReport::new(&final_res, &counters),
                    counters,
                })
            });
        let fits = first_error(fits)?;
        timings.solve = t3.elapsed();

        let mut counters = FitCounters::default();
        for fit in &fits {
            counters.merge(&fit.counters);
        }
        // Batch-wide resilience: worst final-solve rung/ridge, smallest
        // rcond, totals from the merged counters.
        let mut resilience = ResilienceReport {
            degraded_solves: counters.degraded_solves,
            max_rung: counters.max_ladder_rung,
            ..ResilienceReport::default()
        };
        for fit in &fits {
            resilience.rung = resilience.rung.max(fit.resilience.rung);
            resilience.ridge = resilience.ridge.max(fit.resilience.ridge);
            resilience.rcond = resilience.rcond.min(fit.resilience.rcond);
        }
        Ok(BatchReport {
            // Clone: the report owns its labels so the fitter's job list
            // stays reusable for further fits.
            labels: self.jobs.iter().map(|j| j.label.clone()).collect(),
            fits,
            counters,
            resilience,
            timings,
            threads,
        })
    }
}

/// A job after normalization: the dimensionless response and the
/// correspondingly scaled prior (nonzero-mean view, as the kernels are
/// built from it).
struct PreparedJob {
    scale: f64,
    f: Vector,
    prior: Prior,
}

impl PreparedJob {
    fn new(job: &BatchJob) -> Self {
        let scale = response_scale(&job.values);
        let f = Vector::from_fn(job.values.len(), |i| job.values[i] / scale);
        let prior = Prior::new(
            PriorKind::NonZeroMean,
            job.prior.iter().map(|v| v.map(|a| a / scale)).collect(),
        );
        PreparedJob { scale, f, prior }
    }
}

/// Runs `n` independent tasks on a scoped worker pool and returns their
/// results in task order.
///
/// Work-stealing is a shared atomic cursor: idle workers pull the next
/// unclaimed index, so an expensive task never blocks the queue behind
/// it. Each worker stashes `(index, result)` pairs locally; the merge
/// into ordered slots happens after the join. Task results therefore
/// depend only on the task index — never on the schedule — which is what
/// makes the batch engine bit-identical across thread counts.
fn run_indexed<T, F>(threads: usize, n: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(threads, n, || (), |(), i| task(i))
}

/// [`run_indexed`] with per-worker mutable state: `init` runs once on
/// each worker (and once on the serial path) and the resulting state is
/// passed to every task that worker claims. Used to give each worker its
/// own [`SolveWorkspace`], so scratch buffers are reused across tasks
/// without any cross-thread sharing. Determinism is unaffected: every
/// workspace-filling kernel fully overwrites its output, so a task's
/// result never depends on which worker (or how warm a workspace) ran
/// it.
fn run_indexed_with<S, T, I, F>(threads: usize, n: usize, init: I, task: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = threads.clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        let mut state = init();
        return (0..n).map(|i| task(&mut state, i)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut collected: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, task(&mut state, i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            // A worker can only panic if a task panicked; re-raise the
            // original payload on the caller's thread instead of masking
            // it behind a generic join error.
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, value) in collected.drain(..).flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        // The atomic cursor hands out each index in 0..n exactly once, so
        // every slot is filled by construction.
        // bmf-lint: allow(no-panic-paths) -- the atomic cursor fills every slot; an empty one is unreachable by construction
        .map(|s| s.unwrap_or_else(|| unreachable!("every task index is claimed exactly once")))
        .collect()
}

/// Unwraps a task-ordered result list, returning the error of the
/// lowest-indexed failed task (deterministic under any schedule).
fn first_error<T>(results: Vec<Result<T>>) -> Result<Vec<T>> {
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_preserves_task_order() {
        for threads in [1, 2, 5, 16] {
            let out = run_indexed(threads, 33, |i| i * i);
            assert_eq!(out, (0..33).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_indexed_handles_empty_and_single() {
        assert_eq!(run_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn first_error_picks_lowest_index() {
        let r: Result<Vec<i32>> = first_error(vec![
            Ok(1),
            Err(BmfError::config("grid", "a")),
            Err(BmfError::config("folds", "b")),
        ]);
        assert!(matches!(
            r,
            Err(BmfError::Config {
                parameter: "grid",
                ..
            })
        ));
    }

    #[test]
    fn empty_batch_is_a_config_error() {
        let basis = OrthonormalBasis::linear(2);
        let err = BatchFitter::new(basis).fit(&[vec![0.0, 0.0]]).unwrap_err();
        assert!(matches!(
            err,
            BmfError::Config {
                parameter: "jobs",
                ..
            }
        ));
    }

    #[test]
    fn job_shape_errors_name_the_job() {
        let basis = OrthonormalBasis::linear(2);
        let points = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let bad_prior = BatchFitter::new(basis.clone())
            .job(BatchJob::new("g", vec![Some(1.0)], vec![1.0, 2.0]))
            .fit(&points)
            .unwrap_err();
        assert!(matches!(bad_prior, BmfError::PriorShape { .. }));
        let bad_values = BatchFitter::new(basis)
            .job(BatchJob::new("g", vec![Some(1.0); 3], vec![1.0]))
            .fit(&points)
            .unwrap_err();
        match bad_values {
            BmfError::SampleShape { detail } => assert!(detail.contains("`g`")),
            e => panic!("expected SampleShape, got {e:?}"),
        }
    }
}
