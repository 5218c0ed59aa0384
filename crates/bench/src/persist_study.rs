//! Cold-start vs warm-start benchmark for the persistence layer
//! (`cargo bench -p bmf-bench --bench studies -- persist`).
//!
//! Measures the *work* of standing up a populated fitting service two
//! ways:
//!
//! * **cold start** — fit every model from samples: the real batch
//!   engine runs, and its schedule-independent counters are priced with
//!   the same virtual cost model as the service bench
//!   ([`BATCH_BASE_NS`], [`KERNEL_NS`], [`SOLVE_NS`], [`JOB_NS`]);
//! * **warm start** — export every fitted model to a real
//!   [`ArtifactStore`], then refill a fresh service from disk via
//!   [`ArtifactStore::warm_start`], priced per import plus per decoded
//!   byte.
//!
//! Before pricing anything, the run *verifies* the warm-started service:
//! every job's predictions must be bit-identical to the cold service on
//! a probe set — a warm start that changed a single bit is a benchmark
//! failure, not a data point.
//!
//! `BENCH_persist.json` is computed from counters and artifact byte
//! sizes only, never from the wall clock, so it and the exported store
//! are byte-identical across machines, runs, and `BMF_THREADS`
//! settings.
//!
//! [`BATCH_BASE_NS`]: crate::service_load::BATCH_BASE_NS
//! [`KERNEL_NS`]: crate::service_load::KERNEL_NS
//! [`SOLVE_NS`]: crate::service_load::SOLVE_NS
//! [`JOB_NS`]: crate::service_load::JOB_NS
//! [`ArtifactStore`]: bmf_persist::store::ArtifactStore
//! [`ArtifactStore::warm_start`]: bmf_persist::store::ArtifactStore::warm_start

use std::path::PathBuf;

use bmf_basis::basis::OrthonormalBasis;
use bmf_core::options::FitOptions;
use bmf_core::service::{FitRequest, FitService, ServiceConfig};
use bmf_core::BmfError;
use bmf_persist::store::ArtifactStore;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::{derive_seed, seeded};

use crate::service_load::{BATCH_BASE_NS, JOB_NS, KERNEL_NS, SOLVE_NS};
use crate::study::{out_dir, BenchReport, Value};

/// Virtual cost of installing one snapshot into the registry
/// (validation screens plus shard insertion).
pub const IMPORT_NS: u64 = 4_000;

/// Virtual decode throughput: bytes of artifact processed per virtual
/// nanosecond on the warm path (read, fingerprint, decode, screen).
pub const WARM_BYTES_PER_NS: u64 = 2;

/// Scenario configuration; use [`PersistConfig::full`] or
/// [`PersistConfig::smoke`].
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Distinct models to fit, persist, and warm-start.
    pub jobs: usize,
    /// Variation variables (linear basis over these).
    pub num_vars: usize,
    /// Sample points shared by every job.
    pub samples: usize,
    /// Probe points for the bitwise verification sweep.
    pub probes: usize,
    /// Master seed for points, truths, and probes.
    pub seed: u64,
    /// Directory the exported store is written to; recreated from
    /// scratch on every run.
    pub store_dir: PathBuf,
}

impl PersistConfig {
    /// Full scenario behind the committed `BENCH_persist.json`, with the
    /// store at `persist-store` in the study output directory.
    pub fn full() -> Self {
        PersistConfig {
            jobs: 48,
            num_vars: 12,
            samples: 24,
            probes: 32,
            seed: 0xC0FFEE,
            store_dir: out_dir().join("persist-store"),
        }
    }

    /// CI-sized scenario, same shape.
    pub fn smoke() -> Self {
        PersistConfig {
            jobs: 8,
            probes: 8,
            ..PersistConfig::full()
        }
    }
}

/// Runs the cold-fit / export / warm-start / verify cycle and returns
/// the deterministic report.
///
/// # Errors
///
/// Propagates fitting-service and persistence failures (persistence
/// errors routed through [`BmfError::Snapshot`]); a bitwise divergence
/// between the cold and warm services is reported as
/// [`BmfError::Snapshot`] too — the persisted snapshot failed its
/// round-trip contract — and a failed [`check`] as [`BmfError::Config`].
pub fn run_persist(cfg: &PersistConfig) -> Result<BenchReport, BmfError> {
    let r = cfg.num_vars;
    let samples = cfg.samples.max(r + 2);
    let mut rng = seeded(derive_seed(cfg.seed, 1));
    let mut normal = StandardNormal::new();
    let points: Vec<Vec<f64>> = (0..samples)
        .map(|_| normal.sample_vec(&mut rng, r))
        .collect();
    let mut rng = seeded(derive_seed(cfg.seed, 2));
    let probes: Vec<Vec<f64>> = (0..cfg.probes)
        .map(|_| normal.sample_vec(&mut rng, r))
        .collect();

    // Cold start: fit every job through the real service.
    let cold = FitService::new(ServiceConfig {
        options: FitOptions::new().folds(4).seed(cfg.seed),
        ..ServiceConfig::default()
    })?;
    let ps = cold.register_points(points.clone())?;
    for j in 0..cfg.jobs {
        let truth: Vec<f64> = (0..=r)
            .map(|i| ((i + 7 * j) as f64 * 0.29).cos() * (1.0 + j as f64 * 0.03))
            .collect();
        let values: Vec<f64> = points
            .iter()
            .map(|p| {
                truth[0]
                    + p.iter()
                        .enumerate()
                        .map(|(i, x)| truth[i + 1] * x)
                        .sum::<f64>()
            })
            .collect();
        let prior: Vec<Option<f64>> = truth.iter().map(|t| Some(t * 1.05)).collect();
        cold.submit_fit(FitRequest {
            job_id: format!("perf{j:03}"),
            basis: OrthonormalBasis::linear(r),
            points: ps,
            prior,
            values,
        })?;
    }
    let report = cold.drain();
    for outcome in &report.outcomes {
        if let Err(e) = &outcome.result {
            return Err(e.clone());
        }
    }
    let c = cold.counters();
    let cold_ns = c.batches * BATCH_BASE_NS
        + c.kernel_cache_misses * KERNEL_NS
        + c.map_solves * SOLVE_NS
        + c.fits_ok * JOB_NS;

    // Export everything to a fresh on-disk store.
    let _ = std::fs::remove_dir_all(&cfg.store_dir);
    let store = ArtifactStore::open(&cfg.store_dir).map_err(BmfError::from)?;
    let ids = store.export_service(&cold).map_err(BmfError::from)?;
    let mut total_bytes: u64 = 0;
    for &id in &ids {
        let meta = std::fs::metadata(store.artifact_path(id)).map_err(|e| BmfError::Snapshot {
            detail: format!("artifact for {id} vanished after export: {e}"),
        })?;
        total_bytes += meta.len();
    }

    // Warm start a fresh service and verify it bit-for-bit.
    let warm = FitService::new(ServiceConfig::default())?;
    let imported = store.warm_start(&warm).map_err(BmfError::from)? as u64;
    let mut verified: u64 = 0;
    for job_id in cold.job_ids() {
        for p in &probes {
            let a = cold.predict(&job_id, p)?;
            let b = warm.predict(&job_id, p)?;
            if a.to_bits() != b.to_bits() {
                return Err(BmfError::Snapshot {
                    detail: format!("warm-started `{job_id}` diverges: {a:e} vs {b:e}"),
                });
            }
            verified += 1;
        }
    }
    let warm_ns = imported * IMPORT_NS + total_bytes / WARM_BYTES_PER_NS;

    let speedup = cold_ns as f64 / warm_ns.max(1) as f64;
    let mut report = BenchReport::new();
    report.section(
        "scenario",
        crate::fields! {
            jobs: cfg.jobs, vars: r, samples: samples, probes: cfg.probes, seed: cfg.seed,
        },
    );
    report.section(
        "artifacts",
        crate::fields! {
            count: ids.len(), total_bytes: total_bytes,
            index_entries: store.index().map_err(BmfError::from)?.len(),
        },
    );
    report.section(
        "cold_start",
        crate::fields! {
            virtual_ns: cold_ns, batches: c.batches, kernels: c.kernel_cache_misses,
            map_solves: c.map_solves, fits: c.fits_ok,
        },
    );
    report.section(
        "warm_start",
        crate::fields! {
            virtual_ns: warm_ns, imports: imported, verified_predictions: verified,
        },
    );
    report.section(
        "headline",
        crate::fields! { warm_speedup: Value::Fixed(speedup, 3) },
    );
    check(&report).map_err(|detail| BmfError::Config {
        parameter: "persist_study",
        detail,
    })?;
    Ok(report)
}

/// The persist study's postconditions: predictions were verified, both
/// starts cost something, and warm-starting beats refitting (otherwise
/// persistence buys nothing and something is badly wrong).
///
/// # Errors
///
/// Names the failed condition and the values it saw.
pub fn check(report: &BenchReport) -> Result<(), String> {
    let verified = report.metric("warm_start.verified_predictions")?;
    let cold = report.metric("cold_start.virtual_ns")?;
    let warm = report.metric("warm_start.virtual_ns")?;
    let speedup = report.metric("headline.warm_speedup")?;
    if verified > 0.0 && cold > 0.0 && warm > 0.0 && warm < cold && speedup >= 1.0 {
        Ok(())
    } else {
        Err(format!(
            "bad headline metrics (verified={verified}, cold={cold} ns, warm={warm} ns, \
             speedup={speedup})"
        ))
    }
}
