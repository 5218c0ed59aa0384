//! Allocation profile of the fitting stack (`repro allocs`).
//!
//! Measures heap-allocation events and peak bytes for one cross-validated
//! [`BmfFitter`] fit and for a batch of fits sharing one sample set, then
//! writes `BENCH_allocs.json` (to `$BMF_BENCH_OUT`, or the workspace
//! root) so the perf trajectory has checked-in baseline numbers. Run
//! with the counting allocator installed:
//!
//! ```text
//! cargo run -p bmf-bench --features bench --release --bin repro -- allocs
//! ```
//!
//! Without the `bench` feature the experiment still runs (wall time is
//! reported) but every allocation figure is zero.

use bmf_basis::basis::OrthonormalBasis;
use bmf_core::batch::{BatchFitter, BatchJob};
use bmf_core::fusion::BmfFitter;
use bmf_core::options::FitOptions;
use bmf_core::BmfError;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::seeded;

use crate::alloc::{self, AllocStats};
use crate::report::Report;
use crate::scale::Scale;
use crate::study::{BenchReport, Value};

/// One measured configuration.
struct Row {
    name: &'static str,
    fits: usize,
    stats: AllocStats,
    wall_s: f64,
}

impl Row {
    fn allocs_per_fit(&self) -> u64 {
        self.stats.count / self.fits.max(1) as u64
    }
}

/// Runs the allocation study and writes `BENCH_allocs.json` to
/// [`crate::study::out_dir`].
///
/// # Errors
///
/// Propagates fitting errors; IO failure writing the JSON is reported as
/// a [`BmfError::Config`] so the repro driver surfaces it.
pub fn allocation_study(scale: Scale, seed: u64) -> Result<Report, BmfError> {
    // Representative late-stage shape: M = vars + 1 coefficients, K
    // samples a few times the fold count, Auto prior selection over the
    // default 17-point grid.
    let (num_vars, k, jobs): (usize, usize, usize) = match scale {
        Scale::Ci => (12, 24, 4),
        _ => (16, 32, 8),
    };
    let basis = OrthonormalBasis::linear(num_vars);
    let m = basis.len();

    let mut rng = seeded(seed);
    let mut normal = StandardNormal::new();
    let points: Vec<Vec<f64>> = (0..k)
        .map(|_| normal.sample_vec(&mut rng, num_vars))
        .collect();
    let truth: Vec<f64> = (0..m).map(|i| 1.5 / (1.0 + i as f64)).collect();
    let values: Vec<f64> = points
        .iter()
        .map(|p| truth[0] + p.iter().zip(&truth[1..]).map(|(x, t)| x * t).sum::<f64>())
        .collect();
    let early: Vec<Option<f64>> = truth
        .iter()
        .enumerate()
        .map(|(i, t)| Some(t * (1.0 + 0.05 * ((i * 3) as f64).sin())))
        .collect();
    let options = FitOptions::new().folds(5).seed(seed);

    // One cross-validated serial fit (warm up once so one-time lazy
    // setup is not charged to the measured fit).
    let fitter = BmfFitter::new(basis.clone(), early.clone())?.with_options(options.clone());
    fitter.fit(&points, &values)?;
    let t0 = std::time::Instant::now();
    let (serial, serial_stats) = alloc::measure(|| fitter.fit(&points, &values));
    let serial_wall = t0.elapsed().as_secs_f64();
    serial?;

    // A batch of jobs over the same shared point set, single-threaded so
    // the numbers are schedule-independent.
    let mut batch = BatchFitter::new(basis).with_options(options.threads(1));
    for j in 0..jobs {
        let prior: Vec<Option<f64>> = early
            .iter()
            .map(|v| v.map(|a| a * (1.0 + 0.01 * j as f64)))
            .collect();
        let jvals: Vec<f64> = values.iter().map(|v| v * (1.0 + 0.02 * j as f64)).collect();
        batch.push_job(BatchJob::new(format!("job{j}"), prior, jvals));
    }
    batch.fit(&points)?;
    let t1 = std::time::Instant::now();
    let (batched, batch_stats) = alloc::measure(|| batch.fit(&points));
    let batch_wall = t1.elapsed().as_secs_f64();
    batched?;

    let rows = [
        Row {
            name: "serial_cv_fit",
            fits: 1,
            stats: serial_stats,
            wall_s: serial_wall,
        },
        Row {
            name: "batch_cv_fit",
            fits: jobs,
            stats: batch_stats,
            wall_s: batch_wall,
        },
    ];

    let mut bench = BenchReport::new();
    bench.scalar("counting_enabled", alloc::counting_enabled());
    bench.section(
        "scenario",
        crate::fields! { vars: num_vars, terms: m, samples: k, folds: 5u64, grid: 17u64, jobs: jobs },
    );
    for row in &rows {
        bench.section(
            row.name,
            crate::fields! {
                fits: row.fits, allocs: row.stats.count, allocs_per_fit: row.allocs_per_fit(),
                peak_bytes: row.stats.peak_bytes, wall_s: Value::Fixed(row.wall_s, 6),
            },
        );
    }
    bench.write("allocs").map_err(|detail| BmfError::Config {
        parameter: "allocs-out",
        detail,
    })?;

    let mut report = Report::new("allocs", "Heap allocations per cross-validated fit");
    if !alloc::counting_enabled() {
        report.para(
            "**Counting allocator disabled** — rebuild with `--features bench` for real numbers.",
        );
    }
    report.para(&format!(
        "Scenario: M = {m} terms, K = {k} samples, 5 folds × 17 grid points × both prior \
         families; batch of {jobs} jobs on one shared sample set (1 thread)."
    ));
    report.table(
        &[
            "configuration",
            "fits",
            "allocs",
            "allocs/fit",
            "peak bytes",
            "wall s",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    r.fits.to_string(),
                    r.stats.count.to_string(),
                    r.allocs_per_fit().to_string(),
                    r.stats.peak_bytes.to_string(),
                    format!("{:.4}", r.wall_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
    report.para("Raw numbers written to `BENCH_allocs.json`.");
    Ok(report)
}
