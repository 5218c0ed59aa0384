//! Virtual-time study of the streaming posterior engine
//! (`cargo bench -p bmf-bench --bench studies -- sequential`).
//!
//! Exercises the real [`bmf_core::sequential::SequentialBmf`] two ways
//! and builds the deterministic `BENCH_sequential.json` report:
//!
//! 1. **Speedup curve over K** — one stream absorbs `k_max` late-stage
//!    samples; after every sample the study *also* refits the seen
//!    prefix from scratch through the public batch estimator
//!    ([`bmf_core::map_estimate`]) and asserts the streamed posterior
//!    mean is bit-identical (`f64::to_bits`). Each arm is charged a
//!    virtual cost from the fixed flop model below, so the emitted
//!    incremental-vs-refit speedups move only when the *work profile*
//!    changes, never with the wall clock, machine, or `BMF_THREADS`.
//! 2. **Arrival replay** — a seeded late-stage arrival stream
//!    ([`bmf_circuits::traffic::generate_arrivals`], each event carrying
//!    its simulated silicon cost) is replayed against one stream per
//!    job on a single virtual server; update latencies are queueing
//!    delay plus the incremental update cost in virtual nanoseconds.
//!
//! Virtual cost model (per update on a stream holding `k` samples over
//! `m` coefficients): the incremental path projects the new row against
//! `k` cached rows, borders the Cholesky factor, and refreshes the
//! posterior mean — `Θ(k·m + k²)` fused multiply-adds; a from-scratch
//! refit rebuilds the `k×k` core Gram and refactorizes —
//! `Θ(k²·m + k³/3)`. Both arms are charged [`FLOP_NS`] per unit plus a
//! fixed dispatch base, from counts that depend only on `(k, m)`.

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::traffic::{generate_arrivals, ArrivalConfig};
use bmf_core::map_estimate::map_estimate;
use bmf_core::options::FitOptions;
use bmf_core::prior::{Prior, PriorKind};
use bmf_core::sequential::SequentialBmf;
use bmf_core::workspace::SeqWorkspace;
use bmf_core::BmfError;
use bmf_linalg::{Matrix, Vector};
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::{derive_seed, seeded};

use crate::study::{BenchReport, LatencySummary, Value};

/// Virtual nanoseconds charged per fused multiply-add unit of posterior
/// work.
pub const FLOP_NS: u64 = 2;
/// Fixed virtual dispatch cost of one incremental update (row caching,
/// factor bordering bookkeeping).
pub const UPDATE_BASE_NS: u64 = 300;
/// Fixed virtual dispatch cost of one from-scratch refit (design-matrix
/// assembly, solver setup and teardown). Kept close to the update base
/// so the curve is driven by the superlinear refit work, not by fixed
/// overheads that would mask it at small `k`.
pub const REFIT_BASE_NS: u64 = 600;

/// Virtual cost of absorbing sample `k` (1-based) into a stream of `m`
/// coefficients and refreshing its posterior mean.
pub fn incremental_update_ns(k: usize, m: usize) -> u64 {
    let (k, m) = (k as u64, m as u64);
    UPDATE_BASE_NS + FLOP_NS * (2 * k * m + 2 * k * k)
}

/// Virtual cost of refitting `k` samples over `m` coefficients from
/// scratch through the batch Woodbury solver.
pub fn refit_ns(k: usize, m: usize) -> u64 {
    let (k, m) = (k as u64, m as u64);
    REFIT_BASE_NS + FLOP_NS * (k * k * m + k * k * k / 3 + 2 * k * m)
}

/// Study configuration; use [`SeqStudyConfig::full`] or
/// [`SeqStudyConfig::smoke`] and tweak fields as needed.
#[derive(Debug, Clone)]
pub struct SeqStudyConfig {
    /// Master seed for sample points, truths, and the arrival stream.
    pub seed: u64,
    /// Variation variables (linear basis over these, so `vars + 1`
    /// coefficients).
    pub num_vars: usize,
    /// Samples absorbed by the speedup-curve stream.
    pub k_max: usize,
    /// Sample counts at which the curve reports cumulative totals; must
    /// be ascending and end at `k_max`.
    pub curve_ks: Vec<usize>,
    /// Late-stage arrival events replayed against the per-job streams.
    pub arrivals: usize,
    /// Distinct jobs (one stream each) in the arrival replay.
    pub jobs: usize,
    /// Mean exponential inter-arrival gap in virtual ns.
    pub mean_interarrival_ns: f64,
    /// Assert the steady-state zero-allocation budget under the
    /// counting allocator (no-op unless the `bench` feature is on).
    pub assert_allocs: bool,
}

impl SeqStudyConfig {
    /// The full-scale scenario behind the committed
    /// `BENCH_sequential.json`.
    pub fn full() -> Self {
        SeqStudyConfig {
            seed: 0x5E9B0F,
            num_vars: 15,
            k_max: 128,
            curve_ks: vec![8, 16, 32, 64, 128],
            arrivals: 4_096,
            jobs: 8,
            // Post-layout samples land every ~10 virtual ms — sparse
            // enough that the virtual server never builds backlog, so
            // the latency percentiles report update cost, not queueing
            // collapse.
            mean_interarrival_ns: 10_000_000.0,
            assert_allocs: false,
        }
    }

    /// CI-sized scenario: same shape, smaller stream, and the
    /// allocation budget asserted when the counting allocator is in.
    pub fn smoke() -> Self {
        SeqStudyConfig {
            num_vars: 7,
            k_max: 32,
            curve_ks: vec![8, 16, 32],
            arrivals: 512,
            jobs: 4,
            assert_allocs: true,
            ..SeqStudyConfig::full()
        }
    }
}

fn bitwise_mismatch(k: usize, i: usize, streamed: f64, batch: f64) -> BmfError {
    BmfError::Config {
        parameter: "sequential_study",
        detail: format!(
            "streamed posterior diverged from batch refit at k={k}, coefficient {i}: \
             streamed {streamed:e} vs batch {batch:e}"
        ),
    }
}

/// Runs the configured study against the real streaming estimator and
/// returns the deterministic `BENCH_sequential.json` report.
///
/// # Errors
///
/// Propagates estimator errors and fails loudly (structured
/// [`BmfError::Config`]) if any streamed posterior mean is not
/// bit-identical to the batch refit of the same prefix, or if [`check`]
/// fails.
pub fn run_sequential_study(cfg: &SeqStudyConfig) -> Result<BenchReport, BmfError> {
    let basis = OrthonormalBasis::linear(cfg.num_vars.max(1));
    let m = basis.len();
    let hyper = 0.75;
    let options = FitOptions::new().hyper(hyper);

    // ---- Part 1: speedup curve with an in-loop bitwise oracle. ----
    let mut rng = seeded(derive_seed(cfg.seed, 1));
    let mut normal = StandardNormal::new();
    let truth: Vec<f64> = (0..m).map(|i| ((i as f64) * 0.37).cos() * 1.5).collect();
    let prior_coeffs: Vec<f64> = truth
        .iter()
        .enumerate()
        .map(|(i, t)| t * (1.0 + 0.05 * (i as f64).sin()))
        .collect();
    let prior = Prior::from_coeffs(PriorKind::NonZeroMean, &prior_coeffs);

    let mut seq = SequentialBmf::new(&prior, hyper)?;
    seq.reserve(cfg.k_max);
    let mut ws = SeqWorkspace::for_problem(cfg.k_max, m);
    let mut streamed = vec![0.0; m];
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(cfg.k_max);
    let mut values: Vec<f64> = Vec::with_capacity(cfg.k_max);

    let mut incr_total: u64 = 0;
    let mut refit_total: u64 = 0;
    // (k, cumulative incremental ns, cumulative refit ns)
    let mut curve = Vec::with_capacity(cfg.curve_ks.len());
    let mut bitwise_checks: u64 = 0;

    for k in 1..=cfg.k_max {
        let point = normal.sample_vec(&mut rng, basis.num_vars());
        let row = basis.row(&point);
        let value = row.iter().zip(&truth).map(|(r, t)| r * t).sum::<f64>();
        seq.add_sample(&row, value, &mut ws)?;
        rows.push(row);
        values.push(value);
        incr_total += incremental_update_ns(k, m);
        refit_total += refit_ns(k, m);

        // Bitwise oracle: the streamed posterior mean must equal a
        // from-scratch batch fit of the seen prefix, bit for bit.
        seq.coefficients_into(&mut ws, &mut streamed)?;
        let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let g = Matrix::from_rows(&row_refs)?;
        let f = Vector::from(values.clone());
        let batch = map_estimate(&g, &f, &prior, &options)?;
        for (i, (s, b)) in streamed.iter().zip(batch.as_slice()).enumerate() {
            if s.to_bits() != b.to_bits() {
                return Err(bitwise_mismatch(k, i, *s, *b));
            }
        }
        bitwise_checks += 1;

        if cfg.curve_ks.contains(&k) {
            curve.push((k, incr_total, refit_total));
        }
    }

    // ---- Part 2: arrival replay on a single virtual server. ----
    let arrival_cfg = ArrivalConfig {
        arrivals: cfg.arrivals,
        mean_interarrival_ns: cfg.mean_interarrival_ns,
        jobs: cfg.jobs.max(1),
        ..ArrivalConfig::default()
    };
    let events = generate_arrivals(&arrival_cfg, derive_seed(cfg.seed, 2));

    let mut streams: Vec<SequentialBmf> = (0..arrival_cfg.jobs)
        .map(|_| SequentialBmf::new(&prior, hyper))
        .collect::<Result<_, _>>()?;
    for s in &mut streams {
        s.reserve(cfg.arrivals / arrival_cfg.jobs + 2);
    }
    let mut replay_rng = seeded(derive_seed(cfg.seed, 3));
    let mut row_buf = vec![0.0; m];
    let mut latencies = Vec::with_capacity(events.len());
    let mut busy_until_ns: u64 = 0;
    let mut makespan_ns: u64 = 1;
    let mut simulation_millihours: u64 = 0;

    for ev in &events {
        let stream = &mut streams[ev.job % arrival_cfg.jobs];
        let point = normal.sample_vec(&mut replay_rng, basis.num_vars());
        basis.fill_row(&point, &mut row_buf);
        let value = row_buf.iter().zip(&truth).map(|(r, t)| r * t).sum::<f64>();
        stream.add_sample(&row_buf, value, &mut ws)?;
        simulation_millihours += ev.cost_millihours;

        let cost = incremental_update_ns(stream.num_samples(), m);
        busy_until_ns = busy_until_ns.max(ev.at_ns) + cost;
        latencies.push(busy_until_ns - ev.at_ns);
        makespan_ns = makespan_ns.max(busy_until_ns);
    }
    // Every replayed stream must end healthy: posterior means stay
    // finite after hundreds of interleaved updates.
    for s in &streams {
        let coeffs = s.coefficients()?;
        if coeffs.as_slice().iter().any(|c| !c.is_finite()) {
            return Err(BmfError::Config {
                parameter: "sequential_study",
                detail: "arrival replay produced a non-finite posterior mean".to_string(),
            });
        }
    }
    let latency = LatencySummary::from_sorted(&mut latencies);
    let updates_per_s = events.len() as f64 / (makespan_ns as f64 / 1e9);

    if cfg.assert_allocs {
        assert_steady_state_alloc_free(&basis, &prior, hyper)?;
    }

    let mut report = BenchReport::new();
    report.section(
        "scenario",
        crate::fields! {
            seed: cfg.seed, vars: cfg.num_vars.max(1), terms: m, k_max: cfg.k_max,
            curve_points: curve.len(), arrivals: cfg.arrivals, jobs: cfg.jobs.max(1),
        },
    );
    report.section(
        "cost_model",
        crate::fields! {
            flop_ns: FLOP_NS, update_base_ns: UPDATE_BASE_NS, refit_base_ns: REFIT_BASE_NS,
        },
    );
    for &(k, incremental, refit) in &curve {
        report.section(
            format!("curve_k{k}"),
            crate::fields! { incremental_total_ns: incremental, refit_total_ns: refit },
        );
    }
    // "throughput" in the key name tells the trend gate these regress
    // downward: a shrinking speedup means streaming got more expensive.
    report.section(
        "speedup",
        curve.iter().map(|&(k, incremental, refit)| {
            let speedup = refit as f64 / incremental.max(1) as f64;
            (format!("k{k}_x_throughput"), Value::Fixed(speedup, 3))
        }),
    );
    report.section("latency_update", latency.fields());
    report.section(
        "arrival_cost",
        crate::fields! {
            simulation_millihours: simulation_millihours, updates: latency.count,
        },
    );
    report.scalar("bitwise_checks", bitwise_checks);
    report.scalar("updates_per_s_throughput", Value::Fixed(updates_per_s, 3));
    check(&report).map_err(|detail| BmfError::Config {
        parameter: "sequential_study",
        detail,
    })?;
    Ok(report)
}

/// Proves the streaming steady state allocation-free: after
/// [`SequentialBmf::reserve`] and one warm-up update, absorbing further
/// samples and refreshing coefficients performs zero heap allocations.
/// A no-op report when the counting allocator is not installed.
fn assert_steady_state_alloc_free(
    basis: &OrthonormalBasis,
    prior: &Prior,
    hyper: f64,
) -> Result<(), BmfError> {
    const WARMUP: usize = 4;
    const MEASURED: usize = 28;
    let m = basis.len();
    let total = WARMUP + MEASURED;

    let mut rng = seeded(0xA110C);
    let mut normal = StandardNormal::new();
    let rows: Vec<Vec<f64>> = (0..total)
        .map(|_| basis.row(&normal.sample_vec(&mut rng, basis.num_vars())))
        .collect();

    let mut seq = SequentialBmf::new(prior, hyper)?;
    seq.reserve(total);
    let mut ws = SeqWorkspace::for_problem(total, m);
    let mut out = vec![0.0; m];
    for row in rows.iter().take(WARMUP) {
        seq.add_sample(row, 1.0, &mut ws)?;
        seq.coefficients_into(&mut ws, &mut out)?;
        seq.predictive_variance(row, &mut ws)?;
    }

    let (result, delta) = crate::alloc::measure(|| -> Result<(), BmfError> {
        for row in rows.iter().skip(WARMUP) {
            seq.add_sample(row, 1.0, &mut ws)?;
            seq.coefficients_into(&mut ws, &mut out)?;
            seq.predictive_variance(row, &mut ws)?;
        }
        Ok(())
    });
    result?;
    if crate::alloc::counting_enabled() {
        assert_eq!(
            delta.count, 0,
            "steady-state streaming must not allocate: {MEASURED} updates performed \
             {} allocations ({} peak bytes)",
            delta.count, delta.peak_bytes
        );
        println!(
            "sequential/allocs                        0 allocations over {MEASURED} steady-state updates"
        );
    }
    Ok(())
}

/// The sequential study's postconditions: every curve sample was
/// bitwise-verified, updates were actually timed, and streaming beats
/// per-sample refitting at `k_max`.
///
/// # Errors
///
/// Names the failed condition and the values it saw.
pub fn check(report: &BenchReport) -> Result<(), String> {
    let checks = report.metric("bitwise_checks")?;
    let p99 = report.metric("latency_update.p99_ns")?;
    let k_max = report.metric("scenario.k_max")?;
    let speedup = report.metric(&format!("speedup.k{k_max}_x_throughput"))?;
    if checks > 0.0 && p99 > 0.0 && speedup > 1.0 {
        Ok(())
    } else {
        Err(format!(
            "bad headline metric (bitwise_checks={checks}, update p99={p99} ns, \
             k{k_max} speedup={speedup}x)"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unit-test scenario: small enough for the per-sample batch oracle
    /// to stay cheap while still crossing every curve checkpoint.
    fn tiny() -> SeqStudyConfig {
        SeqStudyConfig {
            num_vars: 4,
            k_max: 16,
            curve_ks: vec![4, 8, 16],
            arrivals: 128,
            jobs: 3,
            assert_allocs: true,
            ..SeqStudyConfig::full()
        }
    }

    #[test]
    fn study_is_byte_deterministic() {
        let a = run_sequential_study(&tiny()).expect("study run");
        assert_eq!(a, run_sequential_study(&tiny()).expect("study run"));
    }

    #[test]
    fn every_curve_sample_is_bitwise_verified() {
        let out = run_sequential_study(&tiny()).expect("study run");
        let m = |key: &str| out.metric(key).expect("gated key");
        assert_eq!(m("bitwise_checks"), 16.0, "one oracle check per sample");
        assert_eq!(m("scenario.curve_points"), 3.0);
        assert_eq!(
            m("latency_update.count"),
            128.0,
            "every arrival must be timed"
        );
        assert!(m("latency_update.p50_ns") > 0.0);
        assert!(m("updates_per_s_throughput") > 0.0);
        assert!(m("arrival_cost.simulation_millihours") > 0.0);
    }

    #[test]
    fn speedup_grows_with_stream_depth() {
        let out = run_sequential_study(&tiny()).expect("study run");
        let speedup = |k: u32| {
            out.metric(&format!("speedup.k{k}_x_throughput"))
                .expect("curve point")
        };
        // Refit cost is superlinear in k, so the speedup must grow.
        assert!(speedup(4) < speedup(8) && speedup(8) < speedup(16));
        assert!(
            speedup(16) > 2.0,
            "streaming must clearly beat refitting at k=16"
        );
    }

    #[test]
    fn cost_model_is_superlinear_in_refit() {
        assert!(refit_ns(64, 16) > incremental_update_ns(64, 16));
        // Doubling k must more than double the refit arm's advantage.
        let s32 = refit_ns(32, 16) as f64 / incremental_update_ns(32, 16) as f64;
        let s64 = refit_ns(64, 16) as f64 / incremental_update_ns(64, 16) as f64;
        assert!(s64 > s32);
    }
}
