//! `ro_fit`: time-to-model. One caller repeats a BMF-PS fit of the
//! ring-oscillator frequency (paper Table III) at K=300 late-stage
//! samples: 5 folds, the default 17-point grid, the fast solver.
//!
//! Only the basis, linalg, MAP, CV and fusion layers run; no service,
//! pool, sequential or persist code. A CV or kernel speed-up must show
//! here, a service or persist change must not.
//!
//! `op_time_ref` is each fit's time over the time of a 240 × 1968 Gram
//! matrix (the kernel build of one CV training fold, twice) timed after
//! it: the median over fits.
//!
//! Scale note: the paper shape (M=7177) cost 8.3–10.5 s per fit at
//! K=400 on a 2-vCPU Xeon, and below K≈350 it cannot be fitted — its
//! 275 parasitic terms without a prior outnumber the rows of a CV
//! training fold (`NotEnoughSamples`). The default shape (1967 variables, M=1968 terms) is
//! the largest that keeps a run within its time budget.

use std::time::{Duration, Instant};

use bmf_basis::basis::OrthonormalBasis;
use bmf_bench::scale::Scale;
use bmf_circuits::ro::{RingOscillator, RoConfig, RoMetric};
use bmf_circuits::sim::{monte_carlo, SampleSet};
use bmf_circuits::stage::{CircuitPerformance, Stage};
use bmf_core::fusion::{response_scale, BmfFit, BmfFitter};
use bmf_core::hyper::{cross_validate_both, CvConfig};
use bmf_core::map_estimate::{map_estimate, MapSweep};
use bmf_core::omp::{fit_omp, OmpConfig};
use bmf_core::options::FitOptions;
use bmf_core::prior::{Prior, PriorKind};
use bmf_linalg::Vector;
use bmf_stat::crossval::KFold;
use bmf_stat::rng::derive_seed;

use crate::reference::{Paced, Reference, SetupClock};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Outcome, RunParams, Size};

/// Pinned `(seed, prior kind, hyper, fit_rel_err)` of the full shape.
const PINS: &str = include_str!("../ro_fit_pins.txt");

/// Relative tolerance of the pinned hyper and error: the fit is
/// deterministic, but the grid and the circuit go through the platform
/// `exp`/`ln`, whose last bit may differ between C libraries.
const PIN_RTOL: f64 = 1e-9;

struct Shape {
    ro: RoConfig,
    early_samples: usize,
    early_max_terms: usize,
    k: usize,
    test: usize,
    /// Reference Gram matrix, `(rows, cols, reps)`: the shape of the
    /// kernel build on one CV training fold.
    reference: (usize, usize, usize),
    /// The reference's time on an uncontended core, for `setup_s`.
    reference_nominal_s: f64,
}

impl Shape {
    fn of(size: Size) -> Self {
        match size {
            Size::Full => Shape {
                ro: RoConfig::default_shape(),
                early_samples: 3000,
                early_max_terms: 300,
                k: 300,
                test: 300,
                reference: (240, 1968, 2),
                reference_nominal_s: 0.028,
            },
            Size::Tiny => Shape {
                ro: Scale::Ci.ro_config(),
                early_samples: 300,
                early_max_terms: 60,
                k: 80,
                test: 100,
                reference: (64, 121, 1),
                reference_nominal_s: 0.0002,
            },
        }
    }
}

/// Everything set-up produces.
struct Inputs {
    fitter: BmfFitter,
    /// The fitter's early values (it keeps its own copy private).
    prior: Vec<Option<f64>>,
    train: SampleSet,
    test: SampleSet,
}

fn setup(shape: &Shape, seed: u64) -> Result<Inputs, String> {
    let ro = RingOscillator::new(shape.ro.clone(), derive_seed(seed, 0));
    let metric = ro.metric(RoMetric::Frequency);
    let sim = |stage, n, stream| {
        monte_carlo(&metric, stage, n, derive_seed(seed, stream)).map_err(|e| e.to_string())
    };
    let schematic = sim(Stage::Schematic, shape.early_samples, 1)?;
    let early_vars = metric.num_vars(Stage::Schematic);
    let omp = fit_omp(
        &OrthonormalBasis::linear(early_vars),
        &schematic.points,
        &schematic.values,
        &OmpConfig {
            max_terms: Some(shape.early_max_terms),
            // Every seed selects exactly `early_max_terms` terms, so
            // set-up costs the same for every seed.
            patience: shape.early_max_terms,
            seed: derive_seed(seed, 1),
            ..OmpConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let late_vars = metric.num_vars(Stage::PostLayout);
    let train = sim(Stage::PostLayout, shape.k, 2)?;
    let test = sim(Stage::PostLayout, shape.test, 3)?;
    // Schematic coefficients, then missing priors for the parasitic
    // (late-only) variables (§IV-B).
    let mut prior: Vec<Option<f64>> = omp.model.coeffs().iter().map(|&a| Some(a)).collect();
    prior.resize(late_vars + 1, None);
    let fitter = BmfFitter::new(OrthonormalBasis::linear(late_vars), prior.clone())
        .map_err(|e| e.to_string())?
        .with_options(FitOptions::new().seed(derive_seed(seed, 4)));
    Ok(Inputs {
        fitter,
        prior,
        train,
        test,
    })
}

/// The result of one fit as the checks compare it.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    kind: PriorKind,
    hyper: f64,
    coeff_bits: Vec<u64>,
}

impl Fingerprint {
    fn of(kind: PriorKind, hyper: f64, coeffs: &[f64]) -> Self {
        Fingerprint {
            kind,
            hyper,
            coeff_bits: coeffs.iter().map(|c| c.to_bits()).collect(),
        }
    }
}

/// BMF-PS step by step through public calls — `design_matrix`, then
/// `cross_validate_both`, then `map_estimate` — each in its own span
/// under one `fit` span. Mirrors `BmfFitter::fit`, so it must select
/// the same prior kind and hyper and produce the same coefficients.
fn stepwise_fit(inputs: &Inputs, tr: &mut Tracer) -> bmf_core::Result<Fingerprint> {
    let fitter = &inputs.fitter;
    let options = fitter.options();
    let values = &inputs.train.values;
    let fit_span = tr.begin("fit");
    let g = tr.span("design_matrix", || {
        fitter.basis().design_matrix(inputs.train.point_slices())
    });
    // The fitter normalizes the response and the prior by the RMS.
    let scale = response_scale(values);
    let f = Vector::from_fn(values.len(), |i| values[i] / scale);
    let prior = Prior::new(
        PriorKind::ZeroMean,
        inputs.prior.iter().map(|v| v.map(|a| a / scale)).collect(),
    );
    let cv = CvConfig {
        folds: options.folds,
        grid: options.grid.clone(),
        seed: options.seed,
    };
    let (zm, nzm) = tr.span("cross_validate_both", || {
        cross_validate_both(&g, &f, &prior, &cv)
    })?;
    // The BMF-PS rule: the lower CV error wins, ties to zero-mean.
    let (kind, hyper) = if zm.best_error <= nzm.best_error {
        (PriorKind::ZeroMean, zm.best_hyper)
    } else {
        (PriorKind::NonZeroMean, nzm.best_hyper)
    };
    let alpha = tr.span("map_estimate", || {
        map_estimate(
            &g,
            &f,
            &prior.with_kind(kind),
            &options.clone().hyper(hyper),
        )
    })?;
    let coeffs: Vec<f64> = alpha.iter().map(|a| a * scale).collect();
    tr.end(fit_span);
    Ok(Fingerprint::of(kind, hyper, &coeffs))
}

/// Times `MapSweep::new` on the first CV training fold (the Θ(K²M)
/// kernel build) and `MapSweep::solve` at every grid point, as spans.
fn probe_sweep(inputs: &Inputs, kind: PriorKind, tr: &mut Tracer) -> bmf_core::Result<()> {
    let fitter = &inputs.fitter;
    let options = fitter.options();
    let values = &inputs.train.values;
    let g = fitter.basis().design_matrix(inputs.train.point_slices());
    let scale = response_scale(values);
    let prior = Prior::new(
        kind,
        inputs.prior.iter().map(|v| v.map(|a| a / scale)).collect(),
    );
    let fold = KFold::new(values.len(), options.folds, options.seed)
        .map_err(|_| bmf_core::BmfError::NotEnoughSamples {
            available: values.len(),
            required: options.folds,
            context: "cross-validation folds",
        })?
        .fold(0);
    let f = Vector::from_fn(fold.train.len(), |i| values[fold.train[i]] / scale);
    for _ in 0..3 {
        let sweep = tr.span("MapSweep::new", || {
            MapSweep::from_view(g.rows_view(&fold.train), &prior)
        })?;
        for &h in &options.grid {
            tr.span("MapSweep::solve", || sweep.solve_with_kind(&f, h, kind))?;
        }
    }
    Ok(())
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn run(p: RunParams) -> Result<Outcome, String> {
    let shape = Shape::of(p.size);
    let mut out = Outcome::default();
    let (rows, cols, reps) = shape.reference;
    let mut clock = SetupClock::new(Reference::new(rows, cols, reps), shape.reference_nominal_s);
    let inputs = clock.time(|| setup(&shape, p.seed))?;
    out.set("setup_s", clock.setup_s());
    out.set("setup_wall_s", clock.wall_s());
    let prior = inputs.prior.iter().map(|v| v.unwrap_or(f64::NAN));
    out.input_digest = crate::digest(
        crate::digest(
            0,
            inputs
                .train
                .values
                .iter()
                .chain(&inputs.test.values)
                .copied(),
        ),
        prior,
    );

    // Untraced fits: the end-to-end numbers. A traced run spends half
    // its budget here and half on traced iterations.
    let budget = Duration::from_secs_f64(if p.trace { p.seconds / 2.0 } else { p.seconds });
    let mut times = Vec::new();
    let mut first: Option<BmfFit> = None;
    let mut identical = true;
    let mut paced = Paced::new(Reference::new(rows, cols, reps));
    let start = Instant::now();
    while times.is_empty() || start.elapsed() < budget {
        out.attempted += 1;
        let t = Instant::now();
        let fit = std::hint::black_box(inputs.fitter.fit(
            std::hint::black_box(&inputs.train.points),
            &inputs.train.values,
        ));
        let secs = t.elapsed().as_secs_f64();
        times.push(secs);
        paced.close(secs, 1.0);
        match (fit, &first) {
            (Ok(fit), None) => first = Some(fit),
            (Ok(fit), Some(f0)) => identical &= same_fit(&fit, f0),
            (Err(e), _) => {
                out.failed_ops += 1;
                out.notes.push(format!("fit failed: {e}"));
            }
        }
    }
    let Some(fit) = first else {
        return Ok(out);
    };
    out.check(identical, || {
        "repeated fits of the same data differ".to_string()
    });
    let fit_s = median(&mut times.clone());

    out.set("fit_s", fit_s);
    out.set("op_time_ref", paced.cost());
    out.set("reference_ms", paced.reference_s() * 1e3);
    out.set("latency_p50_ms", fit_s * 1e3);
    out.set("latency_p90_ms", percentile(&mut times.clone(), 0.90) * 1e3);
    out.set(
        "throughput_per_s",
        times.len() as f64 / times.iter().sum::<f64>(),
    );
    out.set("fit.map_solves", fit.counters.map_solves as f64);
    out.set("fit.kernels_built", fit.counters.kernels_built as f64);
    out.set("fit.degraded_solves", fit.counters.degraded_solves as f64);
    let rel_err = fit
        .model
        .relative_error(inputs.test.point_slices(), &inputs.test.values)
        .map_err(|e| e.to_string())?;
    out.set("fit_rel_err", rel_err);
    out.notes.push(format!(
        "ro_fit pin: {} {:?} {} {} ({} fits, M={}, K={})",
        p.seed,
        fit.prior_kind,
        fit.hyper,
        rel_err,
        times.len(),
        fit.model.coeffs().len(),
        shape.k
    ));
    let reference = Fingerprint::of(fit.prior_kind, fit.hyper, fit.model.coeffs());

    match (p.size, pinned(p.seed)) {
        (Size::Full, Some((kind, hyper, err))) => {
            out.check(
                kind == format!("{:?}", fit.prior_kind) && close(hyper, fit.hyper) && close(err, rel_err),
                || {
                    format!(
                        "seed {}: selected {:?} at {} with error {rel_err}, pinned {kind} at {hyper} with error {err}",
                        p.seed, fit.prior_kind, fit.hyper
                    )
                },
            );
        }
        // No pin for this seed: the untraced run re-derives the fit
        // step by step once, outside the timed loop.
        _ if !p.trace => {
            let mut off = Tracer::new(false);
            let step = stepwise_fit(&inputs, &mut off).map_err(|e| e.to_string())?;
            out.check(step == reference, || {
                "step-by-step fit differs from BmfFitter::fit".to_string()
            });
        }
        _ => {}
    }
    if !p.trace {
        return Ok(out);
    }

    // Traced iterations: one `fit` span per iteration, its steps as
    // children; every iteration must reproduce the fitter's result.
    let mut tr = Tracer::new(true);
    let start = Instant::now();
    let mut iteration = 0u64;
    while iteration == 0 || start.elapsed() < budget {
        tr.set_group(iteration);
        out.attempted += 1;
        match stepwise_fit(&inputs, &mut tr) {
            Ok(step) => out.check(step == reference, || {
                format!("traced iteration {iteration} differs from BmfFitter::fit")
            }),
            Err(e) => {
                out.failed_ops += 1;
                out.notes.push(format!("traced fit failed: {e}"));
            }
        }
        iteration += 1;
    }
    tr.set_group(iteration);
    out.attempted += 1;
    if let Err(e) = probe_sweep(&inputs, fit.prior_kind, &mut tr) {
        out.failed_ops += 1;
        out.notes.push(format!("sweep probe failed: {e}"));
    }

    let ms = |mut v: Vec<f64>| median(&mut v) * 1e-6;
    let fit_spans = tr.durations("fit");
    let cv_spans = tr.durations("cross_validate_both");
    out.set("basis.design_ms", ms(tr.durations("design_matrix")));
    out.set("cv.sweep_ms", ms(cv_spans.clone()));
    out.set(
        "cv.share",
        cv_spans.iter().sum::<f64>() / fit_spans.iter().sum::<f64>(),
    );
    out.set("map.final_ms", ms(tr.durations("map_estimate")));
    out.set("map.sweep_new_ms", ms(tr.durations("MapSweep::new")));
    out.set("map.grid_solve_ms", ms(tr.durations("MapSweep::solve")));
    let self_ns = tr.self_times("fit");
    out.set("fit.self_ms", ms(self_ns.clone()));
    // The steps run one after another, so each fit span is exactly its
    // children's time plus its self time.
    let children = tr.children_total("fit");
    let accounted = fit_spans
        .iter()
        .zip(&self_ns)
        .zip(&children)
        .all(|((d, s), c)| *d == s + c);
    out.check(accounted, || {
        "fit span is not its children plus its self time".to_string()
    });
    let mean = |name: &str| {
        let v = tr.durations(name);
        v.iter().sum::<f64>() / v.len().max(1) as f64 * 1e-6
    };
    out.notes.push(format!(
        "fit span (mean over {} iterations) {:.3} ms = design_matrix {:.3} + cross_validate_both {:.3} + map_estimate {:.3} + self {:.3} ms",
        fit_spans.len(),
        mean("fit"),
        mean("design_matrix"),
        mean("cross_validate_both"),
        mean("map_estimate"),
        self_ns.iter().sum::<f64>() / self_ns.len().max(1) as f64 * 1e-6
    ));
    let span_ms = ms(fit_spans);
    out.set("fit.span_ms", span_ms);
    out.set("trace.overhead_frac", span_ms / (fit_s * 1e3) - 1.0);
    out.spans = tr;
    Ok(out)
}

fn same_fit(a: &BmfFit, b: &BmfFit) -> bool {
    a.prior_kind == b.prior_kind
        && a.hyper.to_bits() == b.hyper.to_bits()
        && a.model.coeffs().iter().map(|c| c.to_bits()).eq(b
            .model
            .coeffs()
            .iter()
            .map(|c| c.to_bits()))
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= PIN_RTOL * a.abs().max(b.abs())
}

/// The pin for `seed`: `(kind, hyper, fit_rel_err)`.
fn pinned(seed: u64) -> Option<(String, f64, f64)> {
    PINS.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [s, kind, hyper, err] if s.parse() == Ok(seed) => {
                    Some((kind.to_string(), hyper.parse().ok()?, err.parse().ok()?))
                }
                _ => None,
            }
        })
}
