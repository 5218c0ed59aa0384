//! Differential test of the cross-validation sweep.
//!
//! The engines build the Woodbury kernels once over all K rows, slice
//! each fold's kernels out of them, and factor each grid point's core
//! once for both prior families. The reference here does none of that:
//! it builds a fresh [`MapSweep::from_view`] on every fold's training
//! rows and solves every `(hyper, family)` cell on its own with
//! [`MapSweep::solve_with_kind`]. Every CV error the engines report must
//! be bit-identical to the reference, and the work counters must count
//! exactly the reference's usable folds and solved cells.

use bmf_basis::basis::OrthonormalBasis;
use bmf_core::batch::{BatchFitter, BatchJob};
use bmf_core::fusion::{response_scale, BmfFit, BmfFitter, FitCounters};
use bmf_core::hyper::{cross_validate_both, cross_validate_hyper, log_grid, CvConfig, CvOutcome};
use bmf_core::map_estimate::{map_estimate, MapSweep};
use bmf_core::options::FitOptions;
use bmf_core::prior::{Prior, PriorKind};
use bmf_core::{BmfError, Result};
use bmf_linalg::view::{matvec_into, outer_gram_cols_into, outer_gram_diag_into};
use bmf_linalg::{Matrix, Vector};
use bmf_stat::crossval::KFold;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::seeded;

const BOTH: [PriorKind; 2] = [PriorKind::ZeroMean, PriorKind::NonZeroMean];

/// What the per-cell reference computes for one CV run.
struct Reference {
    /// One outcome per requested family, or `None` when every fold was
    /// skipped (the engines then report `NotEnoughSamples`).
    outcomes: Option<Vec<CvOutcome>>,
    /// Folds whose sweep could be built.
    folds_used: usize,
    /// `(fold, hyper, family)` cells that solved.
    cells: usize,
}

fn reference_cv(
    g: &Matrix,
    f: &[f64],
    prior: &Prior,
    cfg: &CvConfig,
    kinds: &[PriorKind],
) -> Reference {
    let nzm = prior.with_kind(PriorKind::NonZeroMean);
    let n = cfg.grid.len();
    let mut sums = vec![vec![0.0f64; n]; kinds.len()];
    let mut counts = vec![vec![0usize; n]; kinds.len()];
    let (mut folds_used, mut cells) = (0, 0);
    for fold in KFold::new(g.nrows(), cfg.folds, cfg.seed).unwrap().iter() {
        let sweep = match MapSweep::from_view(g.rows_view(&fold.train), &nzm) {
            Ok(s) => s,
            Err(BmfError::NotEnoughSamples { .. }) => continue,
            Err(e) => panic!("reference sweep failed: {e}"),
        };
        folds_used += 1;
        let f_train = Vector::from(fold.train.iter().map(|&i| f[i]).collect::<Vec<_>>());
        let f_val: Vec<f64> = fold.validate.iter().map(|&i| f[i]).collect();
        let val_norm = f_val
            .iter()
            .map(|x| x * x)
            .sum::<f64>()
            .sqrt()
            .max(f64::MIN_POSITIVE);
        let g_val = g.rows_view(&fold.validate);
        let mut pred = vec![0.0; f_val.len()];
        for (gi, &h) in cfg.grid.iter().enumerate() {
            for (ki, &kind) in kinds.iter().enumerate() {
                let alpha = match sweep.solve_with_kind(&f_train, h, kind) {
                    Ok(a) => a,
                    Err(BmfError::Linalg(_)) => continue,
                    Err(e) => panic!("reference solve failed: {e}"),
                };
                cells += 1;
                matvec_into(g_val, alpha.as_slice(), &mut pred).unwrap();
                let mut s = 0.0;
                for (p, v) in pred.iter().zip(&f_val) {
                    let d = p - v;
                    s += d * d;
                }
                sums[ki][gi] += s.sqrt() / val_norm;
                counts[ki][gi] += 1;
            }
        }
    }
    let outcomes = (0..kinds.len())
        .map(|ki| {
            let mut errors = Vec::new();
            let mut best: Option<(f64, f64)> = None;
            for (gi, &h) in cfg.grid.iter().enumerate() {
                if counts[ki][gi] == 0 {
                    continue;
                }
                let mean = sums[ki][gi] / counts[ki][gi] as f64;
                errors.push((h, mean));
                if best.is_none_or(|(_, e)| mean < e) {
                    best = Some((h, mean));
                }
            }
            best.map(|(best_hyper, best_error)| CvOutcome {
                best_hyper,
                best_error,
                errors,
            })
        })
        .collect();
    Reference {
        outcomes,
        folds_used,
        cells,
    }
}

fn bits(out: &CvOutcome) -> (u64, u64, Vec<(u64, u64)>) {
    (
        out.best_hyper.to_bits(),
        out.best_error.to_bits(),
        out.errors
            .iter()
            .map(|(h, e)| (h.to_bits(), e.to_bits()))
            .collect(),
    )
}

/// Compares an engine's outcomes with the reference: bitwise equal, or
/// both report that every fold was skipped.
fn assert_matches(want: &Reference, got: Result<Vec<CvOutcome>>, what: &str) {
    match (&want.outcomes, got) {
        (Some(want), Ok(got)) => {
            assert_eq!(got.len(), want.len(), "{what}");
            for (ki, (g, w)) in got.iter().zip(want).enumerate() {
                assert_eq!(
                    bits(g),
                    bits(w),
                    "{what} family {ki}: CV errors differ from the per-cell reference"
                );
            }
        }
        (None, Err(BmfError::NotEnoughSamples { .. })) => {}
        (want, got) => panic!(
            "{what}: reference outcomes {:?} vs engine {got:?}",
            want.is_some()
        ),
    }
}

/// One CV scenario: a raw design with an optional missing-prior block.
struct Case {
    name: String,
    g: Matrix,
    f: Vec<f64>,
    early: Vec<Option<f64>>,
    cfg: CvConfig,
}

fn random_case(seed: u64) -> Case {
    let mut rng = seeded(seed);
    let mut normal = StandardNormal::new();
    let k = 10 + rng.gen_index(30);
    let m = 4 + rng.gen_index(60);
    let folds = 2 + rng.gen_index(4);
    // Half the cases have a missing block, never larger than a training
    // fold, so at least one fold is usable.
    let min_train = k - k.div_ceil(folds);
    let nz = if seed.is_multiple_of(2) {
        0
    } else {
        1 + rng.gen_index(min_train.min(m - 1))
    };
    let g = Matrix::from_fn(k, m, |_, _| normal.sample(&mut rng));
    let mut early: Vec<Option<f64>> = (0..m)
        .map(|i| Some((0.5 + normal.sample(&mut rng)) / (1.0 + i as f64)))
        .collect();
    for slot in early
        .iter_mut()
        .skip(1)
        .step_by(m.div_ceil(nz.max(1)))
        .take(nz)
    {
        *slot = None;
    }
    let f = (0..k).map(|_| normal.sample(&mut rng)).collect();
    Case {
        name: format!("random seed {seed} (K={k}, M={m}, folds={folds})"),
        g,
        f,
        early,
        cfg: CvConfig {
            folds,
            grid: log_grid(1e-3, 1e3, 9),
            seed,
        },
    }
}

/// Checks both public CV entry points against the reference for one
/// case, including the all-folds-skipped error.
fn check_case(case: &Case) {
    let f = Vector::from(case.f.clone());
    let prior = Prior::new(PriorKind::ZeroMean, case.early.clone());
    let both = reference_cv(&case.g, &case.f, &prior, &case.cfg, &BOTH);
    let got = cross_validate_both(&case.g, &f, &prior, &case.cfg).map(|(zm, nzm)| vec![zm, nzm]);
    assert_matches(&both, got, &format!("{} both", case.name));
    for kind in BOTH {
        let p = prior.with_kind(kind);
        let single = reference_cv(&case.g, &case.f, &p, &case.cfg, &[kind]);
        assert_eq!(single.folds_used, both.folds_used);
        let got = cross_validate_hyper(&case.g, &f, &p, &case.cfg).map(|o| vec![o]);
        assert_matches(&single, got, &format!("{} hyper/{kind:?}", case.name));
    }
}

/// Anchors the reference's per-family solve to an independent code
/// path: on the full data it must agree with the one-shot fast solver
/// ([`map_estimate`]) to rounding, for both families.
fn check_against_one_shot_solver(case: &Case) {
    let f = Vector::from(case.f.clone());
    let prior = Prior::new(PriorKind::NonZeroMean, case.early.clone());
    let sweep = match MapSweep::new(&case.g, &prior) {
        Ok(s) => s,
        Err(BmfError::NotEnoughSamples { .. }) => return,
        Err(e) => panic!("{}: {e}", case.name),
    };
    for h in [0.1, 1.0, 10.0] {
        for kind in BOTH {
            let swept = sweep.solve_with_kind(&f, h, kind).unwrap();
            let options = FitOptions::new().hyper(h);
            let direct = map_estimate(&case.g, &f, &prior.with_kind(kind), &options).unwrap();
            let rel = swept.sub(&direct).unwrap().norm2() / direct.norm2().max(1e-30);
            assert!(
                rel < 1e-7,
                "{} h={h} {kind:?}: relative gap {rel}",
                case.name
            );
        }
    }
}

#[test]
fn narrowed_missing_gram_equals_indicator_gram_bitwise() {
    for seed in 0..24u64 {
        let mut rng = seeded(seed);
        let mut normal = StandardNormal::new();
        let k = 1 + rng.gen_index(20);
        let m = 1 + rng.gen_index(40);
        let g = Matrix::from_fn(k, m, |_, _| normal.sample(&mut rng));
        let cols: Vec<usize> = (0..m).filter(|_| rng.gen_index(3) == 0).collect();
        let indicator: Vec<f64> = (0..m)
            .map(|c| if cols.contains(&c) { 1.0 } else { 0.0 })
            .collect();
        // Both on the dense matrix and on a shuffled row subset (a fold).
        let rows: Vec<usize> = (0..k).rev().filter(|&i| i % 3 != 1).collect();
        for view in [g.as_view(), g.rows_view(&rows)] {
            let n = view.nrows();
            let mut narrow = Matrix::zeros(n, n);
            let mut full = Matrix::zeros(n, n);
            outer_gram_cols_into(view, &cols, narrow.as_view_mut()).unwrap();
            outer_gram_diag_into(view, &indicator, full.as_view_mut()).unwrap();
            let b = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                b(&narrow),
                b(&full),
                "seed {seed}: |C|={} of M={m}",
                cols.len()
            );
        }
    }
}

#[test]
fn cv_entry_points_match_per_cell_reference_on_random_shapes() {
    for seed in 0..16 {
        let case = random_case(seed);
        check_against_one_shot_solver(&case);
        check_case(&case);
    }
}

#[test]
fn folds_too_small_for_the_missing_block_are_skipped_like_the_reference() {
    let mut rng = seeded(5);
    let mut normal = StandardNormal::new();
    // K=13 in 5 folds trains on 10 or 11 rows: with 11 missing columns
    // only the 11-row folds are usable; with 12, none is; with 14, not
    // even the full data is.
    for nz in [11, 12, 14] {
        let (k, m) = (13, 20);
        let g = Matrix::from_fn(k, m, |_, _| normal.sample(&mut rng));
        let early = (0..m)
            .map(|i| (i >= nz).then(|| 1.0 / (1.0 + i as f64)))
            .collect();
        let f = (0..k).map(|_| normal.sample(&mut rng)).collect();
        let case = Case {
            name: format!("{nz} missing of K=13"),
            g,
            f,
            early,
            cfg: CvConfig {
                folds: 5,
                grid: log_grid(1e-2, 1e2, 5),
                seed: 2,
            },
        };
        let prior = Prior::new(PriorKind::ZeroMean, case.early.clone());
        let r = reference_cv(&case.g, &case.f, &prior, &case.cfg, &BOTH);
        assert_eq!(r.folds_used, if nz == 11 { 2 } else { 0 }, "{}", case.name);
        check_case(&case);
    }
}

/// Seeded sample points. With `tie`, variables 1 and 2 coincide: when
/// both of their linear terms miss a prior, the augmented Woodbury core
/// is singular and every cell climbs the LU ladder.
fn sample_points(k: usize, r: usize, seed: u64, tie: bool) -> Vec<Vec<f64>> {
    let mut rng = seeded(seed);
    let mut normal = StandardNormal::new();
    (0..k)
        .map(|_| {
            let mut p = normal.sample_vec(&mut rng, r);
            if tie {
                p[2] = p[1];
            }
            p
        })
        .collect()
}

fn early_for(r: usize, job: usize, missing: &[usize]) -> Vec<Option<f64>> {
    (0..=r)
        .map(|i| {
            (!missing.contains(&i)).then(|| ((i + 2 * job) as f64 * 0.9).cos() / (1.0 + i as f64))
        })
        .collect()
}

fn values_for(points: &[Vec<f64>], job: usize) -> Vec<f64> {
    points
        .iter()
        .map(|p| {
            1.0 + p
                .iter()
                .enumerate()
                .map(|(i, x)| ((i + job) as f64 * 0.4).sin() * x)
                .sum::<f64>()
        })
        .collect()
}

/// The reference for one fitted job: the design matrix and normalization
/// the fitters use, then the per-cell CV.
fn reference_fit(
    basis: &OrthonormalBasis,
    points: &[Vec<f64>],
    early: &[Option<f64>],
    values: &[f64],
    cfg: &CvConfig,
) -> Reference {
    let g = basis.design_matrix(points.iter().map(|p| p.as_slice()));
    let scale = response_scale(values);
    let f: Vec<f64> = values.iter().map(|v| v / scale).collect();
    let prior = Prior::new(
        PriorKind::ZeroMean,
        early.iter().map(|v| v.map(|a| a / scale)).collect(),
    );
    reference_cv(&g, &f, &prior, cfg, &BOTH)
}

fn check_fit(fit: &BmfFit, want: &Reference, what: &str) {
    let sel = &fit.selection;
    let got = match (&sel.zero_mean, &sel.nonzero_mean) {
        (Some(zm), Some(nzm)) => vec![zm.clone(), nzm.clone()],
        _ => panic!("{what}: BMF-PS must evaluate both families"),
    };
    assert_matches(want, Ok(got), what);
    assert_eq!(
        fit.counters.map_solves,
        want.cells + 1,
        "{what}: one solve per cell plus the final one"
    );
}

#[test]
fn fitters_match_per_cell_reference_and_each_other_across_pool_sizes() {
    let r = 9;
    let basis = OrthonormalBasis::linear(r);
    // Jobs 0 and 2 share a prior pattern with a missing block
    // (kernel-cache hits); job 1 has no missing block.
    for (name, tie, block) in [("random", false, [3, 7]), ("near-singular", true, [2, 3])] {
        let points = sample_points(23, r, 11, tie);
        let missing: [&[usize]; 3] = [&block, &[], &block];
        let jobs: Vec<BatchJob> = (0..3)
            .map(|j| {
                // Job 2 repeats job 0's prior over job 0's negated
                // response: the same RMS scale, so the same normalized
                // prior pattern, but different CV errors.
                let base = if j == 2 { 0 } else { j };
                let mut values = values_for(&points, base);
                if j == 2 {
                    values.iter_mut().for_each(|v| *v = -*v);
                }
                BatchJob::new(format!("job{j}"), early_for(r, base, missing[j]), values)
            })
            .collect();
        let options = FitOptions::new()
            .folds(4)
            .seed(7)
            .grid(log_grid(1e-3, 1e3, 11));
        let cfg = CvConfig {
            folds: options.folds,
            grid: options.grid.clone(),
            seed: options.seed,
        };
        let mut serial: Vec<BmfFit> = Vec::new();
        for (j, job) in jobs.iter().enumerate() {
            let want = reference_fit(&basis, &points, &job.prior, &job.values, &cfg);
            let fit = BmfFitter::new(basis.clone(), job.prior.clone())
                .unwrap()
                .with_options(options.clone())
                .fit(&points, &job.values)
                .unwrap();
            let what = format!("{name} BmfFitter job {j}");
            check_fit(&fit, &want, &what);
            assert_eq!(fit.counters.kernels_built, want.folds_used, "{what}");
            serial.push(fit);
        }
        if name == "near-singular" {
            // Every CV cell of a tied job is degraded, and each family's
            // cell is counted although the two share one factorization.
            // The final full-data solve may or may not degrade.
            for j in [0, 2] {
                let c = serial[j].counters;
                assert!(
                    c.degraded_solves + 1 >= c.map_solves && c.degraded_solves > 0,
                    "job {j}: every cell must climb the ladder: {c:?}"
                );
            }
            assert_eq!(serial[1].counters.degraded_solves, 0);
        }
        // `threads(0)` defers to BMF_THREADS / the machine's pool size.
        for threads in [1, 0] {
            let report = BatchFitter::new(basis.clone())
                .with_options(options.clone().threads(threads))
                .with_jobs(jobs.clone())
                .fit(&points)
                .unwrap();
            let mut total = FitCounters::default();
            for (j, (fit, single)) in report.fits.iter().zip(&serial).enumerate() {
                let what = format!("{name} BatchFitter threads={threads} job {j}");
                let want = reference_fit(&basis, &points, &jobs[j].prior, &jobs[j].values, &cfg);
                check_fit(fit, &want, &what);
                // Same work as the serial fit, except that job 2 reuses
                // job 0's kernels instead of building them.
                let mut expect: FitCounters = single.counters;
                if j == 2 {
                    expect.kernels_built = 0;
                    expect.kernel_cache_hits = want.folds_used;
                } else {
                    expect.kernel_cache_misses = want.folds_used;
                }
                assert_eq!(fit.counters, expect, "{what}");
                total.merge(&fit.counters);
            }
            assert_eq!(report.counters, total);
        }
    }
}
