//! `stream_persist`: one caller runs 16 streaming models. Each stream
//! fits a 256-term linear basis of a `SyntheticCircuit` (no late-only
//! variables) under its true early coefficients as a dense prior and a
//! fixed hyper-parameter. Each round appends one sample per stream and
//! drains, until every stream holds 256 samples; every 32 rounds a
//! checkpoint exports every stream and puts it durably into an
//! `ArtifactStore` on the real filesystem. A pass ends with `compact`,
//! dropping store and service, `ArtifactStore::open` and `warm_start` of
//! a fresh service, and a check that its predictions are bit-identical
//! and the store is clean.
//!
//! This is the only workload that runs `sequential`, the codec and the
//! store, with writes (put, compact) beside reads (open, get, import);
//! no CV sweep runs.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::sim::monte_carlo;
use bmf_circuits::stage::Stage;
use bmf_circuits::synthetic::{SyntheticCircuit, SyntheticConfig};
use bmf_core::prior::{Prior, PriorKind};
use bmf_core::sequential::SequentialBmf;
use bmf_core::service::{FitService, ServiceConfig};
use bmf_core::snapshot::ModelSnapshot;
use bmf_core::workspace::SeqWorkspace;
use bmf_persist::artifact::{decode_snapshot, encode_snapshot};
use bmf_persist::store::ArtifactStore;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::{derive_seed, seeded};

use crate::countvfs::{CountingVfs, IoCounts};
use crate::reference::{Paced, Reference, SetupClock};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Outcome, RunParams, Size};

/// Fixed hyper-parameter of every stream.
const HYPER: f64 = 0.75;
/// Set-ups before the measurement, and again after it; `setup_s` is
/// the median of all of them.
const SETUP_REPEATS: usize = 5;
/// The reference's time on an uncontended core (full shape), for
/// `setup_s`.
const REFERENCE_NOMINAL_S: f64 = 0.0016;
/// Probe points per stream for the warm-start comparison.
const PROBES: usize = 8;
/// Timed `add_sample` calls on the offline replica.
const ADD_SAMPLE_REPEATS: usize = 32;

struct Shape {
    streams: usize,
    vars: usize,
    samples: usize,
    checkpoint_every: usize,
}

impl Shape {
    fn of(size: Size) -> Self {
        match size {
            Size::Full => Shape {
                streams: 16,
                vars: 255,
                samples: 256,
                checkpoint_every: 32,
            },
            Size::Tiny => Shape {
                streams: 4,
                vars: 31,
                samples: 32,
                checkpoint_every: 8,
            },
        }
    }
}

/// One stream's seeded inputs.
struct StreamInput {
    job_id: String,
    prior: Prior,
    points: Vec<Vec<f64>>,
    values: Vec<f64>,
    probes: Vec<Vec<f64>>,
}

struct Inputs {
    basis: OrthonormalBasis,
    streams: Vec<StreamInput>,
}

fn inputs(shape: &Shape, seed: u64) -> Result<Inputs, String> {
    let mut rng = seeded(derive_seed(seed, 3));
    let mut normal = StandardNormal::new();
    let streams = (0..shape.streams)
        .map(|s| {
            let circuit = SyntheticCircuit::new(
                SyntheticConfig {
                    early_vars: shape.vars,
                    extra_late_vars: 0,
                    ..SyntheticConfig::default()
                },
                derive_seed(seed, 10 + s as u64),
            );
            let set = monte_carlo(
                &circuit,
                Stage::PostLayout,
                shape.samples,
                derive_seed(seed, 100 + s as u64),
            )
            .map_err(|e| e.to_string())?;
            Ok(StreamInput {
                job_id: format!("stream{s:02}"),
                prior: Prior::from_coeffs(PriorKind::NonZeroMean, circuit.true_early_coeffs()),
                points: set.points,
                values: set.values,
                probes: (0..PROBES)
                    .map(|_| normal.sample_vec(&mut rng, shape.vars))
                    .collect(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Inputs {
        basis: OrthonormalBasis::linear(shape.vars),
        streams,
    })
}

/// The reference kernel: Gram matrices of a full stream's shape
/// (samples × terms).
fn reference_kernel(shape: &Shape) -> Reference {
    Reference::new(shape.samples, shape.vars + 1, 1)
}

/// A fresh service with every stream registered, and an empty store.
struct Fresh {
    service: FitService,
    store: ArtifactStore,
    dir: PathBuf,
    vfs: Option<Arc<CountingVfs>>,
}

fn fresh(inp: &Inputs, dir: PathBuf, counting: bool) -> Result<Fresh, String> {
    let service = FitService::new(ServiceConfig::default()).map_err(|e| e.to_string())?;
    for s in &inp.streams {
        service
            .register_stream(s.job_id.clone(), inp.basis.clone(), &s.prior, HYPER)
            .map_err(|e| e.to_string())?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    let (store, vfs) = open_store(&dir, counting)?;
    Ok(Fresh {
        service,
        store,
        dir,
        vfs,
    })
}

fn open_store(
    dir: &Path,
    counting: bool,
) -> Result<(ArtifactStore, Option<Arc<CountingVfs>>), String> {
    if counting {
        let vfs = Arc::new(CountingVfs::default());
        let store = ArtifactStore::open_with(dir, vfs.clone()).map_err(|e| e.to_string())?;
        Ok((store, Some(vfs)))
    } else {
        Ok((ArtifactStore::open(dir).map_err(|e| e.to_string())?, None))
    }
}

/// What the passes measured.
#[derive(Default)]
struct PassStats {
    passes: u64,
    append_ns: Vec<f64>,
    applied: u64,
    append_phase_s: f64,
    checkpoint_ns: Vec<f64>,
    warm_start_ns: Vec<f64>,
    drain_per_append_ns: Vec<f64>,
    puts: u64,
    put_io: IoCounts,
    encoded_bytes: Vec<f64>,
}

/// Where a pass keeps its store: inside the working directory, unique
/// per process.
fn store_dir(pass: u64) -> PathBuf {
    PathBuf::from(".perfbench_out").join(format!("stream-store-{}-{pass}", std::process::id()))
}

/// One pass: stream every sample, checkpoint, then compact, reopen and
/// warm-start. `paced`, if given, times the reference after every
/// checkpoint, outside the timed rounds.
fn pass(
    inp: &Inputs,
    shape: &Shape,
    f: Fresh,
    tr: &mut Tracer,
    stats: &mut PassStats,
    out: &mut Outcome,
    mut paced: Option<&mut Paced>,
) -> Result<(), String> {
    let Fresh {
        service,
        store,
        dir,
        vfs,
    } = f;
    let n = inp.streams.len();
    let mut calls = vec![Instant::now(); n];
    let mut exported: Vec<ModelSnapshot> = Vec::new();
    for round in 0..shape.samples {
        tr.set_group(round as u64);
        let t_round = Instant::now();
        for (s, st) in inp.streams.iter().enumerate() {
            calls[s] = Instant::now();
            out.attempted += 1;
            let r = tr.span("append_sample", || {
                service.append_sample(&st.job_id, &st.points[round], st.values[round])
            });
            if r.is_err() {
                out.failed_ops += 1;
            }
        }
        let t_drain = Instant::now();
        let report = tr.span("drain", || service.drain());
        let done = Instant::now();
        for c in &calls {
            stats
                .append_ns
                .push(done.duration_since(*c).as_nanos() as f64);
        }
        let applied = report.appends.iter().filter(|a| a.result.is_ok()).count();
        out.failed_ops += (report.appends.len() - applied) as u64;
        stats.applied += applied as u64;
        stats
            .drain_per_append_ns
            .push(done.duration_since(t_drain).as_nanos() as f64 / applied.max(1) as f64);
        stats.append_phase_s += done.duration_since(t_round).as_secs_f64();

        if (round + 1) % shape.checkpoint_every == 0 {
            let before = vfs.as_ref().map(|v| v.counts());
            let t = Instant::now();
            for st in &inp.streams {
                out.attempted += 1;
                stats.puts += 1;
                let put = tr
                    .span("export_model", || service.export_model(&st.job_id))
                    .map_err(|e| e.to_string())
                    .and_then(|snap| {
                        let id = tr
                            .span("store.put", || store.put(&snap))
                            .map_err(|e| e.to_string());
                        if tr.is_on() {
                            exported.push(snap);
                        }
                        id
                    });
                if let Err(e) = put {
                    out.failed_ops += 1;
                    out.notes
                        .push(format!("put of {} not acknowledged: {e}", st.job_id));
                }
            }
            stats.checkpoint_ns.push(t.elapsed().as_nanos() as f64);
            if let Some(p) = paced.as_deref_mut() {
                p.sample();
            }
            if let (Some(v), Some(b)) = (&vfs, before) {
                let a = v.counts();
                stats.put_io.fsyncs += a.fsyncs - b.fsyncs;
                stats.put_io.bytes_written += a.bytes_written - b.bytes_written;
            }
        }
    }

    // Codec probes on the checkpointed snapshots (traced passes only).
    for snap in &exported {
        let bytes = tr
            .span("encode_snapshot", || encode_snapshot(snap))
            .map_err(|e| e.to_string())?;
        stats.encoded_bytes.push(bytes.len() as f64);
        let back = tr
            .span("decode_snapshot", || decode_snapshot(&bytes))
            .map_err(|e| e.to_string())?;
        out.check(&back == snap, || {
            format!("{} does not survive the codec", snap.job_id)
        });
    }

    let live: Vec<Vec<u64>> = inp
        .streams
        .iter()
        .map(|st| predictions(&service, st))
        .collect();
    tr.set_group(shape.samples as u64);
    out.attempted += 1;
    if let Err(e) = tr.span("compact", || store.compact()) {
        out.failed_ops += 1;
        out.notes.push(format!("compact failed: {e}"));
    }
    drop(store);
    drop(service);

    let t = Instant::now();
    let open = tr.span("ArtifactStore::open", || open_store(&dir, vfs.is_some()));
    let (store, _) = open?;
    let warm = FitService::new(ServiceConfig::default()).map_err(|e| e.to_string())?;
    let imported = if tr.is_on() {
        // The steps of `warm_start`, each in its own span.
        let index = store.index().map_err(|e| e.to_string())?;
        for entry in &index {
            let snap = tr
                .span("store.get", || store.get(entry.id))
                .map_err(|e| e.to_string())?;
            tr.span("import_snapshot", || warm.import_snapshot(snap))
                .map_err(|e| e.to_string())?;
        }
        index.len()
    } else {
        store.warm_start(&warm).map_err(|e| e.to_string())?
    };
    let first = warm.predict(&inp.streams[0].job_id, &inp.streams[0].probes[0]);
    stats.warm_start_ns.push(t.elapsed().as_nanos() as f64);
    out.attempted += 1;
    if first.is_err() {
        out.failed_ops += 1;
    }

    out.check(imported == n, || {
        format!("warm start imported {imported} of {n} models")
    });
    for (st, want) in inp.streams.iter().zip(&live) {
        out.check(&predictions(&warm, st) == want, || {
            format!(
                "{}: warm-started predictions differ from the live service",
                st.job_id
            )
        });
    }
    let clean = store.check().map(|c| c.is_clean());
    out.check(clean == Ok(true), || {
        format!("store check after warm start: {clean:?}")
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    stats.passes += 1;
    Ok(())
}

/// Prediction bits of `st`'s model at its probe points (0 for an error,
/// which then differs from any real prediction).
fn predictions(service: &FitService, st: &StreamInput) -> Vec<u64> {
    st.probes
        .iter()
        .map(|x| service.predict(&st.job_id, x).map_or(0, f64::to_bits))
        .collect()
}

/// Direct `SequentialBmf::add_sample` on an offline replica of stream 0
/// at the final sample count, timed in spans.
fn probe_add_sample(inp: &Inputs, tr: &mut Tracer) -> Result<(), String> {
    let st = &inp.streams[0];
    let m = inp.basis.len();
    let k = st.values.len();
    let mut seq = SequentialBmf::new(&st.prior, HYPER).map_err(|e| e.to_string())?;
    seq.reserve(k);
    let mut ws = SeqWorkspace::for_problem(k, m);
    let mut row = vec![0.0; m];
    for i in 0..k - 1 {
        inp.basis.fill_row(&st.points[i], &mut row);
        seq.add_sample(&row, st.values[i], &mut ws)
            .map_err(|e| e.to_string())?;
    }
    inp.basis.fill_row(&st.points[k - 1], &mut row);
    for _ in 0..ADD_SAMPLE_REPEATS {
        let mut replica = seq.clone();
        tr.span("SequentialBmf::add_sample", || {
            replica.add_sample(&row, st.values[k - 1], &mut ws)
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when set-up or a pass fails structurally.
pub fn run(p: RunParams) -> Result<Outcome, String> {
    let shape = Shape::of(p.size);
    let mut out = Outcome::default();
    let mut clock = SetupClock::new(reference_kernel(&shape), REFERENCE_NOMINAL_S);
    let mut ready = Vec::new();
    let mut inp = None;
    let mut next_pass = 0u64;
    for _ in 0..SETUP_REPEATS {
        let (i, f) = clock.time(|| {
            let i = inputs(&shape, p.seed)?;
            fresh(&i, store_dir(next_pass), false).map(|f| (i, f))
        })?;
        ready.push(f);
        next_pass += 1;
        inp = Some(i);
    }
    let Some(inp) = inp else {
        return Err("no set-up ran".to_string());
    };
    out.input_digest = crate::digest(0, inp.streams.iter().flat_map(|s| s.values.iter().copied()));

    let budget = Duration::from_secs_f64(if p.trace { p.seconds / 2.0 } else { p.seconds });
    let mut off = Tracer::new(false);
    let mut plain = PassStats::default();
    // Each pass is a window of the reference.
    let mut paced = Paced::new(reference_kernel(&shape));
    let start = Instant::now();
    while plain.passes == 0 || start.elapsed() < budget {
        let f = match ready.pop() {
            Some(f) => f,
            None => fresh(&inp, store_dir(next_pass), false)?,
        };
        next_pass += 1;
        let (secs, applied) = (plain.append_phase_s, plain.applied);
        pass(&inp, &shape, f, &mut off, &mut plain, &mut out, Some(&mut paced))?;
        paced.close(
            plain.append_phase_s - secs,
            (plain.applied - applied) as f64,
        );
    }
    for f in ready {
        let _ = std::fs::remove_dir_all(&f.dir);
    }
    // As many set-ups again after the measurement, so the median
    // spans the run and not one moment of the host.
    for _ in 0..SETUP_REPEATS {
        let f = clock.time(|| {
            let i = inputs(&shape, p.seed)?;
            fresh(&i, store_dir(next_pass), false)
        })?;
        next_pass += 1;
        let _ = std::fs::remove_dir_all(&f.dir);
    }
    out.set("setup_s", clock.setup_s());
    out.set("setup_wall_s", clock.wall_s());

    let mut appends = plain.append_ns.clone();
    let p50 = percentile(&mut appends, 0.50);
    let p90 = percentile(&mut appends, 0.90);
    let p99 = percentile(&mut appends, 0.99);
    let rate = plain.applied as f64 / plain.append_phase_s;
    out.set("latency_p50_ms", p50 * 1e-6);
    out.set("latency_p90_ms", p90 * 1e-6);
    out.set("append_p99_us", p99 * 1e-3);
    out.set("throughput_per_s", rate);
    out.set("stream_samples_per_s", rate);
    out.set("op_time_ref", paced.cost());
    out.set("reference_ms", paced.reference_s() * 1e3);
    out.set(
        "checkpoint_ms",
        median(&mut plain.checkpoint_ns.clone()) * 1e-6,
    );
    out.set(
        "warm_start_ms",
        median(&mut plain.warm_start_ns.clone()) * 1e-6,
    );
    out.notes.push(format!(
        "stream_persist: {} passes, {} samples applied, {} puts",
        plain.passes, plain.applied, plain.puts
    ));
    if !p.trace {
        return Ok(out);
    }

    let mut tr = Tracer::new(true);
    let mut traced = PassStats::default();
    let start = Instant::now();
    while traced.passes == 0 || start.elapsed() < budget {
        let f = fresh(&inp, store_dir(next_pass), true)?;
        next_pass += 1;
        pass(&inp, &shape, f, &mut tr, &mut traced, &mut out, None)?;
    }
    tr.set_group(u64::MAX);
    probe_add_sample(&inp, &mut tr)?;

    let med = |name: &str| median(&mut tr.durations(name));
    out.set("service.append_us.p50", med("append_sample") * 1e-3);
    out.set(
        "service.drain_append_us",
        median(&mut traced.drain_per_append_ns) * 1e-3,
    );
    out.set("seq.add_sample_us", med("SequentialBmf::add_sample") * 1e-3);
    out.set("service.export_us", med("export_model") * 1e-3);
    out.set("codec.encode_us", med("encode_snapshot") * 1e-3);
    let models = traced.encoded_bytes.len().max(1) as f64;
    out.set(
        "codec.bytes_per_model",
        traced.encoded_bytes.iter().sum::<f64>() / models,
    );
    out.set("store.put_ms", med("store.put") * 1e-6);
    let puts = traced.puts.max(1) as f64;
    out.set("vfs.fsyncs_per_put", traced.put_io.fsyncs as f64 / puts);
    out.set(
        "vfs.bytes_written_per_put",
        traced.put_io.bytes_written as f64 / puts,
    );
    out.set("store.compact_ms", med("compact") * 1e-6);
    out.set("store.open_ms", med("ArtifactStore::open") * 1e-6);
    out.set("store.get_us", med("store.get") * 1e-3);
    out.set("codec.decode_us", med("decode_snapshot") * 1e-3);
    out.set("service.import_us", med("import_snapshot") * 1e-3);
    let traced_rate = traced.applied as f64 / traced.append_phase_s;
    out.set("trace.overhead_frac", rate / traced_rate - 1.0);
    out.spans = tr;
    Ok(out)
}
