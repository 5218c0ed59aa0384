//! The metric catalogue: every name the benchmark reports, with its
//! unit. `BENCHMARK.json` lists the same names; a self-test keeps the
//! two in step.
//!
//! The end-to-end metrics are reported by every workload, each in the
//! terms of that workload's user operation. `op_time_ref` is the time
//! of one operation over the time of the workload's reference kernel
//! ([`crate::reference`]), measured next to it on the same core: the
//! median over measurement windows. It is the gated form of the
//! workload's wall-clock figures, which other guests of the host moved
//! by up to a factor of two from minute to minute.
//!
//! | metric | `ro_fit` | `serve_trace` | `stream_persist` |
//! |---|---|---|---|
//! | `op_time_ref` | one BMF-PS fit | one request, closed loop (0.25-s windows) | one applied sample, checkpoints excluded (one pass per window) |
//! | `setup_s` | OMP early fit and simulation | trace, service and warm fits | circuits, samples, streams |
//!
//! `setup_s` is the median set-up time at the reference speed
//! ([`crate::reference::SetupClock`]); `setup_wall_s` is the same
//! median in wall seconds, unbounded.
//!
//! Every workload also prints its wall-clock figures, unbounded:
//! `latency_p50_ms` / `latency_p90_ms` (time-to-model: one fit; a fit
//! request from its due time to the drain that returned it, open loop;
//! an append to the drain that applied it), `throughput_per_s` (fits;
//! requests, closed loop, median of 0.25-s windows; applied samples)
//! and `reference_ms`, the reference kernel's median time. The
//! workload-specific figures (`fit_s`, `predict_p99_us`,
//! `checkpoint_ms`, …) are printed by every run and reported, with the
//! per-layer metrics, by the traced run.

/// Metrics of the untraced run, as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("op_time_ref", "ref")];

/// Workload-specific end-to-end figures, as `(name, unit, workload)`.
/// Those of workload `*` apply to every workload.
pub const WORKLOAD_FIGURES: [(&str, &str, &str); 19] = [
    ("error_frac", "ratio", "*"),
    ("latency_p50_ms", "ms", "*"),
    ("latency_p90_ms", "ms", "*"),
    ("throughput_per_s", "1/s", "*"),
    ("reference_ms", "ms", "*"),
    ("setup_wall_s", "s", "*"),
    ("fit_s", "s", "ro_fit"),
    ("fit_rel_err", "ratio", "ro_fit"),
    ("predict_p50_us", "us", "serve_trace"),
    ("predict_p99_us", "us", "serve_trace"),
    ("fit_p50_ms", "ms", "serve_trace"),
    ("fit_p99_ms", "ms", "serve_trace"),
    ("slo_miss_frac", "ratio", "serve_trace"),
    ("serve_capacity_rps", "req/s", "serve_trace"),
    ("append_p99_us", "us", "stream_persist"),
    ("stream_samples_per_s", "1/s", "stream_persist"),
    ("checkpoint_ms", "ms", "stream_persist"),
    ("warm_start_ms", "ms", "stream_persist"),
    ("trace.overhead_frac", "ratio", "*"),
];

/// Per-layer metrics, as `(name, unit)`, grouped by the workload that
/// moves them. A workload that does not run a layer reports 0 for it.
pub const LAYERS: [(&str, &str); 46] = [
    // ro_fit
    ("basis.design_ms", "ms"),
    ("cv.sweep_ms", "ms"),
    ("cv.share", "ratio"),
    ("map.sweep_new_ms", "ms"),
    ("map.grid_solve_ms", "ms"),
    ("map.final_ms", "ms"),
    ("fit.span_ms", "ms"),
    ("fit.self_ms", "ms"),
    ("fit.map_solves", "count"),
    ("fit.kernels_built", "count"),
    ("fit.degraded_solves", "count"),
    // serve_trace
    ("service.predict_us.p50", "us"),
    ("service.predict_us.p99", "us"),
    ("service.predict_hit_ratio", "ratio"),
    ("service.submit_us.p50", "us"),
    ("service.drain_ms.p50", "ms"),
    ("service.drain_ms.max", "ms"),
    ("service.drain_busy_frac", "ratio"),
    ("service.capacity_nproc_rps", "req/s"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.evict_us.p50", "us"),
    ("batch.drains", "count"),
    ("batch.jobs_per_drain", "count"),
    ("batch.kernel_cache_hit_ratio", "ratio"),
    ("batch.map_solves_per_fit", "count"),
    ("batch.sweep_share", "ratio"),
    ("gen.lag_p99_ms", "ms"),
    ("virtual.predict_us", "us"),
    ("virtual.drain_ms.p50", "ms"),
    // stream_persist
    ("service.append_us.p50", "us"),
    ("service.drain_append_us", "us"),
    ("seq.add_sample_us", "us"),
    ("service.export_us", "us"),
    ("codec.encode_us", "us"),
    ("codec.bytes_per_model", "bytes"),
    ("store.put_ms", "ms"),
    ("vfs.fsyncs_per_put", "count"),
    ("vfs.bytes_written_per_put", "bytes"),
    ("store.compact_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.get_us", "us"),
    ("codec.decode_us", "us"),
    ("service.import_us", "us"),
    // every workload
    ("machine.nproc", "count"),
    ("machine.pool_threads", "count"),
    ("machine.steal_frac", "ratio"),
];

/// Every per-layer name of `BENCHMARK.json`: the workload figures
/// followed by the layer metrics.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    WORKLOAD_FIGURES
        .iter()
        .map(|&(n, u, _)| (n, u))
        .chain(LAYERS.iter().copied())
        .collect()
}

/// Counts that must repeat exactly for a fixed seed, shape and run
/// length.
pub const EXACT_COUNTS: [&str; 9] = [
    "fit.map_solves",
    "fit.kernels_built",
    "fit.degraded_solves",
    "batch.drains",
    "batch.jobs_per_drain",
    "batch.map_solves_per_fit",
    "codec.bytes_per_model",
    "vfs.fsyncs_per_put",
    "vfs.bytes_written_per_put",
];
