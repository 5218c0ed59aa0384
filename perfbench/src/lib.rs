//! Wall-clock benchmark of the BMF workspace.
//!
//! Three workloads, each driven from a seed, time calls into the public
//! API of the workspace crates from outside:
//!
//! * [`ro_fit`] — time-to-model: repeated BMF-PS fits of the
//!   ring-oscillator frequency at K=300 (basis, linalg, MAP, CV, fusion);
//! * [`serve_trace`] — the seeded 1M-request service trace against a
//!   real `FitService`, open loop then closed loop (service, batch);
//! * [`stream_persist`] — 16 streaming models with periodic durable
//!   checkpoints and a final compact / reopen / warm-start (sequential,
//!   codec, store, vfs).
//!
//! Each workload's bounded figure, `op_time_ref`, divides the time of
//! its operation by that of a fixed kernel timed next to it on the
//! same core ([`reference`]), so a slow spell of the host moves both.
//!
//! A run prints human-readable lines and, last, one JSON result line
//! (see [`report`]). With tracing on, spans recorded around every public
//! call ([`trace`]) give the per-layer table.

pub mod catalog;
pub mod countvfs;
pub mod fingerprint;
pub mod reference;
pub mod report;
pub mod ro_fit;
pub mod serve_trace;
pub mod stats;
pub mod stream_persist;
pub mod trace;

use std::collections::BTreeMap;

/// How big a run is: `Full` is the benchmark, `Tiny` the self-test
/// shape (same code paths, seconds instead of minutes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The shapes recorded in `BENCHMARK.json`.
    Full,
    /// Small shapes for the self-tests.
    Tiny,
}

/// Parameters common to every workload.
#[derive(Debug, Clone, Copy)]
pub struct RunParams {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Input shape.
    pub size: Size,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (fits, requests, appends, puts, checks).
    pub attempted: u64,
    /// Operations that failed unexpectedly.
    pub failed_ops: u64,
    /// Correctness checks that failed, one line each.
    pub failed_checks: Vec<String>,
    /// Metrics by name (end-to-end, workload-specific and per-layer);
    /// [`report`] picks the ones a run prints.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Span record of the traced part of the run.
    pub spans: trace::Tracer,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
    /// FNV-1a digest of the generated inputs: equal for equal seeds.
    pub input_digest: u64,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a correctness check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed_checks.push(what());
        }
    }

    /// Failed operations plus failed checks, over operations attempted.
    pub fn error_frac(&self) -> f64 {
        let failed = self.failed_ops + self.failed_checks.len() as u64;
        failed as f64 / self.attempted.max(1) as f64
    }
}

/// Folds `values` into an FNV-1a digest by exact bit pattern.
pub fn digest(state: u64, values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .fold(state, |h, v| bmf_stat::fnv::fnv1a_u64(h, v.to_bits()))
}

/// The workloads, by the names `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 3] = ["ro_fit", "serve_trace", "stream_persist"];

/// Runs one workload by name.
///
/// # Errors
///
/// Returns a message when the workload is unknown or its set-up fails.
pub fn run_workload(name: &str, params: RunParams) -> Result<Outcome, String> {
    match name {
        "ro_fit" => ro_fit::run(params),
        "serve_trace" => serve_trace::run(params),
        "stream_persist" => stream_persist::run(params),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }
}
