//! Rendering a run: human-readable lines, then one JSON result line.
//!
//! The result line has exactly the keys `correct`, `attempted`,
//! `failed` and `metrics`. Untraced runs report the end-to-end metrics,
//! traced runs the per-layer ones ([`crate::catalog`]).

use crate::catalog;
use crate::fingerprint::{escape, Machine};
use crate::{Outcome, RunParams};

/// A rendered run.
#[derive(Debug)]
pub struct Rendered {
    /// Lines to print before the result.
    pub lines: Vec<String>,
    /// The result line.
    pub result: String,
    /// Whether every check passed and no operation failed.
    pub correct: bool,
}

/// Formats a metric value with every digit it has; non-finite values
/// (never expected) become 0 so the line stays valid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders `outcome` of `workload` under `params`.
pub fn render(
    workload: &str,
    params: &RunParams,
    outcome: &Outcome,
    machine: &Machine,
) -> Rendered {
    let mut lines = vec![
        format!(
            "# perfbench workload={workload} seed={} seconds={} trace={}",
            params.seed,
            params.seconds,
            u8::from(params.trace)
        ),
        format!(
            "# machine {} steal_frac={}",
            machine.to_json(),
            num(outcome
                .metrics
                .get("machine.steal_frac")
                .copied()
                .unwrap_or(0.0))
        ),
        format!("# inputs digest={:016x}", outcome.input_digest),
    ];
    lines.extend(outcome.notes.iter().map(|n| format!("# {n}")));
    let error_frac = outcome.error_frac();
    let value = |name: &str| match name {
        "error_frac" => error_frac,
        "machine.nproc" => machine.nproc as f64,
        "machine.pool_threads" => machine.pool_threads as f64,
        _ => outcome.metrics.get(name).copied().unwrap_or(0.0),
    };
    for (name, unit, wl) in catalog::WORKLOAD_FIGURES {
        let v = value(name);
        if wl == workload || (wl == "*" && (name != "trace.overhead_frac" || params.trace)) {
            lines.push(format!("{name} = {} {unit}", num(v)));
        }
    }
    for (name, unit) in catalog::END_TO_END {
        lines.push(format!("{name} = {} {unit}", num(value(name))));
    }
    if params.trace {
        // Layers this workload does not run read 0; they stay in the
        // result line but not in the human-readable table.
        for (name, unit) in catalog::LAYERS {
            let v = value(name);
            if v != 0.0 {
                lines.push(format!("layer {name} = {} {unit}", num(v)));
            }
        }
    }
    for c in &outcome.failed_checks {
        lines.push(format!("CHECK FAILED: {c}"));
    }

    let chosen: Vec<(&str, &str)> = if params.trace {
        catalog::per_layer()
    } else {
        catalog::END_TO_END.to_vec()
    };
    let metrics: Vec<String> = chosen
        .iter()
        .map(|&(name, unit)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(name),
                num(value(name)),
                escape(unit)
            )
        })
        .collect();
    let failed = outcome.failed_ops + outcome.failed_checks.len() as u64;
    let correct = failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        metrics.join(", ")
    );
    Rendered {
        lines,
        result,
        correct,
    }
}
