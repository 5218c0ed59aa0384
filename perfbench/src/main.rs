//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints its metrics with units, and ends with one
//! JSON result line. Exits 1 when a correctness check fails, 2 on a
//! usage or set-up error (without a result line).

use std::path::PathBuf;
use std::process::ExitCode;

use bmf_perfbench::fingerprint::{self, Machine};
use bmf_perfbench::{report, run_workload, RunParams, Size, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <ro_fit|serve_trace|stream_persist> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    params: RunParams,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        params: RunParams {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            size: Size::Full,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let machine = Machine::detect();
    let ticks = fingerprint::cpu_ticks();
    let mut outcome = match run_workload(&args.workload, args.params) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    // Steal shows when other guests of the host slowed this run down.
    let steal = fingerprint::steal_frac(ticks, fingerprint::cpu_ticks());
    outcome.set("machine.steal_frac", steal);
    let rendered = report::render(&args.workload, &args.params, &outcome, &machine);
    if outcome.spans.is_on() {
        let path = PathBuf::from(".perfbench_out").join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload, args.params.seed
        ));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"machine\":{}}}",
            args.workload,
            args.params.seed,
            machine.to_json()
        );
        match outcome.spans.write_jsonl(&path, &header) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    for line in &rendered.lines {
        println!("{line}");
    }
    println!("{}", rendered.result);
    if rendered.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
