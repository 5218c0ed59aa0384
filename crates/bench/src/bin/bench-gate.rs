//! Trend gate: compares a freshly generated `BENCH_*.json` with the
//! committed baseline and fails on a scenario mismatch, a missing
//! metric, or a metric that moved more than 20% in its bad direction
//! (see `bmf_bench::study` for the rules).
//!
//! ```text
//! bench-gate <fresh.json> <committed.json> [--ignore k1,k2]
//! ```
//!
//! `--ignore` entries match a flattened key exactly
//! (`serial_cv_fit.wall_s`) or by its last component (`wall_s`).
//! Exit status: 0 pass, 1 gate failure, 2 usage error.

use std::process::ExitCode;

use bmf_bench::study::{gate, BenchReport, TOLERANCE};

const USAGE: &str = "usage: bench-gate <fresh.json> <committed.json> [--ignore k1,k2]";

fn load(role: &str, path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("FAIL: {role} report {path} not readable: {e}"))?;
    BenchReport::parse(&text).map_err(|e| format!("FAIL: {role} report {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ignore: Vec<String> = match args.get(2..).unwrap_or_default() {
        [] => Vec::new(),
        [flag, keys] if flag == "--ignore" => keys.split(',').map(str::to_string).collect(),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let [fresh, committed] = match args.get(..2) {
        Some([f, c]) => [f, c],
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (fresh_report, committed_report) =
        match (load("fresh", fresh), load("committed", committed)) {
            (Ok(f), Ok(c)) => (f, c),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
    let failures = gate(&fresh_report, &committed_report, &ignore);
    if failures.is_empty() {
        println!(
            "OK: no metric in {fresh} regressed >{:.0}% vs {committed}",
            TOLERANCE * 100.0
        );
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    eprintln!("Trend gate failed: regenerate the baseline only for intentional changes");
    ExitCode::FAILURE
}
