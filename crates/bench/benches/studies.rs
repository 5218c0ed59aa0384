//! Bench: the five virtual-time studies, one report each.
//!
//! Runs `service`, `persist`, `sequential`, `chaos` and `lint` (or the
//! ones the filter selects) and writes `BENCH_<name>.json` to
//! `$BMF_BENCH_OUT` (absolute path), or to the workspace root next to
//! the committed baselines. Every report is byte-identical at any
//! `BMF_THREADS`; each study fails instead of writing when one of its
//! postconditions does not hold. With `--features bench` the sequential
//! study also asserts its zero-allocation steady state under `--smoke`.
//!
//! ```text
//! cargo bench -p bmf-bench --bench studies                        # full runs
//! cargo bench -p bmf-bench --bench studies -- --smoke             # CI-sized
//! cargo bench -p bmf-bench --bench studies -- --smoke sequential  # one study
//! ```

use bmf_bench::chaos_study::{run_chaos, ChaosConfig};
use bmf_bench::lint_study::{run_lint_study, LintStudyConfig};
use bmf_bench::persist_study::{run_persist, PersistConfig};
use bmf_bench::sequential_study::{run_sequential_study, SeqStudyConfig};
use bmf_bench::service_load::{run_load, LoadConfig};
use bmf_bench::study::BenchReport;
use bmf_bench::timing::Harness;

type Run = fn(bool) -> Result<BenchReport, String>;

/// The smoke scenario when `smoke`, the full one otherwise.
fn pick<T>(smoke: bool, small: fn() -> T, full: fn() -> T) -> T {
    if smoke {
        small()
    } else {
        full()
    }
}

/// Each study by name; the flag selects the smoke scenario.
const STUDIES: [(&str, Run); 5] = [
    ("service", |smoke| {
        run_load(&pick(smoke, LoadConfig::smoke, LoadConfig::full)).map_err(|e| e.to_string())
    }),
    ("persist", |smoke| {
        run_persist(&pick(smoke, PersistConfig::smoke, PersistConfig::full))
            .map_err(|e| e.to_string())
    }),
    ("sequential", |smoke| {
        run_sequential_study(&pick(smoke, SeqStudyConfig::smoke, SeqStudyConfig::full))
            .map_err(|e| e.to_string())
    }),
    ("chaos", |smoke| {
        run_chaos(&pick(smoke, ChaosConfig::smoke, ChaosConfig::full)).map_err(|e| e.to_string())
    }),
    ("lint", |smoke| {
        run_lint_study(&pick(smoke, LintStudyConfig::smoke, LintStudyConfig::full))
    }),
];

fn main() {
    let h = Harness::from_cli();
    for (name, run) in STUDIES {
        if !h.selected(name) {
            continue;
        }
        // Wall time is printed, never written: reports stay byte-identical.
        let wall = std::time::Instant::now();
        match run(h.is_smoke()).and_then(|report| report.write(name)) {
            Ok(path) => println!(
                "{name:<12} {:>8.3} s wall   {}",
                wall.elapsed().as_secs_f64(),
                path.display()
            ),
            Err(e) => {
                eprintln!("{name} study failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
