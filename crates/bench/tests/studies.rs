//! The report format, the trend gate and the study postconditions,
//! checked against the committed `BENCH_*.json` baselines and against
//! smoke runs of every study.

use std::sync::OnceLock;

use bmf_bench::chaos_study::{self, ChaosConfig};
use bmf_bench::lint_study::{run_lint_study, LintStudyConfig};
use bmf_bench::persist_study::{self, PersistConfig};
use bmf_bench::sequential_study::{self, SeqStudyConfig};
use bmf_bench::service_load::{self, LoadConfig};
use bmf_bench::study::{gate, BenchReport, LatencySummary, Value};

const ALLOCS: &str = include_str!("../../../BENCH_allocs.json");
const ALLOCS_MD: &str = include_str!("../../../reports/allocs.md");
const CHAOS: &str = include_str!("../../../BENCH_chaos.json");
const LINT: &str = include_str!("../../../BENCH_lint.json");
const PERSIST: &str = include_str!("../../../BENCH_persist.json");
const SEQUENTIAL: &str = include_str!("../../../BENCH_sequential.json");
const SERVICE: &str = include_str!("../../../BENCH_service.json");

const COMMITTED: [(&str, &str); 6] = [
    ("allocs", ALLOCS),
    ("chaos", CHAOS),
    ("lint", LINT),
    ("persist", PERSIST),
    ("sequential", SEQUENTIAL),
    ("service", SERVICE),
];

fn parse(text: &str) -> BenchReport {
    BenchReport::parse(text).expect("committed report parses")
}

/// `text` with the first `from` replaced by `to`; the edit must land.
fn doctor(text: &str, from: &str, to: &str) -> BenchReport {
    assert!(text.contains(from), "`{from}` not in the report");
    parse(&text.replacen(from, to, 1))
}

/// The smoke report of one study, run once per test binary.
fn smoke(name: &str) -> &'static BenchReport {
    static REPORTS: OnceLock<Vec<(&'static str, BenchReport)>> = OnceLock::new();
    let reports = REPORTS.get_or_init(|| {
        let store = std::env::temp_dir().join(format!("bmf-study-store-{}", std::process::id()));
        let persist = persist_study::run_persist(&PersistConfig {
            store_dir: store.clone(),
            ..PersistConfig::smoke()
        });
        let _ = std::fs::remove_dir_all(&store);
        vec![
            (
                "service",
                service_load::run_load(&LoadConfig::smoke()).expect("service"),
            ),
            ("persist", persist.expect("persist")),
            (
                "sequential",
                sequential_study::run_sequential_study(&SeqStudyConfig::smoke()).expect("seq"),
            ),
            (
                "chaos",
                chaos_study::run_chaos(&ChaosConfig::smoke()).expect("chaos"),
            ),
            (
                "lint",
                run_lint_study(&LintStudyConfig::smoke()).expect("lint"),
            ),
        ]
    });
    &reports
        .iter()
        .find(|(n, _)| *n == name)
        .expect("known study")
        .1
}

#[test]
fn every_study_report_has_the_gated_keys() {
    // One row per study: every key its report must carry.
    let table = [
        (
            "service",
            "scenario traffic coalescing latency_overall latency_fit latency_predict \
             throughput_rps p50_ns p99_ns p999_ns max_ns fits_ok batches",
        ),
        (
            "persist",
            "scenario artifacts cold_start warm_start headline total_bytes virtual_ns \
             imports verified_predictions warm_speedup",
        ),
        (
            "sequential",
            "scenario cost_model curve_k8 curve_k16 curve_k32 speedup k16_x_throughput \
             k32_x_throughput latency_update p50_ns p99_ns max_ns arrival_cost \
             simulation_millihours bitwise_checks updates_per_s_throughput",
        ),
        (
            "chaos",
            "scenario seed_store fault_sweep overload crash headline error_permille \
             recovered read_retries warm_p99_ns shed_fits shed_permille expired_fits \
             points_tested recovered_clean recovery_rate_permille",
        ),
        (
            "lint",
            "scenario workspace files graph strong_edges sinks findings unbaselined \
             rule_findings panic_reachability durability_ordering cost_model virtual_ms \
             files_per_s_throughput",
        ),
    ];
    for (name, keys) in table {
        let text = smoke(name).render().expect("finite report");
        for key in keys.split_whitespace() {
            assert!(
                text.contains(&format!("\"{key}\"")),
                "{name}: missing \"{key}\""
            );
        }
        assert!(
            !text.contains("wall"),
            "{name}: wall time must stay out of the report"
        );
    }
}

#[test]
fn committed_reports_round_trip_losslessly() {
    for (name, text) in COMMITTED {
        assert_eq!(parse(text).render().as_deref(), Ok(text), "{name}");
    }
}

/// `repro allocs` writes `BENCH_allocs.json` and `reports/allocs.md` in
/// one run, so the committed Markdown must state the JSON's scenario and
/// carry its numbers in every table row (wall time to the table's four
/// decimals).
#[test]
fn committed_allocs_markdown_matches_the_json() {
    let json = parse(ALLOCS);
    let metric = |key: String| json.metric(&key).unwrap();
    let scenario = format!(
        "M = {} terms, K = {} samples, {} folds × {} grid points",
        metric("scenario.terms".into()),
        metric("scenario.samples".into()),
        metric("scenario.folds".into()),
        metric("scenario.grid".into()),
    );
    assert!(
        ALLOCS_MD.contains(&scenario),
        "allocs.md lacks `{scenario}`"
    );
    let jobs = format!("batch of {} jobs", metric("scenario.jobs".into()));
    assert!(ALLOCS_MD.contains(&jobs), "allocs.md lacks `{jobs}`");
    let mut rows = Vec::new();
    for line in ALLOCS_MD.lines().filter(|l| l.contains("_cv_fit |")) {
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        let [name, fits, allocs, per_fit, peak, wall] = cells[..] else {
            panic!("malformed allocs.md row {line:?}");
        };
        for (key, cell) in [
            ("fits", fits),
            ("allocs", allocs),
            ("allocs_per_fit", per_fit),
            ("peak_bytes", peak),
        ] {
            let md: f64 = cell.parse().expect("numeric cell");
            assert_eq!(md, metric(format!("{name}.{key}")), "{name}.{key}");
        }
        let md_wall: f64 = wall.parse().expect("numeric wall time");
        let json_wall = metric(format!("{name}.wall_s"));
        assert!(
            (md_wall - json_wall).abs() <= 0.6e-4,
            "{name}.wall_s: {md_wall} vs {json_wall}"
        );
        rows.push(name);
    }
    assert_eq!(rows, ["serial_cv_fit", "batch_cv_fit"]);
}

#[test]
fn writer_and_parser_refuse_non_finite_numbers() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut r = BenchReport::new();
        r.section("latency", [("p99_ns", Value::Fixed(bad, 3))]);
        assert!(r.render().is_err(), "{bad} reached a report");
    }
    for text in [
        "{\n  \"x\": NaN\n}\n",
        "{\n  \"x\": inf\n}\n",
        "{\n  \"x\": 1e9\n}\n",
    ] {
        assert!(BenchReport::parse(text).is_err(), "{text:?} parsed");
    }
}

/// (case, fresh, baseline, --ignore, failure that must appear or None)
type GateCase = (
    &'static str,
    BenchReport,
    BenchReport,
    &'static [&'static str],
    Option<&'static str>,
);

/// The committed allocs report with `section`'s wall time 1000× longer,
/// whatever the committed time is.
fn slow_wall(section: &str) -> BenchReport {
    let key = format!("\"{section}\"");
    let line = ALLOCS
        .lines()
        .find(|l| l.contains(&key))
        .expect("section in the allocs report");
    let wall = parse(ALLOCS).metric(&format!("{section}.wall_s")).unwrap();
    let slow = line.replace(
        &format!("\"wall_s\": {wall:.6}"),
        &format!("\"wall_s\": {:.6}", wall * 1000.0),
    );
    assert_ne!(slow, line, "wall_s of {section} not rewritten");
    doctor(ALLOCS, line, &slow)
}

#[test]
fn trend_gate_cases() {
    let serial_wall = slow_wall("serial_cv_fit");
    let batch_wall = slow_wall("batch_cv_fit");
    let cases: Vec<GateCase> = vec![
        (
            "service smoke vs the 1M-request baseline",
            smoke("service").clone(),
            parse(SERVICE),
            &[],
            Some("scenario mismatch scenario.requests: baseline 1000000, fresh 20000"),
        ),
        (
            "full sequential run vs the stale smoke-sized baseline",
            parse(SEQUENTIAL),
            smoke("sequential").clone(),
            &[],
            Some("scenario mismatch scenario.k_max: baseline 32, fresh 128"),
        ),
        (
            "10x read_retries in the 250 permille fault_sweep row",
            doctor(CHAOS, "\"read_retries\": 50", "\"read_retries\": 500"),
            parse(CHAOS),
            &[],
            Some("fault_sweep[error_permille=250].read_retries regressed"),
        ),
        (
            "6x warm_p99_ns in the 250 permille fault_sweep row",
            doctor(
                CHAOS,
                "\"warm_p99_ns\": 1566765",
                "\"warm_p99_ns\": 9400590",
            ),
            parse(CHAOS),
            &[],
            Some("fault_sweep[error_permille=250].warm_p99_ns regressed"),
        ),
        (
            "a metric dropped from the fresh report",
            doctor(SERVICE, "\"p999_ns\": 7745231, ", ""),
            parse(SERVICE),
            &[],
            Some("metric latency_overall.p999_ns missing from fresh report"),
        ),
        (
            "a throughput key falling just over 20%",
            doctor(SERVICE, "996117.298", "796117.298"),
            parse(SERVICE),
            &[],
            Some("throughput_rps regressed"),
        ),
        (
            "a throughput key falling just under 20%",
            doctor(SERVICE, "996117.298", "797117.298"),
            parse(SERVICE),
            &[],
            None,
        ),
        (
            "a latency rising just over 20%",
            doctor(SERVICE, "\"p99_ns\": 9649701", "\"p99_ns\": 11579700"),
            parse(SERVICE),
            &[],
            Some("latency_fit.p99_ns regressed"),
        ),
        (
            "a scenario key missing from the fresh report",
            doctor(CHAOS, "\"crash_stride\": 1, ", ""),
            parse(CHAOS),
            &[],
            Some("scenario mismatch scenario.crash_stride: baseline 1, fresh absent"),
        ),
        (
            "a flag flipping",
            doctor(
                ALLOCS,
                "\"counting_enabled\": true",
                "\"counting_enabled\": false",
            ),
            parse(ALLOCS),
            &["wall_s"],
            Some("scenario mismatch counting_enabled"),
        ),
        (
            "wall_s ignored by component",
            batch_wall.clone(),
            parse(ALLOCS),
            &["wall_s"],
            None,
        ),
        (
            "wall_s ignored by exact key",
            serial_wall,
            parse(ALLOCS),
            &["serial_cv_fit.wall_s"],
            None,
        ),
        (
            "an exact ignore leaves the other section gated",
            batch_wall,
            parse(ALLOCS),
            &["serial_cv_fit.wall_s"],
            Some("batch_cv_fit.wall_s regressed"),
        ),
        (
            "a component ignore matches whole components only",
            doctor(
                CHAOS,
                "\"warm_p99_ns\": 1566765",
                "\"warm_p99_ns\": 9400590",
            ),
            parse(CHAOS),
            &["p99_ns"],
            Some("warm_p99_ns regressed"),
        ),
        (
            "warm_speedup rising, not ignored",
            doctor(PERSIST, "41.249", "60.000"),
            parse(PERSIST),
            &[],
            Some("headline.warm_speedup regressed"),
        ),
        (
            "warm_speedup rising, ignored",
            doctor(PERSIST, "41.249", "60.000"),
            parse(PERSIST),
            &["warm_speedup"],
            None,
        ),
    ];
    for (case, fresh, baseline, ignore, expect) in cases {
        let ignore: Vec<String> = ignore.iter().map(|s| s.to_string()).collect();
        let failures = gate(&fresh, &baseline, &ignore);
        match expect {
            None => assert!(failures.is_empty(), "{case}: {failures:?}"),
            Some(want) => assert!(
                failures.iter().any(|f| f.contains(want)),
                "{case}: no `{want}` in {failures:?}"
            ),
        }
    }
    // A mismatched scenario is reported as such, not as regressions.
    let stale = gate(&parse(SEQUENTIAL), smoke("sequential"), &[]);
    assert!(
        stale.iter().all(|f| f.starts_with("scenario mismatch")),
        "{stale:?}"
    );
    // Every committed baseline passes against itself.
    for (name, text) in COMMITTED {
        assert_eq!(
            gate(&parse(text), &parse(text), &[]),
            Vec::<String>::new(),
            "{name}"
        );
    }
}

type PostconditionCase = (
    &'static str,
    fn(&BenchReport) -> Result<(), String>,
    &'static str,
    &'static [(&'static str, &'static str)],
);

#[test]
fn study_postconditions_reject_doctored_reports() {
    // (study, its postcondition check, committed report, edits each of
    // which must make the check fail)
    let studies: [PostconditionCase; 4] = [
        (
            "service",
            service_load::check,
            SERVICE,
            &[
                ("\"fits_ok\": 8137", "\"fits_ok\": 0"),
                ("\"p99_ns\": 9649701", "\"p99_ns\": 0"),
                ("996117.298", "0.000"),
            ],
        ),
        (
            "sequential",
            sequential_study::check,
            SEQUENTIAL,
            &[
                ("\"bitwise_checks\": 128", "\"bitwise_checks\": 0"),
                ("\"p99_ns\": 1321790", "\"p99_ns\": 0"),
                (
                    "\"k128_x_throughput\": 20.224",
                    "\"k128_x_throughput\": 1.000",
                ),
            ],
        ),
        (
            "persist",
            persist_study::check,
            PERSIST,
            &[
                (
                    "\"verified_predictions\": 1536",
                    "\"verified_predictions\": 0",
                ),
                ("\"virtual_ns\": 9164200", "\"virtual_ns\": 0"),
                ("\"virtual_ns\": 222168", "\"virtual_ns\": 0"),
                ("\"virtual_ns\": 222168", "\"virtual_ns\": 9164200"),
                ("41.249", "0.999"),
            ],
        ),
        (
            "chaos",
            chaos_study::check,
            CHAOS,
            &[
                ("\"points_tested\": 52", "\"points_tested\": 0"),
                ("\"recovered_clean\": 52", "\"recovered_clean\": 51"),
                ("\"shed_fits\": 532", "\"shed_fits\": 0"),
                ("\"fits_ok\": 2656", "\"fits_ok\": 0"),
                (
                    "\"recovery_rate_permille\": 1000",
                    "\"recovery_rate_permille\": 0",
                ),
            ],
        ),
    ];
    for (name, check, text, edits) in studies {
        assert_eq!(check(&parse(text)), Ok(()), "{name}: committed baseline");
        for (from, to) in edits {
            assert!(
                check(&doctor(text, from, to)).is_err(),
                "{name}: {from} -> {to} passed"
            );
        }
    }
}

#[test]
fn percentiles_are_order_statistics() {
    let mut lat: Vec<u64> = (1..=1000).collect();
    let s = LatencySummary::from_sorted(&mut lat);
    assert_eq!(s.count, 1000);
    assert_eq!(s.p50_ns, 500);
    assert_eq!(s.p99_ns, 990);
    assert_eq!(s.p999_ns, 999);
    assert_eq!(s.max_ns, 1000);
}
