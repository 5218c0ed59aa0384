//! Self-tests of the benchmark: the metric catalogue matches
//! `BENCHMARK.json` and the printed output, tiny runs of every workload
//! are error-free, seeds drive the inputs, and the named counts repeat.

use std::collections::BTreeMap;

use bmf_perfbench::fingerprint::Machine;
use bmf_perfbench::{catalog, report, run_workload, Outcome, RunParams, Size, WORKLOADS};

/// A parsed JSON value (just what the tests need).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected a number, got {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
    v
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected `{}` at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    self.i += if self.s[self.i] == b'\\' { 2 } else { 1 };
                }
                self.i += 1;
                Json::Str(String::from_utf8_lossy(&self.s[start..self.i - 1]).into_owned())
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let t = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(t.parse().unwrap_or_else(|_| panic!("bad number `{t}`")))
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()));
        self.i += w.len();
        v
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn metric_list(b: &Json, key: &str) -> Vec<(String, String)> {
    b.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.bytes()
            .all(|c| c.is_ascii_alphanumeric() || b"_.-".contains(&c))
}

fn tiny(workload: &str, seed: u64, trace: bool) -> Outcome {
    let params = RunParams {
        seed,
        seconds: 0.4,
        trace,
        size: Size::Tiny,
    };
    run_workload(workload, params).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn owned(v: &[(&str, &str)]) -> Vec<(String, String)> {
    v.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let b = benchmark_json();
    let e2e = metric_list(&b, "end_to_end");
    let layers = metric_list(&b, "per_layer");
    assert_eq!(e2e, owned(&catalog::END_TO_END));
    assert_eq!(layers, owned(&catalog::per_layer()));
    for (name, unit) in e2e.iter().chain(&layers) {
        assert!(valid_name(name), "bad metric name `{name}`");
        assert!(
            !unit.is_empty() && unit.len() <= 16,
            "bad unit `{unit}` of {name}"
        );
    }
    let workloads: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let setup = b
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == "setup_s");
    let bounds: Vec<f64> = b
        .get("end_to_end")
        .arr()
        .iter()
        .map(|m| m.get("bound").num())
        .collect();
    let setup_bound = setup
        .expect("setup_s is an end-to-end metric")
        .get("bound")
        .num();
    assert!(bounds
        .iter()
        .all(|&x| x > 0.0 && x <= 0.25 && x <= setup_bound));
}

/// Every tiny run is error-free, and both of its printed forms — the
/// human lines and the result line — carry exactly the metrics
/// `BENCHMARK.json` names for that mode, each with its unit.
#[test]
fn tiny_runs_are_error_free_and_print_every_metric() {
    let b = benchmark_json();
    let machine = Machine::detect();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = tiny(workload, 7, trace);
            assert!(
                out.failed_checks.is_empty(),
                "{workload}: {:?}",
                out.failed_checks
            );
            assert_eq!(out.error_frac(), 0.0, "{workload}: {:?}", out.notes);
            let params = RunParams {
                seed: 7,
                seconds: 0.4,
                trace,
                size: Size::Tiny,
            };
            let r = report::render(workload, &params, &out, &machine);
            assert!(r.correct);
            let result = parse(&r.result);
            assert_eq!(result.get("correct"), &Json::Bool(true));
            assert!(result.get("attempted").num() >= 1.0);
            assert_eq!(result.get("failed").num(), 0.0);
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics must be an object")
            };
            let want = metric_list(&b, if trace { "per_layer" } else { "end_to_end" });
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
                .collect();
            let mut sorted = want.clone();
            sorted.sort();
            assert_eq!(got, sorted, "{workload} trace={trace}");
            for (name, _) in &want {
                assert!(metrics[name].get("value").num().is_finite());
            }
            for (name, unit) in catalog::END_TO_END {
                let line = format!("{name} = ");
                assert!(
                    r.lines
                        .iter()
                        .any(|l| l.starts_with(&line) && l.ends_with(&format!(" {unit}"))),
                    "{workload}: no printed line for {name}"
                );
                if !trace {
                    assert!(
                        metrics[name].get("value").num() > 0.0,
                        "{workload}: {name} is 0"
                    );
                }
            }
            for (name, unit, wl) in catalog::WORKLOAD_FIGURES {
                if wl == workload {
                    let line = format!("{name} = ");
                    assert!(
                        r.lines
                            .iter()
                            .any(|l| l.starts_with(&line) && l.ends_with(&format!(" {unit}"))),
                        "{workload}: no printed line for {name}"
                    );
                }
            }
        }
    }
}

#[test]
fn seeds_drive_the_inputs() {
    for workload in WORKLOADS {
        let a = tiny(workload, 1, false).input_digest;
        let b = tiny(workload, 2, false).input_digest;
        let a2 = tiny(workload, 1, false).input_digest;
        assert_ne!(a, b, "{workload}: seeds 1 and 2 gave the same inputs");
        assert_eq!(a, a2, "{workload}: seed 1 did not reproduce its inputs");
    }
}

#[test]
fn named_counts_repeat_for_a_seed() {
    for workload in WORKLOADS {
        let a = tiny(workload, 3, true);
        let b = tiny(workload, 3, true);
        for name in catalog::EXACT_COUNTS {
            let (x, y) = (a.metrics.get(name), b.metrics.get(name));
            assert_eq!(
                x.map(|v| v.to_bits()),
                y.map(|v| v.to_bits()),
                "{workload}: {name} changed between runs of one seed"
            );
        }
    }
    // Each count comes from the workload that runs its layer.
    let ro = tiny("ro_fit", 3, true);
    assert!(ro.metrics["fit.map_solves"] > 0.0);
    let serve = tiny("serve_trace", 3, true);
    assert!(serve.metrics["batch.drains"] > 0.0);
    let stream = tiny("stream_persist", 3, true);
    assert!(stream.metrics["codec.bytes_per_model"] > 0.0);
    assert!(stream.metrics["vfs.fsyncs_per_put"] > 0.0);
}
