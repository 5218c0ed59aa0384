//! The JSON reporter is part of the determinism contract: CI may diff
//! report bytes across runs, so the output must be byte-identical for a
//! given workspace state, and the schema is pinned with a golden string.

use bmf_lint::baseline::{diff, parse};
use bmf_lint::lint_source;
use bmf_lint::report::{human, json};

const SRC: &str = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
const LABEL: &str = "crates/core/src/demo.rs";

const STALE_BASELINE: &str = "[[finding]]\n\
                              rule = \"no-float-eq\"\n\
                              file = \"crates/core/src/gone.rs\"\n\
                              fingerprint = \"deadbeefdeadbeef\"\n\
                              note = \"kept to pin the stale path\"\n";

#[test]
fn json_bytes_are_identical_across_runs() {
    let entries = parse(STALE_BASELINE).expect("parse baseline");
    let a = json(&diff(lint_source(LABEL, SRC), &entries));
    let b = json(&diff(lint_source(LABEL, SRC), &entries));
    assert_eq!(a, b);
    let ha = human(&diff(lint_source(LABEL, SRC), &entries));
    let hb = human(&diff(lint_source(LABEL, SRC), &entries));
    assert_eq!(ha, hb);
}

#[test]
fn json_matches_pinned_golden() {
    let entries = parse(STALE_BASELINE).expect("parse baseline");
    let got = json(&diff(lint_source(LABEL, SRC), &entries));
    let want = concat!(
        "{\"version\":1,\"new\":[",
        "{\"rule\":\"panic-reachability\",\"file\":\"crates/core/src/demo.rs\",",
        "\"line\":1,\"col\":1,",
        "\"message\":\"public fn `core::demo::f` contains `.unwrap()` (line 2); ",
        "callers cannot observe a structured error\",",
        "\"snippet\":\"<pub fn core::demo::f>\",",
        "\"fingerprint\":\"be7d996eea5c8d13\"}",
        "],\"baselined\":0,\"stale\":[",
        "{\"rule\":\"no-float-eq\",\"file\":\"crates/core/src/gone.rs\",",
        "\"fingerprint\":\"deadbeefdeadbeef\",\"note\":\"kept to pin the stale path\"}",
        "]}\n",
    );
    assert_eq!(got, want);
}

#[test]
fn workspace_json_is_byte_stable() {
    // End-to-end: two full workspace lints render identical JSON bytes
    // (sorted findings, fixed key order, no floats anywhere).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("lint-baseline.toml")).expect("baseline");
    let entries = parse(&text).expect("parse baseline");
    let a = json(&diff(
        bmf_lint::lint_workspace(&root).expect("lint"),
        &entries,
    ));
    let b = json(&diff(
        bmf_lint::lint_workspace(&root).expect("lint"),
        &entries,
    ));
    assert_eq!(a, b);
}
