#!/usr/bin/env bash
# Smoke-runs bench binaries (one iteration each, reduced sizes) so CI
# proves every bench still executes end to end without paying full
# measurement time. With `--features bench` the counting allocator is
# installed and the solver/batch benches additionally assert their
# per-fit allocation budgets.
#
# Usage:
#   scripts/ci_bench_smoke.sh solver fitting_cost omp batch studies
#   scripts/ci_bench_smoke.sh --features bench solver batch
set -euo pipefail

cd "$(dirname "$0")/.."

features=()
if [[ "${1:-}" == "--features" ]]; then
    [[ $# -ge 2 ]] || { echo "usage: $0 [--features <feat>] <bench>..." >&2; exit 2; }
    features=(--features "$2")
    shift 2
fi
[[ $# -gt 0 ]] || { echo "usage: $0 [--features <feat>] <bench>..." >&2; exit 2; }

# The studies bench writes BENCH_*.json; route smoke output to a
# scratch directory so the committed full-scale baselines are never
# clobbered. Absolute path: cargo runs bench binaries from the package
# directory.
export BMF_BENCH_OUT="${BMF_BENCH_OUT:-$(pwd)/target/smoke}"
mkdir -p "$BMF_BENCH_OUT"

for bench in "$@"; do
    echo "== smoke: $bench ${features[1]:+(features: ${features[1]})}=="
    cargo bench --offline --locked -p bmf-bench \
        ${features[@]+"${features[@]}"} --bench "$bench" -- --smoke
done
