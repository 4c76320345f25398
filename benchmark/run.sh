#!/usr/bin/env bash
# The one command of the repo benchmark (README.md in this directory).
#
#   benchmark/run.sh                      five workloads, untraced then traced,
#                                         each in a fresh process; results in
#                                         benchmark/out/
#   benchmark/run.sh --smoke              the same at CI size (< 15 s)
#   benchmark/run.sh --set a --runs 5     a result set: benchmark/out/a/run0..4
#   benchmark/run.sh --compare a b        two sets against BENCHMARK.json's bounds
#   benchmark/run.sh --compare a b --exact    ... of one commit: same-seed bits
#                                         and exact counters must match too
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                         one run (the BENCHMARK.json command)
#
# Exits non-zero on a failed build, a failed output check, a regression
# beyond a bound, or a set TYXE_* behaviour switch (the binary refuses those).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Build output goes to stderr: the last line of stdout is the result object.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/tyxe-benchmark"

case "${1:-}" in
    --workload) exec "$bin" "$@" ;;
    --compare) shift; exec "$bin" compare "$@" ;;
    *) exec "$bin" all "$@" ;;
esac
