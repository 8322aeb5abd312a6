#!/usr/bin/env bash
# Builds the benchmark once (offline), then runs the five workloads as
# separate processes — peak RSS is per workload — followed by the traced
# runs. Usage: perf/run.sh [--seed N] [--seconds S]
#
# Each run prints its table on standard error and one JSON result line on
# standard output; a wrong answer, a failed operation or work that drifts
# between passes makes the run, and this script, exit non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path perf/Cargo.toml
bin="${CARGO_TARGET_DIR:-perf/target}/release/perf"

workloads=(hot-zipf cold-uniform churn-window served-zipf routed-2)
for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --trace 0 "$@"
done
for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --trace 1 "$@"
done
