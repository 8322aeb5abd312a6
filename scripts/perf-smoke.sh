#!/usr/bin/env bash
# Keeps the repo benchmark runnable: `perf/` is a workspace of its own
# with path dependencies on `crates/*`, so a product API change can break
# it without any root-workspace build noticing — and the benchmark
# pipeline would be the first to find out. Builds it offline, runs its
# unit tests, then replays two short workloads the way the driver does —
# churn-window (every query admitted, rounds with evictions) and hot-zipf
# (two thirds exact hits) — and requires each result line (the last line
# of standard output) to report no failed operation. Numbers from a
# 3-second run on a CI host mean nothing and are not looked at.
#
#   scripts/perf-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path perf/Cargo.toml
cargo test --offline --manifest-path perf/Cargo.toml

for workload in churn-window hot-zipf; do
    result=$(cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- \
        --workload "$workload" --seconds 3 --trace 0 | tail -n 1)
    case "$result" in
        *'"failed": 0'*) echo "perf-smoke: $workload ok" ;;
        *)
            echo "perf-smoke: FAIL: $workload result line does not report \"failed\": 0:" >&2
            echo "$result" >&2
            exit 1
            ;;
    esac
done
