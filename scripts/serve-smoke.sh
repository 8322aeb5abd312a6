#!/usr/bin/env bash
# End-to-end smoke test for the `gc serve` daemon using only the release
# CLI: start a daemon on a unix socket, talk to it with `gc ctl` and
# `gc query --connect`, then SIGTERM it and assert a clean drain (exit 0,
# socket unlinked). CI runs this under a hard `timeout`; locally it is
# self-contained and cleans up after itself:
#
#   cargo build --release --bin gc
#   scripts/serve-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/gc
[ -x "$BIN" ] || { echo "serve-smoke: $BIN not found — run: cargo build --release --bin gc" >&2; exit 1; }

WORK=$(mktemp -d)
SOCK="$WORK/gc.sock"
SERVER_PID=
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

die() {
    echo "serve-smoke: FAIL: $*" >&2
    exit 1
}

echo "== generate dataset + workload"
"$BIN" generate --profile aids --scale 0.05 --seed 11 --out "$WORK/d.txt"
"$BIN" workload --dataset "$WORK/d.txt" --kind zz --count 30 --seed 13 --out "$WORK/q.txt"

echo "== start daemon"
"$BIN" serve --dataset "$WORK/d.txt" --unix "$SOCK" \
    --capacity 50 --window 10 --fragments on \
    --persist-on-exit "$WORK/snapshot" &
SERVER_PID=$!

# Wait for the socket to come up (the daemon binds before serving).
for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || die "daemon exited before binding $SOCK"
    sleep 0.05
done
[ -S "$SOCK" ] || die "daemon never bound $SOCK"

echo "== ctl ping"
"$BIN" ctl --unix "$SOCK" ping | grep -q pong || die "ping did not pong"

echo "== query --connect"
"$BIN" query --connect "unix:$SOCK" --queries "$WORK/q.txt" > "$WORK/queries.out"
grep -q "^30 queries served" "$WORK/queries.out" || die "served replay did not report 30 queries"

echo "== ctl stats"
"$BIN" ctl --unix "$SOCK" stats > "$WORK/stats.out"
for key in queries sub_hits super_hits fragment_probes fragments_built cache_entries sessions_total inflight; do
    grep -q "^$key " "$WORK/stats.out" || die "STATS missing counter '$key'"
done
served=$(awk '$1 == "queries" { print $2 }' "$WORK/stats.out")
[ "$served" -ge 30 ] || die "daemon counted $served queries, expected >= 30"
built=$(awk '$1 == "fragments_built" { print $2 }' "$WORK/stats.out")
[ "$built" -ge 1 ] || die "daemon ran with --fragments on but built $built fragments"

echo "== SIGTERM drain"
kill -TERM "$SERVER_PID"
if wait "$SERVER_PID"; then
    SERVER_PID=
else
    die "daemon exited non-zero on SIGTERM"
fi
[ ! -e "$SOCK" ] || die "daemon left its socket behind: $SOCK"
[ -f "$WORK/snapshot/snapshot.bin" ] || die "daemon did not persist a snapshot on exit"

echo "serve-smoke: OK"
