#!/usr/bin/env bash
# End-to-end persistence smoke using only the release CLI: replay a
# workload, save the warmed cache (`snapshot.bin`, the one on-disk
# representation), restore it into a fresh process replaying the same
# workload, and require that saving never changes replay behaviour and
# that the restored replay is far warmer than the cold one. CI runs this
# under a hard `timeout`; locally it is self-contained and cleans up
# after itself:
#
#   cargo build --release --bin gc
#   scripts/persist-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/gc
[ -x "$BIN" ] || { echo "persist-smoke: $BIN not found — run: cargo build --release --bin gc" >&2; exit 1; }

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

die() {
    echo "persist-smoke: FAIL: $*" >&2
    exit 1
}

# Strips the hardware-dependent lines (latency averages, wall clock,
# maintenance timing breakdown) and the save/restore directory paths so
# the diff below compares deterministic counters only.
counters() {
    grep -v -e "wall clock" -e "rounds | total" -e "^saved cache state" "$1" \
        | sed -e 's/avg [0-9]* µs/avg - µs/' -e 's| from .*| from -|'
}

echo "== generate dataset + workload"
"$BIN" generate --profile aids --scale 0.05 --seed 11 --out "$WORK/d.txt"
"$BIN" workload --dataset "$WORK/d.txt" --kind zz --count 30 --seed 13 --out "$WORK/q.txt"

run() { # run <extra flags...> — one deterministic replay
    "$BIN" query --dataset "$WORK/d.txt" --queries "$WORK/q.txt" \
        --capacity 50 --window 5 --maint-stats "$@"
}

echo "== warm replays, with and without --save"
run > "$WORK/warm.out"
run --save "$WORK/saved" > "$WORK/warm-saved.out"

[ -f "$WORK/saved/snapshot.bin" ] || die "save missing snapshot.bin"
[ -f "$WORK/saved/MANIFEST" ] || die "save missing MANIFEST"
[ ! -e "$WORK/saved/entries.txt" ] || die "save wrote a text entries.txt"

# Both warm replays are the same deterministic run; anything else means
# saving leaked into replay behaviour.
diff <(counters "$WORK/warm.out") <(counters "$WORK/warm-saved.out") \
    || die "warm replay counters differ with --save"

echo "== restored replay in a fresh process"
run --restore "$WORK/saved" > "$WORK/replay.out"
grep -q "^restored " "$WORK/replay.out" || die "restore did not report restored entries"

# A restored cache replaying its own workload must be far warmer than
# the cold run that produced the snapshot — the round-trip preserved the
# entries and their answer sets, not just the entry count.
warm=$(grep -o "[0-9]* cache-assisted" "$WORK/warm-saved.out" | awk '{ print $1 }')
assisted=$(grep -o "[0-9]* cache-assisted" "$WORK/replay.out" | awk '{ print $1 }')
[ "$assisted" -gt "$warm" ] || die "restored replay assisted $assisted queries, cold run $warm — snapshot did not warm the cache"
[ "$assisted" -ge 25 ] || die "restored cache served only $assisted/30 queries cache-assisted"

echo "persist-smoke: OK"
