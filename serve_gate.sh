#!/usr/bin/env bash
# The mmm-serve CI gate: boot the daemon, run 4 concurrent tenants, and
# demand (a) every tenant's output byte-identical to a solo `manymap map`
# run, (b) a live stats endpoint that accounts for all of them, (c) a
# clean drain that flushes everything and exits 0, and (d) a backend that
# still aligns most small gap fills in lane groups when the daemon's
# batches are small. Uses the release
# binaries, building the three it needs (the tier-1 build only covers the
# root package).
set -euo pipefail
cd "$(dirname "$0")"

BIN=target/release
cargo build --release -q -p mmm-simreads -p manymap --bins
WORK=$(mktemp -d "${TMPDIR:-/tmp}/mmm-serve-gate.XXXXXX")
SOCK="$WORK/daemon.sock"
DAEMON_PID=""

cleanup() {
    if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -9 "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "  -> fixture: 80 kb genome, 16 nanopore reads"
"$BIN/simreads" --genome 80000 --reads 16 --platform ont --seed 7 \
    --out-ref "$WORK/ref.fa" --out-reads "$WORK/reads.fa" >/dev/null
"$BIN/manymap" index "$WORK/ref.fa" "$WORK/ref.mmx" 2>/dev/null

echo "  -> solo CLI reference run"
"$BIN/manymap" map "$WORK/ref.mmx" "$WORK/reads.fa" \
    --threads 2 --backend cpu >"$WORK/solo.paf" 2>/dev/null
[[ -s "$WORK/solo.paf" ]] || { echo "serve_gate: solo run produced no output"; exit 1; }

echo "  -> boot daemon"
"$BIN/mmm-serve" daemon "$WORK/ref.mmx" --socket "$SOCK" \
    --threads 2 --backend cpu 2>"$WORK/daemon.stderr" &
DAEMON_PID=$!
for _ in $(seq 1 200); do
    [[ -S "$SOCK" ]] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$WORK/daemon.stderr"; exit 1; }
    sleep 0.05
done
[[ -S "$SOCK" ]] || { echo "serve_gate: daemon socket never appeared"; exit 1; }

echo "  -> 4 concurrent tenants"
CLIENT_PIDS=()
for i in 1 2 3 4; do
    "$BIN/mmm-serve" client "$SOCK" "tenant$i" "$WORK/reads.fa" \
        >"$WORK/t$i.paf" 2>"$WORK/t$i.stderr" &
    CLIENT_PIDS+=($!)
done
for pid in "${CLIENT_PIDS[@]}"; do
    wait "$pid" || { echo "serve_gate: a client failed"; cat "$WORK"/t*.stderr; exit 1; }
done
for i in 1 2 3 4; do
    cmp -s "$WORK/solo.paf" "$WORK/t$i.paf" || {
        echo "serve_gate: tenant$i output diverged from the solo CLI"
        exit 1
    }
done

echo "  -> stats endpoint"
"$BIN/mmm-serve" stats "$SOCK" >"$WORK/stats.txt"
grep -q "tenant tenant1:" "$WORK/stats.txt" || {
    echo "serve_gate: stats endpoint missing tenant lines"; cat "$WORK/stats.txt"; exit 1
}
grep -q "64 read(s) accepted" "$WORK/stats.txt" || {
    echo "serve_gate: stats totals wrong"; cat "$WORK/stats.txt"; exit 1
}

echo "  -> live reload under load"
# A bigger tenant keeps reads in flight while the generation swaps. Same
# genome opts + seed reproduce ref.fa exactly, so the index still matches.
"$BIN/simreads" --genome 80000 --reads 200 --platform ont --seed 7 \
    --out-ref "$WORK/ref-check.fa" --out-reads "$WORK/reads-big.fa" >/dev/null
cmp -s "$WORK/ref.fa" "$WORK/ref-check.fa" || {
    echo "serve_gate: simreads reference not reproducible"; exit 1
}
"$BIN/manymap" index "$WORK/ref.fa" "$WORK/ref-sharded.mmx" --shards 2 2>/dev/null
"$BIN/manymap" map "$WORK/ref.mmx" "$WORK/reads-big.fa" \
    --threads 2 --backend cpu >"$WORK/solo-big.paf" 2>/dev/null
"$BIN/mmm-serve" client "$SOCK" tenant5 "$WORK/reads-big.fa" \
    >"$WORK/t5.paf" 2>"$WORK/t5.stderr" &
RELOAD_CLIENT=$!
sleep 0.1
# Swap the daemon to the sharded manifest mid-stream: reads already in
# flight finish on the old generation, later accepts plan on the new one,
# and the merged output must still be byte-identical — zero reads lost.
"$BIN/mmm-serve" reload "$SOCK" "$WORK/ref-sharded.mmx" >"$WORK/reload.txt"
grep -q "reloaded generation" "$WORK/reload.txt" || {
    echo "serve_gate: reload gave no confirmation"; cat "$WORK/reload.txt"; exit 1
}
wait "$RELOAD_CLIENT" || {
    echo "serve_gate: client failed across the reload"; cat "$WORK/t5.stderr"; exit 1
}
cmp -s "$WORK/solo-big.paf" "$WORK/t5.paf" || {
    echo "serve_gate: reload under load changed or dropped output"
    exit 1
}
"$BIN/mmm-serve" stats "$SOCK" >"$WORK/stats2.txt"
grep -q "1 reload(s)" "$WORK/stats2.txt" || {
    echo "serve_gate: stats missing the reload"; cat "$WORK/stats2.txt"; exit 1
}
grep -q "264 read(s) accepted" "$WORK/stats2.txt" || {
    echo "serve_gate: reads lost across the reload"; cat "$WORK/stats2.txt"; exit 1
}

echo "  -> drain"
"$BIN/mmm-serve" drain "$SOCK"
wait "$DAEMON_PID" || { echo "serve_gate: daemon exited non-zero"; cat "$WORK/daemon.stderr"; exit 1; }
DAEMON_PID=""
grep -q "\[mmm-serve\] up " "$WORK/daemon.stderr" || {
    echo "serve_gate: final report missing"; cat "$WORK/daemon.stderr"; exit 1
}
[[ -S "$SOCK" ]] && { echo "serve_gate: drained daemon left its socket"; exit 1; }

echo "  -> small batches: a second daemon, --batch-bases 5000"
# A daemon whose batches hold one or two reads: its lane groups are part
# filled, and a group too empty for its tier must cascade to a narrower
# one instead of running pair by pair. The final report's backend line is
# `backend cpu: N jobs in B batches, …, G jobs in L lane groups (…)`;
# measured 12649 of 13390 jobs (94 %) grouped, 47 % without the cascade.
MIN_GROUPED_PCT=85
"$BIN/mmm-serve" daemon "$WORK/ref.mmx" --socket "$SOCK" \
    --threads 2 --backend cpu --batch-bases 5000 2>"$WORK/daemon-small.stderr" &
DAEMON_PID=$!
for _ in $(seq 1 200); do
    [[ -S "$SOCK" ]] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$WORK/daemon-small.stderr"; exit 1; }
    sleep 0.05
done
"$BIN/mmm-serve" client "$SOCK" small "$WORK/reads-big.fa" >"$WORK/small.paf" 2>/dev/null
cmp -s "$WORK/solo-big.paf" "$WORK/small.paf" || {
    echo "serve_gate: small-batch daemon output diverged from the solo CLI"; exit 1
}
"$BIN/mmm-serve" drain "$SOCK" >/dev/null
wait "$DAEMON_PID" || { echo "serve_gate: daemon exited non-zero"; cat "$WORK/daemon-small.stderr"; exit 1; }
DAEMON_PID=""
read -r JOBS GROUPED < <(sed -nE \
    's/.*backend cpu: ([0-9]+) jobs in .*, ([0-9]+) jobs in [0-9]+ lane groups.*/\1 \2/p' \
    "$WORK/daemon-small.stderr") || true
[[ -n "${GROUPED:-}" && "${JOBS:-0}" -gt 0 ]] || {
    echo "serve_gate: no lane-group count in the daemon's report"; cat "$WORK/daemon-small.stderr"; exit 1
}
GROUPED_PCT=$((100 * GROUPED / JOBS))
echo "  -> $GROUPED of $JOBS jobs in lane groups ($GROUPED_PCT %, gate >= $MIN_GROUPED_PCT %)"
((GROUPED_PCT >= MIN_GROUPED_PCT)) || {
    echo "serve_gate: only $GROUPED_PCT % of the daemon's jobs ran in lane groups"; exit 1
}

echo "  serve gate OK"
