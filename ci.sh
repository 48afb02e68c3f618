#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 build, and the whole
# workspace's tests.
# Everything runs offline — the only dependencies are the vendored shims
# in shims/ (see Cargo.toml's workspace.dependencies).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# The static invariants (unsafe confined to nine modules, SAFETY docs, no
# bare condvar waits) are lint levels in Cargo.toml and clippy.toml, so
# this step and `cargo build` enforce them (DESIGN.md §8.1).
echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> xtask verify: kernel oracle, protocol + file-format fuzzer, miri, interleavings"
cargo run -p xtask -- verify

echo "==> cargo doc (workspace, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> benchmark harness builds against this tree (writes only benchmark/target/)"
cargo build --release --manifest-path benchmark/Cargo.toml

echo "==> cargo test --workspace (tier-1's root package plus every crate, bench and xtask)"
cargo test --workspace -q

echo "==> env-variant reruns: forced-scalar align, each narrower SIMD tier"
MMM_DISABLE_SIMD=all cargo test -q -p mmm-align
MMM_DISABLE_SIMD=all cargo test -q -p manymap --test hpc_mapping
# The AVX2/SSE kernels end a diagonal by pad + blend, AVX-512 by k-masks; on
# an AVX-512 host only these reruns put the narrower tiers under the mapper.
for tiers in avx512 avx512,avx2; do
    MMM_DISABLE_SIMD=$tiers cargo test -q -p mmm-align
    MMM_DISABLE_SIMD=$tiers cargo test -q -p manymap --test hpc_mapping
done

echo "==> shard gate: release-binary sharded/flat byte-identity (every one-shard origin, cpu and device backend, slow shard), missing-shard chaos at 1 and 2 threads, one flipped byte is fatal"
cargo build --release -q -p mmm-simreads -p manymap --bins
SHARD_WORK=$(mktemp -d "${TMPDIR:-/tmp}/mmm-shard-ci.XXXXXX")
trap 'rm -rf "$SHARD_WORK"' EXIT
target/release/simreads --genome 240000 --chroms 4 --reads 24 --platform ont --seed 9 \
    --out-ref "$SHARD_WORK/ref.fa" --out-reads "$SHARD_WORK/reads.fa" >/dev/null
target/release/manymap index "$SHARD_WORK/ref.fa" "$SHARD_WORK/flat.mmx" --threads 1 2>/dev/null
target/release/manymap index "$SHARD_WORK/ref.fa" "$SHARD_WORK/sharded.mmx" --shards 4 --threads 1 2>/dev/null
# The image is written once and files wrap it: nothing re-serializes, and
# threads only share the work, so a second `index` of the same FASTA is the
# same bytes, file for file, at `--threads 2` and at the default (every
# core). Each is built under the same names in a directory of its own, so
# the manifests, which name their shard files, compare too.
for t in 2 default; do
    mkdir "$SHARD_WORK/t$t"
    threads=(--threads "$t")
    if [ "$t" = default ]; then threads=(); fi
    target/release/manymap index "$SHARD_WORK/ref.fa" "$SHARD_WORK/t$t/flat.mmx" \
        ${threads[@]+"${threads[@]}"} 2>/dev/null
    target/release/manymap index "$SHARD_WORK/ref.fa" "$SHARD_WORK/t$t/sharded.mmx" --shards 4 \
        ${threads[@]+"${threads[@]}"} 2>/dev/null
    for f in flat.mmx sharded.mmx sharded.mmx.s000 sharded.mmx.s001 sharded.mmx.s002 sharded.mmx.s003; do
        cmp "$SHARD_WORK/$f" "$SHARD_WORK/t$t/$f" \
            || { echo "ci: indexing the same reference at --threads $t wrote different bytes ($f)"; exit 1; }
    done
done
target/release/manymap map "$SHARD_WORK/flat.mmx" "$SHARD_WORK/reads.fa" \
    --threads 2 >"$SHARD_WORK/flat.paf" 2>/dev/null
target/release/manymap map "$SHARD_WORK/sharded.mmx" "$SHARD_WORK/reads.fa" \
    --threads 2 >"$SHARD_WORK/sharded.paf" 2>/dev/null
cmp "$SHARD_WORK/flat.paf" "$SHARD_WORK/sharded.paf" \
    || { echo "ci: sharded mapping diverged from flat"; exit 1; }
# Every origin of a one-shard index maps the same bytes: the flat file at one
# thread, a `--shards 1` manifest, and the FASTA indexed in memory.
target/release/manymap index "$SHARD_WORK/ref.fa" "$SHARD_WORK/one.mmx" --shards 1 2>/dev/null
for origin in flat.mmx:1 one.mmx:2 ref.fa:2; do
    target/release/manymap map "$SHARD_WORK/${origin%:*}" "$SHARD_WORK/reads.fa" \
        --threads "${origin#*:}" >"$SHARD_WORK/origin.paf" 2>/dev/null
    cmp "$SHARD_WORK/flat.paf" "$SHARD_WORK/origin.paf" \
        || { echo "ci: mapping over ${origin%:*} at ${origin#*:} thread(s) diverged from flat"; exit 1; }
done
# Recovery gate: a failed submission is split in halves on the same backend,
# so three failed submits cost no read: the PAF is the clean one and the
# supervisor quarantines nothing.
target/release/manymap map "$SHARD_WORK/flat.mmx" "$SHARD_WORK/reads.fa" \
    --threads 2 --inject-backend-fault launch-fail:batches=0..3 \
    >"$SHARD_WORK/recovered.paf" 2>"$SHARD_WORK/recovered.stderr"
cmp "$SHARD_WORK/flat.paf" "$SHARD_WORK/recovered.paf" \
    || { echo "ci: three failed backend submits changed the mapping"; exit 1; }
grep -q "supervisor cpu: .*, 0 quarantined," "$SHARD_WORK/recovered.stderr" \
    || { echo "ci: three failed backend submits quarantined jobs"; cat "$SHARD_WORK/recovered.stderr"; exit 1; }
# The sharded index under the device backend.
target/release/manymap map "$SHARD_WORK/sharded.mmx" "$SHARD_WORK/reads.fa" \
    --threads 2 --backend gpu-sim >"$SHARD_WORK/sharded-gpu.paf" 2>/dev/null
cmp "$SHARD_WORK/flat.paf" "$SHARD_WORK/sharded-gpu.paf" \
    || { echo "ci: sharded gpu-sim mapping diverged from flat"; exit 1; }
# The device backend's one fallback route: on a 16 KiB device the with-path
# fills whose footprint does not fit run on the host, and the mapping must
# not change.
MMM_GPU_MEM=16384 target/release/manymap map "$SHARD_WORK/sharded.mmx" "$SHARD_WORK/reads.fa" \
    --threads 2 --backend gpu-sim >"$SHARD_WORK/sharded-gpu-tiny.paf" 2>"$SHARD_WORK/gpu-tiny.stderr"
cmp "$SHARD_WORK/flat.paf" "$SHARD_WORK/sharded-gpu-tiny.paf" \
    || { echo "ci: gpu-sim with host fallbacks diverged from flat"; exit 1; }
grep -Eq " [1-9][0-9]* cpu-fallbacks" "$SHARD_WORK/gpu-tiny.stderr" \
    || { echo "ci: the 16 KiB device reported no cpu-fallbacks"; cat "$SHARD_WORK/gpu-tiny.stderr"; exit 1; }
# Chaos gate: a dead shard must degrade its reads and exit 0, not crash.
target/release/manymap map "$SHARD_WORK/sharded.mmx" "$SHARD_WORK/reads.fa" \
    --threads 2 --inject-backend-fault missing-shard:shards=1 \
    >"$SHARD_WORK/degraded.paf" 2>"$SHARD_WORK/chaos.stderr"
grep -q "4 total, 1 quarantined" "$SHARD_WORK/chaos.stderr" \
    || { echo "ci: shard chaos gate missing quarantine report"; cat "$SHARD_WORK/chaos.stderr"; exit 1; }
grep -q $'\ttp:A:U' "$SHARD_WORK/degraded.paf" \
    || { echo "ci: quarantined shard produced no degraded reads"; exit 1; }
# First touch from two workers: while one sits in a slow shard 0 the other
# loads the rest, and the mapping must not change.
target/release/manymap map "$SHARD_WORK/sharded.mmx" "$SHARD_WORK/reads.fa" \
    --threads 2 --inject-backend-fault slow-io:shards=0:ms=50 \
    >"$SHARD_WORK/slow.paf" 2>/dev/null
cmp "$SHARD_WORK/flat.paf" "$SHARD_WORK/slow.paf" \
    || { echo "ci: a slow shard changed the sharded mapping"; exit 1; }
# The same dead shard degrades the same reads whatever the worker count.
target/release/manymap map "$SHARD_WORK/sharded.mmx" "$SHARD_WORK/reads.fa" \
    --threads 1 --inject-backend-fault missing-shard:shards=1 \
    >"$SHARD_WORK/degraded1.paf" 2>/dev/null
cmp "$SHARD_WORK/degraded.paf" "$SHARD_WORK/degraded1.paf" \
    || { echo "ci: the degraded mapping differs between 1 and 2 threads"; exit 1; }
# Integrity gate: the single-file index is a checksummed container too, so
# one flipped byte (offset 50 000, mid-file) must be fatal, never a changed PAF.
cp "$SHARD_WORK/flat.mmx" "$SHARD_WORK/flipped.mmx"
printf '\377' | dd of="$SHARD_WORK/flipped.mmx" bs=1 seek=50000 conv=notrunc status=none
cmp -s "$SHARD_WORK/flat.mmx" "$SHARD_WORK/flipped.mmx" \
    && { echo "ci: the flipped byte was already 0xff"; exit 1; }
if target/release/manymap map "$SHARD_WORK/flipped.mmx" "$SHARD_WORK/reads.fa" \
    --threads 2 >"$SHARD_WORK/flipped.paf" 2>"$SHARD_WORK/flipped.stderr"; then
    echo "ci: a single-file index with a flipped byte was accepted"; exit 1
fi
grep -q "^manymap: .*checksum mismatch" "$SHARD_WORK/flipped.stderr" \
    || { echo "ci: flipped byte not reported as a checksum mismatch"; cat "$SHARD_WORK/flipped.stderr"; exit 1; }
[ ! -s "$SHARD_WORK/flipped.paf" ] \
    || { echo "ci: a refused index still produced output"; exit 1; }

echo "==> lane groups: default mapping equals the forced-scalar per-pair gold and gpu-sim's, and both grouped alike"
# The CPU backend aligns small gap fills one job per vector lane; forced
# scalar aligns every job alone. Their output must be the same bytes, and
# the default run must say it grouped, so the gate cannot pass by not
# grouping at all. gpu-sim computes every job on the same host executor, so
# its output and its lane groups must be the CPU backend's.
target/release/simreads --genome 500000 --reads 120 --platform ont --seed 3 \
    --out-ref "$SHARD_WORK/lane-ref.fa" --out-reads "$SHARD_WORK/lane-reads.fa" >/dev/null
target/release/manymap index "$SHARD_WORK/lane-ref.fa" "$SHARD_WORK/lane.mmx" 2>/dev/null
for flag in --sam --no-cigar; do
    target/release/manymap map "$SHARD_WORK/lane.mmx" "$SHARD_WORK/lane-reads.fa" $flag \
        >"$SHARD_WORK/lane-default.out" 2>"$SHARD_WORK/lane-default.err"
    MMM_DISABLE_SIMD=all target/release/manymap map "$SHARD_WORK/lane.mmx" \
        "$SHARD_WORK/lane-reads.fa" $flag >"$SHARD_WORK/lane-scalar.out" 2>/dev/null
    cmp "$SHARD_WORK/lane-default.out" "$SHARD_WORK/lane-scalar.out" \
        || { echo "ci: lane-grouped mapping ($flag) differs from the forced-scalar gold"; exit 1; }
    grep -Eq "^\[manymap\] backend cpu: .*, [1-9][0-9]* jobs in [1-9][0-9]* lane groups" \
        "$SHARD_WORK/lane-default.err" \
        || { echo "ci: the default run ($flag) grouped no jobs"; cat "$SHARD_WORK/lane-default.err"; exit 1; }
    target/release/manymap map "$SHARD_WORK/lane.mmx" "$SHARD_WORK/lane-reads.fa" $flag \
        --backend gpu-sim >"$SHARD_WORK/lane-gpu.out" 2>"$SHARD_WORK/lane-gpu.err"
    cmp "$SHARD_WORK/lane-default.out" "$SHARD_WORK/lane-gpu.out" \
        || { echo "ci: gpu-sim mapping ($flag) differs from the default run"; exit 1; }
    cpu_groups=$(sed -n 's/^\[manymap\] backend cpu: .*, \([0-9]* jobs in [0-9]* lane groups\).*/\1/p' \
        "$SHARD_WORK/lane-default.err")
    gpu_groups=$(sed -n 's/^\[manymap\] backend gpu-sim: .*, \([0-9]* jobs in [0-9]* lane groups\).*/\1/p' \
        "$SHARD_WORK/lane-gpu.err")
    [ "$gpu_groups" = "$cpu_groups" ] \
        || { echo "ci: gpu-sim ($flag) ran ${gpu_groups:-no lane groups}, the cpu backend $cpu_groups"; cat "$SHARD_WORK/lane-gpu.err"; exit 1; }
done

echo "==> streaming: a multi-batch ONT set maps to the same SAM at one and two threads, and through the gpu-sim standby"
# `manymap map` cuts its input into MAP_BATCH_BASES batches and writes each
# batch's records as it finishes. The thread count must not change a byte,
# and the set must span several batches, so the gate cannot pass on one.
target/release/simreads --genome 2000000 --reads 500 --platform ont --seed 5 \
    --out-ref "$SHARD_WORK/stream-ref.fa" --out-reads "$SHARD_WORK/stream-reads.fa" >/dev/null
target/release/manymap index "$SHARD_WORK/stream-ref.fa" "$SHARD_WORK/stream.mmx" 2>/dev/null
for t in 1 2; do
    target/release/manymap map "$SHARD_WORK/stream.mmx" "$SHARD_WORK/stream-reads.fa" --sam \
        --threads $t >"$SHARD_WORK/stream-t$t.sam" 2>"$SHARD_WORK/stream-t$t.err"
    batches=$(sed -n 's/^\[manymap\] backend cpu: [0-9]* jobs in \([0-9]*\) batches.*/\1/p' \
        "$SHARD_WORK/stream-t$t.err")
    [ "${batches:-0}" -ge 4 ] \
        || { echo "ci: the streaming set ran in ${batches:-no} batch(es) at --threads $t, expected >= 4"; cat "$SHARD_WORK/stream-t$t.err"; exit 1; }
done
cmp "$SHARD_WORK/stream-t1.sam" "$SHARD_WORK/stream-t2.sam" \
    || { echo "ci: streamed SAM differs between --threads 1 and --threads 2"; exit 1; }
# The standby path: under `launch-fail:every=3` a gpu-sim session's breaker
# trips and the standby, which shares the primary's executor, serves the
# rest. Nothing may be lost. The shard input above is one batch, too few to
# trip the breaker, so this gate runs on the streaming set.
target/release/manymap map "$SHARD_WORK/stream.mmx" "$SHARD_WORK/stream-reads.fa" --sam \
    --threads 2 --backend gpu-sim --inject-backend-fault launch-fail:every=3 \
    >"$SHARD_WORK/stream-standby.sam" 2>"$SHARD_WORK/stream-standby.err"
cmp "$SHARD_WORK/stream-t2.sam" "$SHARD_WORK/stream-standby.sam" \
    || { echo "ci: gpu-sim recovery through the standby changed the mapping"; exit 1; }
grep -Eq "supervisor gpu-sim: .*, 0 quarantined, [1-9][0-9]* breaker-trips," "$SHARD_WORK/stream-standby.err" \
    || { echo "ci: the standby run quarantined jobs or never tripped the breaker"; cat "$SHARD_WORK/stream-standby.err"; exit 1; }

echo "==> selection ratchet and MAPQ calibration on a repeat-bearing genome"
# The default 1 Mbp simreads genome carries 2 kb repeat copies. Chain
# selection masks by query overlap, so every read gets one primary and no
# repeat copy becomes a confident wrong one. The two counts below are this
# tree's and may only go down. Calibration: every MAPQ bin >= 40 holding
# >= 10 primaries must be at most 1 % wrong. The gate changes no output.
RATCHET_PRIMARIES_PER_READ=1.00
RATCHET_WRONG_MAPQ40=0
target/release/simreads --reads 200 --seed 42 \
    --out-ref "$SHARD_WORK/sel-ref.fa" --out-reads "$SHARD_WORK/sel-reads.fa" >/dev/null
target/release/manymap index "$SHARD_WORK/sel-ref.fa" "$SHARD_WORK/sel.mmx" --preset map-pb 2>/dev/null
target/release/manymap map "$SHARD_WORK/sel.mmx" "$SHARD_WORK/sel-reads.fa" \
    --preset map-pb --threads 2 >"$SHARD_WORK/sel.paf" 2>/dev/null
target/release/mapeval "$SHARD_WORK/sel.paf" | tee "$SHARD_WORK/sel.eval"
# A table row is `lo-hi primaries wrong err%`; the bin floor is `$1 + 0`
# (the `0- 9` row splits into one more field, so count from the end).
awk -v ppr="$RATCHET_PRIMARIES_PER_READ" -v w40="$RATCHET_WRONG_MAPQ40" '
    /^primaries\/read:/ { if ($2 + 0 > ppr + 0) { print "ci: primaries/read " $2 " exceeds the ratchet " ppr; bad = 1 } seen++ }
    /^wrong primaries at MAPQ >= 40:/ { if ($NF + 0 > w40 + 0) { print "ci: wrong primaries at MAPQ >= 40 " $NF " exceeds the ratchet " w40; bad = 1 } seen++ }
    table && NF >= 4 {
        bins++
        if ($1 + 0 >= 40 && $(NF - 2) >= 10 && $NF + 0 > 1) { print "ci: MAPQ bin " $1 " is " $NF "% wrong over " $(NF - 2) " primaries (calibration bound 1%)"; bad = 1 }
    }
    /^mapq +primaries +wrong/ { table = 1 }
    END { if (seen != 2 || bins == 0) { print "ci: mapeval summary not understood"; bad = 1 } exit bad }
' "$SHARD_WORK/sel.eval"
rm -rf "$SHARD_WORK"
trap - EXIT

echo "==> shard load bench: quick smoke (baseline lives in BENCH_shard_load.json)"
BENCH_QUICK=1 BENCH_JSON_OUT="" cargo run -q --release -p bench --bin shard_load

echo "==> serve gate: boot daemon, 4 concurrent clients, clean drain"
./serve_gate.sh

echo "==> serve ingestion bench: quick smoke (baseline lives in BENCH_serve_queue.json)"
BENCH_QUICK=1 BENCH_JSON_OUT="" cargo bench -p bench --bench serve_queue

echo "==> Table 2's shape: five stage rows from map_reads' own stage times, Align the largest"
# The CPU column is one `session::map_reads` run at one thread; the paper
# has Align at 65.4 % of it, ahead of every other stage.
T2=$(BENCH_QUICK=1 cargo run -q --release -p bench --bin table2)
echo "$T2"
echo "$T2" | awk '
    BEGIN { n = split("Load Index|Load Query|Seed & Chain|Align|Output", stage, "|") }
    {
        row = $0; sub(/^ +/, "", row)
        for (i = 1; i <= n; i++) if (index(row, stage[i] " ") == 1 && NF >= 5) { cpu[i] = $(NF - 3) + 0; seen[i] = 1 }
    }
    END {
        for (i = 1; i <= n; i++) if (!seen[i]) { print "ci: table2 printed no " stage[i] " row"; bad = 1 }
        for (i = 1; i <= n; i++) if (i != 4 && seen[i] && cpu[i] >= cpu[4]) { print "ci: table2 " stage[i] " (" cpu[i] " s) is not below Align (" cpu[4] " s)"; bad = 1 }
        exit bad
    }
'

echo "==> index decode bench: quick smoke (baseline lives in BENCH_index_decode.json)"
BENCH_QUICK=1 BENCH_JSON_OUT="" cargo run -q --release -p bench --bin index_decode

echo "==> backend exec bench: quick smoke (baseline lives in BENCH_backend_exec.json)"
BENCH_QUICK=1 BENCH_JSON_OUT="" cargo run -q --release -p bench --bin backend_exec

echo "CI OK"
