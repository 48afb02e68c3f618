//! Allocation regression for the mapper's two phases: planning a read costs
//! what seeding and chaining allocate plus a constant three (the job buffer
//! every reference window is decoded into, the job vector and the per-chain
//! base scores), and finalizing it in score-only mode allocates only its
//! mapping vector — finalize decodes no window and runs no DP.
//!
//! The direction matrix is part of that arena: it grows one diagonal at a
//! time, so it must stay allocation-free once warm and must hold only the
//! rows a z-drop extension actually computed.
//!
//! The index has a claim of the same kind: opening a file allocates what
//! the lookup directory and the sequence table need and *nothing
//! proportional to the file* — the image is queried where it is mapped.
//! Sketching a sequence allocates its output and one block of scratch,
//! nothing proportional to the sequence.
//!
//! A counting global allocator makes the claims checkable; the counters are
//! thread-local so parallel test threads can't perturb them.
// Drives the SIMD alignment kernels the host offers, which Miri cannot run.
#![cfg(not(miri))]
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![expect(unsafe_code, reason = "a counting allocator forwarding to `System`")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use manymap::{MapOpts, Mapper};
use mmm_align::{AlignMode, AlignScratch, Engine, Scoring, DEFAULT_ZDROP};
use mmm_chain::{chain_anchors, select_chains};
use mmm_exec::align_jobs_with_scratch;
use mmm_index::minimizer::{minimizers, minimizers_hpc, Minimizer};
use mmm_index::{save_index, IdxOpts, MinimizerIndex, ShardOpenOpts, ShardedIndex};
use mmm_seq::{nt4_decode, revcomp4, SeqRecord};
use mmm_simreads::{generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: pure pass-through to `System` plus a thread-local counter bump —
// every allocator contract obligation is delegated unchanged, and the
// caller-supplied layout/pointer invariants are forwarded verbatim.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        // SAFETY: same layout the caller passed, forwarded to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a matching `alloc` on `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + new_size as u64));
        // SAFETY: `ptr`/`layout` come from a matching `alloc` on `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Bytes requested on this thread so far (frees are not subtracted).
fn bytes_on_this_thread() -> u64 {
    BYTES.with(|c| c.get())
}

fn fixture() -> (ShardedIndex, Vec<Vec<u8>>) {
    let g = generate_genome(&GenomeOpts {
        len: 80_000,
        repeat_frac: 0.0,
        seed: 77,
        ..Default::default()
    });
    let idx = ShardedIndex::build(
        &[SeqRecord::new("chr1", nt4_decode(&g))],
        &IdxOpts::MAP_ONT,
        1,
    )
    .expect("fixture fits every budget");
    // Exact-substring reads (one per strand) so every read produces chains
    // and the walk exercises match runs, gap fills, and both extensions.
    let fwd: Vec<u8> = g[10_000..14_000].to_vec();
    let rev = revcomp4(&g[40_000..43_000]);
    (idx, vec![fwd, rev])
}

/// A score-only finalize allocates its mapping vector and nothing else: the
/// plan's jobs hold every reference window, and their results every
/// extension's extents.
#[test]
fn score_only_finalize_reuses_the_arena() {
    let (idx, reads) = fixture();
    let mapper = Mapper::new(&idx, MapOpts::map_ont().cigar(false));
    let mut scratch = AlignScratch::new();

    // Planning (anchor vectors, chains, job segments) and job execution
    // (the result vector) allocate by design; do both once per read outside
    // the measured loop, then walk each read once unmeasured.
    let planned: Vec<_> = reads
        .iter()
        .map(|r| {
            let plan = mapper.plan_read(r).expect("fixture read plans");
            let (engine, sc) = (mapper.opts.engine, mapper.opts.scoring);
            let fills = align_jobs_with_scratch(engine, &plan.jobs, &sc, &mut scratch);
            (plan, fills)
        })
        .collect();
    for (read, (plan, fills)) in reads.iter().zip(&planned) {
        assert!(
            !mapper
                .finalize_read_with_scratch(read, plan, fills, &mut scratch)
                .is_empty(),
            "fixture read must map"
        );
    }

    let before = allocs_on_this_thread();
    let mut acc = 0i64;
    let mut walks = 0u64;
    for _ in 0..5 {
        for (read, (plan, fills)) in reads.iter().zip(&planned) {
            let ms = mapper.finalize_read_with_scratch(read, plan, fills, &mut scratch);
            acc += ms.iter().map(|m| m.align_score as i64).sum::<i64>();
            walks += 1;
        }
    }
    std::hint::black_box(acc);
    let spent = allocs_on_this_thread() - before;
    // Budget: the per-walk mapping Vec (and nothing else).
    assert_eq!(
        spent, walks,
        "score-only walks allocated {spent} time(s) over {walks} walk(s)"
    );
}

/// A read's jobs — fills and end extensions — share one buffer: planning
/// costs what seeding and chaining allocate plus the job buffer, the job
/// vector and the per-chain base scores — the same three allocations for a
/// read with a handful of jobs as for one with hundreds (an older tree made
/// two per job, one per side).
#[test]
fn planning_allocates_three_job_buffers_whatever_the_job_count() {
    let g = generate_genome(&GenomeOpts {
        len: 200_000,
        repeat_frac: 0.0,
        seed: 21,
        ..Default::default()
    });
    let idx = ShardedIndex::build(
        &[SeqRecord::new("chr1", nt4_decode(&g))],
        &IdxOpts::MAP_ONT,
        1,
    )
    .expect("fixture fits every budget");
    let opts = MapOpts::map_ont();
    let mapper = Mapper::new(&idx, opts);
    let reads = simulate_reads(
        &g,
        &SimOpts {
            platform: Platform::Nanopore,
            num_reads: 30,
            seed: 4,
        },
    );
    let mut jobs_seen = Vec::new();
    for r in &reads {
        let read = &r.seq;
        // Once untimed, so a lookup buffer that lives on past the call is
        // there for both measurements.
        drop(mapper.plan_read(read));
        // What seeding and chaining allocate, measured on their own.
        let before = allocs_on_this_thread();
        let anchors = idx.collect_anchors(read).unwrap();
        let selected = if anchors.is_empty() {
            Vec::new()
        } else {
            select_chains(chain_anchors(anchors, &opts.chain), &opts.select)
        };
        let q_rc = selected.iter().any(|s| s.chain.rev).then(|| revcomp4(read));
        let seeding = allocs_on_this_thread() - before;
        drop((selected, q_rc));

        let before = allocs_on_this_thread();
        let plan = mapper.plan_read(read).expect("simulated reads plan");
        let planning = allocs_on_this_thread() - before;
        let jobs = plan.jobs.len();
        if jobs == 0 {
            assert_eq!(planning, seeding, "a read with no jobs");
            continue;
        }
        assert_eq!(
            planning - seeding,
            3,
            "a read with {jobs} jobs: {planning} allocations, {seeding} of them seeding"
        );
        jobs_seen.push(jobs);
    }
    jobs_seen.sort_unstable();
    let (few, many) = (jobs_seen[0], jobs_seen[jobs_seen.len() - 1]);
    assert!(few * 10 <= many, "job counts {few}..{many} are too alike");
}

/// The decode primitive itself is strictly zero-alloc once the destination
/// buffer has grown: repeated `ref_window_into` calls never touch the
/// allocator, on any SIMD tier.
#[test]
fn ref_window_into_is_zero_alloc_after_growth() {
    let (idx, _) = fixture();
    let mut buf = Vec::new();
    idx.ref_window_into(0, 0, 4_096, &mut buf).unwrap();

    let before = allocs_on_this_thread();
    let mut acc = 0u64;
    for start in (0..64_000).step_by(1_000) {
        idx.ref_window_into(0, start, start + 4_096, &mut buf)
            .unwrap();
        acc += u64::from(buf[0]) + buf.len() as u64;
    }
    std::hint::black_box(acc);
    assert_eq!(
        allocs_on_this_thread() - before,
        0,
        "ref_window_into allocated on a warm buffer"
    );
}

/// Direction rows are appended as the DP reaches them: an extension that
/// z-drops early never pays for the `tlen × qlen` matrix, and a warmed arena
/// repeats any extension or fill without touching the allocator.
#[test]
fn direction_rows_grow_on_demand_and_are_reused() {
    // The chimera shape that used to pin `pb_repeat`'s peak RSS: 1 kb of
    // homology, then 4 kb of junk, against a 6 kb reference window.
    let g = generate_genome(&GenomeOpts {
        len: 16_000,
        repeat_frac: 0.0,
        seed: 5,
        ..Default::default()
    });
    let target = &g[..6_000];
    let mut query = g[..1_000].to_vec();
    query.extend_from_slice(&g[10_000..14_000]);
    let (tlen, qlen) = (target.len(), query.len());
    let sc = Scoring::MAP_PB;

    for engine in Engine::all().into_iter().filter(Engine::is_available) {
        let mut scratch = AlignScratch::new();
        let extend = |scratch: &mut AlignScratch| {
            let e =
                engine.extend_zdrop_with_scratch(target, &query, &sc, DEFAULT_ZDROP, true, scratch);
            let consumed = (e.t_consumed, e.q_consumed);
            scratch.recycle(e.cigar);
            consumed
        };
        let first = extend(&mut scratch);
        assert!(
            (950..1_100).contains(&first.0) && (950..1_100).contains(&first.1),
            "{}: the extension ends where the homology does, got {first:?}",
            engine.label()
        );
        assert!(
            scratch.heap_bytes() < tlen * qlen / 4,
            "{}: an early z-drop holds {} bytes, the full matrix is {}",
            engine.label(),
            scratch.heap_bytes(),
            tlen * qlen
        );

        let before = allocs_on_this_thread();
        assert_eq!(extend(&mut scratch), first);
        assert_eq!(
            allocs_on_this_thread() - before,
            0,
            "{}: second extension",
            engine.label()
        );

        // A fill runs to the corner; the second identical one is free too.
        let fill = |scratch: &mut AlignScratch| {
            let (t, q) = (&g[2_000..2_068], &g[2_001..2_069]);
            let r = engine.align_with_scratch(t, q, &sc, AlignMode::Global, true, scratch);
            scratch.recycle(r.cigar.expect("with_path fill returns a CIGAR"));
            r.score
        };
        let score = fill(&mut scratch);
        let before = allocs_on_this_thread();
        assert_eq!(fill(&mut scratch), score);
        assert_eq!(
            allocs_on_this_thread() - before,
            0,
            "{}: second fill",
            engine.label()
        );
    }
}

/// Opening an index file costs a checksum pass and a validation walk, not a
/// second copy of the index: the bytes allocated inside `open` are a
/// small fraction of the file, and the same whether the reference yields
/// 200 thousand keys or twice that (the parent tree allocated more than the
/// file's length — a hash-map entry per key, a copy of pool and reference).
#[test]
fn opening_an_index_allocates_nothing_proportional_to_it() {
    let g = generate_genome(&GenomeOpts {
        len: 1_200_000,
        repeat_frac: 0.0,
        seed: 31,
        ..Default::default()
    });
    let refs = [SeqRecord::new("chr1", nt4_decode(&g))];
    let path = std::env::temp_dir().join(format!("mmm-alloc-open-{}.mmx", std::process::id()));
    // One reference at two sketch densities: w = 10, then w = 5.
    let mut spent = Vec::new();
    for w in [10, 5] {
        let built = MinimizerIndex::build(
            &refs,
            &IdxOpts {
                w,
                ..IdxOpts::MAP_ONT
            },
            1,
        )
        .unwrap();
        save_index(&built, &path).unwrap();
        let (keys, file_len) = (
            built.num_minimizers(),
            std::fs::metadata(&path).unwrap().len(),
        );
        drop(built);
        assert!(keys >= 100_000, "w={w}: only {keys} keys");

        let before = bytes_on_this_thread();
        let opened = ShardedIndex::open(&path, ShardOpenOpts::default()).unwrap();
        let bytes = bytes_on_this_thread() - before;
        assert_eq!(opened.num_shards(), 1);
        assert_eq!(opened.ensure_shard(0).unwrap().num_minimizers(), keys);
        assert!(
            bytes < file_len / 8,
            "w={w}: opening a {file_len}-byte file of {keys} keys allocated {bytes} bytes"
        );
        spent.push((keys, bytes));
    }
    std::fs::remove_file(&path).unwrap();
    let [(sparse_keys, sparse), (dense_keys, dense)] = spent[..] else {
        unreachable!()
    };
    assert!(
        dense_keys > sparse_keys * 3 / 2,
        "{sparse_keys} vs {dense_keys} keys"
    );
    assert!(
        dense <= sparse + 1024,
        "allocation grew with the key count: {sparse} bytes at {sparse_keys} keys, \
         {dense} at {dense_keys}"
    );
}

/// The sketcher works over fixed blocks of positions, so sketching a
/// reference requests the minimizers it returns plus a block of scratch —
/// not a candidate per base, which at 16 bytes a base was 64 MB here and
/// ≈ 4 GB for a human chromosome 1.
#[test]
fn sketching_allocates_its_output_not_its_input() {
    let g = generate_genome(&GenomeOpts {
        len: 4_000_000,
        repeat_frac: 0.0,
        seed: 13,
        ..Default::default()
    });
    for hpc in [false, true] {
        let before = bytes_on_this_thread();
        let ms = if hpc {
            minimizers_hpc(&g, 19, 10)
        } else {
            minimizers(&g, 15, 10)
        };
        let bytes = bytes_on_this_thread() - before;
        let output = (ms.capacity() * std::mem::size_of::<Minimizer>()) as u64;
        assert!(
            ms.len() > 500_000,
            "hpc={hpc}: only {} minimizers",
            ms.len()
        );
        assert!(
            bytes <= output + (1 << 20),
            "hpc={hpc}: sketching 4 Mbp requested {bytes} bytes for a {output}-byte output"
        );
    }
}
