//! The tentpole guarantee: once an [`AlignScratch`] has been warmed up at
//! a workload's largest problem size, the alignment hot path performs
//! **zero heap allocations** — across every kernel and output shape,
//! including the CIGAR (recycled through the scratch pool).
//!
//! A counting global allocator makes the claim checkable: the counter is
//! thread-local so the other tests in this binary can't perturb it.
// Drives every available SIMD tier, which Miri cannot execute.
#![cfg(not(miri))]
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![expect(unsafe_code, reason = "a counting allocator forwarding to `System`")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mmm_align::{
    extend_zdrop_with_scratch, AlignMode, AlignResult, AlignScratch, Engine, GroupJob, Scoring,
};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: pure pass-through to `System` plus a thread-local counter bump —
// every allocator contract obligation is delegated unchanged, and the
// caller-supplied layout/pointer invariants are forwarded verbatim.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller passed, forwarded to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a matching `alloc` on `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr`/`layout` come from a matching `alloc` on `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn noisy(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut s = seed | 1;
    let mut rnd = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        (s >> 33) as usize
    };
    let t: Vec<u8> = (0..len).map(|_| (rnd() % 4) as u8).collect();
    let mut q = t.clone();
    for _ in 0..len / 10 {
        let p = rnd() % q.len();
        q[p] = (rnd() % 4) as u8;
    }
    (t, q)
}

/// One full sweep of the hot path: every available engine × output,
/// plus the z-drop kernel. CIGARs go back into the pool.
fn sweep(engines: &[Engine], t: &[u8], q: &[u8], scratch: &mut AlignScratch) -> i64 {
    let sc = Scoring::MAP_ONT;
    let mut acc = 0i64;
    for e in engines {
        for with_path in [false, true] {
            let r = e.align_with_scratch(t, q, &sc, AlignMode::Global, with_path, scratch);
            acc += r.score as i64;
            if let Some(c) = r.cigar {
                scratch.recycle(c);
            }
        }
    }
    let rz = extend_zdrop_with_scratch(t, q, &sc, i32::MAX, true, scratch);
    acc += rz.score as i64;
    scratch.recycle(rz.cigar);
    acc
}

#[test]
fn hot_path_allocates_nothing_after_warmup() {
    let engines: Vec<Engine> = Engine::all()
        .into_iter()
        .filter(|e| e.is_available())
        .collect();
    assert!(!engines.is_empty());
    let max_len = 1_500usize;
    let (t0, q0) = noisy(max_len, 3);

    // Warm-up: grow every buffer (and the CIGAR pool) to the workload's
    // largest problem.
    let mut scratch = AlignScratch::new();
    std::hint::black_box(sweep(&engines, &t0, &q0, &mut scratch));
    assert!(scratch.heap_bytes() > 0);

    // Steady state: repeated sweeps over problems up to that size must not
    // touch the allocator at all.
    let (t1, q1) = noisy(max_len / 2, 4);
    let before = allocs_on_this_thread();
    let mut acc = 0i64;
    for _ in 0..3 {
        acc += sweep(&engines, &t0, &q0, &mut scratch);
        acc += sweep(&engines, &t1, &q1, &mut scratch);
    }
    std::hint::black_box(acc);
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "hot path allocated {} time(s) after warm-up",
        after - before
    );
}

/// One lane group per engine that has a group kernel: a full group of
/// noisy pairs up to `max_len`, paths mixed. Results and CIGARs go back.
fn group_sweep(
    engines: &[Engine],
    pairs: &[(Vec<u8>, Vec<u8>)],
    scratch: &mut AlignScratch,
    out: &mut Vec<AlignResult>,
) -> i64 {
    let mut acc = 0i64;
    for e in engines {
        let Some(lanes) = e.group_lanes() else {
            continue;
        };
        for chunk in pairs.chunks(lanes) {
            let mut jobs = [GroupJob::default(); 64];
            for (k, ((t, q), job)) in chunk.iter().zip(&mut jobs).enumerate() {
                *job = GroupJob {
                    target: t,
                    query: q,
                    with_path: k % 3 != 0,
                };
            }
            e.align_group_with_scratch(&jobs[..chunk.len()], &Scoring::MAP_ONT, scratch, out);
            // Last in, first out: lane `k` of the next group gets lane `k`'s
            // CIGAR back.
            for r in out.drain(..).rev() {
                acc += r.score as i64;
                if let Some(c) = r.cigar {
                    scratch.recycle(c);
                }
            }
        }
    }
    acc
}

#[test]
fn lane_groups_allocate_nothing_after_warmup() {
    let engines: Vec<Engine> = Engine::all()
        .into_iter()
        .filter(|e| e.is_available())
        .collect();
    // 64 gap-fill-sized pairs, 16 to 127 bases: full groups on every tier.
    let pairs: Vec<(Vec<u8>, Vec<u8>)> =
        (0..64).map(|k| noisy(16 + k * 7 % 112, k as u64)).collect();
    let smaller: Vec<(Vec<u8>, Vec<u8>)> = pairs
        .iter()
        .map(|(t, q)| (t[..t.len() / 2].to_vec(), q.clone()))
        .collect();
    let mut scratch = AlignScratch::new();
    let mut out = Vec::new();
    let mut run = |scratch: &mut AlignScratch| {
        let mut acc = 0i64;
        for _ in 0..3 {
            acc += group_sweep(&engines, &pairs, scratch, &mut out);
            acc += group_sweep(&engines, &smaller[..37], scratch, &mut out);
        }
        acc
    };
    // Warm-up: one full cycle grows every buffer and every pooled CIGAR.
    std::hint::black_box(run(&mut scratch));

    let before = allocs_on_this_thread();
    std::hint::black_box(run(&mut scratch));
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "lane groups allocated {} time(s) after warm-up",
        after - before
    );
}

#[test]
fn smaller_problems_reuse_the_grown_arena() {
    let mut scratch = AlignScratch::new();
    let e = mmm_align::best_engine();
    let sc = Scoring::MAP_ONT;
    let (t, q) = noisy(800, 9);
    let r = e.align_with_scratch(&t, &q, &sc, AlignMode::Global, true, &mut scratch);
    scratch.recycle(r.cigar.unwrap());
    // Any strictly smaller problem fits the grown buffers: no allocator
    // traffic at all, not even for the CIGAR (it comes from the pool).
    let (t2, q2) = noisy(100, 10);
    let before = allocs_on_this_thread();
    let r2 = e.align_with_scratch(&t2, &q2, &sc, AlignMode::Global, true, &mut scratch);
    scratch.recycle(r2.cigar.unwrap());
    assert_eq!(allocs_on_this_thread() - before, 0);
}
