//! Fault-injection suite for the batch pipeline.
//!
//! Drives every degradation path with the adapters below: a reader erroring
//! mid-run, a worker panicking mid-batch, a writer failing. The pipeline
//! runs per item here — the batched pipeline with an identity dispatch and
//! the map in finalize. The invariants: a typed error comes back (never a
//! deadlock, never a poisoned mutex), and a panicking item completes the
//! run through the failure handler, counted.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mmm_pipeline::{
    DynError, FailureHandler, ItemFailure, PipelineError, PipelineStats, WorkerPool,
};

/// Wrap a batch reader so every `every`-th call (1-based) returns an error
/// instead of a batch. With `every = 3` the reader yields two real batches,
/// then fails.
fn failing_every<I, F>(
    mut read: F,
    every: usize,
) -> impl FnMut() -> Result<Option<Vec<I>>, DynError> + Send
where
    F: FnMut() -> Result<Option<Vec<I>>, DynError> + Send,
{
    let every = every.max(1);
    let mut calls = 0usize;
    move || {
        calls += 1;
        if calls.is_multiple_of(every) {
            Err(format!("injected reader fault at batch {calls}").into())
        } else {
            read()
        }
    }
}

/// Wrap a map stage so items selected by `should_panic` panic instead of
/// producing a result — a stand-in for a latent bug tripping on one read.
fn panicking_map<S, I, R, M, P>(map: M, should_panic: P) -> impl Fn(&mut S, &I) -> R + Sync
where
    M: Fn(&mut S, &I) -> R + Sync,
    P: Fn(&I) -> bool + Sync,
{
    move |state, item| {
        if should_panic(item) {
            panic!("injected worker panic");
        }
        map(state, item)
    }
}

/// A reader producing `n_batches` batches of `batch` consecutive u32s.
fn counting_reader(
    n_batches: usize,
    batch: usize,
) -> impl FnMut() -> Result<Option<Vec<u32>>, DynError> + Send {
    let mut produced = 0usize;
    move || {
        if produced == n_batches {
            return Ok(None);
        }
        let start = (produced * batch) as u32;
        produced += 1;
        Ok(Some((start..start + batch as u32).collect()))
    }
}

fn double(_: &mut (), x: &u32) -> u64 {
    *x as u64 * 2
}

/// The handler of a run in which no item may fail.
fn no_failure(item: &u32, why: ItemFailure) -> u64 {
    panic!("item {item} failed: {why:?}")
}

/// Run `map` per item on 4 workers.
fn per_item(
    read: impl FnMut() -> Result<Option<Vec<u32>>, DynError> + Send,
    map: impl Fn(&mut (), &u32) -> u64 + Sync,
    write: impl FnMut(Vec<u64>) -> Result<(), DynError> + Send,
    on_failure: FailureHandler<'_, u32, u64>,
) -> Result<PipelineStats, PipelineError> {
    mmm_pipeline::run(
        read,
        &WorkerPool::new(4, |_| ()),
        |(), _: &u32| (),
        |plans: Vec<()>| Ok(plans.into_iter().map(|m| (m, Ok(()))).collect()),
        |st: &mut (), item: &u32, (): &(), (): &()| map(st, item),
        |_| 1,
        write,
        on_failure,
    )
}

#[test]
fn failing_every_counts_calls() {
    let mut batches = vec![vec![1u32], vec![2], vec![3]];
    batches.reverse();
    let mut r = failing_every(move || Ok(batches.pop()), 3);
    assert_eq!(r().unwrap(), Some(vec![1]));
    assert_eq!(r().unwrap(), Some(vec![2]));
    let err = r().unwrap_err();
    assert!(err.to_string().contains("batch 3"), "{err}");
}

#[test]
fn panicking_map_passes_through() {
    let m = panicking_map(|(), &x: &u32| x * 2, |&x| x == 9);
    assert_eq!(m(&mut (), &4), 8);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m(&mut (), &9)));
    assert!(caught.is_err());
}

#[test]
fn worker_panic_with_handler_degrades_and_counts() {
    let substituted = AtomicUsize::new(0);
    let on_failure = |item: &u32, why: ItemFailure| -> u64 {
        substituted.fetch_add(1, Ordering::Relaxed);
        let ItemFailure::Panicked(msg) = why else {
            panic!("not a panic: {why:?}");
        };
        assert!(msg.contains("injected worker panic"), "{msg}");
        assert_eq!(*item, 37);
        u64::MAX
    };
    let out = Mutex::new(Vec::new());
    let stats = per_item(
        counting_reader(4, 16),
        panicking_map(double, |&x| x == 37),
        |rs| {
            out.lock().unwrap().extend(rs);
            Ok(())
        },
        &on_failure,
    )
    .unwrap();
    assert_eq!(stats.items, 64);
    assert_eq!(stats.failed_items, 1);
    assert_eq!(substituted.load(Ordering::Relaxed), 1);
    let out = out.lock().unwrap();
    assert_eq!(out.len(), 64, "every input accounted for");
    assert_eq!(out.iter().filter(|&&r| r == u64::MAX).count(), 1);
    let real_sum: u64 = out.iter().copied().filter(|&r| r != u64::MAX).sum();
    assert_eq!(real_sum, (0..64u64).map(|x| x * 2).sum::<u64>() - 74);
}

#[test]
fn writer_error_aborts_with_typed_error() {
    let mut calls = 0usize;
    let err = per_item(
        counting_reader(100, 8),
        double,
        move |_| {
            calls += 1;
            if calls == 2 {
                return Err("disk full".into());
            }
            Ok(())
        },
        &no_failure,
    )
    .unwrap_err();
    let PipelineError::Write(e) = err else {
        panic!("wrong variant: {err}");
    };
    assert!(e.to_string().contains("disk full"), "{e}");
}

/// A reader erroring on its k-th batch aborts the run with the typed,
/// unaltered error — repeated many times at every k to flush out rare
/// interleavings (a deadlock here would hang the suite, not just fail it).
#[test]
fn reader_error_aborts_with_typed_error_across_repeats() {
    for round in 0..50 {
        let every = 1 + round % 5;
        let written = AtomicUsize::new(0);
        let err = per_item(
            failing_every(counting_reader(20, 4), every),
            double,
            |rs| {
                written.fetch_add(rs.len(), Ordering::Relaxed);
                Ok(())
            },
            &no_failure,
        )
        .unwrap_err();
        let PipelineError::Read(e) = err else {
            panic!("wrong variant: {err}");
        };
        assert!(e.to_string().contains("injected reader fault"), "{e}");
        // Batches read before the fault may or may not have been written;
        // nothing after it can be.
        assert!(written.load(Ordering::Relaxed) <= 4 * (every - 1));
    }
}
