//! Fault-injection suite for the batch pipeline.
//!
//! Drives every degradation path with the adapters from
//! `mmm_pipeline::fault`: a reader erroring mid-run, a worker panicking
//! mid-batch, a writer failing. The pipeline runs per item here — the
//! batched pipeline with an identity dispatch and the map in finalize. The
//! invariants: a typed error comes back (never a deadlock, never a poisoned
//! mutex), and with a panic handler installed the run completes with the
//! failure counted.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mmm_pipeline::{
    failing_every, panicking_map, try_run_three_thread_batched_with_state, DynError, PanicHandler,
    PipelineError, PipelineStats,
};

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

/// Run `map` per item on 4 workers.
fn per_item(
    read: impl FnMut() -> Result<Option<Vec<u32>>, DynError> + Send,
    map: impl Fn(&mut (), &u32) -> u64 + Sync,
    write: impl FnMut(Vec<u64>) -> Result<(), DynError> + Send,
    on_panic: PanicHandler<'_, u32, u64>,
) -> Result<PipelineStats, PipelineError> {
    try_run_three_thread_batched_with_state(
        read,
        |_| (),
        |(), _: &u32| (),
        |plans: Vec<()>| Ok(plans.into_iter().map(|m| (m, Ok(()))).collect()),
        |st: &mut (), item: &u32, (): &(), (): &()| map(st, item),
        |_| 1,
        write,
        on_panic,
        4,
    )
}

#[test]
fn worker_panic_without_handler_is_typed() {
    let err = per_item(
        counting_reader(4, 16),
        panicking_map(double, |&x| x == 37),
        |_| Ok(()),
        None,
    )
    .unwrap_err();
    let PipelineError::WorkerPanic {
        item_index,
        message,
    } = err
    else {
        panic!("wrong variant: {err}");
    };
    // Index is batch-local: 37 is item 5 of the third batch (32..48).
    assert_eq!(item_index, 5);
    assert!(message.contains("injected worker panic"), "{message}");
}

#[test]
fn worker_panic_with_handler_degrades_and_counts() {
    let substituted = AtomicUsize::new(0);
    let on_panic = |item: &u32, msg: &str| -> u64 {
        substituted.fetch_add(1, Ordering::Relaxed);
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
        Some(&on_panic),
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
        None,
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
            None,
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
