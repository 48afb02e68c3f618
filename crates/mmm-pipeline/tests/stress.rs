//! Pipeline stress tests: ordering and completeness under adversarial
//! batch shapes, thread counts and workload skew. The pipeline runs per
//! item — the batched pipeline with an identity dispatch.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Mutex;

use mmm_pipeline::{sort_indices_by_len_desc, ItemFailure, PipelineStats, WorkerPool};

/// Map every item of `batches` through the pipeline; returns the output in
/// write order plus the run's stats.
fn run<R: Send>(
    mut batches: Vec<Vec<u64>>,
    map: impl Fn(&u64) -> R + Sync,
    len_of: impl Fn(&u64) -> usize + Sync,
    threads: usize,
) -> (Vec<R>, PipelineStats) {
    batches.reverse();
    let out = Mutex::new(Vec::new());
    let no_failure = |item: &u64, why: ItemFailure| -> R { panic!("item {item} failed: {why:?}") };
    let stats = mmm_pipeline::run(
        move || Ok(batches.pop()),
        &WorkerPool::new(threads, |_| ()),
        |(), _: &u64| (),
        |plans: Vec<()>| Ok(plans.into_iter().map(|m| (m, Ok(()))).collect()),
        |(), item: &u64, (): &(), (): &()| map(item),
        len_of,
        |r| {
            out.lock().unwrap().extend(r);
            Ok(())
        },
        &no_failure,
    )
    .unwrap();
    (out.into_inner().unwrap(), stats)
}

#[test]
fn many_tiny_batches_keep_order() {
    // 100 batches of 1 item stress the channel/ordering machinery.
    let input: Vec<Vec<u64>> = (0..100).map(|i| vec![i]).collect();
    let (out, stats) = run(input, |&x| x, |_| 1, 4);
    assert_eq!(stats.batches, 100);
    assert_eq!(out, (0..100).collect::<Vec<u64>>());
}

#[test]
fn skewed_work_is_complete_and_ordered() {
    // Item cost varies 1000×, and the sort key is unrelated to it; the
    // pipeline must still emit everything in input order.
    let batches: Vec<Vec<u64>> = (0..6)
        .map(|b| (0..50).map(|i| (b * 50 + i) as u64).collect())
        .collect();
    let work = |&x: &u64| {
        // Busy-work proportional to a pseudo-random weight.
        let w = (x * 2654435761) % 1000 + 1;
        let mut acc = 0u64;
        for i in 0..w * 50 {
            acc = acc.wrapping_add(i ^ x);
        }
        (x, acc)
    };
    let (out, _) = run(batches, work, |&x| (x % 97) as usize, 4);
    let ids: Vec<u64> = out.into_iter().map(|(x, _)| x).collect();
    assert_eq!(ids, (0..300).collect::<Vec<u64>>());
}

#[test]
fn pool_handles_more_threads_than_items() {
    let items = vec![10u32, 20];
    let order = sort_indices_by_len_desc(&items, |&x| x as usize);
    let out = WorkerPool::new(64, |_| ()).run_batch_catching(&items, &order, |(), &x: &u32| x + 1);
    assert!(out.panics.is_empty(), "{:?}", out.panics);
    assert_eq!(out.results, vec![Some(11), Some(21)]);
}

#[test]
fn stats_account_every_item_exactly_once() {
    let batches: Vec<Vec<u64>> = (0..7).map(|b| vec![b; (b as usize % 3) + 1]).collect();
    let expect_items: usize = batches.iter().map(|b| b.len()).sum();
    let (out, stats) = run(batches, |&x| x, |_| 1, 2);
    assert_eq!(stats.batches, 7);
    assert_eq!(stats.items, expect_items);
    assert_eq!(stats.failed_items, 0);
    assert_eq!(out.len(), expect_items);
    assert!(stats.wall_seconds >= 0.0);
}

#[test]
fn large_single_batch_parallelism() {
    let batch: Vec<u64> = (0..10_000).collect();
    let (got, _) = run(vec![batch], |&x| x * 2, |&x| x as usize, 8);
    assert_eq!(got.len(), 10_000);
    assert!(got.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
}
