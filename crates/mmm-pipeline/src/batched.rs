//! The batched pipeline: a pulled batch → compute stage → writer thread
//! (the reader thread of the paper's 3-thread design is the caller's), with
//! the compute stage split into plan → dispatch → finalize so a whole
//! batch's base-level alignment can be executed by a *backend* (CPU SIMD
//! lanes, the simulated GPU, eventually real accelerators) in one
//! submission:
//!
//! 1. **plan** — per item, on the worker pool: seed, chain, and describe
//!    the DP problems the item needs (returns `M`, e.g. a set of
//!    `AlignJob`s plus everything needed to resume). Chaining is the only
//!    candidate filter, so the job list is fixed here for every later
//!    stage;
//! 2. **dispatch** — once per batch, on the compute thread: ship every
//!    item's jobs to the backend, get `D` (e.g. the `AlignResult`s) back.
//!    Its contract is one result per plan, in plan order, whatever the
//!    backend reorders inside it;
//! 3. **finalize** — per item, on the worker pool again: splice the
//!    backend's results into the item's output (returns `R`).
//!
//! Both per-item phases run on the caller's persistent pool (in production
//! the backend session's, no per-run spawns), with the compute thread
//! computing as its worker 0, and isolate panics: a panic in
//! `plan` or `finalize` degrades that one item through the run's
//! [`FailureHandler`] ([`ItemFailure::Panicked`]); items that fail in
//! `plan` are excluded from dispatch. Dispatch reports per item: each plan
//! comes back with `Result<D, String>`, and a failed item degrades through
//! the same handler ([`ItemFailure::Dispatch`], the supervised backend's
//! quarantine channel). A whole-batch `Err` from dispatch is fatal
//! ([`PipelineError::Dispatch`]) — that is the `--fail-fast` escape hatch
//! and the contract-violation path (wrong result count).
//!
//! The compute stage *pulls* its input: `next_batch` runs on the compute
//! thread whenever the previous batch has gone to the writer, and returns
//! the next batch, `Ok(None)` at end of input, or an error that stops the
//! run with [`PipelineError::Read`]. A caller that wants read-ahead runs
//! its own reader thread behind a bounded channel (`manymap map` does); a
//! caller that forms batches from queued work (the `mmm-serve` daemon)
//! forms each one only when compute is free to take it. The writer runs on
//! its own thread behind a bounded channel: `write_batch` consumes results
//! in batch order, and an error stops the run with
//! [`PipelineError::Write`]. On error the pipeline shuts down promptly and
//! cleanly: no deadlock, no poisoned stats, and the first failure is the
//! one reported.
//!
//! The pipeline streams: a batch's results reach `write_batch` as soon as
//! its finalize phase ends. Inside the pipeline memory is bounded by
//! batches, not by the input: the compute stage holds 1, the channel holds
//! 2 result batches waiting for the writer, and the writer holds the one it
//! is draining. Compute does not overlap across batches: dispatch needs
//! every plan of its batch, finalize needs dispatch's results, and the
//! pool's workers — the compute thread as worker 0 plus the pool's
//! `threads − 1` spawned ones — are the run's whole compute budget, so a
//! second batch in flight would only compete for them. Between phases the
//! spawned workers spin briefly instead of parking (see [`crate::pool`]),
//! so a small batch's three phases hand off without a thread wake-up.

use std::sync::mpsc::sync_channel;
use std::sync::Mutex;
use std::time::Instant;

use crate::error::{DynError, PipelineError};
use crate::pipeline::{FailureHandler, ItemFailure, PipelineStats};
use crate::pool::WorkerPool;
use crate::sort::sort_indices_by_len_desc;
use crate::sync::lock_unpoisoned;

fn record_error(slot: &Mutex<Option<PipelineError>>, e: PipelineError) {
    let mut g = lock_unpoisoned(slot);
    if g.is_none() {
        *g = Some(e);
    }
}

/// The per-item panic messages of a pool batch, by item index.
fn panic_messages<R>(outcome: &crate::pool::BatchOutcome<R>) -> Vec<Option<String>> {
    let mut msg: Vec<Option<String>> = Vec::with_capacity(outcome.results.len());
    msg.resize_with(outcome.results.len(), || None);
    for p in &outcome.panics {
        msg[p.index] = Some(p.message.clone());
    }
    msg
}

/// Run one batch through plan → dispatch → finalize. Returns results in
/// original item order plus the batch's degraded-item count and phase
/// seconds (the other [`PipelineStats`] fields stay zero).
#[allow(clippy::type_complexity)]
fn run_batch<I, M, D, R, S, FPlan, FFin, FLen>(
    pool: &WorkerPool<S>,
    batch: Vec<I>,
    plan: &FPlan,
    dispatch: &mut dyn FnMut(Vec<M>) -> Result<Vec<(M, Result<D, String>)>, DynError>,
    finalize: &FFin,
    len_of: &FLen,
    on_failure: FailureHandler<'_, I, R>,
) -> Result<(Vec<R>, PipelineStats), PipelineError>
where
    I: Send + Sync,
    M: Send + Sync,
    D: Send + Sync,
    R: Send,
    S: 'static,
    FPlan: Fn(&mut S, &I) -> M + Sync,
    FFin: Fn(&mut S, &I, &M, &D) -> R + Sync,
    FLen: Fn(&I) -> usize + Sync,
{
    let n = batch.len();
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let mut failed = 0usize;
    let mut phase = Instant::now();
    let abandoned = || "item abandoned by the worker pool".to_string();

    // Phase 1: plan every item, longest first — long reads carry the most
    // alignment work, so they anchor the schedule. Results come back in
    // item order whatever the processing order.
    let order = sort_indices_by_len_desc(&batch, len_of);
    let outcome = pool.run_batch_catching(&batch, &order, plan);
    let mut panic_msg = panic_messages(&outcome);

    // Collect survivors for dispatch; degrade plan-phase failures now.
    let mut fin_idx: Vec<usize> = Vec::with_capacity(n);
    let mut fin_items: Vec<I> = Vec::with_capacity(n);
    let mut plans: Vec<M> = Vec::with_capacity(n);
    for (idx, (item, res)) in batch.into_iter().zip(outcome.results).enumerate() {
        if let Some(m) = res {
            fin_idx.push(idx);
            fin_items.push(item);
            plans.push(m);
            continue;
        }
        let msg = panic_msg[idx].take().unwrap_or_else(abandoned);
        out[idx] = Some(on_failure(&item, ItemFailure::Panicked(msg)));
        failed += 1;
    }

    let plan_seconds = phase.elapsed().as_secs_f64();
    phase = Instant::now();

    // Phase 2: one backend submission for the whole batch, serial on the
    // compute thread.
    let expected = plans.len();
    let dispatched = dispatch(plans).map_err(PipelineError::Dispatch)?;
    if dispatched.len() != expected {
        return Err(PipelineError::Dispatch(
            format!(
                "dispatch returned {} results for {expected} plans",
                dispatched.len()
            )
            .into(),
        ));
    }

    // Per-item dispatch failures degrade like panics; survivors go on to
    // finalize. `fin_map[k]` is the original index of finalize step `k`.
    let mut fin_steps: Vec<(I, M, D)> = Vec::with_capacity(expected);
    let mut fin_map: Vec<usize> = Vec::with_capacity(expected);
    for ((idx, item), (m, dres)) in fin_idx.into_iter().zip(fin_items).zip(dispatched) {
        match dres {
            Ok(d) => {
                fin_map.push(idx);
                fin_steps.push((item, m, d));
            }
            Err(reason) => {
                out[idx] = Some(on_failure(&item, ItemFailure::Dispatch(reason)));
                failed += 1;
            }
        }
    }
    let dispatch_seconds = phase.elapsed().as_secs_f64();
    phase = Instant::now();

    // Phase 3: finalize survivors on the pool, longest first for the same
    // reason: the batch ends at a barrier, and a long read started last
    // would finish alone while the other workers idle.
    let fin_order = sort_indices_by_len_desc(&fin_steps, |(i, _, _)| len_of(i));
    let outcome = pool.run_batch_catching(&fin_steps, &fin_order, |st, (i, m, d)| {
        finalize(st, i, m, d)
    });
    let mut fin_msg = panic_messages(&outcome);
    for (k, ((item, _, _), res)) in fin_steps.into_iter().zip(outcome.results).enumerate() {
        let idx = fin_map[k];
        if let Some(r) = res {
            out[idx] = Some(r);
            continue;
        }
        let msg = fin_msg[k].take().unwrap_or_else(abandoned);
        out[idx] = Some(on_failure(&item, ItemFailure::Panicked(msg)));
        failed += 1;
    }

    let times = PipelineStats {
        failed_items: failed,
        plan_seconds,
        dispatch_seconds,
        finalize_seconds: phase.elapsed().as_secs_f64(),
        ..Default::default()
    };
    // Every slot is filled: survivors by phase 3, failures by the handler.
    Ok((out.into_iter().flatten().collect(), times))
}

/// The batched manymap pipeline: {pull a batch → plan on the pool →
/// dispatch on the compute thread → finalize on the pool} → writer thread.
///
/// See the module docs for phase semantics. Generic over:
/// * `I` — input item (a read), `M` — per-item plan, `D` — per-item
///   dispatch result, `R` — output record, `S` — `pool`'s per-worker state;
/// * `next_batch()` runs on the compute thread each time it is free for a
///   batch; `Ok(None)` ends the run;
/// * `plan(&mut S, &I) -> M` and `finalize(&mut S, &I, &M, &D) -> R` run on
///   `pool`, the compute thread among its workers, with panic isolation.
///   Neither may submit to `pool`: it runs one batch at a time, so the
///   item would wait on itself (`dispatch` may);
/// * `dispatch(Vec<M>) -> Result<Vec<(M, Result<D, String>)>, DynError>`
///   runs serially per batch and must return exactly one `(plan, result)`
///   pair per plan, in order; a per-item `Err(String)` degrades that item
///   through `on_failure`. A whole-batch `Err` aborts the run with
///   [`PipelineError::Dispatch`];
/// * `on_failure(&I, ItemFailure) -> R` stands in for every item that
///   panicked or failed dispatch.
#[allow(clippy::too_many_arguments)]
pub fn run<I, M, D, R, S, FIn, FPlan, FDispatch, FFin, FLen, FOut>(
    mut next_batch: FIn,
    pool: &WorkerPool<S>,
    plan: FPlan,
    mut dispatch: FDispatch,
    finalize: FFin,
    len_of: FLen,
    mut write_batch: FOut,
    on_failure: FailureHandler<'_, I, R>,
) -> Result<PipelineStats, PipelineError>
where
    I: Send + Sync,
    M: Send + Sync,
    D: Send + Sync,
    R: Send,
    S: 'static,
    FIn: FnMut() -> Result<Option<Vec<I>>, DynError>,
    FPlan: Fn(&mut S, &I) -> M + Sync,
    FDispatch: FnMut(Vec<M>) -> Result<Vec<(M, Result<D, String>)>, DynError>,
    FFin: Fn(&mut S, &I, &M, &D) -> R + Sync,
    FLen: Fn(&I) -> usize + Sync,
    FOut: FnMut(Vec<R>) -> Result<(), DynError> + Send,
{
    let stats = Mutex::new(PipelineStats::default());
    let failure = Mutex::new(None::<PipelineError>);
    let wall = Instant::now();

    std::thread::scope(|scope| {
        let (out_tx, out_rx) = sync_channel::<Vec<R>>(2);
        let stats_ref = &stats;
        let failure_ref = &failure;

        // Writer.
        let writer = scope.spawn(move || {
            while let Ok(out) = out_rx.recv() {
                let t0 = Instant::now();
                let r = write_batch(out);
                lock_unpoisoned(stats_ref).out_seconds += t0.elapsed().as_secs_f64();
                if let Err(e) = r {
                    record_error(failure_ref, PipelineError::Write(e));
                    break;
                }
            }
        });

        // Compute stage, on this thread: pull a batch whenever the last one
        // has gone to the writer; plan/finalize on the pool, dispatch here.
        loop {
            let t0 = Instant::now();
            let pulled = next_batch();
            lock_unpoisoned(&stats).in_seconds += t0.elapsed().as_secs_f64();
            let batch = match pulled {
                Ok(Some(b)) => b,
                Ok(None) => break,
                Err(e) => {
                    record_error(&failure, PipelineError::Read(e));
                    break;
                }
            };
            let t0 = Instant::now();
            let n = batch.len();
            let results = match run_batch(
                pool,
                batch,
                &plan,
                &mut dispatch,
                &finalize,
                &len_of,
                on_failure,
            ) {
                Ok((results, b)) => {
                    let mut s = lock_unpoisoned(&stats);
                    s.compute_seconds += t0.elapsed().as_secs_f64();
                    s.plan_seconds += b.plan_seconds;
                    s.dispatch_seconds += b.dispatch_seconds;
                    s.finalize_seconds += b.finalize_seconds;
                    s.batches += 1;
                    s.items += n;
                    s.failed_items += b.failed_items;
                    results
                }
                Err(fatal) => {
                    record_error(&failure, fatal);
                    break;
                }
            };
            if out_tx.send(results).is_err() {
                break;
            }
        }
        drop(out_tx);
        if let Err(payload) = writer.join() {
            std::panic::resume_unwind(payload);
        }
    });

    if let Some(e) = lock_unpoisoned(&failure).take() {
        return Err(e);
    }
    let mut s = stats
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    s.wall_seconds = wall.elapsed().as_secs_f64();
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The handler of a run in which no item may fail.
    fn no_failure(item: &u64, why: ItemFailure) -> u64 {
        panic!("item {item} failed: {why:?}")
    }

    fn feeder(
        mut data: Vec<Vec<u64>>,
    ) -> impl FnMut() -> Result<Option<Vec<u64>>, DynError> + Send {
        data.reverse();
        move || Ok(data.pop())
    }

    /// plan doubles, dispatch adds 1 to every plan, finalize multiplies the
    /// dispatched value by 10 — so every stage's contribution is visible.
    fn run_simple(input: Vec<Vec<u64>>, threads: usize) -> (Vec<u64>, PipelineStats) {
        let out = Mutex::new(Vec::new());
        let stats = run(
            feeder(input),
            &WorkerPool::new(threads, |_| ()),
            |(), &x: &u64| x * 2,
            |plans: Vec<u64>| Ok(plans.into_iter().map(|m| (m, Ok(m + 1))).collect()),
            |(), _item: &u64, _m: &u64, d: &u64| d * 10,
            |_| 1,
            |r| {
                out.lock().unwrap().extend(r);
                Ok(())
            },
            &no_failure,
        )
        .unwrap();
        (out.into_inner().unwrap(), stats)
    }

    /// The pool is the caller's: it outlives a run, so two runs over it
    /// spawn its workers once, one fewer than its threads (the compute
    /// thread is worker 0).
    #[test]
    fn runs_share_the_callers_pool() {
        let pool = WorkerPool::new(3, |_| ());
        for _ in 0..2 {
            let stats = run(
                feeder(vec![vec![1u64, 2, 3], vec![4]]),
                &pool,
                |(), &x: &u64| x,
                |plans: Vec<u64>| Ok(plans.into_iter().map(|m| (m, Ok(()))).collect()),
                |(), _item, m: &u64, _d: &()| *m,
                |_| 1,
                |_r| Ok(()),
                &no_failure,
            )
            .unwrap();
            assert_eq!(stats.items, 4);
        }
        assert_eq!(pool.threads_spawned(), 2);
    }

    #[test]
    fn phases_compose_in_order() {
        let input = vec![vec![1u64, 2, 3], vec![4, 5]];
        let (got, stats) = run_simple(input, 3);
        // x -> plan 2x -> dispatch 2x+1 -> finalize (2x+1)*10
        assert_eq!(got, vec![30, 50, 70, 90, 110]);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.items, 5);
        assert_eq!(stats.failed_items, 0);
    }

    /// Each phase is charged its own wall time: a dispatch that sleeps
    /// 30 ms per batch shows up in `dispatch_seconds` only, and the three
    /// phases fit inside `compute_seconds`.
    #[test]
    fn phase_seconds_charge_the_phase_that_spent_them() {
        let nap = std::time::Duration::from_millis(30);
        let stats = run(
            feeder(vec![vec![1u64, 2], vec![3], vec![4, 5, 6]]),
            &WorkerPool::new(2, |_| ()),
            |(), &x: &u64| x,
            |plans: Vec<u64>| {
                std::thread::sleep(nap);
                Ok(plans.into_iter().map(|m| (m, Ok(()))).collect())
            },
            |(), _item, m: &u64, _d: &()| *m,
            |_| 1,
            |_r| Ok(()),
            &no_failure,
        )
        .unwrap();
        assert_eq!(stats.batches, 3);
        assert!(
            stats.dispatch_seconds >= 3.0 * nap.as_secs_f64(),
            "{stats:?}"
        );
        // Not even one batch's nap leaked into another phase.
        assert!(stats.plan_seconds < nap.as_secs_f64(), "{stats:?}");
        assert!(stats.finalize_seconds < nap.as_secs_f64(), "{stats:?}");
        let phases = stats.plan_seconds + stats.dispatch_seconds + stats.finalize_seconds;
        assert!(phases <= stats.compute_seconds, "{stats:?}");
    }

    #[test]
    fn sorted_compute_keeps_output_order() {
        let input = vec![vec![5u64, 1, 9, 3]];
        let out = Mutex::new(Vec::new());
        run(
            feeder(input),
            &WorkerPool::new(4, |_| ()),
            |(), &x: &u64| x,
            |plans: Vec<u64>| Ok(plans.into_iter().map(|m| (m, Ok(()))).collect()),
            |(), _item, m: &u64, _d: &()| *m,
            |&x| x as usize, // "length" = value: compute order differs
            |r| {
                out.lock().unwrap().extend(r);
                Ok(())
            },
            &no_failure,
        )
        .unwrap();
        assert_eq!(out.into_inner().unwrap(), vec![5, 1, 9, 3]);
    }

    #[test]
    fn plan_panic_degrades_one_item_and_skips_its_dispatch() {
        let input = vec![vec![1u64, 7, 3]];
        let out = Mutex::new(Vec::new());
        let seen_by_dispatch = Mutex::new(Vec::new());
        let handler = |item: &u64, _why: ItemFailure| item * 1000;
        let stats = run(
            feeder(input),
            &WorkerPool::new(2, |_| ()),
            |(), &x: &u64| {
                if x == 7 {
                    panic!("bad read");
                }
                x
            },
            |plans: Vec<u64>| {
                seen_by_dispatch
                    .lock()
                    .unwrap()
                    .extend(plans.iter().copied());
                Ok(plans.into_iter().map(|m| (m, Ok(()))).collect())
            },
            |(), _item, m: &u64, _d: &()| *m,
            |_| 1,
            |r| {
                out.lock().unwrap().extend(r);
                Ok(())
            },
            &handler,
        )
        .unwrap();
        assert_eq!(stats.failed_items, 1);
        assert_eq!(out.into_inner().unwrap(), vec![1, 7000, 3]);
        // The panicked item's plan never reached the backend.
        assert_eq!(seen_by_dispatch.into_inner().unwrap(), vec![1, 3]);
    }

    #[test]
    fn finalize_panic_degrades_one_item() {
        let input = vec![vec![1u64, 2, 3, 4]];
        let out = Mutex::new(Vec::new());
        let handler = |item: &u64, _why: ItemFailure| item + 900;
        let stats = run(
            feeder(input),
            &WorkerPool::new(2, |_| ()),
            |(), &x: &u64| x,
            |plans: Vec<u64>| Ok(plans.into_iter().map(|m| (m, Ok(()))).collect()),
            |(), _item, m: &u64, _d: &()| {
                if *m == 3 {
                    panic!("bad finalize");
                }
                *m
            },
            |_| 1,
            |r| {
                out.lock().unwrap().extend(r);
                Ok(())
            },
            &handler,
        )
        .unwrap();
        assert_eq!(stats.failed_items, 1);
        assert_eq!(out.into_inner().unwrap(), vec![1, 2, 903, 4]);
    }

    #[test]
    fn dispatch_error_is_fatal() {
        let input = vec![vec![1u64, 2], vec![3, 4]];
        let err = run(
            feeder(input),
            &WorkerPool::new(2, |_| ()),
            |(), &x: &u64| x,
            |_plans: Vec<u64>| {
                Err::<Vec<(u64, Result<(), String>)>, DynError>("device on fire".into())
            },
            |(), _item, m: &u64, _d: &()| *m,
            |_| 1,
            |_r| Ok(()),
            &no_failure,
        )
        .unwrap_err();
        match err {
            PipelineError::Dispatch(e) => assert!(e.to_string().contains("device on fire")),
            other => panic!("expected Dispatch, got {other}"),
        }
    }

    #[test]
    fn per_item_dispatch_error_degrades_that_item_only() {
        let input = vec![vec![1u64, 7, 3]];
        let out = Mutex::new(Vec::new());
        let handler = |item: &u64, why: ItemFailure| {
            let ItemFailure::Dispatch(reason) = why else {
                panic!("handler saw {why:?}");
            };
            assert!(reason.contains("quarantined"), "handler saw {reason:?}");
            item * 100
        };
        let stats = run(
            feeder(input),
            &WorkerPool::new(2, |_| ()),
            |(), &x: &u64| x,
            |plans: Vec<u64>| {
                Ok(plans
                    .into_iter()
                    .map(|m| {
                        if m == 7 {
                            (m, Err("job quarantined".to_string()))
                        } else {
                            (m, Ok(()))
                        }
                    })
                    .collect())
            },
            |(), _item, m: &u64, _d: &()| *m,
            |_| 1,
            |r| {
                out.lock().unwrap().extend(r);
                Ok(())
            },
            &handler,
        )
        .unwrap();
        assert_eq!(stats.failed_items, 1);
        assert_eq!(out.into_inner().unwrap(), vec![1, 700, 3]);
    }

    #[test]
    fn short_dispatch_result_is_fatal_not_silent() {
        let input = vec![vec![1u64, 2, 3]];
        let err = run(
            feeder(input),
            &WorkerPool::new(2, |_| ()),
            |(), &x: &u64| x,
            |plans: Vec<u64>| Ok(plans.into_iter().skip(1).map(|m| (m, Ok(()))).collect()),
            |(), _item, m: &u64, _d: &()| *m,
            |_| 1,
            |_r| Ok(()),
            &no_failure,
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::Dispatch(_)));
    }

    #[test]
    fn empty_stream_and_empty_batches() {
        let (got, stats) = run_simple(vec![], 2);
        assert!(got.is_empty());
        assert_eq!(stats.batches, 0);
        let (got, stats) = run_simple(vec![vec![], vec![8]], 2);
        assert_eq!(got, vec![170]);
        assert_eq!(stats.batches, 2);
    }

    #[test]
    fn read_error_stops_run() {
        let mut calls = 0;
        let err = run(
            move || {
                calls += 1;
                if calls > 2 {
                    Err::<Option<Vec<u64>>, DynError>("disk gone".into())
                } else {
                    Ok(Some(vec![calls as u64]))
                }
            },
            &WorkerPool::new(2, |_| ()),
            |(), &x: &u64| x,
            |plans: Vec<u64>| Ok(plans.into_iter().map(|m| (m, Ok(()))).collect()),
            |(), _item, m: &u64, _d: &()| *m,
            |_| 1,
            |_r| Ok(()),
            &no_failure,
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::Read(_)));
    }
}
