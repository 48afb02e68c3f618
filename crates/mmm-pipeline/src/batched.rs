//! The 3-thread pipeline: reader thread → compute stage → writer thread,
//! with the compute stage split into plan → (schedule →) dispatch →
//! finalize so a whole batch's base-level alignment can be executed by a
//! *backend* (CPU SIMD lanes, the simulated GPU, eventually real
//! accelerators) in one submission:
//!
//! 1. **plan** — per item, on the worker pool: seed, chain, and describe
//!    the DP problems the item needs (returns `M`, e.g. a set of
//!    `AlignJob`s plus everything needed to resume). Chaining is the only
//!    candidate filter, so the job list is fixed here for every later
//!    stage;
//! 2. **dispatch** — once per batch, on the compute thread: ship every
//!    item's jobs to the backend, get `D` (e.g. the `AlignResult`s) back.
//!    The dispatch closure may interpose the length-binned scheduler
//!    (`mmm_exec::sched`, `SupervisedBackend::submit_scheduled`): jobs are
//!    binned by DP-matrix size, batches sized per backend, device-ineligible
//!    giants routed to the host standby, and the outcomes scattered back to
//!    their original indices — so this stage's contract (result `i` belongs
//!    to job `i`) is untouched by any reordering inside it;
//! 3. **finalize** — per item, on the worker pool again: splice the
//!    backend's results into the item's output (returns `R`).
//!
//! Both per-item phases run on the *same* persistent pool (one worker-state
//! build per run, zero per-batch spawns) and keep PR-2's panic isolation: a
//! panic in `plan` or `finalize` degrades that one item through the
//! [`PanicHandler`]; items that fail in `plan` are excluded from dispatch.
//! Dispatch reports per item: each plan comes back with
//! `Result<D, String>`, and a failed item degrades through the same
//! [`PanicHandler`] instead of killing the run (the supervised backend's
//! quarantine channel). A whole-batch `Err` from dispatch stays fatal
//! ([`PipelineError::Dispatch`]) — that is the `--fail-fast` escape hatch
//! and the contract-violation path (wrong result count).
//!
//! Reader and writer run on their own threads, coupled to the compute
//! stage by bounded channels: `read_batch` returns the next batch,
//! `Ok(None)` at end of input, or an error that stops the run with
//! [`PipelineError::Read`]; `write_batch` consumes results in batch order,
//! and an error stops the run with [`PipelineError::Write`]. On error the
//! pipeline shuts down promptly and cleanly: no deadlock, no poisoned
//! stats, and the first failure is the one reported.
//!
//! The pipeline streams: a batch's results reach `write_batch` as soon as
//! its finalize phase ends, while the reader is already filling the next
//! batches. Memory is bounded by batches, not by the input: the channels
//! hold 2 batches waiting for compute and 2 result batches waiting for the
//! writer, the compute stage holds 1, and the reader and the writer each
//! hold the one they are filling or draining — at most seven batches alive,
//! whatever the input length. Compute does not overlap across batches:
//! dispatch needs every plan of its batch, finalize needs dispatch's
//! results, and the pool's `threads` workers are the run's whole compute
//! budget, so a second batch in flight would only compete for them.

use std::sync::mpsc::sync_channel;
use std::sync::Mutex;
use std::time::Instant;

use crate::error::{DynError, PipelineError};
use crate::pipeline::{PanicHandler, PipelineStats};
use crate::pool::with_worker_pool;
use crate::queue::BoundedQueue;
use crate::sort::sort_indices_by_len_desc;
use crate::sync::lock_unpoisoned;

/// Internal pool item: the two per-item phases share one worker pool, so
/// the pool's item type is this enum.
enum Step<I, M, D> {
    Plan(I),
    Fin(I, M, D),
}

/// Internal pool result matching [`Step`].
enum StepOut<M, R> {
    Planned(M),
    Final(R),
}

fn record_error(slot: &Mutex<Option<PipelineError>>, e: PipelineError) {
    let mut g = lock_unpoisoned(slot);
    if g.is_none() {
        *g = Some(e);
    }
}

/// Run one batch through plan → dispatch → finalize. Returns results in
/// original item order plus the batch's degraded-item count and phase
/// seconds (the other [`PipelineStats`] fields stay zero).
#[allow(clippy::type_complexity)]
fn run_batch<I, M, D, R>(
    pool: &crate::pool::WorkerPool<'_, Step<I, M, D>, StepOut<M, R>>,
    batch: Vec<I>,
    dispatch: &mut (dyn FnMut(Vec<M>) -> Result<Vec<(M, Result<D, String>)>, DynError> + Send),
    len_of: &(dyn Fn(&I) -> usize + Sync),
    on_item_panic: PanicHandler<'_, I, R>,
) -> Result<(Vec<R>, PipelineStats), PipelineError>
where
    I: Send + Sync,
    M: Send + Sync,
    D: Send + Sync,
    R: Send,
{
    let n = batch.len();
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let mut failed = 0usize;
    let mut phase = Instant::now();
    let step_len = |s: &Step<I, M, D>| match s {
        Step::Plan(i) | Step::Fin(i, _, _) => len_of(i),
    };

    // Phase 1: plan every item, longest first — long reads carry the most
    // alignment work, so they anchor the schedule. Results come back in
    // item order whatever the processing order.
    let plan_items: Vec<Step<I, M, D>> = batch.into_iter().map(Step::Plan).collect();
    let order = sort_indices_by_len_desc(&plan_items, step_len);
    let outcome = pool.run_batch_catching(&plan_items, &order);
    let mut panic_msg: Vec<Option<String>> = Vec::with_capacity(n);
    panic_msg.resize_with(n, || None);
    for p in &outcome.panics {
        panic_msg[p.index] = Some(p.message.clone());
    }

    // Collect survivors for dispatch; degrade plan-phase failures now.
    let mut fin_idx: Vec<usize> = Vec::with_capacity(n);
    let mut fin_items: Vec<I> = Vec::with_capacity(n);
    let mut plans: Vec<M> = Vec::with_capacity(n);
    for (idx, (step, res)) in plan_items.into_iter().zip(outcome.results).enumerate() {
        let Step::Plan(item) = step else {
            continue; // phase-1 items are always Plan
        };
        match res {
            Some(StepOut::Planned(m)) => {
                fin_idx.push(idx);
                fin_items.push(item);
                plans.push(m);
            }
            _ => {
                let msg = panic_msg[idx]
                    .take()
                    .unwrap_or_else(|| "item abandoned by the worker pool".to_string());
                match on_item_panic {
                    Some(handler) => {
                        out[idx] = Some(handler(&item, &msg));
                        failed += 1;
                    }
                    None => {
                        return Err(PipelineError::WorkerPanic {
                            item_index: idx,
                            message: msg,
                        })
                    }
                }
            }
        }
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
    let mut fin_steps: Vec<Step<I, M, D>> = Vec::with_capacity(expected);
    let mut fin_map: Vec<usize> = Vec::with_capacity(expected);
    for ((idx, item), (m, dres)) in fin_idx.into_iter().zip(fin_items).zip(dispatched) {
        match dres {
            Ok(d) => {
                fin_map.push(idx);
                fin_steps.push(Step::Fin(item, m, d));
            }
            Err(message) => match on_item_panic {
                Some(handler) => {
                    out[idx] = Some(handler(&item, &message));
                    failed += 1;
                }
                None => {
                    return Err(PipelineError::DispatchItem {
                        item_index: idx,
                        message,
                    })
                }
            },
        }
    }
    let dispatch_seconds = phase.elapsed().as_secs_f64();
    phase = Instant::now();

    // Phase 3: finalize survivors on the pool, longest first for the same
    // reason: the batch ends at a barrier, and a long read started last
    // would finish alone while the other workers idle.
    let fin_order = sort_indices_by_len_desc(&fin_steps, step_len);
    let outcome = pool.run_batch_catching(&fin_steps, &fin_order);
    let mut fin_msg: Vec<Option<String>> = Vec::with_capacity(fin_steps.len());
    fin_msg.resize_with(fin_steps.len(), || None);
    for p in &outcome.panics {
        fin_msg[p.index] = Some(p.message.clone());
    }
    for (k, (step, res)) in fin_steps.into_iter().zip(outcome.results).enumerate() {
        let idx = fin_map[k];
        match res {
            Some(StepOut::Final(r)) => out[idx] = Some(r),
            _ => {
                let Step::Fin(item, _, _) = step else {
                    continue; // phase-2 items are always Fin
                };
                let msg = fin_msg[k]
                    .take()
                    .unwrap_or_else(|| "item abandoned by the worker pool".to_string());
                match on_item_panic {
                    Some(handler) => {
                        out[idx] = Some(handler(&item, &msg));
                        failed += 1;
                    }
                    None => {
                        return Err(PipelineError::WorkerPanic {
                            item_index: idx,
                            message: msg,
                        })
                    }
                }
            }
        }
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

/// The batched manymap pipeline: reader thread → {plan on the pool →
/// dispatch on the compute thread → finalize on the pool} → writer thread.
///
/// See the module docs for phase semantics. Generic over:
/// * `I` — input item (a read), `M` — per-item plan, `D` — per-item
///   dispatch result, `R` — output record, `S` — per-worker state;
/// * `plan(&mut S, &I) -> M` and `finalize(&mut S, &I, &M, &D) -> R` run on
///   the worker pool with panic isolation;
/// * `dispatch(Vec<M>) -> Result<Vec<(M, Result<D, String>)>, DynError>`
///   runs serially per batch and must return exactly one `(plan, result)`
///   pair per plan, in order; a per-item `Err(String)` degrades that item
///   through the panic handler (fatal
///   [`PipelineError::DispatchItem`] without one). A whole-batch `Err`
///   aborts the run with [`PipelineError::Dispatch`].
#[allow(clippy::too_many_arguments)]
pub fn try_run_three_thread_batched_with_state<
    I,
    M,
    D,
    R,
    S,
    FIn,
    FState,
    FPlan,
    FDispatch,
    FFin,
    FLen,
    FOut,
>(
    mut read_batch: FIn,
    make_state: FState,
    plan: FPlan,
    mut dispatch: FDispatch,
    finalize: FFin,
    len_of: FLen,
    mut write_batch: FOut,
    on_item_panic: PanicHandler<'_, I, R>,
    threads: usize,
) -> Result<PipelineStats, PipelineError>
where
    I: Send + Sync,
    M: Send + Sync,
    D: Send + Sync,
    R: Send,
    FIn: FnMut() -> Result<Option<Vec<I>>, DynError> + Send,
    FState: Fn(usize) -> S + Sync,
    FPlan: Fn(&mut S, &I) -> M + Sync,
    FDispatch: FnMut(Vec<M>) -> Result<Vec<(M, Result<D, String>)>, DynError> + Send,
    FFin: Fn(&mut S, &I, &M, &D) -> R + Sync,
    FLen: Fn(&I) -> usize + Sync,
    FOut: FnMut(Vec<R>) -> Result<(), DynError> + Send,
{
    let stats = Mutex::new(PipelineStats::default());
    let failure = Mutex::new(None::<PipelineError>);
    let wall = Instant::now();

    let step = |st: &mut S, item: &Step<I, M, D>| match item {
        Step::Plan(i) => StepOut::Planned(plan(st, i)),
        Step::Fin(i, m, d) => StepOut::Final(finalize(st, i, m, d)),
    };

    with_worker_pool(threads, make_state, step, |pool| {
        let (in_tx, in_rx) = sync_channel::<Vec<I>>(2);
        let (out_tx, out_rx) = sync_channel::<Vec<R>>(2);

        std::thread::scope(|scope| {
            let stats_ref = &stats;
            let failure_ref = &failure;
            // Reader.
            scope.spawn(move || loop {
                let t0 = Instant::now();
                let batch = read_batch();
                lock_unpoisoned(stats_ref).in_seconds += t0.elapsed().as_secs_f64();
                match batch {
                    Ok(Some(b)) => {
                        if in_tx.send(b).is_err() {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        record_error(failure_ref, PipelineError::Read(e));
                        break;
                    }
                }
            });

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

            // Compute stage: plan/finalize on the pool, dispatch here.
            let in_rx = in_rx;
            while let Ok(batch) = in_rx.recv() {
                let t0 = Instant::now();
                let n = batch.len();
                let settled = run_batch(pool, batch, &mut dispatch, &len_of, on_item_panic);
                let results = match settled {
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
            drop(in_rx);
            drop(out_tx);
            if let Err(payload) = writer.join() {
                std::panic::resume_unwind(payload);
            }
        });
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

/// The batched pipeline fed from a [`BoundedQueue`] instead of a reader
/// closure — the serve daemon's entry point (DESIGN.md §12).
///
/// A scheduler thread (or any producer set) pushes item batches into
/// `input`; this function consumes them through the identical plan →
/// dispatch → finalize machinery as
/// [`try_run_three_thread_batched_with_state`] and returns once `input` is
/// **closed and drained** — so `input.close()` is the drain signal: every
/// batch accepted before the close is planned, dispatched, finalized, and
/// written before this function returns. The queue's bounded capacity is
/// the pipeline-facing backpressure edge: producers block (or observe
/// `Full` via `try_push`) once the pipeline falls behind.
#[allow(clippy::too_many_arguments)]
pub fn try_run_three_thread_batched_from_queue<
    I,
    M,
    D,
    R,
    S,
    FState,
    FPlan,
    FDispatch,
    FFin,
    FLen,
    FOut,
>(
    input: &BoundedQueue<Vec<I>>,
    make_state: FState,
    plan: FPlan,
    dispatch: FDispatch,
    finalize: FFin,
    len_of: FLen,
    write_batch: FOut,
    on_item_panic: PanicHandler<'_, I, R>,
    threads: usize,
) -> Result<PipelineStats, PipelineError>
where
    I: Send + Sync,
    M: Send + Sync,
    D: Send + Sync,
    R: Send,
    FState: Fn(usize) -> S + Sync,
    FPlan: Fn(&mut S, &I) -> M + Sync,
    FDispatch: FnMut(Vec<M>) -> Result<Vec<(M, Result<D, String>)>, DynError> + Send,
    FFin: Fn(&mut S, &I, &M, &D) -> R + Sync,
    FLen: Fn(&I) -> usize + Sync,
    FOut: FnMut(Vec<R>) -> Result<(), DynError> + Send,
{
    // `pop` blocks until a batch arrives and returns `None` only when the
    // queue is closed *and* drained, which is exactly the reader contract
    // (`Ok(None)` = end of input). Queue consumption can never itself fail,
    // so the reader closure is infallible.
    try_run_three_thread_batched_with_state(
        || Ok(input.pop()),
        make_state,
        plan,
        dispatch,
        finalize,
        len_of,
        write_batch,
        on_item_panic,
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let stats = try_run_three_thread_batched_with_state(
            feeder(input),
            |_| (),
            |(), &x: &u64| x * 2,
            |plans: Vec<u64>| Ok(plans.into_iter().map(|m| (m, Ok(m + 1))).collect()),
            |(), _item: &u64, _m: &u64, d: &u64| d * 10,
            |_| 1,
            |r| {
                out.lock().unwrap().extend(r);
                Ok(())
            },
            None,
            threads,
        )
        .unwrap();
        (out.into_inner().unwrap(), stats)
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
        let stats = try_run_three_thread_batched_with_state(
            feeder(vec![vec![1u64, 2], vec![3], vec![4, 5, 6]]),
            |_| (),
            |(), &x: &u64| x,
            |plans: Vec<u64>| {
                std::thread::sleep(nap);
                Ok(plans.into_iter().map(|m| (m, Ok(()))).collect())
            },
            |(), _item, m: &u64, _d: &()| *m,
            |_| 1,
            |_r| Ok(()),
            None,
            2,
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
        try_run_three_thread_batched_with_state(
            feeder(input),
            |_| (),
            |(), &x: &u64| x,
            |plans: Vec<u64>| Ok(plans.into_iter().map(|m| (m, Ok(()))).collect()),
            |(), _item, m: &u64, _d: &()| *m,
            |&x| x as usize, // "length" = value: compute order differs
            |r| {
                out.lock().unwrap().extend(r);
                Ok(())
            },
            None,
            4,
        )
        .unwrap();
        assert_eq!(out.into_inner().unwrap(), vec![5, 1, 9, 3]);
    }

    #[test]
    fn plan_panic_degrades_one_item_and_skips_its_dispatch() {
        let input = vec![vec![1u64, 7, 3]];
        let out = Mutex::new(Vec::new());
        let seen_by_dispatch = Mutex::new(Vec::new());
        let handler = |item: &u64, _msg: &str| item * 1000;
        let stats = try_run_three_thread_batched_with_state(
            feeder(input),
            |_| (),
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
            Some(&handler),
            2,
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
        let handler = |item: &u64, _msg: &str| item + 900;
        let stats = try_run_three_thread_batched_with_state(
            feeder(input),
            |_| (),
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
            Some(&handler),
            2,
        )
        .unwrap();
        assert_eq!(stats.failed_items, 1);
        assert_eq!(out.into_inner().unwrap(), vec![1, 2, 903, 4]);
    }

    #[test]
    fn panic_without_handler_is_fatal_with_item_index() {
        let input = vec![vec![1u64, 7, 3]];
        let err = try_run_three_thread_batched_with_state(
            feeder(input),
            |_| (),
            |(), &x: &u64| {
                if x == 7 {
                    panic!("bad read");
                }
                x
            },
            |plans: Vec<u64>| Ok(plans.into_iter().map(|m| (m, Ok(()))).collect()),
            |(), _item, m: &u64, _d: &()| *m,
            |_| 1,
            |_r| Ok(()),
            None,
            2,
        )
        .unwrap_err();
        match err {
            PipelineError::WorkerPanic { item_index, .. } => assert_eq!(item_index, 1),
            other => panic!("expected WorkerPanic, got {other}"),
        }
    }

    #[test]
    fn dispatch_error_is_fatal() {
        let input = vec![vec![1u64, 2], vec![3, 4]];
        let err = try_run_three_thread_batched_with_state(
            feeder(input),
            |_| (),
            |(), &x: &u64| x,
            |_plans: Vec<u64>| {
                Err::<Vec<(u64, Result<(), String>)>, DynError>("device on fire".into())
            },
            |(), _item, m: &u64, _d: &()| *m,
            |_| 1,
            |_r| Ok(()),
            None,
            2,
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
        let handler = |item: &u64, msg: &str| {
            assert!(msg.contains("quarantined"), "handler saw {msg:?}");
            item * 100
        };
        let stats = try_run_three_thread_batched_with_state(
            feeder(input),
            |_| (),
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
            Some(&handler),
            2,
        )
        .unwrap();
        assert_eq!(stats.failed_items, 1);
        assert_eq!(out.into_inner().unwrap(), vec![1, 700, 3]);
    }

    #[test]
    fn per_item_dispatch_error_without_handler_is_fatal_with_index() {
        let input = vec![vec![1u64, 7, 3]];
        let err = try_run_three_thread_batched_with_state(
            feeder(input),
            |_| (),
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
            |_r| Ok(()),
            None,
            2,
        )
        .unwrap_err();
        match err {
            PipelineError::DispatchItem {
                item_index,
                message,
            } => {
                assert_eq!(item_index, 1);
                assert!(message.contains("quarantined"));
            }
            other => panic!("expected DispatchItem, got {other}"),
        }
    }

    #[test]
    fn short_dispatch_result_is_fatal_not_silent() {
        let input = vec![vec![1u64, 2, 3]];
        let err = try_run_three_thread_batched_with_state(
            feeder(input),
            |_| (),
            |(), &x: &u64| x,
            |plans: Vec<u64>| Ok(plans.into_iter().skip(1).map(|m| (m, Ok(()))).collect()),
            |(), _item, m: &u64, _d: &()| *m,
            |_| 1,
            |_r| Ok(()),
            None,
            2,
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

    /// The queue-fed variant: a live producer pushes batches while the
    /// pipeline runs; `close()` drains and terminates it. Results preserve
    /// push order.
    #[test]
    fn queue_fed_pipeline_drains_on_close() {
        let input: BoundedQueue<Vec<u64>> = BoundedQueue::new(2);
        let out = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let input = &input;
            scope.spawn(move || {
                for b in [vec![1u64, 2, 3], vec![4, 5], vec![6]] {
                    input.push(b).unwrap();
                }
                input.close();
            });
            let stats = try_run_three_thread_batched_from_queue(
                input,
                |_| (),
                |(), &x: &u64| x * 2,
                |plans: Vec<u64>| Ok(plans.into_iter().map(|m| (m, Ok(m + 1))).collect()),
                |(), _item: &u64, _m: &u64, d: &u64| d * 10,
                |_| 1,
                |r| {
                    out.lock().unwrap().extend(r);
                    Ok(())
                },
                None,
                3,
            )
            .unwrap();
            assert_eq!(stats.batches, 3);
            assert_eq!(stats.items, 6);
        });
        assert_eq!(
            out.into_inner().unwrap(),
            vec![30, 50, 70, 90, 110, 130] // (2x+1)*10
        );
    }

    /// Closing an already-empty queue ends the run immediately with zero
    /// batches — the idle-daemon shutdown path.
    #[test]
    fn queue_fed_pipeline_handles_immediate_close() {
        let input: BoundedQueue<Vec<u64>> = BoundedQueue::new(1);
        input.close();
        let stats = try_run_three_thread_batched_from_queue(
            &input,
            |_| (),
            |(), &x: &u64| x,
            |plans: Vec<u64>| Ok(plans.into_iter().map(|m| (m, Ok(()))).collect()),
            |(), _item, m: &u64, _d: &()| *m,
            |_| 1,
            |_r| Ok(()),
            None,
            2,
        )
        .unwrap();
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.items, 0);
    }

    #[test]
    fn read_error_stops_run() {
        let mut calls = 0;
        let err = try_run_three_thread_batched_with_state(
            move || {
                calls += 1;
                if calls > 2 {
                    Err::<Option<Vec<u64>>, DynError>("disk gone".into())
                } else {
                    Ok(Some(vec![calls as u64]))
                }
            },
            |_| (),
            |(), &x: &u64| x,
            |plans: Vec<u64>| Ok(plans.into_iter().map(|m| (m, Ok(()))).collect()),
            |(), _item, m: &u64, _d: &()| *m,
            |_| 1,
            |_r| Ok(()),
            None,
            2,
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::Read(_)));
    }
}
