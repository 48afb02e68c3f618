//! The persistent worker pool.
//!
//! The pool spawns its threads **once per pipeline run** and feeds them one
//! batch at a time; this replaces the original per-batch scoped-spawn design,
//! which paid a thread spawn/join plus one `Mutex<Option<R>>` allocation per
//! item on every batch. Each worker owns a private mutable state value built
//! by a caller-supplied factory (the mapper passes an alignment scratch
//! arena, see `mmm-align`'s `AlignScratch`), so the hot loop runs with zero
//! per-item allocation or locking: indices are claimed with a single
//! `fetch_add` and results land in a pre-sized `Vec<Option<R>>` through
//! index-disjoint writes.
//!
//! # Batch protocol
//!
//! [`WorkerPool::run_batch_catching`] publishes a *job* — raw pointers to the batch
//! items, the processing order, and the results buffer — under a mutex,
//! stamped with a fresh epoch, and wakes the workers. Workers drain the index
//! counter, write their results, and *check in*; the submitter returns only
//! once every worker has checked in for the epoch. That check-in barrier is
//! what makes the lifetime-erased pointers sound: no worker can still hold a
//! stale job (or touch the shared index counter for an old epoch) after
//! the call returns, so the borrowed batch may be freed immediately.
#![expect(unsafe_code, reason = "pointers valid until the check-in barrier")]

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::sync::{lock_unpoisoned, wait_while_unpoisoned};

/// A panic caught while a worker processed one item.
#[derive(Clone, Debug)]
pub struct ItemPanic {
    /// Original index of the item in the submitted batch.
    pub index: usize,
    /// The panic payload, if it was a string (the common case).
    pub message: String,
}

/// Outcome of [`WorkerPool::run_batch_catching`]: per-item results in
/// original order, plus any panics caught along the way. An item whose
/// worker panicked has `None` in `results` and an entry in `panics`.
#[derive(Debug)]
pub struct BatchOutcome<R> {
    pub results: Vec<Option<R>>,
    pub panics: Vec<ItemPanic>,
}

/// Render a panic payload as a message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A published batch: lifetime-erased views of the submitter's borrows.
///
/// Validity is enforced by the check-in barrier in
/// [`WorkerPool::run_batch_catching`], which outlives every worker's use of
/// these pointers.
struct Job<I, R> {
    items: *const I,
    order: *const usize,
    len: usize,
    results: *mut Option<R>,
}

impl<I, R> Clone for Job<I, R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<I, R> Copy for Job<I, R> {}

// SAFETY: a `Job` hands workers shared `&I` access (hence `I: Sync`) and
// moves produced `R` values across threads (hence `R: Send`). The pointers
// themselves stay valid for the whole time any worker can observe the job
// (check-in barrier).
unsafe impl<I: Sync, R: Send> Send for Job<I, R> {}

struct Slot<I, R> {
    /// Bumped once per published batch; workers pick up a job when the
    /// epoch differs from the last one they served.
    epoch: u64,
    /// Number of workers that finished serving the current epoch.
    checked_in: usize,
    shutdown: bool,
    job: Option<Job<I, R>>,
    /// Panics caught while serving the current epoch; drained by the
    /// submitter after the check-in barrier.
    panics: Vec<ItemPanic>,
}

struct Shared<I, R> {
    slot: Mutex<Slot<I, R>>,
    /// Workers wait here for a new epoch or shutdown.
    work_cv: Condvar,
    /// The submitter waits here for all workers to check in.
    done_cv: Condvar,
    /// Next unclaimed position in `order`; reset before each publish.
    next: AtomicUsize,
    /// Total threads ever spawned — observable proof that the pool spawns
    /// once per run, not once per batch.
    spawned: AtomicUsize,
}

impl<I, R> Shared<I, R> {
    fn new() -> Self {
        Shared {
            slot: Mutex::new(Slot {
                epoch: 0,
                checked_in: 0,
                shutdown: false,
                job: None,
                panics: Vec::new(),
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next: AtomicUsize::new(0),
            spawned: AtomicUsize::new(0),
        }
    }
}

/// Handle to a running pool, passed to the body closure of
/// [`with_worker_pool`]. Submit batches with
/// [`run_batch_catching`](Self::run_batch_catching).
pub struct WorkerPool<'a, I, R> {
    shared: &'a Shared<I, R>,
    threads: usize,
}

impl<I: Sync, R: Send> WorkerPool<'_, I, R> {
    /// Total worker threads spawned since the pool started. Stays equal to
    /// the pool's thread count no matter how many batches run.
    pub fn threads_spawned(&self) -> usize {
        self.shared.spawned.load(Ordering::Relaxed)
    }

    /// Map the pool's function over `items`, processing in the order given
    /// by `order` (e.g. longest first) but returning results in the original
    /// item order. Blocks until the batch is complete.
    ///
    /// A panic in the mapped function is caught per item: the batch still
    /// completes, the panicked item's slot is `None`, and the panic message
    /// (with the item's index) is reported in [`BatchOutcome::panics`]. The
    /// pool itself never deadlocks or poisons on a worker panic.
    pub fn run_batch_catching(&self, items: &[I], order: &[usize]) -> BatchOutcome<R> {
        assert_eq!(
            items.len(),
            order.len(),
            "order must be a permutation of the items"
        );
        if items.is_empty() {
            return BatchOutcome {
                results: Vec::new(),
                panics: Vec::new(),
            };
        }
        let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
        results.resize_with(items.len(), || None);

        // Publish. The counter reset is ordered before the epoch bump by the
        // mutex acquire in every worker's pickup path.
        self.shared.next.store(0, Ordering::Relaxed);
        {
            let mut g = lock_unpoisoned(&self.shared.slot);
            g.epoch += 1;
            g.checked_in = 0;
            g.panics.clear();
            g.job = Some(Job {
                items: items.as_ptr(),
                order: order.as_ptr(),
                len: items.len(),
                results: results.as_mut_ptr(),
            });
            self.shared.work_cv.notify_all();
        }

        // Check-in barrier: every worker must finish serving this epoch
        // before the borrows behind the job pointers can be released.
        let mut panics = {
            let mut g = wait_while_unpoisoned(
                &self.shared.done_cv,
                lock_unpoisoned(&self.shared.slot),
                |s| s.checked_in != self.threads,
            );
            g.job = None;
            std::mem::take(&mut g.panics)
        };

        // A worker that failed to rebuild its state abandons claimed items
        // without a recorded panic; surface those holes too so callers can
        // always account for every item.
        for (i, r) in results.iter().enumerate() {
            if r.is_none() && !panics.iter().any(|p| p.index == i) {
                panics.push(ItemPanic {
                    index: i,
                    message: "item abandoned after a worker failed to rebuild its state".into(),
                });
            }
        }
        panics.sort_by_key(|p| p.index);
        BatchOutcome { results, panics }
    }
}

/// Run `body` with a pool of `threads` persistent workers.
///
/// Each worker builds one private state value via `make_state(worker_idx)`
/// when it starts (never again), and processes items with
/// `map(&mut state, &item)`. Threads are joined before this returns; on the
/// way out (including panics in `body`) the pool shuts down cleanly.
pub fn with_worker_pool<I, R, S, T>(
    threads: usize,
    make_state: impl Fn(usize) -> S + Sync,
    map: impl Fn(&mut S, &I) -> R + Sync,
    body: impl FnOnce(&WorkerPool<'_, I, R>) -> T,
) -> T
where
    I: Sync,
    R: Send,
{
    let threads = threads.max(1);
    let shared: Shared<I, R> = Shared::new();

    /// Ensures workers are released even if `body` unwinds.
    struct Shutdown<'a, I, R>(&'a Shared<I, R>);
    impl<I, R> Drop for Shutdown<'_, I, R> {
        fn drop(&mut self) {
            lock_unpoisoned(&self.0.slot).shutdown = true;
            self.0.work_cv.notify_all();
        }
    }

    /// Per-epoch worker check-in that also fires during unwinding.
    struct CheckIn<'a, I, R> {
        shared: &'a Shared<I, R>,
        threads: usize,
    }
    impl<I, R> Drop for CheckIn<'_, I, R> {
        fn drop(&mut self) {
            let mut g = match self.shared.slot.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            g.checked_in += 1;
            if g.checked_in == self.threads {
                self.shared.done_cv.notify_all();
            }
        }
    }

    std::thread::scope(|scope| {
        let shared = &shared;
        for w in 0..threads {
            let make_state = &make_state;
            let map = &map;
            scope.spawn(move || {
                shared.spawned.fetch_add(1, Ordering::Relaxed);
                // A panic in `make_state` leaves the worker state-less; it
                // still checks in every epoch (so batches complete) but
                // claims no items — the rest of the pool covers them.
                let mut state: Option<S> =
                    std::panic::catch_unwind(AssertUnwindSafe(|| make_state(w))).ok();
                let mut seen_epoch = 0u64;
                loop {
                    // Wait for a fresh epoch carrying a job (or shutdown)
                    // and copy its job.
                    let job = {
                        let g = wait_while_unpoisoned(
                            &shared.work_cv,
                            lock_unpoisoned(&shared.slot),
                            |s| !s.shutdown && (s.epoch == seen_epoch || s.job.is_none()),
                        );
                        let Some(j) = g.job.filter(|_| !g.shutdown) else {
                            return;
                        };
                        seen_epoch = g.epoch;
                        j
                    };
                    // Check in even if `map` panics below: a missing check-in
                    // would leave the submitter waiting forever, masking the
                    // panic as a deadlock. (A panicked item leaves its result
                    // slot `None`, which the submitter reports.)
                    let checkin = CheckIn { shared, threads };
                    // Drain the claim counter. Disjoint `idx` values make the
                    // result writes race-free.
                    while state.is_some() {
                        let k = shared.next.fetch_add(1, Ordering::Relaxed);
                        if k >= job.len {
                            break;
                        }
                        // SAFETY: job pointers are valid until every worker
                        // checks in below; `k < len` bounds both reads, and
                        // `order` is a permutation so `idx` is in range and
                        // claimed by exactly one worker.
                        let idx = unsafe { *job.order.add(k) };
                        let outcome = match state.as_mut() {
                            Some(st) => std::panic::catch_unwind(AssertUnwindSafe(|| {
                                // SAFETY: as above — idx is in range and
                                // uniquely claimed, so the result write is
                                // race-free.
                                unsafe {
                                    let r = map(st, &*job.items.add(idx));
                                    *job.results.add(idx) = Some(r);
                                }
                            })),
                            None => break,
                        };
                        if let Err(payload) = outcome {
                            lock_unpoisoned(&shared.slot).panics.push(ItemPanic {
                                index: idx,
                                message: panic_message(payload),
                            });
                            // The panic may have left this worker's state
                            // inconsistent — rebuild before the next item.
                            state =
                                std::panic::catch_unwind(AssertUnwindSafe(|| make_state(w))).ok();
                        }
                    }
                    // Check in: the mutex makes this worker's result writes
                    // visible to the submitter observing the count.
                    drop(checkin);
                }
            });
        }

        let guard = Shutdown(shared);
        let pool = WorkerPool { shared, threads };
        let out = body(&pool);
        drop(guard);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One batch through a fresh stateless pool; every item must come back.
    fn one_batch<I: Sync, R: Send>(
        items: &[I],
        order: &[usize],
        threads: usize,
        f: impl Fn(&I) -> R + Sync,
    ) -> Vec<R> {
        with_worker_pool(
            threads,
            |_| (),
            |(), item| f(item),
            |pool| complete(pool.run_batch_catching(items, order)),
        )
    }

    /// The results of a batch no worker panicked on.
    fn complete<R>(out: BatchOutcome<R>) -> Vec<R> {
        assert!(out.panics.is_empty(), "{:?}", out.panics);
        out.results.into_iter().flatten().collect()
    }

    #[test]
    fn preserves_item_order() {
        let items: Vec<u32> = (0..100).collect();
        let order: Vec<usize> = (0..100).rev().collect(); // process backwards
        let out = one_batch(&items, &order, 4, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn single_thread_works() {
        let items = vec![1, 2, 3];
        let order = vec![0, 1, 2];
        assert_eq!(one_batch(&items, &order, 1, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = Vec::new();
        let out: Vec<u32> = one_batch(&items, &[], 8, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn mismatched_order_panics() {
        let items = vec![1, 2, 3];
        one_batch(&items, &[0, 1], 2, |&x| x);
    }

    #[test]
    fn pool_reuses_threads_across_batches() {
        let batches: Vec<Vec<u32>> = (0..50).map(|b| (b * 10..b * 10 + 10).collect()).collect();
        with_worker_pool(
            4,
            |_| 0u64, // per-worker state: items served
            |served: &mut u64, &x: &u32| {
                *served += 1;
                x + 1
            },
            |pool| {
                for batch in &batches {
                    let order: Vec<usize> = (0..batch.len()).collect();
                    let out = complete(pool.run_batch_catching(batch, &order));
                    let want: Vec<u32> = batch.iter().map(|x| x + 1).collect();
                    assert_eq!(out, want);
                }
                assert_eq!(pool.threads_spawned(), 4, "threads spawned once per run");
            },
        );
    }

    #[test]
    fn worker_state_is_built_once_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let built = AtomicUsize::new(0);
        with_worker_pool(
            3,
            |_| {
                built.fetch_add(1, Ordering::Relaxed);
            },
            |(), &x: &u32| x,
            |pool| {
                for _ in 0..20 {
                    let items: Vec<u32> = (0..17).collect();
                    let order: Vec<usize> = (0..17).collect();
                    pool.run_batch_catching(&items, &order);
                }
            },
        );
        assert_eq!(built.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn batch_larger_and_smaller_than_pool() {
        with_worker_pool(
            8,
            |_| (),
            |(), &x: &u64| x * x,
            |pool| {
                for n in [1usize, 3, 8, 100] {
                    let items: Vec<u64> = (0..n as u64).collect();
                    let order: Vec<usize> = (0..n).collect();
                    let out = complete(pool.run_batch_catching(&items, &order));
                    assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<u64>>());
                }
            },
        );
    }

    #[test]
    fn worker_panic_is_caught_batch_completes() {
        let items: Vec<u32> = (0..50).collect();
        let order: Vec<usize> = (0..50).collect();
        with_worker_pool(
            4,
            |_| (),
            |(), &x: &u32| {
                if x == 17 {
                    panic!("poison pill {x}");
                }
                x * 2
            },
            |pool| {
                let out = pool.run_batch_catching(&items, &order);
                assert_eq!(out.panics.len(), 1);
                assert_eq!(out.panics[0].index, 17);
                assert!(out.panics[0].message.contains("poison pill 17"));
                assert!(out.results[17].is_none());
                let ok = out.results.iter().filter(|r| r.is_some()).count();
                assert_eq!(ok, 49);
                // The pool survives: the same threads serve another batch.
                let out2 = pool.run_batch_catching(&items[..10], &order[..10]);
                assert!(out2.panics.is_empty());
                assert_eq!(out2.results.iter().filter(|r| r.is_some()).count(), 10);
            },
        );
    }

    #[test]
    fn state_factory_panic_does_not_deadlock() {
        // Worker 1's state factory always panics; worker 0 carries the load.
        let items: Vec<u32> = (0..20).collect();
        let order: Vec<usize> = (0..20).collect();
        with_worker_pool(
            2,
            |w| {
                if w == 1 {
                    panic!("no state for worker 1");
                }
            },
            |(), &x: &u32| x + 1,
            |pool| {
                let out = pool.run_batch_catching(&items, &order);
                assert!(out.panics.is_empty(), "{:?}", out.panics);
                let vals: Vec<u32> = out.results.into_iter().flatten().collect();
                assert_eq!(vals, (1..=20).collect::<Vec<u32>>());
            },
        );
    }

    #[test]
    fn body_panic_releases_workers() {
        let caught = std::panic::catch_unwind(|| {
            with_worker_pool(
                2,
                |_| (),
                |(), &x: &u32| x,
                |_pool: &WorkerPool<'_, u32, u32>| panic!("body bail"),
            )
        });
        assert!(caught.is_err()); // and no deadlock joining the scope
    }
}
