//! The persistent worker pool.
//!
//! A [`WorkerPool`] owns its threads: they start on the first batch and are
//! joined when the pool is dropped, so a backend session, whose pool also
//! runs its pipeline's plan and finalize, pays one spawn per worker however
//! many batches it runs. Each worker owns a private mutable state value
//! built once by the pool's factory (an alignment scratch arena, see
//! `mmm-align`'s `AlignScratch`), so the hot
//! loop runs with zero per-item allocation or locking: indices are claimed
//! with a single `fetch_add` and results land in a pre-sized
//! `Vec<Option<R>>` through index-disjoint writes.
//!
//! # Batch protocol
//!
//! [`WorkerPool::run_batch_catching`] takes the batch's items *and* its
//! per-item function, so one pool serves batches of any item and result
//! type. It publishes a *job* — a type-erased pointer to the submitter's
//! borrowed batch (items, function, results buffer), the function that
//! processes one item of it, and the processing order — under a mutex,
//! stamped with a fresh epoch, and wakes the workers. Workers drain the
//! index counter, write their results, and *check in*; the submitter
//! returns only once every worker has checked in for the epoch. That
//! check-in barrier is what makes the lifetime-erased pointers sound: no
//! worker can still hold a stale job (or touch the shared index counter for
//! an old epoch) after the call returns, so the borrowed batch may be freed
//! immediately. Batches from several submitting threads take turns.
#![expect(unsafe_code, reason = "pointers valid until the check-in barrier")]

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

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

/// The submitter's side of one batch, borrowed for the batch's duration.
struct Batch<'a, I, R, F> {
    items: &'a [I],
    f: &'a F,
    results: *mut Option<R>,
}

/// Process item `idx` of the [`Batch`] behind `batch` and store its result.
///
/// # Safety
///
/// `batch` must point at a live `Batch<'_, I, R, F>` whose `results` buffer
/// holds `items.len()` slots, `idx` must be in range, and no other thread
/// may process the same `idx` of this batch.
unsafe fn process_item<S, I, R, F: Fn(&mut S, &I) -> R>(
    batch: *const (),
    state: &mut S,
    idx: usize,
) {
    // SAFETY: the caller guarantees `batch` is a live `Batch` of these
    // types (the job it came from was built by `run_batch_catching` with
    // this very instantiation).
    let b = unsafe { &*batch.cast::<Batch<'_, I, R, F>>() };
    let r = (b.f)(state, &b.items[idx]);
    // SAFETY: `idx < items.len()` slots and it is claimed by this thread
    // alone, so the write is in bounds and race-free.
    unsafe { *b.results.add(idx) = Some(r) };
}

/// A published batch: a lifetime- and type-erased view of the submitter's
/// [`Batch`] plus the monomorphized function that processes one item of it.
///
/// Validity is enforced by the check-in barrier in
/// [`WorkerPool::run_batch_catching`], which outlives every worker's use of
/// these pointers.
struct Job<S> {
    batch: *const (),
    process: unsafe fn(*const (), &mut S, usize),
    order: *const usize,
    len: usize,
}

impl<S> Clone for Job<S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S> Copy for Job<S> {}

// SAFETY: `run_batch_catching` only publishes batches whose items are
// `Sync`, results `Send` and function `Sync`, so a worker may touch them
// from its own thread; the pointers stay valid for the whole time any
// worker can observe the job (check-in barrier).
unsafe impl<S> Send for Job<S> {}

struct Slot<S> {
    /// Bumped once per published batch; workers pick up a job when the
    /// epoch differs from the last one they served.
    epoch: u64,
    /// Number of workers that finished serving the current epoch.
    checked_in: usize,
    shutdown: bool,
    job: Option<Job<S>>,
    /// Panics caught while serving the current epoch; drained by the
    /// submitter after the check-in barrier.
    panics: Vec<ItemPanic>,
}

struct Shared<S> {
    slot: Mutex<Slot<S>>,
    /// Workers wait here for a new epoch or shutdown.
    work_cv: Condvar,
    /// The submitter waits here for all workers to check in.
    done_cv: Condvar,
    /// Next unclaimed position in `order`; reset before each publish.
    next: AtomicUsize,
    /// Total threads ever spawned — observable proof that the pool spawns
    /// once, not once per batch.
    spawned: AtomicUsize,
    threads: usize,
    make_state: Box<dyn Fn(usize) -> S + Send + Sync>,
}

/// A pool of persistent worker threads, each with private state `S`.
pub struct WorkerPool<S: 'static> {
    shared: Arc<Shared<S>>,
    /// The workers, spawned by the first batch. Holding this lock is
    /// holding the pool's turn: one batch runs at a time.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<S: 'static> WorkerPool<S> {
    /// A pool of `threads` workers (at least one). Each builds its state
    /// with `make_state(worker_idx)` when it starts, and again only after
    /// one of its items panicked.
    pub fn new(threads: usize, make_state: impl Fn(usize) -> S + Send + Sync + 'static) -> Self {
        WorkerPool {
            shared: Arc::new(Shared {
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
                threads: threads.max(1),
                make_state: Box::new(make_state),
            }),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Total worker threads spawned since the pool was built: 0 before the
    /// first batch, then the pool's thread count no matter how many
    /// batches run.
    pub fn threads_spawned(&self) -> usize {
        self.shared.spawned.load(Ordering::Relaxed)
    }

    /// Map `f` over `items` on the workers, processing in the order given
    /// by `order` (e.g. longest first) but returning results in the
    /// original item order. Blocks until the batch is complete; a batch
    /// submitted from another thread meanwhile waits its turn.
    ///
    /// A panic in `f` is caught per item: the batch still completes, the
    /// panicked item's slot is `None`, and the panic message (with the
    /// item's index) is reported in [`BatchOutcome::panics`]. The pool
    /// itself never deadlocks or poisons on a worker panic.
    pub fn run_batch_catching<I, R, F>(&self, items: &[I], order: &[usize], f: F) -> BatchOutcome<R>
    where
        I: Sync,
        R: Send,
        F: Fn(&mut S, &I) -> R + Sync,
    {
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
        let mut workers = lock_unpoisoned(&self.workers);
        if workers.is_empty() {
            for w in 0..self.shared.threads {
                let shared = Arc::clone(&self.shared);
                workers.push(std::thread::spawn(move || worker_loop(&shared, w)));
            }
        }

        let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
        results.resize_with(items.len(), || None);
        let batch = Batch {
            items,
            f: &f,
            results: results.as_mut_ptr(),
        };

        // Publish. The counter reset is ordered before the epoch bump by the
        // mutex acquire in every worker's pickup path.
        self.shared.next.store(0, Ordering::Relaxed);
        {
            let mut g = lock_unpoisoned(&self.shared.slot);
            g.epoch += 1;
            g.checked_in = 0;
            g.panics.clear();
            g.job = Some(Job {
                batch: std::ptr::from_ref(&batch).cast(),
                process: process_item::<S, I, R, F>,
                order: order.as_ptr(),
                len: items.len(),
            });
            self.shared.work_cv.notify_all();
        }

        // Check-in barrier: every worker must finish serving this epoch
        // before the borrows behind the job pointers can be released.
        let mut panics = {
            let mut g = wait_while_unpoisoned(
                &self.shared.done_cv,
                lock_unpoisoned(&self.shared.slot),
                |s| s.checked_in != self.shared.threads,
            );
            g.job = None;
            std::mem::take(&mut g.panics)
        };
        drop(workers);

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

impl<S: 'static> Drop for WorkerPool<S> {
    /// Release the workers and join them.
    fn drop(&mut self) {
        lock_unpoisoned(&self.shared.slot).shutdown = true;
        self.shared.work_cv.notify_all();
        for handle in lock_unpoisoned(&self.workers).drain(..) {
            // A worker catches every panic of the items it runs, so a join
            // error can only be a bug in this module; the pool is going
            // away either way.
            let _ = handle.join();
        }
    }
}

/// Per-epoch worker check-in that also fires during unwinding.
struct CheckIn<'a, S>(&'a Shared<S>);

impl<S> Drop for CheckIn<'_, S> {
    fn drop(&mut self) {
        let mut g = lock_unpoisoned(&self.0.slot);
        g.checked_in += 1;
        if g.checked_in == self.0.threads {
            self.0.done_cv.notify_all();
        }
    }
}

/// Build a worker's state, or `None` if the factory panicked.
fn build_state<S>(shared: &Shared<S>, w: usize) -> Option<S> {
    std::panic::catch_unwind(AssertUnwindSafe(|| (shared.make_state)(w))).ok()
}

fn worker_loop<S>(shared: &Shared<S>, w: usize) {
    shared.spawned.fetch_add(1, Ordering::Relaxed);
    // A panic in `make_state` leaves the worker state-less; it still checks
    // in every epoch (so batches complete) but claims no items — the rest
    // of the pool covers them.
    let mut state = build_state(shared, w);
    let mut seen_epoch = 0u64;
    loop {
        // Wait for a fresh epoch carrying a job (or shutdown) and copy its
        // job.
        let job = {
            let g = wait_while_unpoisoned(&shared.work_cv, lock_unpoisoned(&shared.slot), |s| {
                !s.shutdown && (s.epoch == seen_epoch || s.job.is_none())
            });
            let Some(j) = g.job.filter(|_| !g.shutdown) else {
                return;
            };
            seen_epoch = g.epoch;
            j
        };
        // Check in even if processing panics below: a missing check-in
        // would leave the submitter waiting forever, masking the panic as a
        // deadlock. (A panicked item leaves its result slot `None`, which
        // the submitter reports.)
        let checkin = CheckIn(shared);
        // Drain the claim counter. Disjoint `idx` values make the result
        // writes race-free.
        while let Some(st) = state.as_mut() {
            let k = shared.next.fetch_add(1, Ordering::Relaxed);
            if k >= job.len {
                break;
            }
            // SAFETY: job pointers are valid until every worker checks in
            // below; `k < len` bounds the read, and `order` is a
            // permutation so `idx` is in range and claimed by exactly one
            // worker.
            let idx = unsafe { *job.order.add(k) };
            // SAFETY: as above — `job.batch` is the live batch `process`
            // was instantiated for, and `idx` is in range and uniquely
            // claimed.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe {
                (job.process)(job.batch, st, idx)
            }));
            if let Err(payload) = outcome {
                lock_unpoisoned(&shared.slot).panics.push(ItemPanic {
                    index: idx,
                    message: panic_message(payload),
                });
                // The panic may have left this worker's state inconsistent
                // — rebuild before the next item.
                state = build_state(shared, w);
            }
        }
        // Check in: the mutex makes this worker's result writes visible to
        // the submitter observing the count.
        drop(checkin);
    }
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
        let pool = WorkerPool::new(threads, |_| ());
        complete(pool.run_batch_catching(items, order, |(), item: &I| f(item)))
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

    /// Threads start with the first batch and serve every later one; one
    /// pool runs batches of different item and result types.
    #[test]
    fn pool_reuses_threads_across_batches() {
        let batches: Vec<Vec<u32>> = (0..50).map(|b| (b * 10..b * 10 + 10).collect()).collect();
        let pool = WorkerPool::new(4, |_| 0u64); // per-worker state: items served
        assert_eq!(pool.threads_spawned(), 0, "no batch, no threads");
        for batch in &batches {
            let order: Vec<usize> = (0..batch.len()).collect();
            let out = complete(
                pool.run_batch_catching(batch, &order, |served: &mut u64, &x| {
                    *served += 1;
                    x + 1
                }),
            );
            let want: Vec<u32> = batch.iter().map(|x| x + 1).collect();
            assert_eq!(out, want);
        }
        let words = ["a", "bb", "ccc"];
        let lens = complete(pool.run_batch_catching(&words, &[2, 1, 0], |_, w: &&str| w.len()));
        assert_eq!(lens, vec![1, 2, 3]);
        assert_eq!(pool.threads_spawned(), 4, "threads spawned once per pool");
    }

    #[test]
    fn worker_state_is_built_once_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let built = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&built);
        let pool = WorkerPool::new(3, move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        for _ in 0..20 {
            let items: Vec<u32> = (0..17).collect();
            let order: Vec<usize> = (0..17).collect();
            pool.run_batch_catching(&items, &order, |(), &x: &u32| x);
        }
        drop(pool);
        assert_eq!(built.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn batch_larger_and_smaller_than_pool() {
        let pool = WorkerPool::new(8, |_| ());
        for n in [1usize, 3, 8, 100] {
            let items: Vec<u64> = (0..n as u64).collect();
            let order: Vec<usize> = (0..n).collect();
            let out = complete(pool.run_batch_catching(&items, &order, |(), &x: &u64| x * x));
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn worker_panic_is_caught_batch_completes() {
        let items: Vec<u32> = (0..50).collect();
        let order: Vec<usize> = (0..50).collect();
        let pool = WorkerPool::new(4, |_| ());
        let f = |(): &mut (), &x: &u32| {
            if x == 17 {
                panic!("poison pill {x}");
            }
            x * 2
        };
        let out = pool.run_batch_catching(&items, &order, f);
        assert_eq!(out.panics.len(), 1);
        assert_eq!(out.panics[0].index, 17);
        assert!(out.panics[0].message.contains("poison pill 17"));
        assert!(out.results[17].is_none());
        let ok = out.results.iter().filter(|r| r.is_some()).count();
        assert_eq!(ok, 49);
        // The pool survives: the same threads serve another batch.
        let out2 = pool.run_batch_catching(&items[..10], &order[..10], f);
        assert!(out2.panics.is_empty());
        assert_eq!(out2.results.iter().filter(|r| r.is_some()).count(), 10);
        assert_eq!(pool.threads_spawned(), 4);
    }

    #[test]
    fn state_factory_panic_does_not_deadlock() {
        // Worker 1's state factory always panics; worker 0 carries the load.
        let items: Vec<u32> = (0..20).collect();
        let order: Vec<usize> = (0..20).collect();
        let pool = WorkerPool::new(2, |w| {
            if w == 1 {
                panic!("no state for worker 1");
            }
        });
        let out = pool.run_batch_catching(&items, &order, |(), &x: &u32| x + 1);
        assert!(out.panics.is_empty(), "{:?}", out.panics);
        let vals: Vec<u32> = out.results.into_iter().flatten().collect();
        assert_eq!(vals, (1..=20).collect::<Vec<u32>>());
    }

    /// Two threads submitting to one pool take turns; each gets its own
    /// results back.
    #[test]
    fn concurrent_submitters_take_turns() {
        let pool = WorkerPool::new(2, |_| ());
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let pool = &pool;
                s.spawn(move || {
                    for round in 0..20u64 {
                        let items: Vec<u64> = (0..(t + round) % 7 + 1).collect();
                        let order: Vec<usize> = (0..items.len()).collect();
                        let out =
                            complete(
                                pool.run_batch_catching(&items, &order, |(), &x: &u64| x + 100 * t),
                            );
                        let want: Vec<u64> = items.iter().map(|x| x + 100 * t).collect();
                        assert_eq!(out, want);
                    }
                });
            }
        });
        assert_eq!(pool.threads_spawned(), 2);
    }

    #[test]
    fn dropping_an_unused_pool_spawns_nothing() {
        let pool = WorkerPool::new(4, |_| ());
        drop(pool); // and no deadlock joining
    }
}
