//! The persistent worker pool.
//!
//! A [`WorkerPool`] of `threads` computes on the thread that submits a
//! batch, *worker 0*, plus `threads − 1` threads of its own: they start on
//! the first batch and are joined when the pool is dropped, so a backend
//! session, whose pool also runs its pipeline's plan and finalize, pays one
//! spawn per worker however many batches it runs, and a pool of one thread
//! spawns none and runs every item inline. Each worker owns a private
//! mutable state value built by the pool's factory (an alignment scratch
//! arena, see `mmm-align`'s `AlignScratch`); worker 0's is kept under the
//! pool's turn lock and serves whichever thread holds the turn. So the hot
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
//! stamped with a fresh epoch, wakes the workers that are parked, and
//! drains the index counter itself as worker 0. A worker *checks in* to the
//! epoch under the mutex when it copies the job, drains the counter beside
//! the submitter, and *checks out* under the mutex when the counter runs
//! dry. Once its own drain ends, the submitter waits until no worker is
//! checked in, then retires the job under the same mutex: a worker that
//! arrives later finds no job and waits for the next epoch. That
//! mutex-counted check-in barrier is what makes the lifetime-erased
//! pointers sound: no worker can still hold a stale job (or touch the
//! shared index counter for an old epoch) after the call returns, so the
//! borrowed batch may be freed immediately. It never waits for a worker
//! that has not woken yet, only for the ones computing. Batches from
//! several submitting threads take turns.
//!
//! No thread parks on a batch's critical path if it can help it: a worker
//! waiting for the next epoch and a submitter waiting for the last check-out
//! first re-check their condition for [`SPIN`] through an atomic mirror of
//! it (the epoch, the checked-in count), yielding the CPU between checks,
//! and only then lock the mutex and park. The mirrors are hints: every
//! decision is re-made under the mutex. Between the phases of one batch —
//! plan, dispatch, finalize — the gap is tens of microseconds, so the
//! workers are still spinning when the next epoch is published (DESIGN
//! §12 has the measurement). A spinning worker also sees a shutdown, which
//! bumps the epoch, so dropping the pool never waits out the window.
#![expect(unsafe_code, reason = "pointers valid until the check-in barrier")]

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sync::{lock_unpoisoned, wait_while_unpoisoned};

/// How long a thread about to park keeps re-checking its condition first:
/// a worker that has checked out waiting for the next epoch, and a
/// submitter waiting for the last check-out. It covers the gaps between a
/// batch's phases; a thread yields its CPU between checks, so an
/// oversubscribed host still runs the threads with work.
pub const SPIN: Duration = Duration::from_micros(300);

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
    /// Bumped once per published batch and once at shutdown; a worker
    /// serves each epoch's job at most once.
    epoch: u64,
    /// The current epoch's job, until the submitter retires it.
    job: Option<Job<S>>,
    /// Workers checked in to the current job: they copied it and have not
    /// checked out yet.
    serving: usize,
    /// Workers parked on `work_cv`; a publish with none skips the notify.
    parked: usize,
    /// The submitter is parked on `done_cv`.
    submitter_parked: bool,
    shutdown: bool,
    /// Panics caught while serving the current epoch; drained by the
    /// submitter after the check-in barrier.
    panics: Vec<ItemPanic>,
}

struct Shared<S> {
    slot: Mutex<Slot<S>>,
    /// Workers wait here for a new epoch or shutdown.
    work_cv: Condvar,
    /// The submitter waits here for the last worker to check out.
    done_cv: Condvar,
    /// Next unclaimed position in `order`; reset before each publish.
    next: AtomicUsize,
    /// Mirrors of `Slot::epoch` and `Slot::serving`, stored under the
    /// mutex and read by the spins: hints, never proof.
    epoch_hint: AtomicU64,
    serving_hint: AtomicUsize,
    /// Total threads ever spawned — observable proof that the pool spawns
    /// once, not once per batch.
    spawned: AtomicUsize,
    threads: usize,
    make_state: Box<dyn Fn(usize) -> S + Send + Sync>,
}

/// The pool's turn: holding this lock is running a batch, as worker 0.
struct Turn<S> {
    /// Set by the first batch, which spawns the workers and builds worker
    /// 0's state.
    started: bool,
    workers: Vec<JoinHandle<()>>,
    /// Worker 0's state; `None` before the first batch or after its
    /// factory panicked.
    state: Option<S>,
}

/// A pool of `threads` workers, each with private state `S`: the
/// submitting thread and `threads − 1` persistent threads.
pub struct WorkerPool<S: 'static> {
    shared: Arc<Shared<S>>,
    /// One batch runs at a time.
    turn: Mutex<Turn<S>>,
}

impl<S: 'static> WorkerPool<S> {
    /// A pool of `threads` workers (at least one): the thread that submits
    /// a batch is worker 0, and workers `1..threads` are spawned by the
    /// first batch. Each builds its state with `make_state(worker_idx)`
    /// once, and again only after one of its items panicked.
    pub fn new(threads: usize, make_state: impl Fn(usize) -> S + Send + Sync + 'static) -> Self {
        WorkerPool {
            shared: Arc::new(Shared {
                slot: Mutex::new(Slot {
                    epoch: 0,
                    job: None,
                    serving: 0,
                    parked: 0,
                    submitter_parked: false,
                    shutdown: false,
                    panics: Vec::new(),
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                next: AtomicUsize::new(0),
                epoch_hint: AtomicU64::new(0),
                serving_hint: AtomicUsize::new(0),
                spawned: AtomicUsize::new(0),
                threads: threads.max(1),
                make_state: Box::new(make_state),
            }),
            turn: Mutex::new(Turn {
                started: false,
                workers: Vec::new(),
                state: None,
            }),
        }
    }

    /// Total worker threads spawned since the pool was built: 0 before the
    /// first batch, then `threads − 1` no matter how many batches run.
    pub fn threads_spawned(&self) -> usize {
        self.shared.spawned.load(Ordering::Relaxed)
    }

    /// Map `f` over `items` on the calling thread and the workers,
    /// processing in the order given by `order` (e.g. longest first) but
    /// returning results in the original item order. Blocks until the
    /// batch is complete; a batch submitted from another thread meanwhile
    /// waits its turn.
    ///
    /// A panic in `f` is caught per item, on the calling thread as on a
    /// worker: the batch still completes, the panicked item's slot is
    /// `None`, the panic message (with the item's index) is reported in
    /// [`BatchOutcome::panics`], and the worker's state is rebuilt. The
    /// pool itself never deadlocks or poisons on an item's panic.
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
        let mut turn = lock_unpoisoned(&self.turn);
        if !turn.started {
            turn.started = true;
            for w in 1..self.shared.threads {
                let shared = Arc::clone(&self.shared);
                turn.workers
                    .push(std::thread::spawn(move || worker_loop(&shared, w)));
                self.shared.spawned.fetch_add(1, Ordering::Relaxed);
            }
            turn.state = build_state(&self.shared, 0);
        }

        let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
        results.resize_with(items.len(), || None);
        let batch = Batch {
            items,
            f: &f,
            results: results.as_mut_ptr(),
        };
        let job = Job {
            batch: std::ptr::from_ref(&batch).cast(),
            process: process_item::<S, I, R, F>,
            order: order.as_ptr(),
            len: items.len(),
        };

        // Publish, unless there is no one to publish to. The counter reset
        // is ordered before the job by the mutex acquire in every worker's
        // check-in.
        self.shared.next.store(0, Ordering::Relaxed);
        let published = (!turn.workers.is_empty()).then(|| {
            let mut g = lock_unpoisoned(&self.shared.slot);
            g.epoch += 1;
            g.job = Some(job);
            self.shared.epoch_hint.store(g.epoch, Ordering::Release);
            if g.parked > 0 {
                self.shared.work_cv.notify_all();
            }
            // Runs the check-in barrier on drop, so that it holds even if
            // this thread unwinds.
            Retire(&self.shared)
        });

        // Worker 0: this thread.
        // SAFETY: `job` points at `batch`, `results` and `order`, all alive
        // until this function returns.
        unsafe { drain(&self.shared, job, &mut turn.state, 0) };

        // Check-in barrier: every worker serving the job must check out
        // before the borrows behind the job pointers can be released.
        drop(published);
        let mut panics = std::mem::take(&mut lock_unpoisoned(&self.shared.slot).panics);
        drop(turn);

        // A worker that failed to rebuild its state abandons claimed items
        // without a recorded panic, and a pool whose every state factory
        // failed claims none; surface those holes too so callers can always
        // account for every item.
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
    /// Release the workers, parked or spinning, and join them.
    fn drop(&mut self) {
        {
            let mut g = lock_unpoisoned(&self.shared.slot);
            g.shutdown = true;
            g.epoch += 1;
            self.shared.epoch_hint.store(g.epoch, Ordering::Release);
            self.shared.work_cv.notify_all();
        }
        let turn = self.turn.get_mut().unwrap_or_else(PoisonError::into_inner);
        for handle in turn.workers.drain(..) {
            // A worker catches every panic of the items it runs, so a join
            // error can only be a bug in this module; the pool is going
            // away either way.
            let _ = handle.join();
        }
    }
}

/// Re-check `ready` for up to [`SPIN`], yielding the CPU between checks;
/// whether it held. The caller re-checks under the mutex either way.
fn spin(mut ready: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    loop {
        if ready() {
            return true;
        }
        if start.elapsed() >= SPIN {
            return false;
        }
        std::thread::yield_now();
    }
}

/// The submitter's wait on the check-in barrier: once no worker serves the
/// job, retire it. Runs on drop, so it also fires during unwinding.
struct Retire<'a, S>(&'a Shared<S>);

impl<S> Drop for Retire<'_, S> {
    fn drop(&mut self) {
        let shared = self.0;
        spin(|| shared.serving_hint.load(Ordering::Acquire) == 0);
        let mut g = lock_unpoisoned(&shared.slot);
        if g.serving > 0 {
            g.submitter_parked = true;
            g = wait_while_unpoisoned(&shared.done_cv, g, |s| s.serving > 0);
            g.submitter_parked = false;
        }
        g.job = None;
    }
}

/// A worker's check-out, which also fires during unwinding: a missing one
/// would leave the submitter waiting forever, masking a bug as a deadlock.
struct CheckOut<'a, S>(&'a Shared<S>);

impl<S> Drop for CheckOut<'_, S> {
    fn drop(&mut self) {
        let mut g = lock_unpoisoned(&self.0.slot);
        g.serving -= 1;
        self.0.serving_hint.store(g.serving, Ordering::Release);
        if g.serving == 0 && g.submitter_parked {
            self.0.done_cv.notify_one();
        }
    }
}

/// Build a worker's state, or `None` if the factory panicked.
fn build_state<S>(shared: &Shared<S>, w: usize) -> Option<S> {
    std::panic::catch_unwind(AssertUnwindSafe(|| (shared.make_state)(w))).ok()
}

/// Claim and process items of `job` as worker `w` until the claim counter
/// runs dry. A panicking item is recorded and the worker's state rebuilt; a
/// worker with no state (its factory panicked) claims nothing, and the
/// rest of the pool covers the batch.
///
/// # Safety
///
/// `job`'s pointers must stay valid for the call: the submitter's own
/// batch, or a job this worker is checked in to.
unsafe fn drain<S>(shared: &Shared<S>, job: Job<S>, state: &mut Option<S>, w: usize) {
    while let Some(st) = state.as_mut() {
        let k = shared.next.fetch_add(1, Ordering::Relaxed);
        if k >= job.len {
            break;
        }
        // SAFETY: job pointers are valid for this call (the caller's
        // contract); `k < len` bounds the read, and `order` is a
        // permutation so `idx` is in range and claimed by exactly one
        // worker.
        let idx = unsafe { *job.order.add(k) };
        // SAFETY: as above — `job.batch` is the live batch `process` was
        // instantiated for, and `idx` is in range and uniquely claimed.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe {
            (job.process)(job.batch, st, idx)
        }));
        if let Err(payload) = outcome {
            lock_unpoisoned(&shared.slot).panics.push(ItemPanic {
                index: idx,
                message: panic_message(payload),
            });
            // The panic may have left this worker's state inconsistent —
            // rebuild before the next item.
            *state = build_state(shared, w);
        }
    }
}

fn worker_loop<S>(shared: &Shared<S>, w: usize) {
    // A panic in `make_state` leaves the worker state-less; it still checks
    // in to every job (so the barrier stays uniform) but claims no items.
    let mut state = build_state(shared, w);
    let mut seen_epoch = 0u64;
    loop {
        // Wait for a fresh epoch (or shutdown): spin on its hint, then park.
        spin(|| shared.epoch_hint.load(Ordering::Acquire) != seen_epoch);
        let job = {
            let mut g = lock_unpoisoned(&shared.slot);
            if g.epoch == seen_epoch {
                g.parked += 1;
                g = wait_while_unpoisoned(&shared.work_cv, g, |s| s.epoch == seen_epoch);
                g.parked -= 1;
            }
            if g.shutdown {
                return;
            }
            seen_epoch = g.epoch;
            // A job the submitter already retired (it drained the batch
            // before this worker woke) is skipped; wait for the next.
            let Some(job) = g.job else {
                continue;
            };
            g.serving += 1;
            shared.serving_hint.store(g.serving, Ordering::Release);
            job
        };
        let checkout = CheckOut(shared);
        // SAFETY: this worker is checked in to `job`, and the submitter
        // retires it (and frees what it points at) only once no worker is.
        unsafe { drain(shared, job, &mut state, w) };
        // Check out: the mutex makes this worker's result writes visible to
        // the submitter observing the count.
        drop(checkout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

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

    /// The threads that ran a batch's items: each item sleeps, so that
    /// the pool's workers are awake before the batch runs dry.
    fn threads_of_a_batch(pool: &WorkerPool<()>, n: usize) -> HashSet<ThreadId> {
        let items: Vec<usize> = (0..n).collect();
        let ran = complete(pool.run_batch_catching(&items, &items, |(), _: &usize| {
            std::thread::sleep(Duration::from_millis(2));
            std::thread::current().id()
        }));
        ran.into_iter().collect()
    }

    #[test]
    fn preserves_item_order() {
        let items: Vec<u32> = (0..100).collect();
        let order: Vec<usize> = (0..100).rev().collect(); // process backwards
        let out = one_batch(&items, &order, 4, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u32>>());
    }

    /// A pool of one thread spawns none: every item runs inline on the
    /// caller's thread, with worker 0's state.
    #[test]
    fn single_thread_runs_inline_on_the_caller() {
        let pool = WorkerPool::new(1, |w| w);
        let me = std::thread::current().id();
        for _ in 0..3 {
            let items = vec![1, 2, 3];
            let out = complete(pool.run_batch_catching(&items, &[2, 0, 1], |w, &x: &i32| {
                assert_eq!(*w, 0, "worker 0's state");
                (x + 1, std::thread::current().id())
            }));
            assert_eq!(out, vec![(2, me), (3, me), (4, me)]);
        }
        assert_eq!(pool.threads_spawned(), 0);
    }

    /// At `threads = N` items run on at most N distinct threads, and the
    /// caller is one of them.
    #[test]
    fn items_run_on_at_most_threads_threads_the_caller_among_them() {
        let me = std::thread::current().id();
        for threads in [2, 3] {
            let pool = WorkerPool::new(threads, |_| ());
            let mut seen = HashSet::new();
            for _ in 0..4 {
                let ran = threads_of_a_batch(&pool, 8 * threads);
                assert!(ran.contains(&me), "the caller ran no item: {ran:?}");
                seen.extend(ran);
            }
            assert!(seen.len() <= threads, "{} threads at {threads}", seen.len());
            assert_eq!(pool.threads_spawned(), threads - 1);
        }
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
        assert_eq!(pool.threads_spawned(), 3, "threads spawned once per pool");
    }

    #[test]
    fn worker_state_is_built_once_per_worker() {
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
        assert_eq!(pool.threads_spawned(), 3);
    }

    /// An item that panics on the caller's thread is reported with its
    /// index, and worker 0's state is rebuilt before its next item.
    #[test]
    fn a_panic_on_the_callers_thread_rebuilds_worker_0() {
        let built = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&built);
        let pool = WorkerPool::new(1, move |w| {
            assert_eq!(w, 0);
            counter.fetch_add(1, Ordering::Relaxed);
            0u32 // items served since the state was built
        });
        let items: Vec<u32> = (0..6).collect();
        let out = pool.run_batch_catching(&items, &[0, 1, 2, 3, 4, 5], |served, &x| {
            *served += 1;
            if x == 3 {
                panic!("poison pill {x}");
            }
            *served
        });
        assert_eq!(out.panics.len(), 1, "{:?}", out.panics);
        assert_eq!(out.panics[0].index, 3);
        assert!(out.panics[0].message.contains("poison pill 3"));
        // Items 0..3 counted 1..=3 on the first state; 4 and 5 on a new one.
        assert_eq!(
            out.results,
            vec![Some(1), Some(2), Some(3), None, Some(1), Some(2)]
        );
        assert_eq!(
            built.load(Ordering::Relaxed),
            2,
            "worker 0's state rebuilt once"
        );
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

    /// With no worker able to build a state, every item comes back as
    /// abandoned rather than lost.
    #[test]
    fn a_pool_with_no_state_reports_every_item() {
        let pool = WorkerPool::new(1, |_| panic!("no state"));
        let out = pool.run_batch_catching(&[1u8, 2], &[0, 1], |(), &x: &u8| x);
        assert_eq!(out.results, vec![None, None]);
        let idx: Vec<usize> = out.panics.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![0, 1]);
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
        assert_eq!(pool.threads_spawned(), 1);
    }

    #[test]
    fn dropping_an_unused_pool_spawns_nothing() {
        let pool = WorkerPool::new(4, |_| ());
        drop(pool); // and no deadlock joining
    }

    /// Workers that just checked out are spinning on the epoch; a drop
    /// right after the batch must release them at once, not once the spin
    /// window has run out. The fastest of several drops is the measure, so
    /// a host busy elsewhere cannot fail it.
    #[test]
    fn dropping_right_after_a_batch_does_not_wait_out_the_spin() {
        let fastest = (0..20)
            .map(|_| {
                let pool = WorkerPool::new(3, |_| ());
                threads_of_a_batch(&pool, 6);
                let t = Instant::now();
                drop(pool);
                t.elapsed()
            })
            .min()
            .unwrap();
        assert!(fastest < SPIN / 2, "fastest drop took {fastest:?}");
    }
}
