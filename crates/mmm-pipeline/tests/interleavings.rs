//! Model-checked interleaving audits of the pipeline synchronization
//! protocols, run with the vendored `loom-lite` cooperative scheduler.
//!
//! The existing fault tests catch timing bugs only when the OS happens to
//! schedule the bad interleaving; these tests *enumerate* the schedules. Each
//! model is a faithful abstraction of one protocol from `mmm-pipeline`:
//!
//! * the persistent worker pool's epoch/check-in barrier (`pool.rs`), with
//!   the submitter draining items as worker 0, both spins (a worker's on
//!   the epoch hint, the submitter's on the checked-in hint) reading their
//!   atomic before the mutex, and a shutdown that may land mid-spin;
//!   including the per-item panic path (panicking items are recorded and the
//!   thread still checks out) and the state-factory-failure path (a stateless
//!   worker claims nothing and never wedges the barrier);
//! * the 3-thread pipeline's bounded-channel stage coupling, abstracted as
//!   two capacity-2 condvar ring buffers (`sync_channel(2)` in the real
//!   code: the caller's read-ahead channel in front of `mmm_pipeline::run`,
//!   as `manymap map` runs it, and the pipeline's own channel to its
//!   writer).
//!
//! Two further runs are deliberately broken — near-miss variants of the
//! pool protocol, one that deadlocks and one that races — and assert that
//! the checker *catches* them, so a regression in the checker itself cannot
//! silently pass the real models.
//!
//! Schedule bounds (documented in DESIGN.md §8): both models run three
//! threads, beyond exhaustive reach, so they are explored under a
//! CHESS-style preemption bound of 2, which is known to expose the
//! overwhelming majority of real interleaving bugs while keeping the
//! schedule count polynomial.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use loom_lite::sync::atomic::AtomicUsize;
use loom_lite::sync::{Condvar, Mutex, RaceCell};
use loom_lite::{thread, Builder};

// ---------------------------------------------------------------------------
// Model 1: the worker pool's epoch/check-in barrier.
// ---------------------------------------------------------------------------

/// Spawned workers in the model: with the submitter as worker 0, a pool of
/// three threads.
const WORKERS: usize = 2;

/// Hint reads a spin makes before it falls back to the mutex. The real
/// spin re-checks for `pool::SPIN`; one read already puts a scheduling
/// point between the hint and the lock, and two let a shutdown land
/// between reads of one spin.
const SPIN_CHECKS: usize = 2;

/// Shared pool state mirroring `pool.rs`'s `Slot`: the epoch stamp, the
/// published job (just its length here), the checked-in and parked counts,
/// the shutdown flag and the caught-panic log.
struct SlotState {
    epoch: usize,
    job_len: Option<usize>,
    serving: usize,
    parked: usize,
    submitter_parked: bool,
    shutdown: bool,
    panics: Vec<usize>,
}

/// How a model execution departs from the real protocol.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The protocol as `pool.rs` runs it.
    Faithful,
    /// A worker whose item panicked bails out without checking out.
    SkipCheckOutOnPanic,
    /// The submitter treats a dry claim counter as the end of the batch and
    /// skips the check-in barrier: every item is claimed, but the last
    /// worker may still be writing its result.
    TrustClaimCounter,
}

/// `pool.rs`'s `Shared`, with the results buffer: one race-checked cell
/// per item, written without a lock exactly as the real pool writes them.
struct PoolModel {
    slot: Mutex<SlotState>,
    work_cv: Condvar,
    done_cv: Condvar,
    next: AtomicUsize,
    epoch_hint: AtomicUsize,
    serving_hint: AtomicUsize,
    results: Vec<RaceCell<Option<usize>>>,
}

/// The spin before a park: up to [`SPIN_CHECKS`] reads of a hint.
fn spin(ready: impl Fn() -> bool) {
    for _ in 0..SPIN_CHECKS {
        if ready() {
            return;
        }
    }
}

/// Claim and process items until the counter runs dry, as `pool.rs`'s
/// `drain`. Item `panic_item` panics: it is recorded and the state rebuilt
/// (the real code's per-item `catch_unwind`), and its slot stays `None`.
/// Returns false when `variant` makes the panicking worker bail out.
fn drain(
    m: &PoolModel,
    len: usize,
    state: &mut Option<()>,
    panic_item: Option<usize>,
    variant: Variant,
) -> bool {
    while state.is_some() {
        let k = m.next.fetch_add(1);
        if k >= len {
            break;
        }
        if panic_item == Some(k) {
            m.slot.lock().panics.push(k);
            *state = Some(());
            if variant == Variant::SkipCheckOutOnPanic {
                return false;
            }
        } else {
            m.results[k].set(Some(k * 2));
        }
    }
    true
}

/// One spawned worker's loop, as `pool.rs`'s `worker_loop`.
fn pool_worker(m: &PoolModel, mut state: Option<()>, panic_item: Option<usize>, variant: Variant) {
    let mut seen = 0usize;
    loop {
        // Spin on the epoch hint, then wait under the mutex; shutdown bumps
        // the epoch.
        spin(|| m.epoch_hint.load() != seen);
        let len = {
            let mut g = m.slot.lock();
            if g.epoch == seen {
                g.parked += 1;
                while g.epoch == seen {
                    g = m.work_cv.wait(g);
                }
                g.parked -= 1;
            }
            if g.shutdown {
                return;
            }
            seen = g.epoch;
            // Retired before this worker woke: wait for the next epoch.
            let Some(len) = g.job_len else {
                continue;
            };
            g.serving += 1;
            m.serving_hint.store(g.serving);
            len
        };
        if !drain(m, len, &mut state, panic_item, variant) {
            return; // BROKEN: never checks out
        }
        // Check out (the real code does this via a drop guard so it also
        // fires while unwinding).
        let mut g = m.slot.lock();
        g.serving -= 1;
        m.serving_hint.store(g.serving);
        if g.serving == 0 && g.submitter_parked {
            m.done_cv.notify_all();
        }
    }
}

/// One explored execution of the pool protocol: the submitter publishes
/// `batches` jobs of `items` items, drains each itself as worker 0 beside
/// [`WORKERS`] persistent workers, and waits on the check-in barrier.
///
/// `worker1_stateless` models a state factory that panicked: the worker
/// claims nothing but must never wedge the barrier. `panic_item` models a
/// `map` panic on that item index, on whichever thread claims it. Every
/// batch's results are read at its barrier and judged after the join, so
/// a result written behind the barrier's back is reported as the data
/// race it is rather than as a wrong value.
fn pool_execution(
    batches: usize,
    items: usize,
    worker1_stateless: bool,
    panic_item: Option<usize>,
    variant: Variant,
) {
    let m = Arc::new(PoolModel {
        slot: Mutex::new(SlotState {
            epoch: 0,
            job_len: None,
            serving: 0,
            parked: 0,
            submitter_parked: false,
            shutdown: false,
            panics: Vec::new(),
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        next: AtomicUsize::new(0),
        epoch_hint: AtomicUsize::new(0),
        serving_hint: AtomicUsize::new(0),
        results: (0..items).map(|_| RaceCell::new(None)).collect(),
    });

    let workers: Vec<_> = (1..=WORKERS)
        .map(|w| {
            let m = Arc::clone(&m);
            // `make_state` ran once at spawn; `None` = the factory panicked.
            let state = (!(w == 1 && worker1_stateless)).then_some(());
            thread::spawn(move || pool_worker(&m, state, panic_item, variant))
        })
        .collect();

    // The submitter (the pipeline's compute stage), worker 0.
    let mut state = Some(());
    let mut seen = Vec::new();
    for _ in 0..batches {
        for cell in &m.results {
            cell.set(None);
        }
        m.next.store(0);
        {
            let mut g = m.slot.lock();
            g.epoch += 1;
            g.job_len = Some(items);
            m.epoch_hint.store(g.epoch);
            if g.parked > 0 {
                m.work_cv.notify_all();
            }
        }
        // A panic here is the submitter's own: it never bails out.
        drain(&m, items, &mut state, panic_item, Variant::Faithful);
        // Check-in barrier: only after it may the job borrows be released.
        let panics = {
            if variant != Variant::TrustClaimCounter {
                spin(|| m.serving_hint.load() == 0);
            }
            let mut g = m.slot.lock();
            if variant != Variant::TrustClaimCounter && g.serving > 0 {
                g.submitter_parked = true;
                while g.serving > 0 {
                    g = m.done_cv.wait(g);
                }
                g.submitter_parked = false;
            }
            g.job_len = None;
            std::mem::take(&mut g.panics)
        };
        let results: Vec<Option<usize>> = m.results.iter().map(RaceCell::get).collect();
        seen.push((results, panics));
    }
    {
        let mut g = m.slot.lock();
        g.shutdown = true;
        g.epoch += 1;
        m.epoch_hint.store(g.epoch);
        m.work_cv.notify_all();
    }
    for h in workers {
        h.join();
    }

    // Barrier post-conditions per batch.
    for (results, panics) in seen {
        for (i, r) in results.iter().enumerate() {
            if panic_item == Some(i) {
                assert!(r.is_none(), "panicked item {i} must have no result");
                assert!(panics.contains(&i), "panicked item {i} must be recorded");
            } else {
                assert_eq!(*r, Some(i * 2), "item {i} processed exactly once");
            }
        }
    }
}

/// Explore every schedule at preemption bound 2.
fn explore(f: impl Fn() + Send + Sync + 'static) -> loom_lite::Report {
    let report = Builder {
        max_preemptions: Some(2),
        ..Builder::default()
    }
    .check(f);
    assert!(report.complete, "exploration hit the schedule cap");
    report
}

/// The check-in barrier releases the submitter on every schedule, with
/// every item processed exactly once and every result published to it —
/// the property that makes the pool's lifetime-erased job pointers sound.
/// The schedules include workers that wake after the submitter drained
/// and retired a job, and a shutdown that lands while a worker spins.
#[test]
fn pool_barrier_all_schedules_clean() {
    let report = explore(|| pool_execution(2, 2, false, None, Variant::Faithful));
    println!(
        "pool barrier: {} schedules at preemption bound 2",
        report.schedules
    );
}

/// A worker whose state factory panicked claims no items but still checks
/// in: the barrier must release and the others must cover the whole batch.
#[test]
fn pool_stateless_worker_never_wedges_the_barrier() {
    explore(|| pool_execution(2, 2, true, None, Variant::Faithful));
}

/// A `map` panic is recorded per item, on the submitter as on a worker,
/// and the thread rebuilds and continues; the barrier still releases on
/// every schedule.
#[test]
fn pool_item_panic_still_checks_in() {
    explore(|| pool_execution(1, 3, false, Some(1), Variant::Faithful));
}

/// The panic message of a model run that must fail.
fn model_failure(f: impl Fn() + Send + Sync + 'static) -> String {
    let result = catch_unwind(AssertUnwindSafe(|| {
        Builder {
            max_preemptions: Some(2),
            ..Builder::default()
        }
        .check(f);
    }));
    match result {
        Ok(()) => panic!("the broken protocol was not detected"),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".into()),
    }
}

/// Checker meta-test: the near-miss variant where a panicking worker skips
/// its check-out must be reported — the submitter waits on `done_cv`
/// forever.
#[test]
fn pool_missing_checkin_is_caught() {
    let msg = model_failure(|| pool_execution(1, 3, false, Some(1), Variant::SkipCheckOutOnPanic));
    assert!(
        msg.contains("deadlock"),
        "expected a deadlock report, got: {msg}"
    );
}

/// Checker meta-test: a submitter that returns once the claim counter is
/// dry, before the last worker's result write is published to it, must be
/// reported as a data race on that result.
#[test]
fn pool_return_on_a_dry_counter_is_caught() {
    let msg = model_failure(|| pool_execution(1, 2, false, None, Variant::TrustClaimCounter));
    assert!(
        msg.contains("data race"),
        "expected a data race, got: {msg}"
    );
}

// ---------------------------------------------------------------------------
// Model 2: the 3-thread pipeline's bounded-channel coupling.
// ---------------------------------------------------------------------------

/// A condvar-based bounded queue abstracting `std::sync::mpsc::sync_channel`:
/// `send` parks while full, `recv` parks while empty, and closing wakes every
/// parked receiver (`recv` then drains the buffer before reporting
/// disconnect, exactly like `mpsc`).
struct BoundedQueue {
    state: Mutex<(VecDeque<usize>, bool)>, // (buffer, closed)
    not_full: Condvar,
    not_empty: Condvar,
    cap: usize,
}

impl BoundedQueue {
    fn new(cap: usize) -> Self {
        BoundedQueue {
            state: Mutex::new((VecDeque::new(), false)),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            cap,
        }
    }

    /// Returns false when the receiving side is gone.
    fn send(&self, v: usize) -> bool {
        let mut g = self.state.lock();
        while g.0.len() == self.cap && !g.1 {
            g = self.not_full.wait(g);
        }
        if g.1 {
            return false;
        }
        g.0.push_back(v);
        self.not_empty.notify_all();
        true
    }

    fn recv(&self) -> Option<usize> {
        let mut g = self.state.lock();
        loop {
            if let Some(v) = g.0.pop_front() {
                self.not_full.notify_all();
                return Some(v);
            }
            if g.1 {
                return None;
            }
            g = self.not_empty.wait(g);
        }
    }

    fn close(&self) {
        let mut g = self.state.lock();
        g.1 = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// One explored execution of the 3-stage pipeline: reader → compute → writer
/// over two capacity-2 queues, with EOF propagating as channel closure
/// (the caller's reader dropping its sender, then `run` dropping `out_tx`,
/// in the real code).
fn three_stage_execution(n_batches: usize) {
    let chan_in = Arc::new(BoundedQueue::new(2));
    let chan_out = Arc::new(BoundedQueue::new(2));
    let written = Arc::new(Mutex::new(Vec::<usize>::new()));

    let reader = {
        let chan_in = Arc::clone(&chan_in);
        thread::spawn(move || {
            for b in 0..n_batches {
                if !chan_in.send(b) {
                    break;
                }
            }
            chan_in.close(); // EOF: dropping in_tx closes the channel
        })
    };
    let writer = {
        let chan_out = Arc::clone(&chan_out);
        let written = Arc::clone(&written);
        thread::spawn(move || {
            while let Some(v) = chan_out.recv() {
                written.lock().push(v);
            }
        })
    };
    // Compute stage runs on this thread and pulls each batch, like `run`.
    while let Some(b) = chan_in.recv() {
        if !chan_out.send(b * 10) {
            break;
        }
    }
    chan_out.close();
    reader.join();
    writer.join();

    assert_eq!(
        written.lock().clone(),
        (0..n_batches).map(|b| b * 10).collect::<Vec<_>>(),
        "the 3-stage pipeline must deliver every batch, in order"
    );
}

/// The reader/compute/writer coupling delivers every batch in order and
/// shuts down on EOF without deadlock on every schedule at preemption
/// bound 2 (3 threads are beyond exhaustive reach; see DESIGN.md §8).
#[test]
fn three_stage_channels_all_bounded_schedules_clean() {
    let report = Builder {
        max_preemptions: Some(2),
        ..Builder::default()
    }
    .check(|| three_stage_execution(3));
    assert!(report.complete, "exploration hit the schedule cap");
    println!(
        "three-stage channels: {} schedules at preemption bound 2",
        report.schedules
    );
}
