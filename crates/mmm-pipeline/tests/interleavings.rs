//! Model-checked interleaving audits of the pipeline synchronization
//! protocols, run with the vendored `loom-lite` cooperative scheduler.
//!
//! The existing fault tests catch timing bugs only when the OS happens to
//! schedule the bad interleaving; these tests *enumerate* the schedules. Each
//! model is a faithful abstraction of one protocol from `mmm-pipeline`:
//!
//! * the persistent worker pool's epoch/check-in barrier (`pool.rs`),
//!   including the per-item panic path (panicking items are recorded and the
//!   worker still checks in) and the state-factory-failure path (a stateless
//!   worker claims nothing but still checks in);
//! * the 3-thread pipeline's bounded-channel stage coupling, abstracted as
//!   two capacity-2 condvar ring buffers (`sync_channel(2)` in the real
//!   code: the caller's read-ahead channel in front of `mmm_pipeline::run`,
//!   as `manymap map` runs it, and the pipeline's own channel to its
//!   writer).
//!
//! One further model is deliberately broken — a near-miss variant of the
//! pool protocol — and asserts that the checker *catches* it, so a
//! regression in the checker itself cannot silently pass the real models.
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
use loom_lite::sync::{Condvar, Mutex};
use loom_lite::{thread, Builder};

// ---------------------------------------------------------------------------
// Model 1: the worker pool's epoch/check-in barrier.
// ---------------------------------------------------------------------------

/// Shared pool state mirroring `pool.rs`'s `Slot`: the epoch stamp, the
/// check-in count, the shutdown flag, the published job (just its length
/// here), and the caught-panic log.
struct SlotState {
    epoch: u64,
    checked_in: usize,
    shutdown: bool,
    job_len: Option<usize>,
    panics: Vec<usize>,
}

/// One explored execution of the pool protocol: a submitter publishes
/// `batches` jobs of `items` items to 2 persistent workers and waits on the
/// check-in barrier for each.
///
/// `worker1_stateless` models a state factory that panicked: the worker must
/// claim nothing yet still check in every epoch. `panic_item` models a `map`
/// panic on that item index: the claiming worker records it and moves on
/// (the real code's per-item `catch_unwind` + state rebuild), and the barrier
/// must still release the submitter. `broken_skip_checkin_on_panic` is the
/// near-miss variant where the panicking worker forgets to check in.
fn pool_execution(
    batches: usize,
    items: usize,
    worker1_stateless: bool,
    panic_item: Option<usize>,
    broken_skip_checkin_on_panic: bool,
) {
    const THREADS: usize = 2;
    let slot = Arc::new(Mutex::new(SlotState {
        epoch: 0,
        checked_in: THREADS, // pre-batch steady state: nobody owes a check-in
        shutdown: false,
        job_len: None,
        panics: Vec::new(),
    }));
    let work_cv = Arc::new(Condvar::new());
    let done_cv = Arc::new(Condvar::new());
    let next = Arc::new(AtomicUsize::new(0));
    let results = Arc::new(Mutex::new(Vec::<Option<usize>>::new()));

    let mut workers = Vec::new();
    for w in 0..THREADS {
        let slot = Arc::clone(&slot);
        let work_cv = Arc::clone(&work_cv);
        let done_cv = Arc::clone(&done_cv);
        let next = Arc::clone(&next);
        let results = Arc::clone(&results);
        workers.push(thread::spawn(move || {
            // `make_state` ran once at spawn; `None` = the factory panicked.
            let mut state = if w == 1 && worker1_stateless {
                None
            } else {
                Some(())
            };
            let mut seen_epoch = 0u64;
            loop {
                // Wait for a fresh epoch (or shutdown) and copy its job.
                let len = {
                    let mut g = slot.lock();
                    loop {
                        if g.shutdown {
                            return;
                        }
                        if g.epoch != seen_epoch {
                            seen_epoch = g.epoch;
                            if let Some(len) = g.job_len {
                                break len;
                            }
                        }
                        g = work_cv.wait(g);
                    }
                };
                // Drain the claim counter with disjoint indices.
                let mut owes_checkin = true;
                while state.is_some() {
                    let k = next.fetch_add(1);
                    if k >= len {
                        break;
                    }
                    if panic_item == Some(k) {
                        // `map` panicked on item k: record it, rebuild state,
                        // keep draining — the item's slot stays `None`.
                        slot.lock().panics.push(k);
                        state = Some(());
                        if broken_skip_checkin_on_panic {
                            // BROKEN: bail without checking in; the submitter
                            // waits for this worker forever.
                            owes_checkin = false;
                            break;
                        }
                    } else {
                        results.lock()[k] = Some(k * 2);
                    }
                }
                // Check in (the real code does this via a drop guard so it
                // also fires while unwinding).
                if owes_checkin {
                    let mut g = slot.lock();
                    g.checked_in += 1;
                    if g.checked_in == THREADS {
                        done_cv.notify_all();
                    }
                } else {
                    return;
                }
            }
        }));
    }

    // Submitter (the pipeline's compute stage).
    for _ in 0..batches {
        results.lock().clear();
        for _ in 0..items {
            results.lock().push(None);
        }
        next.store(0);
        {
            let mut g = slot.lock();
            g.epoch += 1;
            g.checked_in = 0;
            g.panics.clear();
            g.job_len = Some(items);
            work_cv.notify_all();
        }
        // Check-in barrier: only after it may the job borrows be released.
        let panics = {
            let mut g = slot.lock();
            while g.checked_in != THREADS {
                g = done_cv.wait(g);
            }
            g.job_len = None;
            std::mem::take(&mut g.panics)
        };
        // Barrier post-conditions per batch.
        let res = results.lock().clone();
        for (i, r) in res.iter().enumerate() {
            if panic_item == Some(i) {
                assert!(r.is_none(), "panicked item {i} must have no result");
                assert!(panics.contains(&i), "panicked item {i} must be recorded");
            } else {
                assert_eq!(*r, Some(i * 2), "item {i} processed exactly once");
            }
        }
    }
    {
        let mut g = slot.lock();
        g.shutdown = true;
        work_cv.notify_all();
    }
    for h in workers {
        h.join();
    }
}

/// The epoch/check-in barrier releases the submitter on every schedule, with
/// every item processed exactly once — the property that makes the pool's
/// lifetime-erased job pointers sound.
#[test]
fn pool_barrier_all_schedules_clean() {
    let report = Builder {
        max_preemptions: Some(2),
        ..Builder::default()
    }
    .check(|| pool_execution(2, 2, false, None, false));
    assert!(report.complete, "exploration hit the schedule cap");
    println!(
        "pool barrier: {} schedules at preemption bound 2",
        report.schedules
    );
}

/// A worker whose state factory panicked claims no items but still checks in:
/// the barrier must release and the other worker must cover the whole batch.
#[test]
fn pool_stateless_worker_never_wedges_the_barrier() {
    let report = Builder {
        max_preemptions: Some(2),
        ..Builder::default()
    }
    .check(|| pool_execution(2, 2, true, None, false));
    assert!(report.complete, "exploration hit the schedule cap");
}

/// A `map` panic is recorded per item and the worker rebuilds and continues;
/// the barrier still releases on every schedule.
#[test]
fn pool_item_panic_still_checks_in() {
    let report = Builder {
        max_preemptions: Some(2),
        ..Builder::default()
    }
    .check(|| pool_execution(1, 3, false, Some(1), false));
    assert!(report.complete, "exploration hit the schedule cap");
}

/// Checker meta-test: the near-miss variant where a panicking worker skips
/// its check-in must be reported — the submitter waits on `done_cv` forever.
#[test]
fn pool_missing_checkin_is_caught() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        Builder {
            max_preemptions: Some(2),
            ..Builder::default()
        }
        .check(|| pool_execution(1, 3, false, Some(1), true));
    }));
    let msg = match result {
        Ok(_) => panic!("the missing check-in was not detected"),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".into()),
    };
    assert!(
        msg.contains("deadlock"),
        "expected a deadlock report, got: {msg}"
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
