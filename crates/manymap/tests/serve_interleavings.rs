//! Model-checked interleavings of the serve layer's scheduling protocols
//! (`serve/sched.rs`, `serve/tenant.rs`, `serve/server.rs`), explored with
//! the vendored `loom-lite` scheduler. Every schedule also runs under the
//! happens-before race detector and the lock-order detector.
//!
//! Four protocols are modelled:
//!
//! * **DRR output-credit gating** — the deficit-round-robin scheduler
//!   forwards a tenant's reads into the shared pipeline only while
//!   `credit = outq_capacity - in_flight` is positive, where
//!   `in_flight = scheduled - sent`. The property: the shared pipeline
//!   writer delivers into per-tenant output queues with a non-blocking
//!   `try_push` that **never fails** — a slow (here: completely stalled)
//!   consumer caps its own tenant at `outq_capacity` in-flight reads and
//!   never wedges the writer or starves the fast tenant.
//!
//! * **the pull's wake signal** — the pipeline's compute stage pulls a
//!   batch (`DrrScheduler::pull`) and, when nothing is schedulable, waits on
//!   the registry's wake epoch (`TenantRegistry::{wake_epoch,
//!   wait_for_wake, wake}`). It reads the epoch *before* scanning the
//!   queues and waits only while the epoch is unchanged, so a READ pushed
//!   between the scan and the wait, or output credit a session writer frees
//!   there, still wakes it — on every interleaving, with no timeout to fall
//!   back on.
//!
//! * **signal-drain flush** — SIGTERM flips an atomic drain flag; session
//!   readers stop accepting new frames, but every read already accepted
//!   into a tenant input queue must still be pulled before the pull returns
//!   `None` (draining, no active reader, every input queue empty), on every
//!   interleaving of reader, signal, and pull.
//!
//! Broken variants keep the checker honest: a creditless scheduler that
//! wedges the writer, a pull that reads the epoch after its scan and
//! sleeps through a wake, and a drain handler that abandons queued reads.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use loom_lite::sync::atomic::{AtomicBool, AtomicUsize};
use loom_lite::sync::{Condvar, Mutex};
use loom_lite::{model, thread, Builder};

/// Trimmed model port of `mmm_pipeline::queue::BoundedQueue<usize>` —
/// the same two-condvar protocol, with the non-blocking `try_push` the
/// pipeline writer uses for tenant output queues.
struct ModelQueue {
    inner: Mutex<(VecDeque<usize>, bool)>,
    items_cv: Condvar,
    space_cv: Condvar,
    capacity: usize,
}

impl ModelQueue {
    fn new(capacity: usize) -> Self {
        ModelQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            items_cv: Condvar::new(),
            space_cv: Condvar::new(),
            capacity,
        }
    }

    fn push(&self, item: usize) -> Result<(), usize> {
        let mut g = self.inner.lock();
        loop {
            if g.1 {
                return Err(item);
            }
            if g.0.len() < self.capacity {
                g.0.push_back(item);
                drop(g);
                self.items_cv.notify_one();
                return Ok(());
            }
            g = self.space_cv.wait(g);
        }
    }

    /// `BoundedQueue::try_push`: the writer-side call under test — must
    /// never block, and under credit gating must never find the queue full.
    fn try_push(&self, item: usize) -> Result<(), usize> {
        let mut g = self.inner.lock();
        if g.1 || g.0.len() >= self.capacity {
            return Err(item);
        }
        g.0.push_back(item);
        drop(g);
        self.items_cv.notify_one();
        Ok(())
    }

    fn try_pop(&self) -> Option<usize> {
        let mut g = self.inner.lock();
        let item = g.0.pop_front();
        if item.is_some() {
            drop(g);
            self.space_cv.notify_one();
        }
        item
    }

    fn pop(&self) -> Option<usize> {
        let mut g = self.inner.lock();
        loop {
            if let Some(item) = g.0.pop_front() {
                drop(g);
                self.space_cv.notify_one();
                return Some(item);
            }
            if g.1 {
                return None;
            }
            g = self.items_cv.wait(g);
        }
    }

    fn is_empty(&self) -> bool {
        self.inner.lock().0.is_empty()
    }

    fn close(&self) {
        self.inner.lock().1 = true;
        self.items_cv.notify_all();
        self.space_cv.notify_all();
    }
}

/// One tenant of the DRR model: an input backlog, a bounded output queue,
/// and the `scheduled`/`sent` counters the credit gate reads
/// (`TenantState::in_flight` in `serve/tenant.rs`).
struct Tenant {
    inq: ModelQueue,
    outq: ModelQueue,
    scheduled: AtomicUsize,
    sent: AtomicUsize,
}

impl Tenant {
    fn new(inq_backlog: &[usize], outq_capacity: usize) -> Self {
        let t = Tenant {
            inq: ModelQueue::new(inq_backlog.len().max(1)),
            outq: ModelQueue::new(outq_capacity),
            scheduled: AtomicUsize::new(0),
            sent: AtomicUsize::new(0),
        };
        for &r in inq_backlog {
            t.inq.push(r).expect("backlog fits by construction");
        }
        t
    }

    /// `DrrScheduler::credit`: output capacity minus in-flight reads.
    fn credit(&self) -> usize {
        let in_flight = self.scheduled.load() - self.sent.load();
        self.outq.capacity.saturating_sub(in_flight)
    }
}

/// Reads are tagged with their tenant in the high bit so the single
/// shared writer can route them, as the real pipeline does by read id.
const SLOW_TAG: usize = 0x100;

/// One explored execution of the DRR credit protocol. `gate_on_credit`
/// selects the real scheduler (`true`) or the broken creditless variant
/// that forwards the whole backlog regardless of output-queue space.
fn drr_execution(gate_on_credit: bool) {
    // Fast tenant: backlog 2, output capacity 2, a live consumer.
    // Slow tenant: backlog 2, output capacity 1, consumer stalled forever.
    let fast = Arc::new(Tenant::new(&[0, 1], 2));
    let slow = Arc::new(Tenant::new(&[SLOW_TAG, SLOW_TAG | 1], 1));
    // The shared pipeline hand-off; sized so the scheduler never blocks.
    let pipe = Arc::new(ModelQueue::new(4));

    // The single shared pipeline writer: routes each read to its tenant's
    // output queue with a non-blocking push. Credit gating is exactly the
    // guarantee that this push always finds space.
    let writer = {
        let (fast, slow, pipe) = (Arc::clone(&fast), Arc::clone(&slow), Arc::clone(&pipe));
        thread::spawn(move || {
            while let Some(r) = pipe.pop() {
                let tenant = if r & SLOW_TAG != 0 { &slow } else { &fast };
                assert!(
                    tenant.outq.try_push(r).is_ok(),
                    "a stalled consumer wedged the shared writer (outq full for read {r:#x})"
                );
            }
            fast.outq.close();
            slow.outq.close();
        })
    };

    // The fast tenant's consumer: drains its output queue as results land,
    // crediting the tenant back via `sent` (the real flow through
    // `TenantState::sent` and the per-session writer).
    let consumer = {
        let fast = Arc::clone(&fast);
        thread::spawn(move || {
            while fast.outq.pop().is_some() {
                fast.sent.fetch_add(1);
            }
        })
    };

    // The DRR scheduler (two rounds is enough to fully serve the fast
    // tenant and prove the slow tenant is capped, on every schedule).
    for _round in 0..2 {
        for tenant in [&fast, &slow] {
            while (if gate_on_credit { tenant.credit() } else { 1 }) > 0 {
                match tenant.inq.try_pop() {
                    Some(r) => {
                        tenant.scheduled.fetch_add(1);
                        pipe.push(r).expect("pipe closes only after the rounds");
                    }
                    None => break,
                }
            }
        }
    }
    pipe.close();

    writer.join();
    consumer.join();

    // The slow tenant is capped at its output capacity, not starved and
    // not over-scheduled; its unscheduled backlog is intact.
    assert_eq!(slow.scheduled.load(), 1, "credit gate missed");
    assert!(!slow.inq.is_empty(), "over-scheduled past the credit cap");
    // The fast tenant is fully served despite sharing the writer with a
    // stalled neighbour.
    assert_eq!(fast.scheduled.load(), 2, "fast tenant starved");
    assert_eq!(fast.sent.load(), 2, "fast tenant lost a result");
}

/// The real credit-gated scheduler: explored with a CHESS preemption
/// bound (three threads, but many scheduling points per thread).
#[test]
fn drr_credit_gate_never_wedges_the_writer() {
    let report = Builder {
        max_preemptions: Some(2),
        ..Builder::default()
    }
    .check(|| drr_execution(true));
    assert!(report.complete, "exploration truncated: {report:?}");
    assert!(report.schedules > 10, "{report:?}");
}

/// Canary: the creditless scheduler must be caught — it forwards both
/// slow-tenant reads and the writer's non-blocking push finds the
/// 1-capacity output queue full.
#[test]
fn canary_creditless_scheduler_is_caught() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        Builder {
            max_preemptions: Some(2),
            ..Builder::default()
        }
        .check(|| drr_execution(false));
    }));
    let msg = match result {
        Ok(_) => panic!("the creditless scheduler explored clean"),
        Err(p) => p.downcast_ref::<String>().cloned().unwrap_or_default(),
    };
    assert!(
        msg.contains("wedged the shared writer"),
        "unexpected failure: {msg}"
    );
}

/// The registry's wake signal (`TenantRegistry::{wake, wake_epoch,
/// wait_for_wake}`): an epoch under a mutex plus a condvar. The model's
/// wait has no timeout — the real one's `POLL` would only turn a lost wake
/// into a 50 ms stall, which is the bug these models rule out.
struct Wake {
    epoch: Mutex<usize>,
    cv: Condvar,
}

impl Wake {
    fn new() -> Self {
        Wake {
            epoch: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn wake(&self) {
        *self.epoch.lock() += 1;
        self.cv.notify_all();
    }

    fn epoch(&self) -> usize {
        *self.epoch.lock()
    }

    fn wait_for_wake(&self, seen: usize) {
        let mut g = self.epoch.lock();
        while *g == seen {
            g = self.cv.wait(g);
        }
    }

    /// [`wait_for_wake`](Self::wait_for_wake) bounded by the real `POLL`
    /// timeout, which the model fires at quiescence.
    fn wait_for_wake_or_poll(&self, seen: usize) {
        let mut g = self.epoch.lock();
        while *g == seen {
            let (g2, timed_out) = self.cv.wait_timeout(g, Duration::from_millis(50));
            g = g2;
            if timed_out {
                return;
            }
        }
    }
}

/// One pull as `DrrScheduler::pull` runs it, over one tenant: read the
/// epoch, scan (a read is schedulable when queued and the tenant has
/// credit), and wait while the epoch is unchanged. `epoch_after_scan` is
/// the broken variant that reads the epoch only once the scan came up
/// empty.
fn pull_one(wake: &Wake, tenant: &Tenant, epoch_after_scan: bool) -> usize {
    loop {
        let early = wake.epoch();
        if tenant.credit() > 0 {
            if let Some(r) = tenant.inq.try_pop() {
                tenant.scheduled.fetch_add(1);
                return r;
            }
        }
        let seen = if epoch_after_scan {
            wake.epoch()
        } else {
            early
        };
        wake.wait_for_wake(seen);
    }
}

/// A session reader pushes a READ and signals while the pull scans and
/// waits; the pull must still take the read.
fn read_wake_execution(epoch_after_scan: bool) {
    let wake = Arc::new(Wake::new());
    let tenant = Arc::new(Tenant::new(&[], 1));
    let reader = {
        let (wake, tenant) = (Arc::clone(&wake), Arc::clone(&tenant));
        thread::spawn(move || {
            tenant.inq.push(7).expect("inq never closes");
            wake.wake();
        })
    };
    assert_eq!(pull_one(&wake, &tenant, epoch_after_scan), 7);
    reader.join();
}

/// A tenant's read is queued but its output credit is spent; its session
/// writer sends a record, freeing the credit, and signals. The pull must
/// take the read.
fn credit_wake_execution(epoch_after_scan: bool) {
    let wake = Arc::new(Wake::new());
    let tenant = Arc::new(Tenant::new(&[9], 1));
    tenant.scheduled.fetch_add(1); // one read in flight: credit 0
    let writer = {
        let (wake, tenant) = (Arc::clone(&wake), Arc::clone(&tenant));
        thread::spawn(move || {
            tenant.sent.fetch_add(1);
            wake.wake();
        })
    };
    assert_eq!(pull_one(&wake, &tenant, epoch_after_scan), 9);
    writer.join();
}

/// A READ pushed between the pull's scan and its wait is still pulled,
/// on every schedule.
#[test]
fn a_read_pushed_during_the_scan_is_pulled() {
    let report = model(|| read_wake_execution(false));
    assert!(report.complete, "exploration truncated: {report:?}");
    assert!(report.schedules > 3, "{report:?}");
}

/// Output credit freed by a session writer wakes a credit-blocked pull.
#[test]
fn freed_credit_wakes_a_credit_blocked_pull() {
    let report = model(|| credit_wake_execution(false));
    assert!(report.complete, "exploration truncated: {report:?}");
    assert!(report.schedules > 3, "{report:?}");
}

/// Canary: a pull that reads the epoch after its scan sleeps through a wake
/// that lands in between, and the checker must find that schedule.
#[test]
fn canary_epoch_read_after_the_scan_is_caught() {
    for execution in [read_wake_execution, credit_wake_execution] {
        let result = catch_unwind(AssertUnwindSafe(|| {
            model(move || execution(true));
        }));
        let msg = match result {
            Ok(_) => panic!("the late epoch read explored clean"),
            Err(p) => p.downcast_ref::<String>().cloned().unwrap_or_default(),
        };
        assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
    }
}

/// One explored execution of the signal-drain protocol. `flush_backlog`
/// selects the real pull (`true`: end only once draining, no reader is
/// active and the input queue is empty) or the broken variant that stops
/// the moment the flag flips.
fn drain_execution(flush_backlog: bool) {
    let inq = Arc::new(ModelQueue::new(2));
    let wake = Arc::new(Wake::new());
    let drain = Arc::new(AtomicBool::new(false));
    let active_readers = Arc::new(AtomicUsize::new(1));
    let accepted = Arc::new(AtomicUsize::new(0));

    // Session reader: accepts frames until the drain flag is observed,
    // then ends the session. A push already past the drain check is an
    // *accepted* read — the flush guarantee covers it. Each push, and the
    // session's end, signals the pull.
    let reader = {
        let (inq, wake, drain, active_readers, accepted) = (
            Arc::clone(&inq),
            Arc::clone(&wake),
            Arc::clone(&drain),
            Arc::clone(&active_readers),
            Arc::clone(&accepted),
        );
        thread::spawn(move || {
            for r in 0..2 {
                if drain.load() {
                    break;
                }
                inq.push(r).expect("inq never closes");
                accepted.fetch_add(1);
                wake.wake();
            }
            active_readers.store(0);
            wake.wake();
        })
    };

    // The SIGTERM handler: flips the flag at an arbitrary point relative
    // to every reader/pull step, and signals nothing.
    let signal = {
        let drain = Arc::clone(&drain);
        thread::spawn(move || {
            drain.store(true);
        })
    };

    // The pipeline's pulls (`DrrScheduler::pull`): take what is queued;
    // with nothing queued, end only once draining, no reader is active
    // and — the property under test — the input queue is empty; otherwise
    // wait for a wake, or the `POLL` timeout that lets an unsignalled
    // SIGTERM be seen (modelled as a timeout that fires at quiescence).
    let mut forwarded = 0usize;
    loop {
        if !flush_backlog && drain.load() {
            // Broken variant: stop the moment the flag is observed,
            // abandoning whatever the reader already queued.
            break;
        }
        let seen = wake.epoch();
        if inq.try_pop().is_some() {
            forwarded += 1;
            continue;
        }
        if drain.load() && active_readers.load() == 0 && inq.is_empty() {
            break;
        }
        wake.wait_for_wake_or_poll(seen);
    }

    reader.join();
    signal.join();
    assert_eq!(
        forwarded,
        accepted.load(),
        "accepted reads were dropped on drain"
    );
}

/// Every accepted read survives a SIGTERM that lands at any point in the
/// reader/pull interleaving; the pull never ends early and never hangs
/// (the timed wait's quiescence timeout models the real `POLL`). CHESS
/// preemption bound 2 — the unbounded space exceeds the schedule budget.
#[test]
fn drain_flag_flushes_every_accepted_read() {
    let report = Builder {
        max_preemptions: Some(2),
        ..Builder::default()
    }
    .check(|| drain_execution(true));
    assert!(report.complete, "exploration truncated: {report:?}");
    assert!(report.schedules > 10, "{report:?}");
}

/// Canary: the stop-on-flag-alone shutdown must be caught on the
/// schedules where the reader queued reads before the signal landed.
#[test]
fn canary_drain_without_flush_is_caught() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        model(|| drain_execution(false));
    }));
    let msg = match result {
        Ok(_) => panic!("the flush-skipping shutdown explored clean"),
        Err(p) => p.downcast_ref::<String>().cloned().unwrap_or_default(),
    };
    assert!(
        msg.contains("dropped on drain"),
        "unexpected failure: {msg}"
    );
}
