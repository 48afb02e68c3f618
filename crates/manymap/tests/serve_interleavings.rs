//! Model-checked interleavings of the serve layer's two scheduling
//! protocols (`serve/sched.rs`, `serve/signal.rs`), explored with the
//! vendored `loom-lite` scheduler. Every schedule also runs under the
//! happens-before race detector and the lock-order detector.
//!
//! Two protocols are modelled:
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
//! * **signal-drain flush** — SIGTERM flips an atomic drain flag; session
//!   readers stop accepting new frames, but every read already accepted
//!   into a tenant input queue must still be forwarded before the
//!   scheduler shuts the pipeline down, on every interleaving of reader,
//!   signal, and scheduler.
//!
//! Broken variants keep the checker honest: a creditless scheduler that
//! wedges the writer, and a drain handler that abandons queued reads.
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

    /// `BoundedQueue::pop_timeout`, one abstract timeout per call. In the
    /// model the timeout fires only at quiescence, which is exactly the
    /// real scheduler's poll-again-after-sleep idle loop.
    fn pop_timed(&self) -> Option<usize> {
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
            let (g2, timed_out) = self.items_cv.wait_timeout(g, Duration::from_millis(1));
            g = g2;
            if timed_out {
                return None;
            }
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

/// One explored execution of the signal-drain protocol. `flush_backlog`
/// selects the real shutdown (`true`: drain the input queue before
/// stopping) or the broken variant that stops the moment the flag flips.
fn drain_execution(flush_backlog: bool) {
    let inq = Arc::new(ModelQueue::new(2));
    let drain = Arc::new(AtomicBool::new(false));
    let ended = Arc::new(AtomicBool::new(false));
    let accepted = Arc::new(AtomicUsize::new(0));

    // Session reader: accepts frames until the drain flag is observed,
    // then ends the session. A push already past the drain check is an
    // *accepted* read — the flush guarantee covers it.
    let reader = {
        let (inq, drain, ended, accepted) = (
            Arc::clone(&inq),
            Arc::clone(&drain),
            Arc::clone(&ended),
            Arc::clone(&accepted),
        );
        thread::spawn(move || {
            for r in 0..2 {
                if drain.load() {
                    break;
                }
                inq.push(r).expect("inq never closes");
                accepted.fetch_add(1);
            }
            ended.store(true);
        })
    };

    // The SIGTERM handler: flips the flag at an arbitrary point relative
    // to every reader/scheduler step.
    let signal = {
        let drain = Arc::clone(&drain);
        thread::spawn(move || {
            drain.store(true);
        })
    };

    // The scheduler loop (`DrrScheduler::run`): poll the tenant queue;
    // on an idle poll, stop only once draining, the session has ended,
    // and — the property under test — the input queue is empty.
    let mut forwarded = 0usize;
    loop {
        if !flush_backlog && drain.load() {
            // Broken variant: stop the moment the flag is observed,
            // abandoning whatever the reader already queued.
            break;
        }
        match inq.pop_timed() {
            Some(_r) => forwarded += 1,
            None => {
                if drain.load() && ended.load() && inq.is_empty() {
                    break;
                }
            }
        }
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
/// reader/scheduler interleaving; the scheduler never shuts down early
/// and never hangs (the timed pop's quiescence timeout models the real
/// poll loop). CHESS preemption bound 2 — the unbounded space exceeds
/// the schedule budget.
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
