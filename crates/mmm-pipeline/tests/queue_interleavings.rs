//! Model-checked interleavings of `BoundedQueue`'s two-condvar protocol
//! (`queue.rs`), explored with the vendored `loom-lite` scheduler.
//!
//! The model is a line-for-line port of the production queue onto
//! `loom_lite::sync` primitives: one mutex around `(VecDeque, closed)`, an
//! `items` condvar for consumers and a `space` condvar for producers,
//! `notify_one` after every state change and `notify_all` on close. Every
//! explored schedule also runs under the happens-before race detector and
//! the lock-order detector (loom-lite defaults).
//!
//! Properties checked on every schedule:
//!
//! * **exactly-once delivery** — each pushed item reaches exactly one
//!   consumer, in FIFO order for a single consumer;
//! * **close-wakes-all** — closing wakes every parked producer (typed
//!   `Closed` error handing the item back) and every parked consumer
//!   (`None` after the drain);
//! * **drain-after-close** — items queued before `close` are still popped;
//! * **no lost wakeups / deadlocks** — any schedule that parks a thread
//!   forever fails the model;
//! * **timed pops terminate** — `pop_timed` returns `TimedOut` (not a
//!   deadlock) when nothing arrives, and never times out while an item is
//!   available.
//!
//! Three deliberately broken variants keep the checker honest: an
//! `if`-guarded wait (the condvar-wait-in-loop bug), a `close` that uses
//! `notify_one` (strands all but one parked waiter), and an
//! unsynchronized `RaceCell` ledger (a write-write data race).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use loom_lite::sync::{Condvar, Mutex, RaceCell};
use loom_lite::{model, thread, Builder};

struct Inner {
    items: VecDeque<usize>,
    closed: bool,
}

/// Why a timed pop returned empty-handed (mirrors `queue::PopError`).
#[derive(Debug, PartialEq, Eq)]
enum PopTimed {
    TimedOut,
    Closed,
}

/// The model port of `mmm_pipeline::queue::BoundedQueue<usize>`.
struct ModelQueue {
    inner: Mutex<Inner>,
    items_cv: Condvar,
    space_cv: Condvar,
    capacity: usize,
}

impl ModelQueue {
    fn new(capacity: usize) -> Self {
        ModelQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            items_cv: Condvar::new(),
            space_cv: Condvar::new(),
            capacity,
        }
    }

    /// `BoundedQueue::push`: block while full, fail once closed.
    fn push(&self, item: usize) -> Result<(), usize> {
        let mut g = self.inner.lock();
        loop {
            if g.closed {
                return Err(item);
            }
            if g.items.len() < self.capacity {
                g.items.push_back(item);
                drop(g);
                self.items_cv.notify_one();
                return Ok(());
            }
            g = self.space_cv.wait(g);
        }
    }

    /// `BoundedQueue::pop`: block while empty, `None` once closed+drained.
    fn pop(&self) -> Option<usize> {
        let mut g = self.inner.lock();
        loop {
            if let Some(item) = g.items.pop_front() {
                drop(g);
                self.space_cv.notify_one();
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.items_cv.wait(g);
        }
    }

    /// `BoundedQueue::pop_timeout`: one abstract timeout per call.
    fn pop_timed(&self) -> Result<usize, PopTimed> {
        let mut g = self.inner.lock();
        loop {
            if let Some(item) = g.items.pop_front() {
                drop(g);
                self.space_cv.notify_one();
                return Ok(item);
            }
            if g.closed {
                return Err(PopTimed::Closed);
            }
            let (g2, timed_out) = self.items_cv.wait_timeout(g, Duration::from_millis(1));
            g = g2;
            if timed_out {
                return Err(PopTimed::TimedOut);
            }
        }
    }

    /// `BoundedQueue::close`: mark closed and wake **every** waiter.
    fn close(&self) {
        self.inner.lock().closed = true;
        self.items_cv.notify_all();
        self.space_cv.notify_all();
    }

    /// Broken variant: the wait is guarded by `if`, not `while`, and the
    /// wakeup is trusted to mean "an item is ready". Any schedule where a
    /// close (or a raced-away item) wakes this consumer without an item
    /// panics — the canary the condvar-wait-in-loop lint exists for.
    fn pop_broken_if_guard(&self) -> Option<usize> {
        let mut g = self.inner.lock();
        if g.items.is_empty() && !g.closed {
            g = self.items_cv.wait(g);
            if g.closed && g.items.is_empty() {
                return None;
            }
            let item = g.items.pop_front().expect("woken without an item");
            drop(g);
            self.space_cv.notify_one();
            return Some(item);
        }
        if let Some(item) = g.items.pop_front() {
            drop(g);
            self.space_cv.notify_one();
            return Some(item);
        }
        None
    }

    /// Broken variant: close wakes only one waiter per condvar. With two
    /// consumers parked, one stays parked forever — a deadlock schedule.
    fn close_broken_notify_one(&self) {
        self.inner.lock().closed = true;
        self.items_cv.notify_one();
        self.space_cv.notify_one();
    }
}

/// Single producer, single consumer, capacity 1: FIFO delivery and
/// drain-after-close on every schedule, explored exhaustively.
#[test]
fn spsc_delivers_in_order_and_drains_after_close() {
    let report = model(|| {
        let q = Arc::new(ModelQueue::new(1));
        let qp = Arc::clone(&q);
        let producer = thread::spawn(move || {
            assert!(qp.push(1).is_ok());
            assert!(qp.push(2).is_ok());
            qp.close();
        });
        let mut got = Vec::new();
        while let Some(v) = q.pop() {
            got.push(v);
        }
        assert_eq!(got, vec![1, 2], "FIFO order lost");
        assert_eq!(q.pop(), None, "closed queue must stay terminal");
        producer.join();
    });
    assert!(report.complete, "exploration truncated: {report:?}");
    assert!(report.schedules > 10, "{report:?}");
}

/// Two producers, two consumers, capacity 1, CHESS preemption bound 1
/// (five threads make bound 2 exceed the schedule budget): every item is
/// delivered exactly once, none invented, none lost.
#[test]
fn mpmc_exactly_once_delivery() {
    let report = Builder {
        max_preemptions: Some(1),
        ..Builder::default()
    }
    .check(|| {
        let q = Arc::new(ModelQueue::new(1));
        let ledger = Arc::new(Mutex::new(Vec::new()));
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let (q, ledger) = (Arc::clone(&q), Arc::clone(&ledger));
            consumers.push(thread::spawn(move || {
                while let Some(v) = q.pop() {
                    ledger.lock().push(v);
                }
            }));
        }
        let mut producers = Vec::new();
        for v in [10, 20] {
            let q = Arc::clone(&q);
            producers.push(thread::spawn(move || {
                assert!(q.push(v).is_ok(), "push raced with a close");
            }));
        }
        for p in producers {
            p.join();
        }
        q.close();
        for c in consumers {
            c.join();
        }
        let mut got = ledger.lock().clone();
        got.sort_unstable();
        assert_eq!(got, vec![10, 20], "delivery was not exactly-once");
    });
    assert!(report.complete, "exploration truncated: {report:?}");
}

/// A producer blocked on a full queue is woken by `close` with a typed
/// error carrying its item back; the queued item still drains.
#[test]
fn close_wakes_blocked_producer_and_returns_the_item() {
    let report = model(|| {
        let q = Arc::new(ModelQueue::new(1));
        assert!(q.push(0).is_ok());
        let qp = Arc::clone(&q);
        let producer = thread::spawn(move || {
            // The queue is full and nobody pops: this push can only end in
            // the close waking us with the item handed back.
            assert_eq!(qp.push(1), Err(1));
        });
        q.close();
        producer.join();
        assert_eq!(q.pop(), Some(0), "drain-after-close lost the item");
        assert_eq!(q.pop(), None);
    });
    assert!(report.complete, "exploration truncated: {report:?}");
}

/// Close wakes *every* parked consumer (`notify_all`), each of which
/// observes the drained-and-closed state as `None`.
#[test]
fn close_wakes_every_blocked_consumer() {
    let report = model(|| {
        let q = Arc::new(ModelQueue::new(1));
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let q = Arc::clone(&q);
            consumers.push(thread::spawn(move || {
                assert_eq!(q.pop(), None, "nothing was ever pushed");
            }));
        }
        q.close();
        for c in consumers {
            c.join();
        }
    });
    assert!(report.complete, "exploration truncated: {report:?}");
}

/// With no producer, a timed pop must report `TimedOut` on every schedule
/// — never deadlock, never fabricate an item or a closure.
#[test]
fn pop_timed_times_out_instead_of_deadlocking() {
    let report = model(|| {
        let q = Arc::new(ModelQueue::new(1));
        let qc = Arc::clone(&q);
        let consumer = thread::spawn(move || {
            assert_eq!(qc.pop_timed(), Err(PopTimed::TimedOut));
        });
        consumer.join();
    });
    assert!(report.complete, "exploration truncated: {report:?}");
}

/// With a producer in flight, a timed pop never times out while the item
/// is (or becomes) available: the wakeup and the re-check loop are sound.
#[test]
fn pop_timed_never_times_out_while_an_item_is_available() {
    let report = model(|| {
        let q = Arc::new(ModelQueue::new(1));
        let qp = Arc::clone(&q);
        let producer = thread::spawn(move || {
            assert!(qp.push(7).is_ok());
        });
        assert_eq!(q.pop_timed(), Ok(7), "item lost or timeout fired early");
        producer.join();
    });
    assert!(report.complete, "exploration truncated: {report:?}");
}

/// Canary: the `if`-guarded wait must be caught. With two consumers and a
/// single item before close, some schedule wakes a consumer without an
/// item and the broken variant's `expect` fires.
#[test]
fn canary_if_guarded_wait_is_caught() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        model(|| {
            let q = Arc::new(ModelQueue::new(1));
            let mut consumers = Vec::new();
            for _ in 0..2 {
                let q = Arc::clone(&q);
                consumers.push(thread::spawn(move || {
                    let _ = q.pop_broken_if_guard();
                }));
            }
            assert!(q.push(1).is_ok());
            q.close();
            for c in consumers {
                c.join();
            }
        });
    }));
    assert!(
        result.is_err(),
        "the if-guarded wait explored clean — the model lost its teeth"
    );
}

/// Canary: a close that only `notify_one`s must be caught as a deadlock
/// (one of the two parked consumers is never woken).
#[test]
fn canary_close_notify_one_is_caught() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        model(|| {
            let q = Arc::new(ModelQueue::new(1));
            let mut consumers = Vec::new();
            for _ in 0..2 {
                let q = Arc::clone(&q);
                consumers.push(thread::spawn(move || {
                    assert_eq!(q.pop(), None);
                }));
            }
            q.close_broken_notify_one();
            for c in consumers {
                c.join();
            }
        });
    }));
    let msg = match result {
        Ok(_) => panic!("the notify_one close explored clean"),
        Err(p) => p.downcast_ref::<String>().cloned().unwrap_or_default(),
    };
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}

/// Canary: consumers recording into an unsynchronized ledger are a
/// write-write data race, caught by the vector-clock detector even on
/// schedules where the final value looks right.
#[test]
fn canary_unsynchronized_ledger_race_is_caught() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        model(|| {
            let q = Arc::new(ModelQueue::new(2));
            let last_seen = Arc::new(RaceCell::new(0usize));
            let mut consumers = Vec::new();
            for _ in 0..2 {
                let (q, last_seen) = (Arc::clone(&q), Arc::clone(&last_seen));
                consumers.push(thread::spawn(move || {
                    while let Some(v) = q.pop() {
                        last_seen.set(v); // broken: no synchronization
                    }
                }));
            }
            assert!(q.push(1).is_ok());
            assert!(q.push(2).is_ok());
            q.close();
            for c in consumers {
                c.join();
            }
        });
    }));
    let msg = match result {
        Ok(_) => panic!("the unsynchronized ledger explored clean"),
        Err(p) => p.downcast_ref::<String>().cloned().unwrap_or_default(),
    };
    assert!(msg.contains("data race"), "unexpected failure: {msg}");
}
