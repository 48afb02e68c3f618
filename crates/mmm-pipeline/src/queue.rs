//! `BoundedQueue` — a bounded MPMC queue with close-and-drain semantics.
//!
//! The serve front-end (DESIGN.md §12) moves work between long-lived
//! threads that outlive any single pipeline run: tenant sessions push read
//! batches in, the fair scheduler pops them, and result routing runs the
//! other way. `std::sync::mpsc` channels fit poorly there — they are
//! single-consumer, and a disconnected channel cannot distinguish "producer
//! finished, drain the rest" from "tear everything down". This queue is the
//! seam instead:
//!
//! * **bounded** — `push` blocks once `capacity` items are waiting, which
//!   is the backpressure story: a tenant that outruns the backend blocks in
//!   its own session thread instead of growing the daemon's heap;
//! * **multi-producer, multi-consumer** — any number of threads may push
//!   and pop through a shared reference (callers wrap it in `Arc`);
//! * **closeable** — `close()` marks the end of input. Pushes fail from
//!   then on, but consumers keep draining: `pop` returns every item already
//!   queued and only then reports closure. That ordering is what makes a
//!   clean SIGTERM drain possible — close the queue, join the consumer, and
//!   every accepted item has been processed.
//!
//! Implementation: `Mutex<VecDeque>` with two condvars (space, items). At
//! serve batch granularity (hundreds of pushes per second, not millions)
//! lock-free buys nothing; correct blocking and wakeup is the whole game.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::sync::{lock_unpoisoned, wait_while_unpoisoned};

/// Why a push was refused. Carries the item back so the caller can reroute
/// it (e.g. report the failure to the tenant that sent it).
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is closed; no further items will be accepted.
    Closed(T),
    /// (`try_push` only) the queue is at capacity right now.
    Full(T),
}

impl<T> PushError<T> {
    /// Recover the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Closed(t) | PushError::Full(t) => t,
        }
    }

    pub fn is_closed(&self) -> bool {
        matches!(self, PushError::Closed(_))
    }
}

/// Why a timed pop returned empty-handed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopError {
    /// Nothing arrived within the timeout; the queue is still open.
    TimedOut,
    /// The queue is closed and fully drained — no item will ever arrive.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue. See the module docs.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled when an item (or closure) becomes visible to consumers.
    items: Condvar,
    /// Signalled when space (or closure) becomes visible to producers.
    space: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            items: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently waiting. A snapshot — stale by the time it returns;
    /// for monitoring and tests, not for flow control.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_closed(&self) -> bool {
        lock_unpoisoned(&self.inner).closed
    }

    /// Block until there is room, then enqueue. Fails only when the queue
    /// is (or becomes, while waiting) closed.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut g = wait_while_unpoisoned(&self.space, lock_unpoisoned(&self.inner), |q| {
            !q.closed && q.items.len() >= self.capacity
        });
        if g.closed {
            return Err(PushError::Closed(item));
        }
        g.items.push_back(item);
        drop(g);
        self.items.notify_one();
        Ok(())
    }

    /// Enqueue without blocking: `Full` when at capacity, `Closed` after
    /// close. The backpressure probe for callers that must not stall (a
    /// session thread deciding whether to make the tenant wait).
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut g = lock_unpoisoned(&self.inner);
        if g.closed {
            return Err(PushError::Closed(item));
        }
        if g.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        g.items.push_back(item);
        drop(g);
        self.items.notify_one();
        Ok(())
    }

    /// Block until an item arrives. `None` means closed **and** drained:
    /// every item ever pushed has been handed to some consumer.
    pub fn pop(&self) -> Option<T> {
        let g = wait_while_unpoisoned(&self.items, lock_unpoisoned(&self.inner), |q| {
            !q.closed && q.items.is_empty()
        });
        self.take_front(g)
    }

    /// Like [`pop`](Self::pop) with a deadline, for consumers that also
    /// poll something else (a drain flag, a socket). The deadline is
    /// absolute: a wakeup whose item a faster consumer took waits on only
    /// for the time left.
    pub fn pop_timeout(&self, timeout: Duration) -> Result<T, PopError> {
        let (g, _) = self
            .items
            .wait_timeout_while(lock_unpoisoned(&self.inner), timeout, |q| {
                !q.closed && q.items.is_empty()
            })
            .unwrap_or_else(PoisonError::into_inner);
        if g.closed && g.items.is_empty() {
            return Err(PopError::Closed);
        }
        self.take_front(g).ok_or(PopError::TimedOut)
    }

    /// Dequeue without blocking.
    pub fn try_pop(&self) -> Option<T> {
        self.take_front(lock_unpoisoned(&self.inner))
    }

    /// Pop the front item under `g`, releasing the lock before waking a
    /// producer.
    fn take_front(&self, mut g: MutexGuard<'_, Inner<T>>) -> Option<T> {
        let item = g.items.pop_front();
        drop(g);
        if item.is_some() {
            self.space.notify_one();
        }
        item
    }

    /// Mark the end of input and wake every waiter. Items already queued
    /// remain poppable (close-and-drain); further pushes fail. Idempotent.
    pub fn close(&self) {
        lock_unpoisoned(&self.inner).closed = true;
        self.items.notify_all();
        self.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_through_push_and_pop() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn try_push_reports_full_and_returns_item() {
        let q = BoundedQueue::new(2);
        q.push("a").unwrap();
        q.push("b").unwrap();
        let err = q.try_push("c").unwrap_err();
        assert!(matches!(err, PushError::Full("c")));
        assert_eq!(err.into_inner(), "c");
        // Popping frees a slot.
        assert_eq!(q.pop(), Some("a"));
        q.try_push("c").unwrap();
    }

    #[test]
    fn close_then_drain_then_none() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert!(q.push(3).unwrap_err().is_closed());
        // Already-queued items survive closure.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None); // stays terminal
    }

    #[test]
    fn pop_timeout_distinguishes_empty_from_closed() {
        let q: BoundedQueue<u8> = BoundedQueue::new(1);
        assert_eq!(
            q.pop_timeout(Duration::from_millis(10)),
            Err(PopError::TimedOut)
        );
        q.close();
        assert_eq!(
            q.pop_timeout(Duration::from_millis(10)),
            Err(PopError::Closed)
        );
    }

    /// Regression (concurrency-soundness audit): `pop_timeout`'s deadline
    /// is computed once, *before* the wait loop — a wakeup that loses its
    /// item to a faster consumer re-waits only for the time remaining. A
    /// per-wakeup restart would let a stream of appear-and-stolen items
    /// extend the timeout indefinitely; this pins the absolute behaviour
    /// under exactly that churn.
    #[test]
    fn pop_timeout_deadline_is_absolute_across_wakeups() {
        let q = Arc::new(BoundedQueue::<u64>::new(4));
        let qc = Arc::clone(&q);
        // Churn: wake any waiter roughly every 20 ms with an item that is
        // immediately stolen back, for 450 ms.
        let churn = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            let mut i = 0u64;
            while start.elapsed() < Duration::from_millis(450) {
                let _ = qc.push(i);
                i += 1;
                let _ = qc.try_pop();
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let timeout = Duration::from_millis(150);
        let all_done = std::time::Instant::now() + Duration::from_millis(700);
        while std::time::Instant::now() < all_done {
            let t0 = std::time::Instant::now();
            match q.pop_timeout(timeout) {
                // Winning a race against the churn thread is fine; what
                // matters is that no single call overruns its deadline.
                Ok(_) | Err(PopError::TimedOut) => {}
                Err(PopError::Closed) => panic!("queue never closes here"),
            }
            assert!(
                t0.elapsed() < timeout + Duration::from_millis(250),
                "pop_timeout overran its absolute deadline: {:?}",
                t0.elapsed()
            );
        }
        churn.join().unwrap();
    }

    /// A full queue blocks its producer until a consumer frees space — the
    /// backpressure contract the serve front-end is built on.
    #[test]
    fn full_queue_blocks_producer_until_pop() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0u32).unwrap();
        let qp = q.clone();
        let producer = std::thread::spawn(move || qp.push(1).is_ok());
        // The producer must be parked: the queue never exceeds capacity.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    /// Closing while producers are parked wakes them with a typed error
    /// that hands their item back.
    #[test]
    fn close_wakes_blocked_producer() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(7u32).unwrap();
        let qp = q.clone();
        let producer = std::thread::spawn(move || qp.push(8));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        let err = producer.join().unwrap().unwrap_err();
        assert!(err.is_closed());
        assert_eq!(err.into_inner(), 8);
    }

    /// Many producers, many consumers: every item is delivered exactly
    /// once, and the drain after close loses nothing.
    #[test]
    fn mpmc_delivers_every_item_exactly_once() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 3;
        const PER: usize = 200;
        let q = Arc::new(BoundedQueue::new(8));
        let got = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER {
                    q.push(p * PER + i).unwrap();
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..CONSUMERS {
            let q = q.clone();
            let got = got.clone();
            consumers.push(std::thread::spawn(move || {
                while let Some(v) = q.pop() {
                    got.lock().unwrap().push(v);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        for c in consumers {
            c.join().unwrap();
        }
        let mut got = Arc::try_unwrap(got).unwrap().into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..PRODUCERS * PER).collect::<Vec<_>>());
    }
}
