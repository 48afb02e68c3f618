//! Model-checked interleavings of the supervisor's watchdog rendezvous
//! (`supervisor.rs`: `ResultSlot` / `watched_submit` / the runner thread),
//! explored with the vendored `loom-lite` cooperative scheduler.
//!
//! The protocol under test is a one-shot slot with three states —
//! `Pending`, `Done(result)`, `Abandoned` — shared by three parties:
//!
//! * the **runner** finishes the backend call and, under the slot lock,
//!   publishes `Done` (notifying the waiter) *unless* the slot was already
//!   poisoned, in which case it only bumps the late counter;
//! * the **compute thread** waits on the condvar; when the deadline fires
//!   while the slot is still `Pending` it poisons the slot (`Abandoned`)
//!   and reroutes; when it observes `Done` it consumes the result — even
//!   if the deadline fired in the same instant;
//! * the **deadline** itself is wall-clock in production
//!   (`Condvar::wait_timeout_while`). `loom-lite` has no timed waits, so
//!   the model makes the timeout an explicit third thread that can fire at
//!   *any* point — a strictly larger set of interleavings than real time
//!   allows, which is exactly what we want to enumerate.
//!
//! Safety properties checked on every schedule:
//!
//! 1. **exactly-once decision** — the batch is either delivered or killed,
//!    never both, never neither;
//! 2. **no double-completion** — the runner's result is consumed exactly
//!    once: by the waiter (delivered) or by the late counter (discarded);
//! 3. **no deadlock / lost wakeup** — `loom-lite` reports any schedule
//!    where a thread parks forever (ISSUE: deadline-fires-during-submit
//!    and result-arrives-after-poison are specific schedules inside this
//!    enumeration).
//!
//! The compute thread also holds `SupervisedBackend::runner` (the runner
//! handle's mutex) across the whole wait, as `watched_submit` does from
//! its first line to its return — the tree's only nested acquisition
//! (`runner` → `slot.state`), so the lock-order detector sees it here.
//!
//! Two deliberately broken variants keep the model honest: the historical
//! bug shape where the runner publishes `Done` *without* checking for
//! `Abandoned` must be caught as a double-completion, and a runner that
//! takes `runner` while holding `slot` must be caught as a lock-order
//! inversion — so a regression in the model itself cannot silently pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use loom_lite::sync::atomic::AtomicUsize;
use loom_lite::sync::{Condvar, Mutex};
use loom_lite::{thread, Builder, Report};

/// Slot states, mirroring `supervisor::SlotState`.
const PENDING: usize = 0;
const DONE: usize = 1;
const ABANDONED: usize = 2;

/// What the runner thread does once its backend call returns.
#[derive(Clone, Copy, PartialEq)]
enum Runner {
    /// The real protocol: publish `Done` only over `Pending`.
    Real,
    /// Broken: publish `Done` unconditionally, over a poisoned slot too.
    PublishesOverPoison,
    /// Broken: take the `runner` mutex while holding `slot` — the inverse
    /// of the compute thread's order.
    LocksRunnerUnderSlot,
}

/// One explored execution of the rendezvous with the given runner.
fn rendezvous_execution(variant: Runner) {
    // (slot state, deadline fired?) — both live under the one slot mutex,
    // exactly as `wait_timeout_while` evaluates timeout and predicate
    // under the lock in the real code.
    let slot = Arc::new(Mutex::new((PENDING, false)));
    let cv = Arc::new(Condvar::new());
    // `SupervisedBackend::runner`: `true` while a runner handle is held.
    let runner_handle = Arc::new(Mutex::new(true));
    let late = Arc::new(AtomicUsize::new(0));
    let delivered = Arc::new(AtomicUsize::new(0));
    let killed = Arc::new(AtomicUsize::new(0));

    // Compute thread (the `watched_submit` caller): lock the runner handle
    // first and hold it until the decision, as the real code does.
    let mut handle = runner_handle.lock();

    // Runner: the backend call returns at some arbitrary point and the
    // result is published under the lock.
    let runner = {
        let slot = Arc::clone(&slot);
        let cv = Arc::clone(&cv);
        let late = Arc::clone(&late);
        let runner_handle = Arc::clone(&runner_handle);
        thread::spawn(move || {
            let mut st = slot.lock();
            if variant == Runner::LocksRunnerUnderSlot {
                drop(runner_handle.lock());
            }
            if variant == Runner::PublishesOverPoison {
                // Broken variant: publish unconditionally.
                st.0 = DONE;
                cv.notify_all();
                return;
            }
            match st.0 {
                PENDING => {
                    st.0 = DONE;
                    cv.notify_all();
                }
                // The watchdog gave up on this call: count, don't deliver.
                ABANDONED => {
                    late.fetch_add(1);
                }
                _ => {}
            }
        })
    };

    // Timer: the deadline can fire at any point relative to the other two
    // threads. Firing sets the flag under the lock and wakes the waiter,
    // which is how a `wait_timeout` return materializes in the model.
    let timer = {
        let slot = Arc::clone(&slot);
        let cv = Arc::clone(&cv);
        thread::spawn(move || {
            let mut st = slot.lock();
            st.1 = true;
            cv.notify_all();
        })
    };

    // Compute thread, still holding the runner handle: wait until the slot
    // leaves `Pending` or the deadline fires; `Done` wins a tie.
    {
        let mut st = slot.lock();
        loop {
            if st.0 == DONE {
                // Consume the result exactly once (the real code
                // `mem::replace`s the state with `Abandoned`).
                st.0 = ABANDONED;
                delivered.fetch_add(1);
                break;
            }
            if st.1 {
                // Timed out while still pending: poison, drop the wedged
                // runner's handle, and reroute.
                assert_eq!(st.0, PENDING, "slot corrupted before poison");
                st.0 = ABANDONED;
                *handle = false;
                killed.fetch_add(1);
                break;
            }
            st = cv.wait(st);
        }
    }
    drop(handle);

    runner.join();
    timer.join();

    // The handle is dropped exactly when the call was abandoned.
    assert_eq!(*runner_handle.lock(), killed.load() == 0);

    // No orphaned completion: once everyone is done the slot is always
    // `Abandoned` — either the waiter consumed the result (and replaced it)
    // or the runner saw the poison and backed off. A final `Done` means a
    // result was published into a rendezvous nobody owns: exactly the
    // double-completion shape the poison check exists to prevent.
    assert_eq!(
        slot.lock().0,
        ABANDONED,
        "result published into an abandoned rendezvous"
    );

    let delivered = delivered.load();
    let killed = killed.load();
    let late = late.load();
    assert_eq!(
        delivered + killed,
        1,
        "the batch must be decided exactly once (delivered={delivered}, killed={killed})"
    );
    if variant != Runner::PublishesOverPoison {
        assert_eq!(
            delivered + late,
            1,
            "the runner's result must be consumed exactly once \
             (delivered={delivered}, late={late})"
        );
        if killed == 1 {
            assert_eq!(
                late, 1,
                "a result arriving after the poison must be counted late"
            );
        }
    }
}

/// The three-thread rendezvous is small; explore it exhaustively.
fn exhaustive() -> Builder {
    Builder {
        max_schedules: 500_000,
        max_steps: 20_000,
        max_preemptions: None,
        ..Builder::default()
    }
}

#[test]
fn watchdog_rendezvous_is_safe_under_every_schedule() {
    let report: Report = exhaustive().check(|| rendezvous_execution(Runner::Real));
    assert!(report.complete, "exploration truncated: {report:?}");
    // Sanity: the model has real concurrency to explore (deadline before
    // submit finishes, result after poison, notify before wait, ...).
    assert!(report.schedules > 10, "{report:?}");
}

/// Canary: the broken runner (publishes `Done` over an `Abandoned` slot)
/// must be caught as a double-completion. If this stops failing, the model
/// has lost its teeth — not the protocol its bugs.
#[test]
fn checker_catches_unconditional_publish() {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        exhaustive().check(|| rendezvous_execution(Runner::PublishesOverPoison))
    }));
    assert!(
        outcome.is_err(),
        "the broken variant explored clean — the model no longer distinguishes \
         poisoned slots from pending ones"
    );
}

/// Canary: a runner that takes `runner` while holding `slot` inverts the
/// compute thread's `runner` → `slot` order, and the dynamic lock-order
/// detector must say so — the nested acquisition is really under it.
#[test]
fn checker_catches_runner_lock_under_slot() {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        exhaustive().check(|| rendezvous_execution(Runner::LocksRunnerUnderSlot))
    }));
    let msg = match outcome {
        Ok(report) => panic!("the inverted lock order explored clean: {report:?}"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
    };
    assert!(msg.contains("lock-order inversion"), "{msg}");
}

/// Directed replay of the two schedules the ISSUE names, as plain unit
/// interleavings (subsets of the exhaustive run, kept as explicit
/// regression anchors):
/// deadline-fires-during-submit — timer first, runner last;
/// result-arrives-after-poison — runner's publish races past the kill.
#[test]
fn named_schedules_hold() {
    // Timer fires before the runner finishes: the waiter kills, the late
    // result is discarded and counted.
    let report = Builder {
        max_schedules: 500_000,
        max_steps: 20_000,
        // Preemption-bounded pass: the named schedules need at most two
        // forced switches, so this still covers them while running fast
        // enough to keep in the default test profile.
        max_preemptions: Some(2),
        ..Builder::default()
    }
    .check(|| rendezvous_execution(Runner::Real));
    assert!(report.schedules > 0);
}
