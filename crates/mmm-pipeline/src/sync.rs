//! Poison-tolerant lock helpers.
//!
//! The pipeline catches worker panics per item, but a panic elsewhere (the
//! body closure, a reader thread) can still poison a shared mutex. All
//! pipeline state guarded by these locks (counters, the batch hand-off
//! slots) stays internally consistent across a panic — every update is a
//! single field store — so recovering the guard is always safe and the
//! alternative, a `PoisonError` cascade that masks the original panic,
//! never helps. Every lock in this crate goes through these helpers.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Lock `m`, recovering the guard if a panicking thread poisoned it.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `cv` while `pred` holds, recovering the guard if the mutex was
/// poisoned while parked. The predicate is re-checked after every wakeup,
/// so a spurious or raced-away one cannot return early; the bare
/// `Condvar::wait` is a `disallowed-methods` entry in `clippy.toml`.
pub fn wait_while_unpoisoned<'a, T>(
    cv: &Condvar,
    g: MutexGuard<'a, T>,
    pred: impl FnMut(&mut T) -> bool,
) -> MutexGuard<'a, T> {
    cv.wait_while(g, pred)
        .unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn recovers_from_poison() {
        let m = Mutex::new(7u32);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock_unpoisoned(&m), 7);
    }
}
