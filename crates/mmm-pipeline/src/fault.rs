//! Fault-injection adapters for the pipeline robustness suite.
//!
//! These wrap caller-supplied stage callbacks to fail deterministically, so
//! tests can drive every degradation path of the fallible pipelines: a
//! reader that errors on the k-th batch, and a map stage that panics on
//! chosen items.

use crate::error::DynError;

/// Wrap a batch reader so every `every`-th call (1-based) returns an error
/// instead of a batch. With `every = 3` the reader yields two real batches,
/// then fails.
pub fn failing_every<I, F>(
    mut read: F,
    every: usize,
) -> impl FnMut() -> Result<Option<Vec<I>>, DynError> + Send
where
    F: FnMut() -> Result<Option<Vec<I>>, DynError> + Send,
{
    let every = every.max(1);
    let mut calls = 0usize;
    move || {
        calls += 1;
        if calls.is_multiple_of(every) {
            Err(format!("injected reader fault at batch {calls}").into())
        } else {
            read()
        }
    }
}

/// Wrap a map stage so items selected by `should_panic` panic instead of
/// producing a result — a stand-in for a latent bug tripping on one read.
pub fn panicking_map<S, I, R, M, P>(map: M, should_panic: P) -> impl Fn(&mut S, &I) -> R + Sync
where
    M: Fn(&mut S, &I) -> R + Sync,
    P: Fn(&I) -> bool + Sync,
{
    move |state, item| {
        if should_panic(item) {
            panic!("injected worker panic");
        }
        map(state, item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failing_every_counts_calls() {
        let mut batches = vec![vec![1u32], vec![2], vec![3]];
        batches.reverse();
        let mut r = failing_every(move || Ok(batches.pop()), 3);
        assert_eq!(r().unwrap(), Some(vec![1]));
        assert_eq!(r().unwrap(), Some(vec![2]));
        let err = r().unwrap_err();
        assert!(err.to_string().contains("batch 3"), "{err}");
    }

    #[test]
    fn panicking_map_passes_through() {
        let m = panicking_map(|(), &x: &u32| x * 2, |&x| x == 9);
        assert_eq!(m(&mut (), &4), 8);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m(&mut (), &9)));
        assert!(caught.is_err());
    }
}
