//! Types shared with the pipeline entry point, [`crate::run`].

/// Aggregate timings of a pipeline run. Stage seconds are summed across
/// batches (stages overlap, so they may exceed `wall_seconds`).
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineStats {
    pub batches: usize,
    pub items: usize,
    /// Items that failed and were degraded through the [`FailureHandler`]
    /// instead of producing a real result.
    pub failed_items: usize,
    pub in_seconds: f64,
    pub compute_seconds: f64,
    /// The batched pipeline's three compute phases, wall time on the
    /// compute thread: plan, dispatch and finalize, each within
    /// `compute_seconds`.
    pub plan_seconds: f64,
    pub dispatch_seconds: f64,
    pub finalize_seconds: f64,
    pub out_seconds: f64,
    pub wall_seconds: f64,
}

/// Why one item failed inside the pipeline.
#[derive(Debug)]
pub enum ItemFailure {
    /// `plan` or `finalize` panicked on the item, with this message.
    Panicked(String),
    /// `dispatch` reported the item failed, with this reason.
    Dispatch(String),
}

/// Handler invoked for an item that failed: receives the item and why,
/// returns the substitute result (e.g. an "unmapped" record). A failed
/// item degrades; it never stops the run.
pub type FailureHandler<'a, I, R> = &'a (dyn Fn(&I, ItemFailure) -> R + Sync);
