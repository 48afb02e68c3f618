//! Types shared by the pipeline entry points in [`crate::batched`].

/// Aggregate timings of a pipeline run. Stage seconds are summed across
/// batches (stages overlap, so they may exceed `wall_seconds`).
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineStats {
    pub batches: usize,
    pub items: usize,
    /// Items whose worker panicked and that were degraded through the
    /// `on_item_panic` handler instead of producing a real result.
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

/// Handler invoked for an item whose worker panicked: receives the item and
/// the panic message, returns the substitute result (e.g. an "unmapped"
/// record). Installing one turns worker panics into per-item degradation;
/// without one the first panic aborts the run with
/// [`crate::PipelineError::WorkerPanic`].
pub type PanicHandler<'a, I, R> = Option<&'a (dyn Fn(&I, &str) -> R + Sync)>;
