//! Typed pipeline errors.
//!
//! The pipeline entry point
//! ([`crate::try_run_three_thread_batched_with_state`]) reports exactly
//! which stage failed. Stage callbacks return [`DynError`] so any error type flows
//! through the pipeline unchanged; the pipeline wraps it with the stage that
//! produced it.

use std::fmt;

/// Boxed error produced by a caller-supplied stage callback.
pub type DynError = Box<dyn std::error::Error + Send + Sync>;

/// Why a pipeline run stopped early.
#[derive(Debug)]
pub enum PipelineError {
    /// The input stage failed; no further batches were processed.
    Read(DynError),
    /// The output stage failed; results already handed to the writer may be
    /// partially emitted.
    Write(DynError),
    /// A worker panicked on one item and no per-item degradation handler
    /// was installed.
    WorkerPanic { item_index: usize, message: String },
    /// The batched pipeline's dispatch stage (e.g. an alignment backend)
    /// failed for a whole batch. Dispatch errors are fatal: unlike a
    /// per-item panic there is no single item to degrade.
    Dispatch(DynError),
    /// Dispatch failed for one item and no per-item degradation handler was
    /// installed (the supervised backend reports quarantined jobs this way).
    DispatchItem { item_index: usize, message: String },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Read(e) => write!(f, "pipeline input failed: {e}"),
            PipelineError::Write(e) => write!(f, "pipeline output failed: {e}"),
            PipelineError::WorkerPanic {
                item_index,
                message,
            } => write!(
                f,
                "worker panicked while processing item {item_index}: {message}"
            ),
            PipelineError::Dispatch(e) => write!(f, "pipeline dispatch failed: {e}"),
            PipelineError::DispatchItem {
                item_index,
                message,
            } => write!(f, "dispatch failed for item {item_index}: {message}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Read(e) | PipelineError::Write(e) | PipelineError::Dispatch(e) => {
                Some(e.as_ref())
            }
            PipelineError::WorkerPanic { .. } | PipelineError::DispatchItem { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_stage() {
        let e = PipelineError::Read("disk gone".into());
        assert!(e.to_string().contains("input failed"));
        let e = PipelineError::WorkerPanic {
            item_index: 4,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("item 4"));
        assert!(e.to_string().contains("boom"));
    }
}
