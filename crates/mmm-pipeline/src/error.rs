//! Typed pipeline errors.
//!
//! The pipeline entry point ([`crate::run`]) reports exactly which stage
//! stopped the run. Stage callbacks return [`DynError`] so any error type
//! flows through the pipeline unchanged; the pipeline wraps it with the
//! stage that produced it. A failure of one item is not an error: it
//! degrades through the run's [`crate::FailureHandler`].

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
    /// The batched pipeline's dispatch stage (e.g. an alignment backend)
    /// failed for a whole batch. Dispatch errors are fatal: unlike a
    /// per-item failure there is no single item to degrade.
    Dispatch(DynError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Read(e) => write!(f, "pipeline input failed: {e}"),
            PipelineError::Write(e) => write!(f, "pipeline output failed: {e}"),
            PipelineError::Dispatch(e) => write!(f, "pipeline dispatch failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Read(e) | PipelineError::Write(e) | PipelineError::Dispatch(e) => {
                Some(e.as_ref())
            }
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
        let e = PipelineError::Dispatch("device on fire".into());
        assert!(e.to_string().contains("dispatch failed"));
        assert!(e.to_string().contains("device on fire"));
    }
}
