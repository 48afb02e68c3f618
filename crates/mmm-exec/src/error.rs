//! Typed backend errors, composing with the pipeline's `DynError` chain.

use std::fmt;

use mmm_gpu::GpuError;

use crate::fault::FaultClass;

/// Why a backend could not be prepared or a batch could not run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// The scoring parameters overflow the 8-bit SIMD/SIMT arithmetic every
    /// backend is built on.
    ScoringOverflow,
    /// The requested backend name is not one of the known kinds.
    UnknownKind(String),
    /// The device model could not price the batch: its launch
    /// configuration is outside the device's range.
    Gpu(GpuError),
    /// A kernel panicked while executing one job — a backend bug, reported
    /// with the job's index in the submitted batch.
    JobPanic { index: usize, message: String },
    /// A [`FaultPlan`](crate::FaultPlan) rule fired on this submit.
    Injected { class: FaultClass, submit: u64 },
    /// The backend broke the submit contract: it returned a result vector
    /// of the wrong length.
    WrongResultCount { expected: usize, got: usize },
    /// The supervisor's watchdog abandoned the batch at its deadline.
    DeadlineExceeded,
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::ScoringOverflow => {
                write!(f, "scoring parameters overflow 8-bit backend arithmetic")
            }
            BackendError::UnknownKind(name) => {
                write!(
                    f,
                    "unknown backend {name:?} (expected \"cpu\" or \"gpu-sim\")"
                )
            }
            BackendError::Gpu(e) => write!(f, "gpu backend: {e}"),
            BackendError::JobPanic { index, message } => {
                write!(f, "kernel panicked on job {index}: {message}")
            }
            BackendError::Injected { class, submit } => {
                write!(f, "injected fault {} on submit {submit}", class.label())
            }
            BackendError::WrongResultCount { expected, got } => {
                write!(f, "backend returned {got} results for {expected} jobs")
            }
            BackendError::DeadlineExceeded => {
                write!(f, "batch abandoned at its deadline by the watchdog")
            }
        }
    }
}

impl std::error::Error for BackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackendError::Gpu(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GpuError> for BackendError {
    fn from(e: GpuError) -> Self {
        BackendError::Gpu(e)
    }
}
