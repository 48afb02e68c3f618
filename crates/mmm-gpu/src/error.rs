//! Typed errors for the simulated device, consistent with the pipeline's
//! error chain: callers get a `GpuError` they can degrade on instead of a
//! panic.

use std::fmt;

/// Why a kernel could not be priced on the simulated device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GpuError {
    /// The launch configuration's block size is outside the device's
    /// supported range (a warp to 1024 threads).
    BlockSize { threads: usize },
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::BlockSize { threads } => write!(
                f,
                "block size {threads} out of range (the device supports 32..=1024 threads/block)"
            ),
        }
    }
}

impl std::error::Error for GpuError {}
