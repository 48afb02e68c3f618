//! Typed errors for the simulated device, consistent with the pipeline's
//! error chain: callers get a `GpuError` they can degrade on instead of a
//! panic or a silently dropped job.

use std::fmt;

/// Why a batch (or a single kernel) could not run on the simulated device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GpuError {
    /// The launch configuration's block size is outside the device's
    /// supported range (a warp to 1024 threads).
    BlockSize { threads: usize },
    /// A stream configuration with zero streams cannot schedule anything.
    NoStreams,
    /// The scoring parameters overflow the 8-bit device arithmetic the
    /// kernels are modeled on (same contract as the CPU SIMD tiers).
    ScoringOverflow,
    /// A job's kernel footprint exceeds device memory: it can never be
    /// placed, so the batch is refused (the caller routes such jobs to the
    /// host before submitting).
    DoesNotFit {
        index: usize,
        footprint: u64,
        global_mem: u64,
    },
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::BlockSize { threads } => write!(
                f,
                "block size {threads} out of range (the device supports 32..=1024 threads/block)"
            ),
            GpuError::NoStreams => write!(f, "stream configuration has zero streams"),
            GpuError::ScoringOverflow => {
                write!(f, "scoring parameters overflow 8-bit device arithmetic")
            }
            GpuError::DoesNotFit {
                index,
                footprint,
                global_mem,
            } => write!(
                f,
                "job {index} needs {footprint} bytes of device memory; the device has {global_mem}"
            ),
        }
    }
}

impl std::error::Error for GpuError {}
