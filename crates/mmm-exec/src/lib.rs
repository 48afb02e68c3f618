//! `mmm-exec` — the unified alignment-execution layer.
//!
//! The paper's system is one pipeline that routes base-level alignment to
//! whichever processor is present: CPU SIMD lanes, a GPU running one
//! sequence pair per thread block over up to 128 concurrent streams with a
//! per-stream memory pool and CPU fallback for oversized pairs (§4.5), or
//! KNL. This crate is that seam: the mapper emits batches of [`AlignJob`]s
//! and an [`AlignBackend`] session executes them.
//!
//! There is one implementation, [`HostBackend`]. Its host executor fans a
//! batch across the session's persistent worker pool, one recycled scratch
//! arena per worker (the zero-allocation contract, DESIGN.md §4.2c). A
//! `gpu-sim` session adds a device meter: the `mmm-gpu` model prices the
//! jobs that fit device memory (streams, memory pool), and the rest count
//! as CPU fallbacks. Its supervisor standby is the same executor, unmetered
//! and fault-free, so a session has one worker pool under any fault plan,
//! which the mapping pipeline plans and finalizes on ([`AlignBackend::pool`]).
//!
//! Backend choice changes *throughput accounting*, never output. The xtask
//! differential oracle enforces this cross-backend (DESIGN.md §9).

pub mod backend;
pub mod error;
pub mod fault;
pub mod health;
pub mod host;
pub mod job;
mod meter;
pub mod sched;
pub mod sink;
pub mod stats;
pub mod supervisor;

pub use backend::{prepare, prepare_supervised, AlignBackend, BackendKind, BackendOptions};
pub use error::BackendError;
pub use fault::{FaultClass, FaultPlan};
pub use health::{BreakerConfig, BreakerState, CircuitBreaker};
pub use host::{align_jobs_with_scratch, HostBackend};
pub use job::{AlignJob, JobSeq, MAX_PLAN_SEGMENT};
pub use sched::{plan_schedule, Route, SchedBatch, SchedConfig, SchedMode, SchedulePlan};
pub use sink::{BufferSink, StatsReport, StatsSink, StderrSink};
pub use stats::BackendStats;
pub use supervisor::{JobOutcome, SupervisedBackend, SupervisorConfig};

/// splitmix64's increment. Every seeded, replayable draw in this crate (the
/// fault plan's Bernoulli selector, the supervisor's backoff jitter, the
/// scheduler's test-only batch permutation) keys the generator its own way
/// with this and finishes with [`splitmix64_mix`].
const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64's output mix.
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
