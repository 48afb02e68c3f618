//! `mmm-exec` — the unified alignment-execution layer.
//!
//! The paper's system is one pipeline that routes base-level alignment to
//! whichever processor is present: CPU SIMD lanes, a GPU running one
//! sequence pair per thread block over up to 128 concurrent streams with a
//! per-stream memory pool and CPU fallback for oversized pairs (§4.5), or
//! KNL. This crate is that seam: the mapper emits batches of [`AlignJob`]s
//! and an [`AlignBackend`] session executes them —
//!
//! * [`CpuSimdBackend`] fans a batch across the session's persistent
//!   worker pool, one recycled scratch arena per worker (the
//!   zero-allocation contract, DESIGN.md §4.2c);
//! * [`GpuSimtBackend`] computes every job through that same executor and
//!   has the `mmm-gpu` model price the ones that fit device memory
//!   (streams, memory pool); the rest count as CPU fallbacks.
//!
//! All backends are bit-identical: there is one functional path, so backend
//! choice changes *throughput accounting*, never output. The xtask
//! differential oracle enforces this cross-backend (DESIGN.md §9).

pub mod backend;
pub mod cpu;
pub mod error;
pub mod fault;
pub mod gpu;
pub mod health;
pub mod job;
pub mod sched;
pub mod sink;
pub mod stats;
pub mod supervisor;

pub use backend::{prepare, prepare_supervised, AlignBackend, BackendKind, BackendOptions};
pub use cpu::{align_jobs_with_scratch, CpuSimdBackend};
pub use error::BackendError;
pub use fault::{FaultAction, FaultClass, FaultPlan, ShardFaultAction, SHARD_SECTION_NAMES};
pub use gpu::GpuSimtBackend;
pub use health::{BreakerConfig, BreakerState, CircuitBreaker};
pub use job::{AlignJob, MAX_PLAN_SEGMENT};
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
