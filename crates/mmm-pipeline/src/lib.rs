//! `mmm-pipeline` — the real multi-threaded batch pipeline (§4.4.4).
//!
//! manymap's 3-thread design: a dedicated reader thread and a dedicated
//! writer thread around the compute stage, joined by bounded channels, so
//! input and output overlap computation *and* each other; each batch is
//! sorted by read length so long reads start first (better load balance).
//! (minimap2's 2-thread alternating design is compared against it where
//! the paper measures it — `mmm_knl::simulate_pipeline`, Fig. 11 — not
//! with a second set of real threads.)
//!
//! There is one pipeline, [`batched`]: plan → dispatch → finalize, generic
//! over item/plan/result types, fed by a reader closure or a
//! [`BoundedQueue`]. Its per-item phases run on a persistent worker pool
//! ([`pool::WorkerPool`]): compute threads are spawned once per run, each
//! owning a private per-worker state built by a caller-supplied factory
//! (the mapper passes an alignment scratch arena). A per-item pipeline is
//! the same thing with an identity dispatch. Output order is always the
//! input order, regardless of scheduling (tested).

pub mod batched;
pub mod error;
pub mod fault;
pub mod pipeline;
pub mod pool;
pub mod queue;
pub mod sort;
pub mod sync;

pub use batched::{
    try_run_three_thread_batched_from_queue, try_run_three_thread_batched_with_state,
};
pub use error::{DynError, PipelineError};
pub use fault::{failing_every, panicking_map};
pub use pipeline::{PanicHandler, PipelineStats};
pub use pool::{with_worker_pool, BatchOutcome, ItemPanic, WorkerPool};
pub use queue::{BoundedQueue, PopError, PushError};
pub use sort::sort_indices_by_len_desc;
pub use sync::{lock_unpoisoned, wait_while_unpoisoned};
