//! `mmm-pipeline` — the real multi-threaded batch pipeline (§4.4.4).
//!
//! manymap's 3-thread design: a reader thread and a writer thread around
//! the compute stage, joined by bounded channels, so input and output
//! overlap computation *and* each other; each batch is sorted by read
//! length so long reads start first (better load balance). The writer
//! thread is the pipeline's; the reader is the caller's (`manymap map` runs
//! a read-ahead thread behind a bounded channel, the `mmm-serve` daemon
//! forms each batch from its tenants' queues when compute is free).
//! (minimap2's 2-thread alternating design is compared against it where
//! the paper measures it — `mmm_knl::simulate_pipeline`, Fig. 11 — not
//! with a second set of real threads.)
//!
//! There is one pipeline, [`run`]: plan → dispatch → finalize, generic
//! over item/plan/result types, whose compute stage pulls each batch from a
//! caller closure when it is free for one. Its per-item phases run on the
//! caller's persistent worker pool ([`pool::WorkerPool`], one private state
//! per worker, the compute thread as worker 0) — in production the
//! alignment backend session's, so plan, lane groups and finalize share
//! `--threads` workers, `--threads − 1` of them spawned. A per-item pipeline
//! is the same thing with an identity dispatch. Output order is always the
//! input order, regardless of scheduling (tested).

pub mod batched;
pub mod error;
pub mod pipeline;
pub mod pool;
pub mod queue;
pub mod sort;
pub mod sync;

pub use batched::run;
pub use error::{DynError, PipelineError};
pub use pipeline::{FailureHandler, ItemFailure, PipelineStats};
pub use pool::{BatchOutcome, ItemPanic, WorkerPool};
pub use queue::{BoundedQueue, PopError, PushError};
pub use sort::sort_indices_by_len_desc;
pub use sync::{lock_unpoisoned, wait_while_unpoisoned};
