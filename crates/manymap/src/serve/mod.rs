//! `mmm-serve` — alignment-as-a-service over a local socket (DESIGN.md
//! §12).
//!
//! A long-running daemon accepting many concurrent read streams, running
//! them through the standard plan → dispatch → finalize pipeline behind
//! ONE shared supervised backend session:
//!
//! * [`proto`] — the length-prefixed frame protocol and READ encoding;
//! * [`tenant`] — per-tenant queues, admission control, SLO metrics;
//! * [`sched`] — deficit-round-robin fairness across tenants, in bases;
//! * [`server`] — the daemon: accept loop, session threads, the shared
//!   pipeline, stats endpoint, drain-on-signal;
//! * [`signal`] — SIGTERM/SIGINT → drain flag.
//!
//! Every tenant's output is byte-identical to a solo `manymap map` run of
//! the same reads, including under injected backend fault plans — the
//! serve test suite enforces both.

// The daemon's only channels to the outside are the wire protocol and the
// `StatsSink` handed to `serve`: a stray `eprintln!` would interleave with
// the assembled report, or vanish when a test runs the daemon in-process
// against a `BufferSink`.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod proto;
pub mod sched;
pub mod server;
pub mod signal;
pub mod tenant;

pub use proto::{
    decode_read, encode_read, read_frame, read_frame_poll, write_frame, Frame, FramePoll, Op,
    MAX_FRAME,
};
pub use sched::{DrrConfig, DrrScheduler};
pub use server::{serve, ServeOpts};
pub use tenant::{LatencyHistogram, ServeItem, TenantRegistry, TenantState};
