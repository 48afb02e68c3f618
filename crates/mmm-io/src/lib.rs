//! `mmm-io` — byte-source substrate for manymap.
//!
//! Section 4.4.2 of the paper replaces minimap2's fragmented, small-read
//! index loading with memory-mapped I/O, halving the index load time on KNL.
//! This crate provides both sides of that comparison:
//!
//! * [`mmap::Mmap`] — a real `mmap(2)` wrapper (read-only, with
//!   `madvise(MADV_SEQUENTIAL)`), used by the fast index-loading path;
//! * [`buffered::ChunkedReader`] — a deliberately minimap2-like buffered
//!   reader that issues many small reads, used by the baseline path;
//! * [`source::ByteSource`] — the common cursor abstraction the index
//!   deserializer is written against, so the two paths share one parser;
//! * [`timer`] — stage timers used by every breakdown experiment
//!   (Table 2, Figure 11);
//! * [`fault`] — fault-injection wrappers used by the robustness suite;
//! * [`atomic`] — crash-safe temp-file-plus-rename publication, used by
//!   the shard builder so a crashed build never leaves a parseable
//!   partial index.

pub mod atomic;
pub mod buffered;
pub mod fault;
pub mod mmap;
pub mod source;
pub mod timer;

pub use atomic::write_atomic;
pub use buffered::ChunkedReader;
pub use fault::{FaultMode, FaultSource};
pub use mmap::Mmap;
pub use source::{ByteSource, SliceSource};
pub use timer::{Stage, StageTimer};
