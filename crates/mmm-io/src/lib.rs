//! `mmm-io` — byte-source substrate for manymap.
//!
//! Section 4.4.2 of the paper replaces minimap2's fragmented, small-read
//! index loading with memory-mapped I/O, halving the index load time on KNL.
//! Every index file is opened that one way (the read-vs-mmap factor of the
//! paper's KNL column is `mmm-knl`'s machine model, not a second reader):
//!
//! * [`mmap::Mmap`] — a real `mmap(2)` wrapper (read-only, with
//!   `madvise(MADV_SEQUENTIAL)`), the one way an index file is opened;
//! * [`source::ByteSource`] — the bounded cursor the index deserializer is
//!   written against: a [`SliceSource`] over mapped bytes, or a
//!   [`FaultSource`] around one;
//! * [`timer`] — stage timers used by every breakdown experiment
//!   (Table 2, Figure 11);
//! * [`fault`] — fault-injection wrappers used by the robustness suite;
//! * [`atomic`] — crash-safe temp-file-plus-rename publication, used by
//!   the shard builder so a crashed build never leaves a parseable
//!   partial index.

pub mod atomic;
pub mod fault;
pub mod mmap;
pub mod source;
pub mod timer;

pub use atomic::write_atomic;
pub use fault::{FaultMode, FaultSource};
pub use mmap::Mmap;
pub use source::{ByteSource, SliceSource};
pub use timer::{Stage, StageTimer};
