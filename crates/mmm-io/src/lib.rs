//! `mmm-io` — byte-source substrate for manymap.
//!
//! Section 4.4.2 of the paper replaces minimap2's fragmented, small-read
//! index loading with memory-mapped I/O, halving the index load time on KNL.
//! Every index file is opened that one way (the read-vs-mmap factor of the
//! paper's KNL column is `mmm-knl`'s machine model, not a second reader):
//!
//! * [`mmap::Mmap`] — a real `mmap(2)` wrapper (read-only; sequential
//!   read-ahead for the checksum pass, then `advise_random` for the lookups
//!   that read the mapping in place), the one way an index file is opened,
//!   and [`mmap::as_words`], the one place mapped bytes become `u64`s;
//! * [`source::SliceSource`] — the bounded, borrowing cursor the index
//!   formats are read through: every length prefix is checked against the
//!   bytes left before anything is sized by it;
//! * [`atomic`] — crash-safe temp-file-plus-rename publication, used by
//!   the shard builder so a crashed build never leaves a parseable
//!   partial index.

pub mod atomic;
pub mod mmap;
pub mod source;

pub use atomic::{stage_atomic, write_atomic, Staged};
pub use mmap::Mmap;
pub use source::SliceSource;
