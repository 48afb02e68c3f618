//! `manymap` — accelerated long-read alignment (the paper's system).
//!
//! A complete minimap2-class seed–chain–extend aligner whose base-level
//! alignment step runs on interchangeable kernels: minimap2's Eq. 3 layout
//! or manymap's dependency-free Eq. 4 layout, at scalar/SSE/AVX2/AVX-512
//! widths (see [`mmm_align`]), on the real CPU or on the simulated GPU and
//! Knights Landing platforms (see [`mmm_gpu`], [`mmm_knl`]).
//!
//! # Quickstart
//!
//! ```
//! use manymap::{MapOpts, Mapper};
//! use mmm_index::{IdxOpts, MinimizerIndex, ShardedIndex};
//! use mmm_seq::SeqRecord;
//!
//! // Index a reference (fails loudly if the set exceeds the packed-hit
//! // bit budget: 2^24 sequences of up to 2^39 bases). Built in memory, it
//! // is a one-shard index, as a single-file `.mmx` opens.
//! let reference = SeqRecord::new("chr1", b"ACGTACGTAGGCTAGCTAGGACTGACTGATCGATCGTACG".repeat(200));
//! let index = ShardedIndex::build(&[reference], &IdxOpts::MAP_ONT, 1).unwrap();
//!
//! // Map a read.
//! let mapper = Mapper::new(&index, MapOpts::map_ont());
//! let read = index.ref_window(0, 100, 1100).unwrap();
//! let mappings = mapper.map_read(&read);
//! assert!(!mappings.is_empty());
//!
//! // `map_read` is plan → execute → finalize with the backend inlined. A
//! // pipeline runs the phases itself and hands `plan.jobs` to any
//! // `mmm_exec::AlignBackend` (see `session::run`).
//! let plan = mapper.plan_read(&read).unwrap();
//! let mut scratch = mmm_align::AlignScratch::new();
//! let (engine, scoring) = (mapper.opts.engine, mapper.opts.scoring);
//! let results = mmm_exec::align_jobs_with_scratch(engine, &plan.jobs, &scoring, &mut scratch);
//! let same = mapper.finalize_read_with_scratch(&read, &plan, &results, &mut scratch);
//! assert_eq!(mappings, same);
//! ```

pub mod baselines;
pub mod error;
pub mod mapper;
pub mod opts;
pub mod paf;
pub mod sam;
pub mod serve;
pub mod session;

pub use error::MapError;
pub use mapper::{MapReadError, Mapper, Mapping, ReadPlan};
pub use opts::MapOpts;
pub use paf::{paf_line, paf_unmapped, push_paf_line, write_paf};
pub use session::{load_index_any, ExecConfig, ExecSession, MapSession};

// Re-export the substrate crates so downstream users need one dependency.
pub use mmm_align as align;
pub use mmm_chain as chain;
pub use mmm_gpu as gpu;
pub use mmm_index as index;
pub use mmm_io as io;
pub use mmm_knl as knl;
pub use mmm_pipeline as pipeline;
pub use mmm_seq as seq;
