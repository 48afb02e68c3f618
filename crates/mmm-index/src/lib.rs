//! `mmm-index` — minimizer sketching and the reference index.
//!
//! The seeding substrate of the aligner (§3.1): references are sketched with
//! `(k, w)` minimizers (Roberts et al.), stored 2-bit packed alongside a
//! sorted table from minimizer hash to reference positions. Queries are
//! sketched with the same function and each shared minimizer becomes an
//! anchor for chaining.
//!
//! The index is one binary image modeled on minimap2's `.mmi`, written once
//! by the builder and queried where it lies — in the builder's buffer, or
//! in a file, always inside a section-checksummed container
//! ([`serialize`]), opened one way: a single memory map (manymap's §4.4.2
//! optimization), every byte checksummed and every offset validated before
//! a query follows one, nothing copied ([`ShardedIndex::open`]).
//!
//! The mapper sees one index type, [`ShardedIndex`], and seeds through its
//! one `collect_anchors`. A manifest opens as its shards; a single-file
//! container, or a [`MinimizerIndex::build`] result, is one shard, loaded
//! from the start, with no filter.
//!
//! The crate holds no `unsafe` code: its one mapping is `mmm-io`'s, and
//! its packed formats decode through safe table and bit-field reads
//! ([`unpack`]).
#![forbid(unsafe_code)]

pub mod error;
pub mod index;
pub mod minimizer;
pub mod postings;
pub mod serialize;
pub mod shard;
pub mod unpack;
pub mod xxh;

pub use error::IndexError;
pub use index::{check_hit_budget, IdxOpts, MinimizerIndex, MAX_REF_LEN, MAX_REF_SEQS};
pub use minimizer::{hash64, minimizers, Minimizer};
pub use postings::{BucketRef, PostingCursor, MAX_BLOCK_WORDS, MAX_BUCKET_HITS};
pub use serialize::{
    container_section_ranges, save_index, write_index_image, CONTAINER_SECTIONS, MAGIC_PREFIX,
};
pub use shard::{
    build_sharded, AnyIndex, IndexRef, ShardBuildReport, ShardFaultHook, ShardHealth,
    ShardLoadFault, ShardManifest, ShardMeta, ShardOpenOpts, ShardUnavailable, ShardedIndex,
    SHARD_LOAD_ATTEMPTS,
};
pub use xxh::xxh64;
