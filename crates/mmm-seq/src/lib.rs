//! `mmm-seq` — DNA sequence primitives for the manymap aligner.
//!
//! This crate provides the sequence substrate every other crate builds on:
//!
//! * [`encode`] — the `nt4` nucleotide code (A/C/G/T/N → 0..4) and reverse
//!   complement;
//! * [`record`] — owned sequence records with optional quality strings;
//! * [`fasta`] — a streaming FASTA/FASTQ parser in the style of `kseq.h`
//!   (minimap2's reader), working over any [`std::io::BufRead`];
//! * [`writer`] — FASTA/FASTQ emission, used by the dataset generators;
//! * [`stats`] — dataset statistics (read counts, mean/max length, N50,
//!   total bases) used to regenerate Table 4 of the paper.
//!
//! Everything here is deliberately free of dependencies so the hot aligner
//! crates stay lightweight.

pub mod encode;
pub mod error;
pub mod fasta;
pub mod record;
pub mod stats;
pub mod writer;

pub use encode::{
    comp4, encode_base, nt4_decode, revcomp4, revcomp_in_place, to_nt4, BASE_CHARS, SEQ_NT4_TABLE,
};
pub use error::SeqError;
pub use fasta::{FastxFormat, FastxReader};
pub use record::SeqRecord;
pub use stats::DatasetStats;
pub use writer::{write_fasta, write_fastq};
