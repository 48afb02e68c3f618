//! `mmm-align` — base-level alignment kernels: the paper's core contribution.
//!
//! The crate implements minimap2's difference-recurrence base-level
//! alignment (Suzuki–Kasahara, Eq. 2/3 of the paper) and manymap's
//! dependency-free reformulation (Eq. 4), each as scalar code and as
//! SSE/AVX2/AVX-512BW SIMD kernels, in score-only and with-path variants —
//! the eight kernel combinations benchmarked in Figures 5 and 8.
//!
//! Layering:
//!
//! * [`fullmatrix`] — 32-bit full-matrix affine-gap reference (Eq. 1), the
//!   gold standard every kernel is property-tested against;
//! * [`scalar`] — the two difference-recurrence layouts in plain Rust;
//! * [`simd`] — hand-vectorized x86-64 kernels with runtime dispatch;
//! * [`diff`] — shared machinery (direction matrix, boundary score
//!   tracking, CIGAR backtracking);
//! * [`zdrop`] — exact z-drop extension (ksw2 semantics), the mapper's
//!   end-extension engine.

pub mod cigar;
pub mod diff;
pub mod dispatch;
pub mod fullmatrix;
pub mod layout;
pub mod scalar;
pub mod score;
pub mod scratch;
pub mod simd;
pub mod types;
pub mod zdrop;

pub use cigar::{Cigar, CigarOp};
pub use dispatch::{
    best_engine, best_engine_unless, best_mm2_engine, parse_disable_list, DisabledTiers, Engine,
    Layout, Width,
};
pub use score::Scoring;
pub use scratch::AlignScratch;
pub use types::{AlignError, AlignMode, AlignResult, GroupJob};
pub use zdrop::{extend_zdrop, extend_zdrop_with_scratch, ExtendResult, DEFAULT_ZDROP};
