//! Shared alignment types.

use crate::cigar::Cigar;
use crate::score::Scoring;
use std::fmt;

/// Why an alignment request was rejected before any DP ran.
///
/// The difference-recurrence kernels keep every cell delta in `i8`
/// (Suzuki–Kasahara, §3.2); scoring parameters that violate that bound used
/// to be caught only by a `debug_assert!` and silently wrapped in release
/// builds. They are now rejected up front: the mapper's plan returns this
/// error for the read, and a backend session refuses to open.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlignError {
    /// The scoring parameters do not satisfy [`Scoring::fits_i8`]: some
    /// difference value would exceed `i8` range and wrap.
    ScoringOverflowsI8(Scoring),
}

impl fmt::Display for AlignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlignError::ScoringOverflowsI8(sc) => write!(
                f,
                "scoring parameters {sc:?} overflow the i8 difference range \
                 (need a+q+e <= 127 and 2(q+e)+max(b,ambi) <= 127, a > 0, e > 0)"
            ),
        }
    }
}

impl std::error::Error for AlignError {}

/// The boundary mode of a gap fill. Every kernel computes global alignment
/// (both sequences consumed, score at cell `(|T|-1, |Q|-1)`); read ends are
/// extended by [`crate::zdrop`] instead. The type survives only as
/// `mmm_exec::AlignJob::mode` and [`crate::Engine::align_with_scratch`]'s
/// parameter, because `benchmark/src/trace.rs` passes one to the other
/// (ROADMAP items 2d/7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlignMode {
    /// Both sequences fully consumed.
    Global,
}

/// Result of one base-level global alignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlignResult {
    /// Alignment score.
    pub score: i32,
    /// Alignment path, when a with-path kernel was used.
    pub cigar: Option<Cigar>,
    /// Number of DP cells evaluated (the numerator of GCUPS).
    pub cells: u64,
}

/// One global-mode problem of a lane group
/// ([`crate::Engine::align_group_with_scratch`]): both sides non-empty.
#[derive(Clone, Copy, Debug, Default)]
pub struct GroupJob<'a> {
    pub target: &'a [u8],
    pub query: &'a [u8],
    /// Whether the caller needs the CIGAR.
    pub with_path: bool,
}

impl AlignResult {
    /// GCUPS (giga cell updates per second) for this alignment given its
    /// runtime — the micro-benchmark metric of §5.1.2.
    pub fn gcups(&self, seconds: f64) -> f64 {
        if seconds <= 0.0 {
            return 0.0;
        }
        self.cells as f64 / seconds / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcups_definition() {
        let r = AlignResult {
            score: 0,
            cigar: None,
            cells: 2_000_000_000,
        };
        assert!((r.gcups(2.0) - 1.0).abs() < 1e-12);
        assert_eq!(r.gcups(0.0), 0.0);
    }
}
