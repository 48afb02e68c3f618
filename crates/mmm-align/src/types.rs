//! Shared alignment types.

use crate::cigar::Cigar;
use crate::score::Scoring;
use std::fmt;

/// Why an alignment request was rejected before any DP ran.
///
/// The difference-recurrence kernels keep every cell delta in `i8`
/// (Suzuki–Kasahara, §3.2); scoring parameters that violate that bound used
/// to be caught only by a `debug_assert!` and silently wrapped in release
/// builds. [`crate::Engine::try_align`] now rejects them up front.
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

/// Where the alignment is allowed to end.
///
/// All modes anchor the *beginning* of both sequences ("the beginnings of
/// two sequences must be aligned", §3.2); they differ in which ends are
/// penalty-free:
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlignMode {
    /// Both sequences must be fully consumed; score at cell
    /// `(|T|-1, |Q|-1)`.
    Global,
    /// Both ends free: maximum over the last row and last column.
    SemiGlobal,
    /// The query must be fully consumed; the target may have an unaligned
    /// suffix (maximum over the last column, `j = |Q|-1`). The mapper never
    /// submits this mode (it extends read ends with z-drop, [`crate::zdrop`]);
    /// the kernels keep it for the xtask oracle's mode sweep.
    TargetSuffixFree,
    /// The target must be fully consumed; the query may have an unaligned
    /// suffix (maximum over the last row, `i = |T|-1`).
    QuerySuffixFree,
}

/// Result of one base-level alignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlignResult {
    /// Alignment score under the requested mode.
    pub score: i32,
    /// Target index (inclusive) of the last aligned cell; `usize::MAX` for
    /// degenerate empty alignments.
    pub end_i: usize,
    /// Query index (inclusive) of the last aligned cell.
    pub end_j: usize,
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
            end_i: 0,
            end_j: 0,
            cigar: None,
            cells: 2_000_000_000,
        };
        assert!((r.gcups(2.0) - 1.0).abs() < 1e-12);
        assert_eq!(r.gcups(0.0), 0.0);
    }
}
