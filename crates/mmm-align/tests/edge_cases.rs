//! Regression tests for the hot-path correctness fixes: out-of-range
//! scoring is rejected with a real error (not a release-mode wraparound),
//! and empty inputs take the degenerate path everywhere instead of
//! underflowing the diagonal bookkeeping.
// Drives every available SIMD tier, which Miri cannot execute.
#![cfg(not(miri))]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmm_align::diff::{DirMatrix, Tracker};
use mmm_align::{extend_zdrop, AlignError, AlignMode, AlignScratch, Engine, Scoring};

/// `q + e` big enough that the Suzuki–Kasahara deltas overflow `i8`
/// (`2(q+e)+b = 130 > 127`) — the kind of parameters that used to wrap
/// silently in release builds.
const OVERFLOWING: Scoring = Scoring {
    a: 2,
    b: 4,
    ambi: 1,
    q: 60,
    e: 3,
};

const MODES: [AlignMode; 4] = [
    AlignMode::Global,
    AlignMode::SemiGlobal,
    AlignMode::TargetSuffixFree,
    AlignMode::QuerySuffixFree,
];

#[test]
fn try_align_rejects_scoring_that_overflows_i8() {
    assert!(!OVERFLOWING.fits_i8());
    let (t, q) = (vec![0u8, 1, 2, 3], vec![0u8, 1, 2, 3]);
    for e in Engine::all().into_iter().filter(|e| e.is_available()) {
        for mode in MODES {
            let err = e.try_align(&t, &q, &OVERFLOWING, mode, true).unwrap_err();
            assert_eq!(
                err,
                AlignError::ScoringOverflowsI8(OVERFLOWING),
                "{}",
                e.label()
            );
        }
    }
    // Zero extension cost and non-positive match score are also rejected.
    for sc in [
        Scoring {
            e: 0,
            ..Scoring::MAP_ONT
        },
        Scoring {
            a: 0,
            ..Scoring::MAP_ONT
        },
    ] {
        let err = mmm_align::best_engine().try_align(&t, &q, &sc, AlignMode::Global, false);
        assert_eq!(err.unwrap_err(), AlignError::ScoringOverflowsI8(sc));
    }
}

#[test]
fn try_align_accepts_valid_scoring() {
    let (t, q) = (vec![0u8, 1, 2, 3], vec![0u8, 1, 2, 3]);
    let e = mmm_align::best_engine();
    let r = e
        .try_align(&t, &q, &Scoring::MAP_ONT, AlignMode::Global, true)
        .unwrap();
    assert_eq!(r.score, 8);
    assert_eq!(
        e.align(&t, &q, &Scoring::MAP_ONT, AlignMode::Global, true),
        r
    );
}

#[test]
fn align_error_display_names_the_bound() {
    let msg = AlignError::ScoringOverflowsI8(OVERFLOWING).to_string();
    assert!(msg.contains("overflow"), "{msg}");
    assert!(msg.contains("127"), "{msg}");
}

#[test]
fn empty_inputs_take_the_degenerate_path_in_every_kernel() {
    let sc = Scoring::MAP_ONT;
    let seq = vec![0u8, 1, 2, 3, 0, 1];
    let mut scratch = AlignScratch::new();
    for e in Engine::all().into_iter().filter(|e| e.is_available()) {
        for mode in MODES {
            for (t, q) in [(&seq[..], &[][..]), (&[][..], &seq[..]), (&[][..], &[][..])] {
                let r = e.align_with_scratch(t, q, &sc, mode, true, &mut scratch);
                let gold = mmm_align::fullmatrix::align(t, q, &sc, mode, true);
                assert_eq!(r, gold, "{} {mode:?} {}x{}", e.label(), t.len(), q.len());
                let cigar = r.cigar.expect("degenerate path still yields a cigar");
                if mode == AlignMode::Global {
                    // A global path must still consume both sequences.
                    assert_eq!(cigar.target_len() as usize, t.len(), "{}", e.label());
                    assert_eq!(cigar.query_len() as usize, q.len(), "{}", e.label());
                }
            }
        }
    }
    // The z-drop extension shares the same gate.
    assert_eq!(extend_zdrop(&[], &seq, &sc, 100, true).score, 0);
    let ext = extend_zdrop(&[], &[], &sc, 100, true);
    assert_eq!((ext.t_consumed, ext.q_consumed), (0, 0));
}

#[test]
#[should_panic(expected = "DirMatrix is undefined for empty inputs")]
fn dir_matrix_rejects_empty_target() {
    let _ = DirMatrix::new(0, 5);
}

#[test]
#[should_panic(expected = "DirMatrix is undefined for empty inputs")]
fn dir_matrix_reset_rejects_empty_query() {
    let mut m = DirMatrix::empty();
    m.reset(5, 0);
}

#[test]
#[should_panic(expected = "Tracker is undefined for empty inputs")]
fn tracker_rejects_empty_inputs() {
    let _ = Tracker::new(0, 0);
}
