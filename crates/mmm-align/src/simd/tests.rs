//! Tests shared by the three tiers, run against each tier's *own* kernels
//! (`Engine` would hand the short problems here to a narrower tier).
//!
//! The vector z-drop extensions must return the scalar kernel's score,
//! consumed prefix lengths and CIGAR — including its tie rule (first diagonal
//! that reaches the maximum, smallest `t` on it) and the diagonal it z-drops
//! on — with and without a path, for a tight, the default and no z-drop.

use proptest::prelude::*;

use super::{avx2, avx512, sse};
use crate::zdrop::extend_scalar;
use crate::zdrop::ExtendResult;
use crate::{scalar, AlignMode, AlignResult, AlignScratch, Scoring, Width};

/// The fill-kernel signature the tiers share (`align_mm2`, `align_manymap`).
type Fill = fn(&[u8], &[u8], &Scoring, AlignMode, bool) -> AlignResult;

/// Every length `1..=lanes + 1` — no full vector, exactly one, and one plus a
/// one-lane tail — in all four modes, both layouts against the scalar gold.
pub(super) fn check_vector_boundary_lengths(lanes: usize, align_mm2: Fill, align_manymap: Fill) {
    let sc = Scoring::MAP_ONT;
    for len in 1..=lanes + 1 {
        let t: Vec<u8> = (0..len).map(|i| ((i * 7 + 3) % 4) as u8).collect();
        let q: Vec<u8> = (0..len).map(|i| ((i * 5 + i / 9 + 1) % 4) as u8).collect();
        for mode in [
            AlignMode::Global,
            AlignMode::SemiGlobal,
            AlignMode::TargetSuffixFree,
            AlignMode::QuerySuffixFree,
        ] {
            let gold = scalar::align_manymap(&t, &q, &sc, mode, true);
            assert_eq!(
                align_mm2(&t, &q, &sc, mode, true),
                gold,
                "mm2 len={len} {mode:?}"
            );
            assert_eq!(
                align_manymap(&t, &q, &sc, mode, true),
                gold,
                "manymap len={len} {mode:?}"
            );
        }
    }
}

/// A tier's extension kernel (inputs non-empty, scoring and z-drop valid).
type Extend = fn(&[u8], &[u8], &Scoring, i32, bool, &mut AlignScratch) -> ExtendResult;

/// The extension kernels this CPU can run, with their lane counts.
fn tiers() -> Vec<(Width, Extend)> {
    let all: [(Width, Extend, bool); 3] = [
        (Width::Sse, sse::extend_zdrop, sse::available()),
        (Width::Avx2, avx2::extend_zdrop, avx2::available()),
        (Width::Avx512, avx512::extend_zdrop, avx512::available()),
    ];
    all.into_iter()
        .filter(|t| t.2)
        .map(|t| (t.0, t.1))
        .collect()
}

const ZDROPS: [i32; 3] = [50, 400, i32::MAX];

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize
    }

    fn bases(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| (self.next() % 4) as u8).collect()
    }
}

/// A PacBio-like read of `target`: ~13 % errors, indels twice as likely as
/// substitutions.
fn pacbio_like(target: &[u8], rng: &mut Lcg) -> Vec<u8> {
    let mut q = Vec::with_capacity(target.len() + target.len() / 8);
    for &b in target {
        match rng.next() % 100 {
            0..=3 => q.push((rng.next() % 4) as u8),
            4..=8 => {
                q.push(b);
                q.push((rng.next() % 4) as u8);
            }
            9..=12 => {}
            _ => q.push(b),
        }
    }
    if q.is_empty() {
        q.push(target[0]);
    }
    q
}

/// Scalar gold against every available tier's kernel, all z-drops, both
/// output shapes.
fn assert_widths_match_scalar(t: &[u8], q: &[u8], what: &str) {
    let sc = Scoring::MAP_PB;
    let mut scratch = AlignScratch::new();
    for zdrop in ZDROPS {
        for with_path in [false, true] {
            let gold = extend_scalar(t, q, &sc, zdrop, with_path, &mut scratch);
            if with_path && gold.score > 0 {
                assert_eq!(gold.cigar.score(t, q, &sc), gold.score, "{what}");
            }
            for (width, extend) in tiers() {
                let got = extend(t, q, &sc, zdrop, with_path, &mut scratch);
                let ctx = format!(
                    "{what}: {}x{} {} zdrop={zdrop} with_path={with_path}",
                    t.len(),
                    q.len(),
                    width.label()
                );
                assert_eq!(got.score, gold.score, "{ctx}");
                assert_eq!(got.t_consumed, gold.t_consumed, "{ctx}");
                assert_eq!(got.q_consumed, gold.q_consumed, "{ctx}");
                assert_eq!(got.cigar.to_string(), gold.cigar.to_string(), "{ctx}");
            }
        }
    }
}

#[test]
fn vector_boundary_lengths_match_scalar() {
    let mut rng = Lcg(7);
    for (width, _) in tiers() {
        let l = width.lanes();
        let lens = [1, 2, l - 1, l, l + 1, 2 * l + 1];
        for &tlen in &lens {
            for &qlen in &lens {
                // Related sequences (the query is a noisy copy cut or padded
                // to length), so the best cell sits deep in the matrix.
                let t = rng.bases(tlen);
                let mut q = pacbio_like(&t, &mut rng);
                q.truncate(qlen);
                while q.len() < qlen {
                    q.push((rng.next() % 4) as u8);
                }
                assert_widths_match_scalar(&t, &q, "boundary");
            }
        }
    }
}

#[test]
fn all_mismatch_pairs_are_empty_on_every_width() {
    for len in [1usize, 17, 64, 200] {
        let t = vec![0u8; len];
        let q = vec![1u8; len];
        assert_widths_match_scalar(&t, &q, "all-mismatch");
        let r = extend_scalar(
            &t,
            &q,
            &Scoring::MAP_PB,
            400,
            true,
            &mut AlignScratch::new(),
        );
        assert_eq!((r.score, r.t_consumed, r.q_consumed), (0, 0, 0));
        assert!(r.cigar.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The mapper's shape: a PacBio-like tail in a window 1.5x its length.
    #[test]
    fn pacbio_like_tails_match_scalar(seed in 0u64..u64::MAX, qlen in 1usize..400) {
        let mut rng = Lcg(seed);
        let t = rng.bases(qlen + qlen / 2 + 32);
        let mut q = pacbio_like(&t, &mut rng);
        q.truncate(qlen);
        assert_widths_match_scalar(&t, &q, "pacbio");
    }

    // Homology, then unrelated sequence: the extension z-drops inside the
    // junk, on a diagonal every width must agree on.
    #[test]
    fn pairs_that_turn_to_junk_match_scalar(seed in 0u64..u64::MAX, good in 1usize..200, junk in 1usize..400) {
        let mut rng = Lcg(seed);
        let mut t = rng.bases(good);
        let mut q = pacbio_like(&t, &mut rng);
        t.extend(rng.bases(junk));
        q.extend(rng.bases(junk));
        assert_widths_match_scalar(&t, &q, "junk");
    }

    // Unrelated rectangles, ambiguous bases included: many ties for the
    // best cell, mostly non-positive scores.
    #[test]
    fn unrelated_pairs_match_scalar(
        t in proptest::collection::vec(0u8..5, 1..150),
        q in proptest::collection::vec(0u8..5, 1..150),
    ) {
        assert_widths_match_scalar(&t, &q, "unrelated");
    }
}
