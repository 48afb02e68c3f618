//! Tests shared by the three tiers, run against each tier's *own* kernels
//! (`Engine` would hand the short problems here to a narrower tier).
//!
//! Each tier's lane-group fill must return, job for job, the scalar
//! per-pair kernel's result: score, CIGAR and cells.
//!
//! The vector z-drop extensions must return the scalar kernel's score,
//! consumed prefix lengths and CIGAR — including its tie rule (first diagonal
//! that reaches the maximum, smallest `t` on it) and the diagonal it z-drops
//! on — with and without a path, for a tight, the default and no z-drop.

use proptest::prelude::*;

use super::{avx2, avx512, sse};
use crate::zdrop::extend_scalar;
use crate::zdrop::ExtendResult;
use crate::{scalar, AlignResult, AlignScratch, GroupJob, Scoring, Width};

/// The fill-kernel signature the tiers share (`align_mm2`, `align_manymap`).
type Fill = fn(&[u8], &[u8], &Scoring, bool) -> AlignResult;

/// Every length `1..=lanes + 1` — no full vector, exactly one, and one plus a
/// one-lane tail — both layouts against the scalar gold.
pub(super) fn check_vector_boundary_lengths(lanes: usize, align_mm2: Fill, align_manymap: Fill) {
    let sc = Scoring::MAP_ONT;
    for len in 1..=lanes + 1 {
        let t: Vec<u8> = (0..len).map(|i| ((i * 7 + 3) % 4) as u8).collect();
        let q: Vec<u8> = (0..len).map(|i| ((i * 5 + i / 9 + 1) % 4) as u8).collect();
        let gold = scalar::align_manymap(&t, &q, &sc, true);
        assert_eq!(align_mm2(&t, &q, &sc, true), gold, "mm2 len={len}");
        assert_eq!(align_manymap(&t, &q, &sc, true), gold, "manymap len={len}");
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

/// A tier's lane-group kernel.
type Group = fn(&[GroupJob<'_>], &Scoring, &mut AlignScratch, &mut Vec<AlignResult>);

/// The lane-group kernels this CPU can run.
fn group_tiers() -> Vec<(Width, Group)> {
    let all: [(Width, Group, bool); 3] = [
        (Width::Sse, sse::align_group_with_scratch, sse::available()),
        (
            Width::Avx2,
            avx2::align_group_with_scratch,
            avx2::available(),
        ),
        (
            Width::Avx512,
            avx512::align_group_with_scratch,
            avx512::available(),
        ),
    ];
    all.into_iter()
        .filter(|t| t.2)
        .map(|t| (t.0, t.1))
        .collect()
}

/// `(target, query, with_path)` problems, cut in order into lane groups of
/// every available tier's width, against the scalar per-pair gold.
fn assert_groups_match_scalar(pairs: &[(Vec<u8>, Vec<u8>, bool)], what: &str) {
    let sc = Scoring::MAP_ONT;
    let mut scratch = AlignScratch::new();
    let jobs: Vec<GroupJob<'_>> = pairs
        .iter()
        .map(|(t, q, with_path)| GroupJob {
            target: t,
            query: q,
            with_path: *with_path,
        })
        .collect();
    for (width, group) in group_tiers() {
        let mut got = Vec::new();
        for chunk in jobs.chunks(width.lanes()) {
            group(chunk, &sc, &mut scratch, &mut got);
        }
        assert_eq!(got.len(), jobs.len(), "{what}: {}", width.label());
        for (k, (job, r)) in jobs.iter().zip(&got).enumerate() {
            let gold = scalar::align_manymap(job.target, job.query, &sc, job.with_path);
            let (tlen, qlen, path) = (job.target.len(), job.query.len(), job.with_path);
            assert_eq!(
                *r,
                gold,
                "{what}: job {k} ({tlen}x{qlen}, path {path}) on {}",
                width.label()
            );
        }
        for r in got {
            if let Some(c) = r.cigar {
                scratch.recycle(c);
            }
        }
    }
}

/// Every `|T|, |Q|` in `1..=L + 1` of the widest available tier, which
/// covers the narrower tiers' ranges too — each group mixes sizes — with and
/// without a path.
#[test]
fn group_lane_boundary_lengths_match_scalar() {
    let Some(lanes) = group_tiers().last().map(|t| t.0.lanes()) else {
        return;
    };
    let mut rng = Lcg(11);
    let mut pairs = Vec::new();
    for tlen in 1..=lanes + 1 {
        for qlen in 1..=lanes + 1 {
            let t = rng.bases(tlen);
            let mut q = pacbio_like(&t, &mut rng);
            q.resize(qlen, 2);
            for with_path in [false, true] {
                pairs.push((t.clone(), q.clone(), with_path));
            }
        }
    }
    assert_groups_match_scalar(&pairs, "boundary");
}

/// Groups of 1, `L − 1`, `L` and `L + 1` jobs (the last one a full group
/// and a group of one) with mixed sizes and paths; a group of more jobs than
/// lanes is refused.
#[test]
fn group_sizes_around_the_lane_count_match_scalar() {
    let mut rng = Lcg(5);
    for (width, group) in group_tiers() {
        let l = width.lanes();
        for n in [1, l - 1, l, l + 1] {
            let pairs: Vec<_> = (0..n)
                .map(|k| {
                    let t = rng.some_bases(150);
                    (t.clone(), pacbio_like(&t, &mut rng), k % 3 != 0)
                })
                .collect();
            assert_groups_match_scalar(&pairs, &format!("{n} jobs"));
        }
        let t = [1u8; 8];
        let over: Vec<GroupJob<'_>> = (0..=l)
            .map(|_| GroupJob {
                target: &t,
                query: &t,
                with_path: true,
            })
            .collect();
        let refused = std::panic::catch_unwind(|| {
            group(
                &over,
                &Scoring::MAP_ONT,
                &mut AlignScratch::new(),
                &mut Vec::new(),
            )
        });
        assert!(
            refused.is_err(),
            "{}: a group of {} jobs ran",
            width.label(),
            l + 1
        );
    }
}

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

    /// `1..=max` random bases.
    fn some_bases(&mut self, max: usize) -> Vec<u8> {
        let n = 1 + self.next() % max;
        self.bases(n)
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

    // Lane groups of gap-fill-like jobs: noisy copies with indels, some
    // unrelated or ambiguous, paths mixed within a group.
    #[test]
    fn random_group_mixes_match_scalar(seed in 0u64..u64::MAX, n in 1usize..80) {
        let mut rng = Lcg(seed);
        let pairs: Vec<_> = (0..n)
            .map(|_| {
                let t = rng.some_bases(200);
                let q = match rng.next() % 4 {
                    0 => rng.some_bases(200),
                    1 => pacbio_like(&t, &mut rng).iter().map(|&b| if rng.next().is_multiple_of(20) { 4 } else { b }).collect(),
                    _ => pacbio_like(&t, &mut rng),
                };
                (t, q, !rng.next().is_multiple_of(4))
            })
            .collect();
        assert_groups_match_scalar(&pairs, "mix");
    }
}
