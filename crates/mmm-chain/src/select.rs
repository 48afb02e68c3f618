//! Primary/secondary chain selection and mapping quality.
//!
//! Chains are walked best score first, as minimap2 walks them (Li 2018,
//! "identifying primary chains"; `mm_set_parent` and `mm_select_sub`). A
//! chain whose *query* interval, in read coordinates, overlaps an earlier
//! primary's by more than `mask_level` of the shorter of the two is
//! *secondary* to that primary, whatever the reference sequence and strand
//! of either chain; every other chain is *primary*. The best score among the
//! chains a primary masks is its `f2`. A secondary is kept only if it scores
//! at least [`PRI_RATIO`] × its primary's score and fewer than `best_n`
//! secondaries of that primary were kept before it; the rest are dropped.
//!
//! The chains [`select_chains`] returns are exactly the records the mapper
//! prints: the plan, gap-fill and extension walks visit these and no
//! others, so a dropped chain costs no base-level work.
//!
//! MAPQ is `40 · (1 − f2/f1) · min(1, m/10) · ln f1 / ln 100`, clamped to
//! [0, 60], where `f1` is the primary's chain score and `m` its anchor
//! count: the minimap2 paper's estimate with its `log f1` factor divided by
//! `ln 100` (see [`mapq`]; DESIGN.md §4.3 gives the calibration that keeps
//! it).

use crate::chain::Chain;

/// Keep a secondary only if it scores at least this fraction of its
/// primary's score (minimap2's `-p`).
pub const PRI_RATIO: f32 = 0.8;

/// Selection parameters.
#[derive(Clone, Copy, Debug)]
pub struct SelectOpts {
    /// Query-overlap fraction of the shorter chain above which a chain is
    /// secondary (minimap2's `--mask-level`).
    pub mask_level: f32,
    /// Keep at most this many secondary chains per primary (`-N`).
    pub best_n: usize,
}

impl Default for SelectOpts {
    fn default() -> Self {
        SelectOpts {
            mask_level: 0.5,
            best_n: 5,
        }
    }
}

/// A selected chain with its primary flag and MAPQ.
#[derive(Clone, Debug)]
pub struct SelectedChain {
    pub chain: Chain,
    pub primary: bool,
    pub mapq: u8,
}

/// What selection tracks for one primary while it walks the chains.
struct Primary {
    /// The primary's position in the output.
    at: usize,
    /// Its query interval in read coordinates.
    range: (u32, u32),
    score: i32,
    /// Best score among the chains it masks, kept or dropped (MAPQ's `f2`).
    f2: i32,
    /// Secondaries kept under it so far.
    kept: usize,
}

/// Overlap of two half-open intervals as a fraction of the shorter one.
fn overlap_frac((as_, ae): (u32, u32), (bs, be): (u32, u32)) -> f32 {
    let inter = ae.min(be).saturating_sub(as_.max(bs)) as f32;
    let shorter = (ae - as_).min(be - bs).max(1) as f32;
    inter / shorter
}

/// Choose the chains to print: primaries and the secondaries they keep, in
/// input order, with MAPQ on the primaries. Input must be sorted by
/// descending score (as [`crate::chain::chain_anchors`] returns).
pub fn select_chains(chains: Vec<Chain>, opts: &SelectOpts) -> Vec<SelectedChain> {
    let mut out: Vec<SelectedChain> = Vec::with_capacity(chains.len());
    let mut primaries: Vec<Primary> = Vec::new();

    for c in chains {
        let range = c.read_range();
        let masking = primaries
            .iter_mut()
            .find(|p| overlap_frac(range, p.range) > opts.mask_level);
        let primary = match masking {
            None => {
                primaries.push(Primary {
                    at: out.len(),
                    range,
                    score: c.score,
                    f2: 0,
                    kept: 0,
                });
                true
            }
            Some(p) => {
                p.f2 = p.f2.max(c.score);
                if (c.score as f32) < PRI_RATIO * p.score as f32 || p.kept >= opts.best_n {
                    continue;
                }
                p.kept += 1;
                false
            }
        };
        out.push(SelectedChain {
            chain: c,
            primary,
            mapq: 0,
        });
    }

    for p in &primaries {
        let sel = &mut out[p.at];
        sel.mapq = mapq(p.score, p.f2, sel.chain.anchors.len());
    }
    out
}

/// minimap2's MAPQ estimate. The `log f1` factor is normalized by `log 100`
/// so a unique chain of score 100 lands at MAPQ 40 and the [0, 60] clamp
/// only engages for very strong chains.
pub fn mapq(f1: i32, f2: i32, anchor_count: usize) -> u8 {
    if f1 <= 0 {
        return 0;
    }
    let ratio = 1.0 - f2.max(0) as f64 / f1 as f64;
    let m_term = (anchor_count as f64 / 10.0).min(1.0);
    let q = 40.0 * ratio * m_term * (f1 as f64).ln() / 100f64.ln();
    q.clamp(0.0, 60.0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchor::Anchor;

    /// Length of every test read.
    const QLEN: u32 = 10_000;
    /// Anchors per test chain: enough that MAPQ's `min(1, m/10)` is 1.
    const M: usize = 12;

    /// A chain of `M` anchors on `rid`/`rev` covering the strand-local
    /// query interval `[qs, qe)` of a `QLEN`-base read.
    fn chain(rid: u32, rev: bool, (qs, qe): (u32, u32), score: i32) -> Chain {
        let step = (qe - 1 - (qs + 14)) / (M as u32 - 1);
        let anchors = (0..M as u32)
            .map(|k| {
                let qpos = if k + 1 == M as u32 {
                    qe - 1
                } else {
                    qs + 14 + k * step
                };
                Anchor {
                    rid,
                    rpos: 1_000 + qpos,
                    qpos,
                    qlen: QLEN,
                    rev,
                    span: 15,
                }
            })
            .collect();
        Chain {
            anchors,
            score,
            rid,
            rev,
        }
    }

    fn fwd(q: (u32, u32), score: i32) -> Chain {
        chain(0, false, q, score)
    }

    fn flags(sel: &[SelectedChain]) -> Vec<(i32, bool)> {
        sel.iter().map(|s| (s.chain.score, s.primary)).collect()
    }

    #[test]
    fn disjoint_query_intervals_are_both_primary() {
        let chains = vec![fwd((0, 4_000), 400), fwd((5_000, 9_000), 320)];
        let sel = select_chains(chains, &SelectOpts::default());
        assert_eq!(flags(&sel), [(400, true), (320, true)]);
    }

    #[test]
    fn overlapping_worse_chain_is_secondary() {
        let chains = vec![fwd((0, 5_000), 100), chain(0, true, (5_000, 10_000), 90)];
        let sel = select_chains(chains, &SelectOpts::default());
        assert_eq!(flags(&sel), [(100, true), (90, false)]);
        assert_eq!(sel[1].mapq, 0);
    }

    #[test]
    fn unique_hit_gets_high_mapq() {
        let sel = select_chains(vec![fwd((0, 1_200), 300)], &SelectOpts::default());
        assert!(sel[0].mapq >= 40, "mapq={}", sel[0].mapq);
    }

    #[test]
    fn ambiguous_hit_gets_low_mapq() {
        // Two near-equal chains over one query interval: the primary's
        // MAPQ collapses.
        let chains = vec![fwd((0, 500), 100), chain(1, false, (10, 510), 98)];
        let sel = select_chains(chains, &SelectOpts::default());
        assert!(sel[0].mapq <= 5, "mapq={}", sel[0].mapq);
    }

    /// A 2 kb slice of a read that also chains to a repeat copy on another
    /// reference sequence is secondary to the read's full-length chain, and
    /// lowers its MAPQ.
    #[test]
    fn query_slice_on_another_rid_is_secondary_to_the_full_length_chain() {
        let full = chain(0, false, (0, 2_500), 240);
        let slice = chain(1, false, (250, 2_250), 200);
        let sel = select_chains(vec![full, slice], &SelectOpts::default());
        assert_eq!(flags(&sel), [(240, true), (200, false)]);
        assert_eq!(sel[0].mapq, mapq(240, 200, M));
        assert!(sel[0].mapq < mapq(240, 0, M));
    }

    #[test]
    fn cross_strand_masking_uses_read_coordinates() {
        // Read bases [0, 4000) on the forward strand.
        let forward = fwd((0, 4_000), 400);
        // Strand-local [6000, 10000) on the reverse strand is read
        // [0, 4000): the same bases, so it is masked.
        let same_bases = chain(0, true, (6_000, 10_000), 380);
        // Strand-local [0, 4000) on the reverse strand is read
        // [6000, 10000): other bases, so it is a primary of its own.
        let other_bases = chain(0, true, (0, 4_000), 360);
        let sel = select_chains(
            vec![forward, same_bases, other_bases],
            &SelectOpts::default(),
        );
        let got: Vec<_> = sel
            .iter()
            .map(|s| (s.primary, s.chain.read_range()))
            .collect();
        assert_eq!(
            got,
            [
                (true, (0, 4_000)),
                (false, (0, 4_000)),
                (true, (6_000, 10_000))
            ]
        );
    }

    /// Is a chain over `cand` secondary to a better one over `primary`?
    /// Its score is above [`PRI_RATIO`] of the primary's, so it is kept
    /// either way and only masking decides.
    fn masked(primary: (u32, u32), cand: (u32, u32)) -> bool {
        let sel = select_chains(
            vec![fwd(primary, 100), fwd(cand, 90)],
            &SelectOpts::default(),
        );
        !sel[1].primary
    }

    #[test]
    fn nested_and_partial_overlaps_on_both_sides_of_mask_level() {
        let p = (1_000, 5_000);
        // Nested either way round.
        assert!(masked(p, (2_000, 3_000)));
        assert!(masked(p, (0, 9_000)));
        // Partial on the right: 1000 of the shorter 1500, then exactly half
        // of the shorter 2000 (not more than `mask_level`), then 400 of 2000.
        assert!(masked(p, (4_000, 5_500)));
        assert!(!masked(p, (4_000, 6_000)));
        assert!(!masked(p, (4_600, 6_600)));
        // Partial on the left mirrors it.
        assert!(masked(p, (500, 2_000)));
        assert!(!masked(p, (0, 2_000)));
        // Abutting.
        assert!(!masked(p, (5_000, 9_000)));
    }

    #[test]
    fn secondary_below_pri_ratio_is_dropped_but_still_sets_f2() {
        let primary = || fwd((0, 5_000), 200);
        // 159 < 0.8 × 200: dropped, but it is still the primary's f2.
        let sel = select_chains(
            vec![primary(), chain(1, false, (0, 5_000), 159)],
            &SelectOpts::default(),
        );
        assert_eq!(flags(&sel), [(200, true)]);
        assert_eq!(sel[0].mapq, mapq(200, 159, M));
        assert!(sel[0].mapq < mapq(200, 0, M));
        // Exactly 0.8 × 200 is kept.
        let sel = select_chains(
            vec![primary(), chain(1, false, (0, 5_000), 160)],
            &SelectOpts::default(),
        );
        assert_eq!(flags(&sel), [(200, true), (160, false)]);
    }

    #[test]
    fn best_n_counts_only_kept_secondaries() {
        let opts = SelectOpts {
            best_n: 2,
            ..SelectOpts::default()
        };
        let chains = vec![
            fwd((0, 5_000), 1_000),
            // Masked by the first primary, below `PRI_RATIO`: dropped
            // without using a `best_n` slot.
            chain(1, false, (0, 5_000), 700),
            fwd((5_000, 10_000), 500),
            // Masked by the second primary: two are kept, the third is over
            // `best_n`.
            chain(1, false, (5_000, 10_000), 450),
            chain(2, false, (5_000, 10_000), 440),
            chain(3, false, (5_000, 10_000), 430),
        ];
        let sel = select_chains(chains, &opts);
        assert_eq!(
            flags(&sel),
            [(1_000, true), (500, true), (450, false), (440, false)]
        );
        assert_eq!(sel[0].mapq, mapq(1_000, 700, M));
        assert_eq!(sel[1].mapq, mapq(500, 450, M));
        let none = SelectOpts { best_n: 0, ..opts };
        let sel = select_chains(vec![fwd((0, 5_000), 100), fwd((0, 5_000), 99)], &none);
        assert_eq!(flags(&sel), [(100, true)]);
    }

    #[test]
    fn mapq_never_rises_as_f2_over_f1_rises() {
        assert_eq!(mapq(0, 0, 20), 0);
        for f1 in [40, 100, 300, 1_000, 10_000] {
            for m in [3, 9, 10, 50] {
                let q: Vec<u8> = (0..=20).map(|k| mapq(f1, f1 * k / 20, m)).collect();
                assert!(q.windows(2).all(|w| w[0] >= w[1]), "f1={f1} m={m}: {q:?}");
            }
        }
        // The same through selection: a better masked chain never raises
        // the primary's MAPQ.
        let q: Vec<u8> = (1..=20)
            .map(|k| {
                let chains = vec![fwd((0, 3_000), 200), chain(1, false, (0, 3_000), 10 * k)];
                select_chains(chains, &SelectOpts::default())[0].mapq
            })
            .collect();
        assert!(q.windows(2).all(|w| w[0] >= w[1]), "{q:?}");
        assert!(q[0] > q[19], "{q:?}");
    }

    #[test]
    fn primaries_of_one_read_never_overlap_beyond_mask_level() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rnd = move |n: u32| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % u64::from(n)) as u32
        };
        let opts = SelectOpts::default();
        for _ in 0..500 {
            let mut chains: Vec<Chain> = (0..1 + rnd(12))
                .map(|_| {
                    let s = rnd(QLEN - 200);
                    let e = s + 200 + rnd(QLEN - s - 199);
                    chain(rnd(3), rnd(2) == 1, (s, e), 40 + rnd(1_000) as i32)
                })
                .collect();
            chains.sort_by_key(|c| -c.score);
            let sel = select_chains(chains, &opts);
            let primaries: Vec<&SelectedChain> = sel.iter().filter(|s| s.primary).collect();
            for (i, a) in primaries.iter().enumerate() {
                for b in &primaries[..i] {
                    let f = overlap_frac(a.chain.read_range(), b.chain.read_range());
                    assert!(f <= opts.mask_level, "primaries overlap by {f}");
                }
            }
            // Every kept secondary sits under a primary it could not beat.
            for s in sel.iter().filter(|s| !s.primary) {
                let r = s.chain.read_range();
                let p = primaries
                    .iter()
                    .find(|p| overlap_frac(r, p.chain.read_range()) > opts.mask_level)
                    .expect("a secondary overlaps some primary");
                assert!(s.chain.score as f32 >= PRI_RATIO * p.chain.score as f32);
            }
        }
    }
}
