//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, spanning index → chain → align.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use mmm_align::{best_engine, Scoring};
use mmm_chain::{chain_anchors, chain_anchors_gold, Anchor, ChainOpts};
use mmm_index::{IdxOpts, ShardedIndex};
use mmm_seq::{nt4_decode, revcomp4, SeqRecord};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The minimizer sketch is a subsequence-sampling scheme: mapping an
    /// exact substring of an indexed genome always produces anchors lying
    /// on the true diagonal.
    #[test]
    fn exact_substrings_always_anchor_on_the_diagonal(
        seed in 0u64..1000,
        start in 0usize..10_000,
        len in 1_000usize..3_000,
    ) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let genome: Vec<u8> = (0..20_000).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 4) as u8
        }).collect();
        let idx = ShardedIndex::build(
            &[SeqRecord::new("g", nt4_decode(&genome))],
            &IdxOpts::MAP_ONT, 1,
        ).unwrap();
        let start = start.min(genome.len() - len);
        let query = genome[start..start + len].to_vec();
        let anchors = idx.collect_anchors(&query).unwrap();
        prop_assume!(!anchors.is_empty());
        let on_diag = anchors
            .iter()
            .filter(|a| !a.rev && a.rpos as i64 - a.qpos as i64 == start as i64)
            .count();
        // Random 20 kb sequences can have chance k-mer repeats, but the
        // true diagonal must dominate.
        prop_assert!(on_diag * 2 > anchors.len(), "{on_diag}/{}", anchors.len());
    }

    /// Chains returned by the chaining DP are strictly colinear.
    #[test]
    fn chains_are_strictly_colinear(
        seed in 0u64..1000,
        n_anchors in 5usize..80,
    ) {
        let mut state = seed | 1;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        let anchors: Vec<Anchor> = (0..n_anchors)
            .map(|_| Anchor {
                rid: rnd() % 2,
                rpos: 100 + rnd() % 50_000,
                qpos: 100 + rnd() % 5_000,
                qlen: 5_100,
                rev: rnd() % 2 == 0,
                span: 15,
            })
            .collect();
        let opts = ChainOpts { min_score: 1, min_cnt: 1, ..Default::default() };
        for chain in chain_anchors(anchors, &opts) {
            for w in chain.anchors.windows(2) {
                prop_assert_eq!(w[0].rid, w[1].rid);
                prop_assert_eq!(w[0].rev, w[1].rev);
                prop_assert!(w[0].rpos < w[1].rpos);
                prop_assert!(w[0].qpos < w[1].qpos);
            }
        }
    }

    /// Aligning (T, Q) and (revcomp T, revcomp Q) must give the same global
    /// score — affine-gap alignment is strand-symmetric.
    #[test]
    fn alignment_is_strand_symmetric(
        t in proptest::collection::vec(0u8..4, 10..200),
        q in proptest::collection::vec(0u8..4, 10..200),
    ) {
        let sc = Scoring::MAP_ONT;
        let e = best_engine();
        let fwd = e.align(&t, &q, &sc, false).score;
        let rev = e.align(&revcomp4(&t), &revcomp4(&q), &sc, false).score;
        prop_assert_eq!(fwd, rev);
    }

    /// The global score lies between two paths every pair has: deleting all
    /// of the target and inserting all of the query, and a perfect match of
    /// the shorter sequence.
    #[test]
    fn global_score_is_bounded(
        t in proptest::collection::vec(0u8..4, 5..150),
        q in proptest::collection::vec(0u8..4, 5..150),
    ) {
        let sc = Scoring::MAP_ONT;
        let score = best_engine().align(&t, &q, &sc, false).score;
        let all_gaps = -sc.gap_cost(t.len() as u32) - sc.gap_cost(q.len() as u32);
        prop_assert!(score >= all_gaps);
        let perfect = sc.a * t.len().min(q.len()) as i32;
        prop_assert!(score <= perfect);
    }

    /// Backtracked CIGARs consume both sequences exactly and re-score to the
    /// reported score, which itself matches the 32-bit full-matrix
    /// reference.
    #[test]
    fn backtracked_cigars_rescore_to_the_reported_score(
        t in proptest::collection::vec(0u8..4, 5..180),
        q in proptest::collection::vec(0u8..4, 5..180),
    ) {
        let sc = Scoring::MAP_ONT;
        let r = best_engine().align(&t, &q, &sc, true);
        let gold = mmm_align::fullmatrix::align(&t, &q, &sc, false);
        prop_assert_eq!(r.score, gold.score);
        let cigar = r.cigar.expect("with_path must produce a cigar");
        prop_assert_eq!(cigar.target_len() as usize, t.len());
        prop_assert_eq!(cigar.query_len() as usize, q.len());
        prop_assert_eq!(cigar.score(&t, &q, &sc), r.score);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(700))]

    /// `chain_anchors` returns what its reference loop returns, chain for
    /// chain, on every shape [`chain_case`] builds.
    #[test]
    fn chain_anchors_equals_the_reference_loop(
        shape in 0u32..CHAIN_SHAPES,
        seed in 0u64..1_000_000_000,
    ) {
        let (anchors, opts) = chain_case(shape, seed);
        let (want, _) = chain_anchors_gold(anchors.clone(), &opts);
        let got = chain_anchors(anchors, &opts);
        prop_assert_eq!(got, want, "shape {} seed {}", shape, seed);
    }
}

/// Every shape of [`chain_case`] builds chains of several anchors on most
/// seeds, so the comparison above is not between two empty lists.
#[test]
fn chain_cases_chain() {
    for shape in 0..CHAIN_SHAPES {
        let linked = (0..20)
            .filter(|&seed| {
                let (anchors, opts) = chain_case(shape, seed);
                chain_anchors_gold(anchors, &opts)
                    .0
                    .iter()
                    .any(|c| c.anchors.len() >= 2)
            })
            .count();
        assert!(linked >= 10, "shape {shape}: {linked}/20 seeds chain");
    }
}

/// Shapes [`chain_case`] builds.
const CHAIN_SHAPES: u32 = 8;

/// One seeded anchor set and the options to chain it with, for the
/// reference-loop comparison. `shape` picks what the set stresses:
///
/// 0. tandem repeats: every copy of a unit pairs with every other;
/// 1. successive anchors at, and one past, the `max_dist` and `bandwidth`
///    edges (and `dr == 0`), under small random options;
/// 2. a chain whose next link sits exactly `max_iter` or `max_iter + 1`
///    anchors back, behind non-colinear filler;
/// 3. `dr == 0` columns: several query positions on one reference
///    position, along a diagonal;
/// 4. mixed `(rid, rev)` groups, interleaved in input order, with anchor
///    spans 13–25 (several gap-cost tables);
/// 5. equal-score chain ends competing for one shared prefix, plus
///    anchors equal in the whole sort key but not in `span`, with
///    `min_cnt` 1 so the loser of each tie shows as its own chain;
/// 6. a `bandwidth` past the gap-cost table, with gaps either side of it;
/// 7. diagonal runs spread over the whole `u32` range of `rid`, `rpos` and
///    `qpos`, so the scan's position differences reach both ends of the
///    `u32` range.
///
/// The set is shuffled, since the input order decides how sort ties fall.
fn chain_case(shape: u32, seed: u64) -> (Vec<Anchor>, ChainOpts) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = move |m: u32| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % u64::from(m.max(1))) as u32
    };
    let at = |rid: u32, rev: bool, rpos: u32, qpos: u32, span: u8| Anchor {
        rid,
        rpos,
        qpos,
        qlen: 1 << 30,
        rev,
        span,
    };
    let mut opts = ChainOpts {
        min_score: 20,
        min_cnt: 2,
        ..Default::default()
    };
    let mut v = Vec::new();
    match shape {
        0 => {
            let (period, copies, step) = (40 + rnd(400), 2 + rnd(7), 5 + rnd(25));
            for u in 0..copies {
                for w in 0..copies {
                    for t in 0..period / step {
                        if rnd(5) > 0 {
                            let (r, q) = (u * period + t * step, w * period + t * step);
                            v.push(at(0, false, 10_000 + r + rnd(3), 100 + q + rnd(3), 15));
                        }
                    }
                }
            }
        }
        1 => {
            opts.max_dist = 100 + rnd(900);
            opts.bandwidth = 5 + rnd(60);
            opts.max_skip = rnd(6) as usize;
            opts.min_score = 1;
            let (md, bw) = (opts.max_dist, opts.bandwidth);
            let (mut r, mut q) = (1_000u32, 1_000u32);
            for _ in 0..20 + rnd(60) {
                let dr = [md, md + 1, md - 1, bw, bw + 1, 1, 0, 40][rnd(8) as usize];
                let dq = match rnd(6) {
                    0 => dr + bw,
                    1 => dr + bw + 1,
                    2 => dr.saturating_sub(bw),
                    3 => dr.saturating_sub(bw + 1),
                    4 => md + rnd(2),
                    _ => dr,
                };
                r += dr;
                q += dq;
                v.push(at(0, false, r, q, 15));
            }
        }
        2 => {
            opts.max_iter = 1 + rnd(12) as usize;
            let (mut r, mut q) = (500u32, 500u32);
            for _ in 0..10 + rnd(30) {
                v.push(at(0, false, r, q, 15));
                for f in 0..opts.max_iter as u32 - 1 + rnd(2) {
                    v.push(at(0, false, r + 1 + f, q + 50_000, 15));
                }
                r += 60 + rnd(20);
                q += 60 + rnd(20);
            }
        }
        3 => {
            let (mut r, mut q) = (2_000u32, 300u32);
            for _ in 0..10 + rnd(40) {
                for _ in 0..1 + rnd(4) {
                    v.push(at(0, false, r, q + rnd(40), 15));
                }
                r += 1 + rnd(50);
                q += 1 + rnd(50);
            }
        }
        4 => {
            for _ in 0..20 + rnd(200) {
                let span = 13 + rnd(13) as u8;
                v.push(at(
                    rnd(3),
                    rnd(2) == 1,
                    100 + rnd(20_000),
                    100 + rnd(4_000),
                    span,
                ));
            }
        }
        5 => {
            opts.min_cnt = 1;
            opts.min_score = 1;
            for branch_point in 0..1 + rnd(4) {
                let (r0, q0) = (100_000 * (branch_point + 1), 1_000 * (branch_point + 1));
                let len = 2 + rnd(5);
                for k in 0..len {
                    v.push(at(0, false, r0 + 100 * k, q0 + 100 * k, 15));
                }
                // Ends one step on, on one reference position: each scores
                // the same (|dr − dq| ≤ 1 costs 0) and only one takes the
                // prefix.
                let (re, qe) = (r0 + 100 * len, q0 + 100 * len);
                for e in 0..2 + rnd(3) {
                    v.push(at(0, false, re, qe - e, 15));
                }
                // The same sort key twice, different spans.
                v.push(at(0, false, re + 100, qe + 100, 15));
                v.push(at(0, false, re + 100, qe + 100, 17));
            }
        }
        6 => {
            opts.bandwidth = 1_024 + rnd(4_000);
            opts.max_dist = 20_000;
            opts.min_score = 1;
            let (mut r, mut q) = (1_000u32, 1_000u32);
            for _ in 0..20 + rnd(40) {
                let jump = [1_000u32, 1_023, 1_024, 1_025, 3_000, 10][rnd(6) as usize];
                r += 100 + jump;
                q += 100 + rnd(2) * jump;
                v.push(at(0, false, r, q, 15));
            }
        }
        _ => {
            let far = [0, 1 << 31, u32::MAX - 100_000];
            for _ in 0..2 + rnd(6) {
                let rid = [0, 7, 1 << 31, u32::MAX][rnd(4) as usize];
                let (r0, q0) = (far[rnd(3) as usize], far[rnd(3) as usize]);
                let rev = rnd(2) == 1;
                for k in 0..3 + rnd(8) {
                    v.push(at(rid, rev, r0 + 90 * k + rnd(5), q0 + 90 * k + rnd(5), 15));
                }
            }
        }
    }
    for i in (1..v.len()).rev() {
        v.swap(i, rnd(i as u32 + 1) as usize);
    }
    (v, opts)
}
