//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, spanning index → chain → align.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use mmm_align::{best_engine, Scoring};
use mmm_chain::{chain_anchors, ChainOpts};
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
        let anchors: Vec<mmm_chain::Anchor> = (0..n_anchors)
            .map(|_| mmm_chain::Anchor {
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
