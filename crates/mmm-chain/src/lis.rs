//! LIS-based chaining — the classic `O(n log n)` alternative.
//!
//! Before gap-cost chaining (minimap/minimap2), overlappers found colinear
//! anchor sets as a *longest increasing subsequence* over query positions
//! of reference-sorted anchors (e.g. MHAP/BLASR's clustering stage). It is
//! faster than the DP but blind to gap geometry: any colinear anchor can
//! join the chain no matter how far away. The crate keeps it as an
//! ablation partner for [`crate::chain::chain_anchors`] — the design-choice
//! comparison DESIGN.md calls out — and for tests that need an exact
//! colinearity oracle.

use crate::anchor::{sort_anchors, Anchor};
use crate::chain::Chain;

/// Longest (strictly) increasing subsequence over `qpos` of each
/// (rid, strand) group of anchors; ties in `rpos` cannot both be used, so
/// the LIS is over pairs with strictly increasing `rpos` *and* `qpos`.
/// Returns one chain per group, best first, scored `span × length` (the
/// anchor-bases heuristic), keeping chains of at least `min_cnt` anchors.
pub fn chain_lis(mut anchors: Vec<Anchor>, min_cnt: usize) -> Vec<Chain> {
    if anchors.is_empty() {
        return Vec::new();
    }
    sort_anchors(&mut anchors);
    let mut chains = Vec::new();
    let mut start = 0;
    for i in 1..=anchors.len() {
        let boundary = i == anchors.len()
            || anchors[i].rid != anchors[start].rid
            || anchors[i].rev != anchors[start].rev;
        if boundary {
            if let Some(c) = lis_one_group(&anchors[start..i], min_cnt) {
                chains.push(c);
            }
            start = i;
        }
    }
    chains.sort_by_key(|c| -c.score);
    chains
}

/// Patience-sorting LIS with parent links over one sorted group.
fn lis_one_group(group: &[Anchor], min_cnt: usize) -> Option<Chain> {
    // group is sorted by (rpos, qpos); the LIS constraint is strictly
    // increasing qpos with strictly increasing rpos. Equal rpos entries are
    // adjacent; process them together so they cannot chain to each other.
    let n = group.len();
    let mut tails: Vec<usize> = Vec::new(); // indices of smallest tail per length
    let mut parent = vec![usize::MAX; n];

    let mut i = 0;
    while i < n {
        // Anchors sharing one rpos must be inserted against the same tails
        // snapshot (none of them may extend another).
        let mut j = i;
        while j < n && group[j].rpos == group[i].rpos {
            j += 1;
        }
        let snapshot = tails.clone();
        for k in i..j {
            let q = group[k].qpos;
            // Binary search over the snapshot for the longest chain whose
            // tail qpos < q.
            let pos = snapshot.partition_point(|&t| group[t].qpos < q);
            if pos > 0 {
                parent[k] = snapshot[pos - 1];
            }
            if pos == tails.len() {
                tails.push(k);
            } else if group[tails[pos]].qpos > q {
                tails[pos] = k;
            }
        }
        i = j;
    }

    if tails.len() < min_cnt.max(1) {
        return None;
    }
    let mut idxs = Vec::with_capacity(tails.len());
    // Non-empty: the min_cnt guard above rejected empty chains.
    let mut cur = *tails.last()?;
    loop {
        idxs.push(cur);
        if parent[cur] == usize::MAX {
            break;
        }
        cur = parent[cur];
    }
    idxs.reverse();
    let score = idxs.len() as i32 * group[idxs[0]].span as i32;
    Some(Chain {
        anchors: idxs.iter().map(|&k| group[k]).collect(),
        score,
        rid: group[0].rid,
        rev: group[0].rev,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{chain_anchors, ChainOpts};

    fn mk(rpos: u32, qpos: u32) -> Anchor {
        Anchor {
            rid: 0,
            rpos,
            qpos,
            qlen: 30_000,
            rev: false,
            span: 15,
        }
    }

    #[test]
    fn picks_the_longest_colinear_subset() {
        // Diagonal run of 5 with 2 off-diagonal decoys.
        let mut a: Vec<Anchor> = (0..5).map(|k| mk(1000 + 100 * k, 10 + 100 * k)).collect();
        a.push(mk(1050, 5000));
        a.push(mk(1250, 2));
        let chains = chain_lis(a, 2);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].anchors.len(), 5);
        for w in chains[0].anchors.windows(2) {
            assert!(w[0].rpos < w[1].rpos && w[0].qpos < w[1].qpos);
        }
    }

    #[test]
    fn equal_rpos_anchors_cannot_chain_together() {
        let a = vec![mk(100, 10), mk(100, 20), mk(100, 30)];
        let chains = chain_lis(a, 1);
        assert_eq!(chains[0].anchors.len(), 1);
    }

    #[test]
    fn groups_by_strand() {
        let mut a: Vec<Anchor> = (0..3).map(|k| mk(100 * (k + 1), 50 * (k + 1))).collect();
        a.extend((0..4).map(|k| Anchor {
            rev: true,
            ..mk(100 * (k + 1), 50 * (k + 1))
        }));
        let chains = chain_lis(a, 1);
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].anchors.len(), 4); // best first
        assert!(chains[0].rev);
    }

    #[test]
    fn agrees_with_dp_on_clean_diagonals() {
        let a: Vec<Anchor> = (0..10).map(|k| mk(1000 + 100 * k, 10 + 100 * k)).collect();
        let lis = chain_lis(a.clone(), 3);
        let dp = chain_anchors(a, &ChainOpts::default());
        assert_eq!(lis[0].anchors, dp[0].anchors);
    }

    #[test]
    fn ignores_gap_geometry_unlike_dp() {
        // Two clusters separated by 200 kb: the DP (max_dist) breaks the
        // chain; LIS happily joins them — its known weakness.
        let mut a: Vec<Anchor> = (0..4).map(|k| mk(1000 + 100 * k, 10 + 100 * k)).collect();
        a.extend((0..4).map(|k| mk(201_000 + 100 * k, 20_010 + 100 * k)));
        let lis = chain_lis(a.clone(), 1);
        assert_eq!(lis[0].anchors.len(), 8);
        let opts = ChainOpts {
            min_score: 10,
            ..Default::default()
        };
        let dp = chain_anchors(a, &opts);
        assert!(dp.iter().all(|c| c.anchors.len() <= 4));
    }

    #[test]
    fn empty_and_min_cnt() {
        assert!(chain_lis(Vec::new(), 1).is_empty());
        let a = vec![mk(1, 1), mk(2, 2)];
        assert!(chain_lis(a.clone(), 3).is_empty());
        assert_eq!(chain_lis(a, 2).len(), 1);
    }
}
