//! The reference chaining loop: the gold [`crate::chain_anchors`] is held
//! to, as the scalar kernels are the gold of the SIMD tiers and
//! `MinimizerIndex::collect_anchors` that of the sharded seeding path.
//!
//! This is the chaining DP as minimap2's paper states it, one predecessor
//! at a time: every visit re-tests the `(rid, rev)` group and `max_dist`,
//! and every scored visit calls `f32::log2`. Production never calls it; the
//! unit tests, `tests/property.rs`, the xtask oracle's `chain_crosscheck`
//! and the `chain_dp` bench compare the two chain for chain.

use crate::anchor::{sort_anchors, Anchor};
use crate::chain::{Chain, ChainOpts};

/// Gap cost γ: 0.01·span·|g| + 0.5·log2(|g|), as in the minimap2 paper.
#[inline]
fn gap_cost(gap: u32, span: u8) -> i32 {
    if gap == 0 {
        return 0;
    }
    let g = gap as f32;
    (0.01 * span as f32 * g + 0.5 * g.log2()) as i32
}

/// [`crate::chain_anchors`] computed the reference way, with the number of
/// predecessor visits its scan made (a visit is one `j` the scan reads,
/// whether it scores it, skips it or stops at it).
pub fn chain_anchors_gold(mut anchors: Vec<Anchor>, opts: &ChainOpts) -> (Vec<Chain>, u64) {
    if anchors.is_empty() {
        return (Vec::new(), 0);
    }
    sort_anchors(&mut anchors);
    let n = anchors.len();
    let mut f = vec![0i32; n]; // best chain score ending at i
    let mut parent = vec![usize::MAX; n];
    let mut visits = 0u64;

    for i in 0..n {
        let ai = anchors[i];
        f[i] = ai.span as i32;
        let lo = i.saturating_sub(opts.max_iter);
        let mut skipped = 0usize;
        for j in (lo..i).rev() {
            visits += 1;
            let aj = anchors[j];
            if aj.rid != ai.rid || aj.rev != ai.rev {
                break; // sorted: previous group ended
            }
            let dr = ai.rpos - aj.rpos;
            if dr == 0 {
                continue; // same reference position cannot chain
            }
            if dr > opts.max_dist {
                break; // sorted by rpos: all further j are farther
            }
            if ai.qpos <= aj.qpos {
                continue; // not colinear on the query
            }
            let dq = ai.qpos - aj.qpos;
            if dq > opts.max_dist {
                continue;
            }
            let dd = dr.abs_diff(dq);
            if dd > opts.bandwidth {
                continue;
            }
            let gain = (dq.min(dr) as i32).min(ai.span as i32) - gap_cost(dd, ai.span);
            let cand = f[j] + gain;
            if cand > f[i] {
                f[i] = cand;
                parent[i] = j;
                skipped = 0;
            } else {
                skipped += 1;
                if skipped > opts.max_skip {
                    break;
                }
            }
        }
    }

    // Backtrack from peaks: order candidate ends by score, greedily take
    // chains whose anchors are unused.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| -f[i]);
    let mut used = vec![false; n];
    let mut chains = Vec::new();
    for &end in &order {
        if used[end] || f[end] < opts.min_score {
            continue;
        }
        let mut idxs = Vec::new();
        let mut cur = end;
        loop {
            if used[cur] {
                break; // ran into a previously consumed chain: cut here
            }
            idxs.push(cur);
            if parent[cur] == usize::MAX {
                break;
            }
            cur = parent[cur];
        }
        if idxs.len() < opts.min_cnt {
            continue;
        }
        for &k in &idxs {
            used[k] = true;
        }
        idxs.reverse();
        let rid = anchors[idxs[0]].rid;
        let rev = anchors[idxs[0]].rev;
        chains.push(Chain {
            anchors: idxs.iter().map(|&k| anchors[k]).collect(),
            score: f[end],
            rid,
            rev,
        });
    }
    chains.sort_by_key(|c| -c.score);
    (chains, visits)
}
