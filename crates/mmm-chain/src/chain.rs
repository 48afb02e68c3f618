//! The chaining dynamic program.
//!
//! minimap2's chaining score between anchors `j → i` (same rid/strand,
//! `rpos_j < rpos_i`):
//!
//! ```text
//! f(i) = max( f(j) + min(min(dq, dr), span_i) − γ(|dq − dr|) , span_i )
//! γ(g)  = 0.01·span·g + 0.5·log2(g)      (γ(0) = 0)
//! ```
//!
//! with `dq = qpos_i − qpos_j`, `dr = rpos_i − rpos_j`. Predecessors are
//! scanned over a bounded window (`max_iter`) and the scan aborts early
//! after `max_skip` consecutive non-improving candidates — the two
//! heuristics that make minimap2's chaining near-linear in practice.

use crate::anchor::{sort_anchors, Anchor};

/// Chaining parameters (minimap2 defaults for long reads).
#[derive(Clone, Copy, Debug)]
pub struct ChainOpts {
    /// Maximum gap between adjacent anchors (`-g`, 5000 for map-pb/ont).
    pub max_dist: u32,
    /// Bandwidth: maximum |dq - dr| allowed (`-r`, 500).
    pub bandwidth: u32,
    /// Predecessor window (`--max-chain-iter`, 5000; scaled down here).
    pub max_iter: usize,
    /// Early-exit after this many non-improving predecessors (25).
    pub max_skip: usize,
    /// Minimum chain score (`-m`, 40).
    pub min_score: i32,
    /// Minimum number of anchors per chain (`-n`, 3).
    pub min_cnt: usize,
}

impl Default for ChainOpts {
    fn default() -> Self {
        ChainOpts {
            max_dist: 5000,
            bandwidth: 500,
            max_iter: 5000,
            max_skip: 25,
            min_score: 40,
            min_cnt: 3,
        }
    }
}

/// One chain: a colinear run of anchors with its DP score.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chain {
    /// Indices are implicit; the anchors themselves are stored in chain
    /// order (ascending reference position).
    pub anchors: Vec<Anchor>,
    /// Chaining DP score.
    pub score: i32,
    /// Reference sequence id.
    pub rid: u32,
    /// Strand.
    pub rev: bool,
}

impl Chain {
    /// Reference interval covered (start of first k-mer .. end of last).
    pub fn ref_range(&self) -> (u32, u32) {
        let first = &self.anchors[0];
        let last = &self.anchors[self.anchors.len() - 1];
        (first.rpos + 1 - first.span as u32, last.rpos + 1)
    }

    /// Query interval covered, in the strand-local coordinates of the
    /// anchors.
    pub fn query_range(&self) -> (u32, u32) {
        let first = &self.anchors[0];
        let last = &self.anchors[self.anchors.len() - 1];
        (first.qpos + 1 - first.span as u32, last.qpos + 1)
    }

    /// Query interval covered, in forward read coordinates: a reverse
    /// chain's [`Chain::query_range`] mirrored through the read length its
    /// anchors carry, so chains on both strands compare.
    pub fn read_range(&self) -> (u32, u32) {
        let (s, e) = self.query_range();
        if self.rev {
            let qlen = self.anchors[0].qlen;
            (qlen - e, qlen - s)
        } else {
            (s, e)
        }
    }
}

/// Gap cost γ: 0.01·span·|g| + 0.5·log2(|g|), as in the minimap2 paper.
#[inline]
fn gap_cost(gap: u32, span: u8) -> i32 {
    if gap == 0 {
        return 0;
    }
    let g = gap as f32;
    (0.01 * span as f32 * g + 0.5 * g.log2()) as i32
}

/// Run the chaining DP and return all chains passing the score/count
/// filters, best score first. Anchors are sorted internally.
///
/// ```
/// use mmm_chain::{chain_anchors, Anchor, ChainOpts};
/// let anchors: Vec<Anchor> = (0..5)
///     .map(|k| Anchor { rid: 0, rpos: 1000 + 100 * k, qpos: 14 + 100 * k, qlen: 500, rev: false, span: 15 })
///     .collect();
/// let chains = chain_anchors(anchors, &ChainOpts::default());
/// assert_eq!(chains[0].anchors.len(), 5);
/// assert_eq!(chains[0].ref_range(), (986, 1401));
/// ```
pub fn chain_anchors(mut anchors: Vec<Anchor>, opts: &ChainOpts) -> Vec<Chain> {
    if anchors.is_empty() {
        return Vec::new();
    }
    sort_anchors(&mut anchors);
    let n = anchors.len();
    let mut f = vec![0i32; n]; // best chain score ending at i
    let mut parent = vec![usize::MAX; n];

    for i in 0..n {
        let ai = anchors[i];
        f[i] = ai.span as i32;
        let lo = i.saturating_sub(opts.max_iter);
        let mut skipped = 0usize;
        for j in (lo..i).rev() {
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
    chains
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(rid: u32, rpos: u32, qpos: u32) -> Anchor {
        Anchor {
            rid,
            rpos,
            qpos,
            qlen: 10_000,
            rev: false,
            span: 15,
        }
    }

    fn diagonal_anchors(n: u32, r0: u32, q0: u32) -> Vec<Anchor> {
        (0..n).map(|k| mk(0, r0 + 100 * k, q0 + 100 * k)).collect()
    }

    #[test]
    fn perfect_diagonal_forms_one_chain() {
        let chains = chain_anchors(diagonal_anchors(10, 1000, 14), &ChainOpts::default());
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].anchors.len(), 10);
        // 15 for the first anchor + 9 × 15 (min(dq,dr,span) = span, no gap).
        assert_eq!(chains[0].score, 150);
        // Anchors come back in ascending reference order.
        let rp: Vec<u32> = chains[0].anchors.iter().map(|a| a.rpos).collect();
        assert!(rp.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_input_gives_no_chains() {
        assert!(chain_anchors(Vec::new(), &ChainOpts::default()).is_empty());
    }

    #[test]
    fn distant_clusters_form_separate_chains() {
        let mut a = diagonal_anchors(5, 1_000, 14);
        a.extend(diagonal_anchors(5, 500_000, 14)); // far beyond max_dist
        let opts = ChainOpts {
            min_score: 10,
            ..Default::default()
        };
        let chains = chain_anchors(a, &opts);
        assert_eq!(chains.len(), 2);
    }

    #[test]
    fn different_strands_never_chain_together() {
        let mut a = diagonal_anchors(4, 1000, 14);
        a.extend((0..4).map(|k| Anchor {
            rev: true,
            ..mk(0, 1400 + 100 * k, 500 + 100 * k)
        }));
        let opts = ChainOpts {
            min_score: 10,
            min_cnt: 2,
            ..Default::default()
        };
        let chains = chain_anchors(a, &opts);
        assert_eq!(chains.len(), 2);
        assert_ne!(chains[0].rev, chains[1].rev);
    }

    #[test]
    fn gap_penalty_reduces_score() {
        // Same anchor count, but one chain has a 50 bp indel between the
        // last two anchors (dr = 450, dq = 400, |dd| = 50).
        let straight = chain_anchors(diagonal_anchors(5, 1000, 14), &ChainOpts::default());
        let mut skewed_anchors = diagonal_anchors(4, 1000, 14);
        skewed_anchors.push(mk(0, 1300 + 450, 314 + 400));
        let skewed = chain_anchors(skewed_anchors, &ChainOpts::default());
        assert!(skewed[0].score < straight[0].score);
        assert_eq!(skewed[0].anchors.len(), 5);
    }

    #[test]
    fn huge_gap_breaks_the_chain_instead_of_paying() {
        // A 400 bp diagonal jump costs more than restarting, so the final
        // anchor starts its own (filtered-out) chain.
        let mut a = diagonal_anchors(4, 1000, 14);
        a.push(mk(0, 1300 + 500, 314 + 100)); // dd = 400
        let chains = chain_anchors(a, &ChainOpts::default());
        assert_eq!(chains[0].anchors.len(), 4);
    }

    #[test]
    fn bandwidth_splits_wild_diagonal_jumps() {
        let mut a = diagonal_anchors(4, 1000, 14);
        // Next cluster is 3 kb away in reference but 100 bp in query:
        // |dq - dr| ≈ 2900 > bandwidth.
        a.extend(diagonal_anchors(4, 4000, 114));
        let opts = ChainOpts {
            min_score: 10,
            ..Default::default()
        };
        let chains = chain_anchors(a, &opts);
        assert_eq!(chains.len(), 2);
    }

    #[test]
    fn non_colinear_anchor_is_excluded() {
        let mut a = diagonal_anchors(6, 1000, 14);
        a.push(mk(0, 1250, 5000)); // query position wildly off the diagonal
        let chains = chain_anchors(a, &ChainOpts::default());
        assert_eq!(chains[0].anchors.len(), 6);
    }

    #[test]
    fn min_cnt_filters_short_chains() {
        let opts = ChainOpts {
            min_score: 1,
            min_cnt: 4,
            ..Default::default()
        };
        let chains = chain_anchors(diagonal_anchors(3, 1000, 14), &opts);
        assert!(chains.is_empty());
    }

    #[test]
    fn ranges_cover_anchor_spans() {
        let chains = chain_anchors(diagonal_anchors(5, 1000, 140), &ChainOpts::default());
        let (rs, re) = chains[0].ref_range();
        assert_eq!(rs, 1000 + 1 - 15);
        assert_eq!(re, 1401);
        let (qs, qe) = chains[0].query_range();
        assert_eq!(qs, 140 + 1 - 15);
        assert_eq!(qe, 541);
        assert_eq!(chains[0].read_range(), (qs, qe));
        // The same anchors on the reverse strand cover the mirror interval
        // of the 10 kb read.
        let mut rc = chains[0].clone();
        rc.rev = true;
        rc.anchors.iter_mut().for_each(|a| a.rev = true);
        assert_eq!(rc.read_range(), (10_000 - 541, 10_000 - 126));
    }
}
