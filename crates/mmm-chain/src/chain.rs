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

use std::sync::OnceLock;

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

/// Gaps each γ table covers: every gap a default `bandwidth` (500) admits,
/// with room to spare. A larger `bandwidth` reads the table up to here and
/// computes γ with `log2` past it, as the reference loop does.
const GAP_COST_LEN: usize = 1024;

/// γ(g) for `g < GAP_COST_LEN` at one anchor span, as `i32`: entry `g` is
/// `(0.01·span)·g + 0.5·log2(g)` truncated, the reference loop's `f32`
/// expression in its association, and entry 0 is γ(0) = 0. A table is
/// built on the first anchor of its span and kept for the process (4 KiB
/// each; `map-ont` uses one span, HPC presets a few).
fn gap_costs(span: u8) -> &'static [i32; GAP_COST_LEN] {
    static TABLES: [OnceLock<Box<[i32; GAP_COST_LEN]>>; 256] = [const { OnceLock::new() }; 256];
    TABLES[usize::from(span)].get_or_init(|| {
        let mut t = Box::new([0i32; GAP_COST_LEN]);
        for (g, c) in t.iter_mut().enumerate().skip(1) {
            *c = far_gap_cost(g as u32, span);
        }
        t
    })
}

/// γ(g) for `g ≥ 1` computed as the reference loop computes it. Out of
/// line, so the scan that calls it past the table keeps its registers.
#[cold]
#[inline(never)]
fn far_gap_cost(gap: u32, span: u8) -> i32 {
    let g = gap as f32;
    (0.01 * span as f32 * g + 0.5 * g.log2()) as i32
}

/// "No parent": the anchor starts its chain.
const NO_PARENT: usize = usize::MAX;

/// The best chain score ending at one anchor `(ri, qi, span)`, and the
/// window index of its predecessor (`NO_PARENT` if none beats `span`).
/// `window` holds `rpos << 32 | qpos` of the anchors before it in its
/// group and within `max_dist` and `max_iter` of it, `f` their scores.
///
/// The scan walks the window from the nearest anchor back, scoring each
/// predecessor the filters admit, and stops after `max_skip + 1` scored
/// predecessors in a row fail to improve, as the reference loop does. The
/// four filters are one branch: positions widen to `i64`, where `dq ∈
/// [1, max_dist]` and `|dr − dq| ≤ bandwidth` are each one unsigned
/// compare, exact for every `u32` input. γ comes from the span's table, and
/// from `far_gap_cost` past its end.
#[inline(always)]
fn best_predecessor(
    window: &[u64],
    f: &[i32],
    (ri, qi, span): (u32, u32, u8),
    opts: &ChainOpts,
) -> (i32, usize) {
    let costs = gap_costs(span);
    let gap_cost = |g: u32| {
        costs
            .get(g as usize)
            .map_or_else(|| far_gap_cost(g, span), |&c| c)
    };
    let max_dist = u64::from(opts.max_dist);
    let bw = i64::from(opts.bandwidth);
    let reset = opts.max_skip + 1;
    let span_score = i32::from(span);
    let (mut best, mut best_k, mut budget) = (span_score, NO_PARENT, reset);
    for (k, (&rq, &fj)) in window.iter().zip(f).enumerate().rev() {
        let dr = i64::from(ri - (rq >> 32) as u32);
        let dq = i64::from(qi) - i64::from(rq as u32);
        let dd = dr - dq;
        if (dr == 0) | ((dq - 1) as u64 >= max_dist) | ((dd + bw) as u64 > 2 * bw as u64) {
            continue;
        }
        let gain = (dq.min(dr) as u32 as i32).min(span_score) - gap_cost(dd.unsigned_abs() as u32);
        let cand = fj + gain;
        if cand > best {
            best = cand;
            best_k = k;
            budget = reset;
        } else {
            budget -= 1;
            if budget == 0 {
                break;
            }
        }
    }
    (best, best_k)
}

/// Run the chaining DP and return all chains passing the score/count
/// filters, best score first. Anchors are sorted internally.
///
/// The result is [`crate::gold::chain_anchors_gold`]'s, chain for chain;
/// only the work differs (DESIGN.md §4.3):
///
/// * anchors sort as the reference's do ([`sort_anchors`]), and their
///   positions are copied into one `rpos << 32 | qpos` word each;
/// * each anchor's predecessor window starts where a pointer, moved once
///   per anchor, has passed the `max_dist` edge, clamped to its
///   `(rid, rev)` group and to `max_iter` back, so the scan tests neither;
/// * γ is read from a per-span table (`gap_costs`), and the scan's
///   filters are one branch (`best_predecessor`).
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
    let pos: Vec<u64> = anchors
        .iter()
        .map(|a| u64::from(a.rpos) << 32 | u64::from(a.qpos))
        .collect();
    let mut f = vec![0i32; n]; // best chain score ending at i
    let mut parent = vec![NO_PARENT; n];

    // `edge`: the first anchor of i's group within `max_dist` of it on the
    // reference; i's window is `[max(edge, i − max_iter), i)`.
    let mut edge = 0usize;
    for i in 0..n {
        let ai = anchors[i];
        if i > 0 && (anchors[i - 1].rid != ai.rid || anchors[i - 1].rev != ai.rev) {
            edge = i;
        }
        while ai.rpos - (pos[edge] >> 32) as u32 > opts.max_dist {
            edge += 1;
        }
        let start = edge.max(i.saturating_sub(opts.max_iter));
        let (window, fw) = (&pos[start..i], &f[start..i]);
        let (best, k) = best_predecessor(window, fw, (ai.rpos, ai.qpos, ai.span), opts);
        f[i] = best;
        if k != NO_PARENT {
            parent[i] = start + k;
        }
    }

    // Backtrack from peaks: order candidate ends by score, greedily take
    // chains whose anchors are unused. Ends come best first, so the first
    // one under `min_score` ends the walk.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| -f[i]);
    let mut used = vec![false; n];
    let mut chains = Vec::new();
    let mut idxs = Vec::new();
    for &end in &order {
        if f[end] < opts.min_score {
            break;
        }
        if used[end] {
            continue;
        }
        idxs.clear();
        let mut cur = end;
        while cur != NO_PARENT && !used[cur] {
            idxs.push(cur);
            cur = parent[cur];
        }
        if idxs.len() < opts.min_cnt {
            continue;
        }
        for &k in &idxs {
            used[k] = true;
        }
        let first = anchors[idxs[idxs.len() - 1]];
        chains.push(Chain {
            anchors: idxs.iter().rev().map(|&k| anchors[k]).collect(),
            score: f[end],
            rid: first.rid,
            rev: first.rev,
        });
    }
    chains.sort_by_key(|c| -c.score);
    chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gold::chain_anchors_gold;

    /// `chain_anchors` and its reference loop, compared chain for chain.
    fn same_as_gold(anchors: Vec<Anchor>, opts: &ChainOpts) -> Vec<Chain> {
        let (want, _) = chain_anchors_gold(anchors.clone(), opts);
        let got = chain_anchors(anchors, opts);
        assert_eq!(got, want);
        got
    }

    #[test]
    fn gap_cost_tables_hold_the_reference_expression() {
        for span in [1u8, 15, 19, 28, 255] {
            let t = gap_costs(span);
            assert_eq!(t[0], 0);
            for g in 1..GAP_COST_LEN as u32 {
                let want = (0.01 * span as f32 * g as f32 + 0.5 * (g as f32).log2()) as i32;
                assert_eq!(t[g as usize], want, "span {span}, gap {g}");
            }
        }
    }

    /// Two ends score the same off one shared prefix; the backtrack's
    /// order over all `n` ends decides which one keeps it.
    #[test]
    fn equal_score_ends_fall_as_in_the_reference_loop() {
        let mut a = diagonal_anchors(4, 1000, 14);
        a.push(mk(0, 1400, 414));
        a.push(mk(0, 1400, 413));
        a.push(mk(0, 1400, 412));
        let opts = ChainOpts {
            min_score: 1,
            min_cnt: 1,
            ..Default::default()
        };
        let chains = same_as_gold(a, &opts);
        assert_eq!(chains.len(), 3);
        assert_eq!(chains[0].anchors.len(), 5);
    }

    /// A `bandwidth` past the γ table: predecessors off the diagonal by
    /// gaps either side of its end are scored (and lose to the diagonal).
    #[test]
    fn bandwidth_past_the_table_matches_the_reference_loop() {
        let opts = ChainOpts {
            bandwidth: 3 * GAP_COST_LEN as u32,
            ..Default::default()
        };
        let mut a = diagonal_anchors(8, 10_000, 5_000);
        for (k, off) in [1_023, 1_024, 1_025, 2_500].into_iter().enumerate() {
            a.push(mk(
                0,
                10_050 + 100 * k as u32 - off,
                5_000 + 100 * k as u32 + 50,
            ));
        }
        let chains = same_as_gold(a, &opts);
        assert_eq!(chains[0].anchors.len(), 8);
    }

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
