//! Exact z-drop extension — ksw2/minimap2's real extension semantics.
//!
//! At the ends of a chain the remaining read tail is extended across a
//! reference window: the alignment starts at (0,0), may end at *any* cell,
//! and the DP stops early once every cell of a diagonal scores more than
//! `zdrop` below the best cell seen so far (minimap2's `-z`), so the
//! alignment ends where the score peaks instead of being dragged through
//! a noisy tail. Absolute scores are reconstructed per diagonal from the
//! difference recurrence with one extra O(width) 32-bit pass — the same
//! trick ksw2's exact mode uses:
//! `H(r,t) = H(r-1,t-1) + z(r,t)`, which telescopes in place when `t` is
//! swept downward.
//!
//! The kernel itself is the dependency-free Eq. 4 layout, so the extension
//! inherits manymap's memory behaviour — and its vector lanes: the SIMD
//! tiers run the same in-place step as the fill kernels, then the 32-bit
//! pass sixteen lanes at a time and one max-reduce per diagonal
//! (`simd::kernel::extend_zdrop`). This file keeps the scalar kernel, which
//! is the `Width::Scalar` path and the oracle of the differential tests.
//!
//! Tie rule, identical on every tier: the best cell is the first diagonal
//! that reaches the overall maximum and the smallest `t` on it.
//!
//! The direction matrix grows one diagonal at a time, so an extension that
//! z-drops early has touched (and holds) only the rows it computed.

use crate::cigar::Cigar;
use crate::diff::{backtrack_into, cell_update};
use crate::dispatch::best_engine;
use crate::score::Scoring;
use crate::scratch::{reset_fill, AlignScratch};

/// Result of an end extension.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtendResult {
    /// Score at the best cell.
    pub score: i32,
    /// Target bases consumed up to the best cell.
    pub t_consumed: usize,
    /// Query bases consumed up to the best cell.
    pub q_consumed: usize,
    /// The path ending at the best cell (empty without `with_path`).
    pub cigar: Cigar,
}

impl ExtendResult {
    /// The extension that consumes nothing (empty input, or no cell scored
    /// above zero).
    pub(crate) fn empty() -> Self {
        ExtendResult {
            score: 0,
            t_consumed: 0,
            q_consumed: 0,
            cigar: Cigar::new(),
        }
    }
}

/// Extension alignment with exact per-cell scores and z-drop termination.
///
/// Returns the best-cell score, the consumed prefix lengths and (when
/// `with_path`) the CIGAR of the path ending at the best cell. A `zdrop`
/// of `i32::MAX` disables early termination (full local-end search).
pub fn extend_zdrop(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    zdrop: i32,
    with_path: bool,
) -> ExtendResult {
    extend_zdrop_with_scratch(
        target,
        query,
        sc,
        zdrop,
        with_path,
        &mut AlignScratch::new(),
    )
}

/// [`extend_zdrop`] with caller-provided buffers, on the widest available
/// vector tier ([`crate::Engine::extend_zdrop_with_scratch`] picks another).
pub fn extend_zdrop_with_scratch(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    zdrop: i32,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> ExtendResult {
    best_engine().extend_zdrop_with_scratch(target, query, sc, zdrop, with_path, scratch)
}

/// The scalar extension: the `Width::Scalar` kernel and the oracle the
/// vector kernels in [`crate::simd`] are tested against. Inputs are
/// non-empty and checked by [`crate::Engine::extend_zdrop_with_scratch`].
pub(crate) fn extend_scalar(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    zdrop: i32,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> ExtendResult {
    let (tlen, qlen) = (target.len(), query.len());
    let (q, e) = (sc.q, sc.e);
    let qe = q + e;

    let AlignScratch {
        u,
        v,
        x,
        y,
        h32,
        dir,
        cigars,
        ..
    } = scratch;
    reset_fill(u, tlen, -e as i8);
    reset_fill(y, tlen, -qe as i8);
    u[0] = -qe as i8;
    reset_fill(v, qlen + 1, -e as i8);
    reset_fill(x, qlen + 1, -qe as i8);
    v[qlen] = -qe as i8;

    // Exact 32-bit scores: h32[t] always holds H at the most recent
    // diagonal that touched row t, maintained via the column identity
    // H(i, j) = H(i, j-1) + v(i, j) — one add per cell, no cross-lane
    // dependency (ksw2's exact-score pass).
    reset_fill(h32, tlen, 0i32);

    let mut dir = if with_path {
        dir.reset(tlen, qlen);
        Some(dir)
    } else {
        None
    };
    let mut best = (i32::MIN, 0usize, 0usize); // (score, i, j)

    for r in 0..tlen + qlen - 1 {
        let st = r.saturating_sub(qlen - 1);
        let en = r.min(tlen - 1);
        let off = st + qlen - r;
        let mut dir_row = dir.as_mut().map(|d| d.push_row());
        let mut diag_best = i32::MIN;
        for t in st..=en {
            let tp = t - st + off;
            let s = sc.subst(target[t], query[r - t]);
            let (un, vn, xn, yn, d) = cell_update(
                s,
                x[tp] as i32,
                v[tp] as i32,
                y[t] as i32,
                u[t] as i32,
                q,
                qe,
            );
            u[t] = un;
            v[tp] = vn;
            x[tp] = xn;
            y[t] = yn;
            if let Some(row) = dir_row.as_deref_mut() {
                row[t - st] = d;
            }
            if t == r {
                // First visit of row t (j = 0): H(t, -1) = -gap(t+1).
                h32[t] = -sc.gap_cost(t as u32 + 1);
            }
            h32[t] += vn as i32;
            let h = h32[t];
            if h > diag_best {
                diag_best = h;
            }
            if h > best.0 {
                best = (h, t, r - t);
            }
        }

        // z-drop: the whole frontier fell too far below the best cell.
        if best.0 - diag_best > zdrop {
            break;
        }
    }

    if best.0 <= 0 {
        return ExtendResult::empty();
    }
    let cigar = dir
        .map(|d| {
            let mut c = AlignScratch::take_cigar(cigars);
            backtrack_into(|i, j| d.get(i, j), best.1, best.2, &mut c);
            c
        })
        .unwrap_or_default();
    ExtendResult {
        score: best.0,
        t_consumed: best.1 + 1,
        q_consumed: best.2 + 1,
        cigar,
    }
}

/// Convenience: minimap2's default z-drop for long reads (`-z 400`).
pub const DEFAULT_ZDROP: i32 = 400;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{Engine, Layout, Width};

    const SC: Scoring = Scoring::MAP_ONT;

    /// Independent reference: max-cell score of a global-start DP.
    fn reference_extension(target: &[u8], query: &[u8], sc: &Scoring) -> (i32, usize, usize) {
        let (tl, ql) = (target.len(), query.len());
        let neg = i32::MIN / 4;
        let cols = ql + 1;
        let mut h = vec![neg; (tl + 1) * cols];
        let mut e = vec![neg; (tl + 1) * cols];
        let mut f = vec![neg; (tl + 1) * cols];
        h[0] = 0;
        for i in 1..=tl {
            h[i * cols] = -sc.gap_cost(i as u32);
        }
        for (j, hj) in h.iter_mut().enumerate().take(ql + 1).skip(1) {
            *hj = -sc.gap_cost(j as u32);
        }
        let mut best = (i32::MIN, 0usize, 0usize);
        for i in 1..=tl {
            for j in 1..=ql {
                let ev = (h[(i - 1) * cols + j] - sc.q).max(e[(i - 1) * cols + j]) - sc.e;
                let fv = (h[i * cols + j - 1] - sc.q).max(f[i * cols + j - 1]) - sc.e;
                let dg = h[(i - 1) * cols + j - 1] + sc.subst(target[i - 1], query[j - 1]);
                let hv = dg.max(ev).max(fv);
                e[i * cols + j] = ev;
                f[i * cols + j] = fv;
                h[i * cols + j] = hv;
                if hv > best.0 {
                    best = (hv, i, j);
                }
            }
        }
        best
    }

    fn noisy(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
        let mut s = seed | 1;
        let mut rnd = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (s >> 33) as usize
        };
        let t: Vec<u8> = (0..len).map(|_| (rnd() % 4) as u8).collect();
        let mut q = t.clone();
        for _ in 0..len / 10 {
            let p = rnd() % q.len();
            q[p] = (rnd() % 4) as u8;
        }
        (t, q)
    }

    #[test]
    fn matches_max_cell_reference_without_zdrop() {
        // The scalar oracle, and every width as `Engine` dispatches it,
        // against an independent full-matrix DP (`simd::tests` holds the
        // tiers' own kernels to the oracle).
        for width in Width::ALL.into_iter().filter(|w| w.is_available()) {
            let engine = Engine::new(Layout::Manymap, width);
            let mut scratch = AlignScratch::new();
            for (len, seed) in [(40usize, 1u64), (120, 2), (300, 3)] {
                let (t, q) = noisy(len, seed);
                let (score, bi, bj) = reference_extension(&t, &q, &SC);
                let r = engine.extend_zdrop_with_scratch(&t, &q, &SC, i32::MAX, true, &mut scratch);
                assert_eq!(r.score, score.max(0), "{width:?} len={len}");
                if score > 0 {
                    assert_eq!(
                        (r.t_consumed, r.q_consumed),
                        (bi, bj),
                        "{width:?} len={len}"
                    );
                    assert_eq!(r.cigar.score(&t, &q, &SC), r.score);
                    assert_eq!(r.cigar.target_len() as usize, r.t_consumed);
                    assert_eq!(r.cigar.query_len() as usize, r.q_consumed);
                }
            }
        }
    }

    #[test]
    fn stops_inside_a_noise_wall() {
        // 200 matching bases then 1 kb of unrelated sequence: with z-drop
        // the DP must terminate long before the far corner while still
        // reporting the 200-base extension.
        let (mut t, _) = noisy(200, 9);
        let clean = t.clone();
        let mut s = 77u64;
        let mut rnd = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) % 4) as u8
        };
        t.extend((0..1000).map(|_| rnd()));
        let mut q = clean;
        q.extend((0..1000).map(|_| rnd().wrapping_add(1) % 4));
        let r = extend_zdrop(&t, &q, &SC, DEFAULT_ZDROP, false);
        assert!(r.score >= 390, "score={}", r.score); // ~200 matches
        assert!(
            r.t_consumed >= 190 && r.t_consumed <= 460,
            "t={}",
            r.t_consumed
        );
    }

    #[test]
    fn zdrop_never_increases_the_score() {
        let (t, q) = noisy(250, 5);
        let full = extend_zdrop(&t, &q, &SC, i32::MAX, false);
        for z in [50, 200, 1000] {
            let dropped = extend_zdrop(&t, &q, &SC, z, false);
            assert!(dropped.score <= full.score, "z={z}");
        }
        // A huge zdrop is equivalent to no zdrop.
        assert_eq!(extend_zdrop(&t, &q, &SC, 1 << 20, false).score, full.score);
    }

    #[test]
    fn hopeless_extension_is_empty() {
        let t = vec![0u8; 50];
        let q = vec![1u8; 50];
        let r = extend_zdrop(&t, &q, &SC, DEFAULT_ZDROP, true);
        assert_eq!(r.score, 0);
        assert_eq!(r.t_consumed, 0);
        assert!(r.cigar.is_empty());
    }

    #[test]
    fn empty_inputs() {
        let r = extend_zdrop(&[], &[0, 1, 2], &SC, 100, false);
        assert_eq!(r.score, 0);
    }
}
