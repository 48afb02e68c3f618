//! Two-piece affine gap penalties — minimap2's real long-read gap model.
//!
//! The paper presents one-piece affine gaps "for simplicity" (§3.2);
//! minimap2 itself scores a gap of length `l` as
//! `min(q + l·e, q2 + l·e2)` with a cheap-open/steep-extend piece for small
//! indels and an expensive-open/flat-extend piece for long SV-like gaps
//! (defaults `-O4,24 -E2,1`). This module carries the paper's Eq. 4
//! transformation over to the two-piece recurrence (the analogue of
//! ksw2's `extd` kernel): two extra difference arrays `x2`, `y2` with the
//! same dependency-free in-place layout, plus a 32-bit full-matrix
//! reference it is property-tested against.

use crate::cigar::{Cigar, CigarOp};
use crate::diff::{backtrack2_into, Tracker};
use crate::scratch::{reset_fill, AlignScratch};
use crate::types::{AlignMode, AlignResult};

/// Two-piece scoring: `gap(l) = min(q + l·e, q2 + l·e2)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scoring2 {
    pub a: i32,
    pub b: i32,
    pub ambi: i32,
    /// Short-gap piece (open, extend).
    pub q: i32,
    pub e: i32,
    /// Long-gap piece: opens dearer, extends cheaper (`q2 > q`, `e2 < e`).
    pub q2: i32,
    pub e2: i32,
}

impl Scoring2 {
    /// minimap2's map-pb/map-ont long-read defaults (`-A2 -B4 -O4,24 -E2,1`).
    pub const LONG_READ: Scoring2 = Scoring2 {
        a: 2,
        b: 4,
        ambi: 1,
        q: 4,
        e: 2,
        q2: 24,
        e2: 1,
    };

    /// Substitution score between two nt4 codes.
    #[inline(always)]
    pub fn subst(&self, x: u8, y: u8) -> i32 {
        if x >= 4 || y >= 4 {
            -self.ambi
        } else if x == y {
            self.a
        } else {
            -self.b
        }
    }

    /// Two-piece gap cost (positive magnitude).
    #[inline]
    pub fn gap_cost(&self, len: u32) -> i32 {
        if len == 0 {
            return 0;
        }
        (self.q + len as i32 * self.e).min(self.q2 + len as i32 * self.e2)
    }

    /// Do all difference values fit in i8?
    pub fn fits_i8(&self) -> bool {
        let qe_max = (self.q + self.e).max(self.q2 + self.e2);
        self.a > 0
            && self.e > 0
            && self.e2 > 0
            && self.a + qe_max <= 127
            && 2 * qe_max + self.b.max(self.ambi) <= 127
    }
}

const NEG_INF: i32 = i32::MIN / 4;

/// 32-bit full-matrix two-piece reference (the gold standard).
pub fn fullmatrix2(
    target: &[u8],
    query: &[u8],
    sc: &Scoring2,
    mode: AlignMode,
    with_path: bool,
) -> AlignResult {
    let (tlen, qlen) = (target.len(), query.len());
    if tlen == 0 || qlen == 0 {
        return degenerate2(tlen, qlen, sc, mode, with_path);
    }
    let cols = qlen + 1;
    let idx = |i: usize, j: usize| i * cols + j;
    let mut h = vec![NEG_INF; (tlen + 1) * cols];
    let mut e = vec![NEG_INF; (tlen + 1) * cols];
    let mut f = vec![NEG_INF; (tlen + 1) * cols];
    let mut e2 = vec![NEG_INF; (tlen + 1) * cols];
    let mut f2 = vec![NEG_INF; (tlen + 1) * cols];

    h[idx(0, 0)] = 0;
    for i in 1..=tlen {
        h[idx(i, 0)] = -sc.gap_cost(i as u32);
    }
    for j in 1..=qlen {
        h[idx(0, j)] = -sc.gap_cost(j as u32);
    }

    for i in 1..=tlen {
        for j in 1..=qlen {
            let ev = (h[idx(i - 1, j)] - sc.q).max(e[idx(i - 1, j)]) - sc.e;
            let fv = (h[idx(i, j - 1)] - sc.q).max(f[idx(i, j - 1)]) - sc.e;
            let e2v = (h[idx(i - 1, j)] - sc.q2).max(e2[idx(i - 1, j)]) - sc.e2;
            let f2v = (h[idx(i, j - 1)] - sc.q2).max(f2[idx(i, j - 1)]) - sc.e2;
            let diag = h[idx(i - 1, j - 1)] + sc.subst(target[i - 1], query[j - 1]);
            e[idx(i, j)] = ev;
            f[idx(i, j)] = fv;
            e2[idx(i, j)] = e2v;
            f2[idx(i, j)] = f2v;
            h[idx(i, j)] = diag.max(ev).max(fv).max(e2v).max(f2v);
        }
    }

    let (score, ei, ej) = match mode {
        AlignMode::Global => (h[idx(tlen, qlen)], tlen, qlen),
        _ => {
            let mut best = (NEG_INF, tlen, qlen);
            if matches!(mode, AlignMode::SemiGlobal | AlignMode::QuerySuffixFree) {
                for j in 1..=qlen {
                    if h[idx(tlen, j)] > best.0 {
                        best = (h[idx(tlen, j)], tlen, j);
                    }
                }
            }
            if matches!(mode, AlignMode::SemiGlobal | AlignMode::TargetSuffixFree) {
                for i in 1..=tlen {
                    if h[idx(i, qlen)] > best.0 {
                        best = (h[idx(i, qlen)], i, qlen);
                    }
                }
            }
            best
        }
    };

    let cigar = with_path.then(|| {
        // Traceback by recomputation with the same preferences as the
        // difference kernel: diag > E > F > E2 > F2; gaps prefer opening.
        let mut cig = Cigar::new();
        let (mut i, mut j) = (ei, ej);
        #[derive(PartialEq, Clone, Copy)]
        enum St {
            M,
            E,
            F,
            E2,
            F2,
        }
        let mut st = St::M;
        while i > 0 && j > 0 {
            match st {
                St::M => {
                    let hv = h[idx(i, j)];
                    let diag = h[idx(i - 1, j - 1)] + sc.subst(target[i - 1], query[j - 1]);
                    if hv == diag {
                        cig.push(CigarOp::Match, 1);
                        i -= 1;
                        j -= 1;
                    } else if hv == e[idx(i, j)] {
                        st = St::E;
                    } else if hv == f[idx(i, j)] {
                        st = St::F;
                    } else if hv == e2[idx(i, j)] {
                        st = St::E2;
                    } else {
                        st = St::F2;
                    }
                }
                St::E => {
                    cig.push(CigarOp::Del, 1);
                    let open = h[idx(i - 1, j)] - sc.q - sc.e;
                    let cur = e[idx(i, j)];
                    i -= 1;
                    if cur == open {
                        st = St::M;
                    }
                }
                St::F => {
                    cig.push(CigarOp::Ins, 1);
                    let open = h[idx(i, j - 1)] - sc.q - sc.e;
                    let cur = f[idx(i, j)];
                    j -= 1;
                    if cur == open {
                        st = St::M;
                    }
                }
                St::E2 => {
                    cig.push(CigarOp::Del, 1);
                    let open = h[idx(i - 1, j)] - sc.q2 - sc.e2;
                    let cur = e2[idx(i, j)];
                    i -= 1;
                    if cur == open {
                        st = St::M;
                    }
                }
                St::F2 => {
                    cig.push(CigarOp::Ins, 1);
                    let open = h[idx(i, j - 1)] - sc.q2 - sc.e2;
                    let cur = f2[idx(i, j)];
                    j -= 1;
                    if cur == open {
                        st = St::M;
                    }
                }
            }
        }
        if i > 0 {
            cig.push(CigarOp::Del, i as u32);
        }
        if j > 0 {
            cig.push(CigarOp::Ins, j as u32);
        }
        cig.reverse();
        cig
    });

    AlignResult {
        score,
        end_i: ei - 1,
        end_j: ej - 1,
        cigar,
        cells: tlen as u64 * qlen as u64,
    }
}

fn degenerate2(
    tlen: usize,
    qlen: usize,
    sc: &Scoring2,
    mode: AlignMode,
    with_path: bool,
) -> AlignResult {
    let free_t = matches!(mode, AlignMode::SemiGlobal | AlignMode::TargetSuffixFree) && qlen == 0;
    let free_q = matches!(mode, AlignMode::SemiGlobal | AlignMode::QuerySuffixFree) && tlen == 0;
    let score = if (tlen == 0 && qlen == 0) || free_t || free_q {
        0
    } else if qlen == 0 {
        -sc.gap_cost(tlen as u32)
    } else {
        -sc.gap_cost(qlen as u32)
    };
    let cigar = with_path.then(|| {
        let mut c = Cigar::new();
        if score != 0 {
            if qlen == 0 {
                c.push(CigarOp::Del, tlen as u32);
            } else {
                c.push(CigarOp::Ins, qlen as u32);
            }
        }
        c
    });
    AlignResult {
        score,
        end_i: tlen.wrapping_sub(1),
        end_j: qlen.wrapping_sub(1),
        cigar,
        cells: 0,
    }
}

/// Two-piece difference-recurrence kernel in manymap's dependency-free
/// layout (Eq. 4 + the `x2`/`y2` arrays).
pub fn align_manymap_2p(
    target: &[u8],
    query: &[u8],
    sc: &Scoring2,
    mode: AlignMode,
    with_path: bool,
) -> AlignResult {
    align_manymap_2p_with_scratch(target, query, sc, mode, with_path, &mut AlignScratch::new())
}

/// [`align_manymap_2p`] with caller-provided buffers.
pub fn align_manymap_2p_with_scratch(
    target: &[u8],
    query: &[u8],
    sc: &Scoring2,
    mode: AlignMode,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    let (tlen, qlen) = (target.len(), query.len());
    if tlen == 0 || qlen == 0 {
        return degenerate2(tlen, qlen, sc, mode, with_path);
    }
    assert!(sc.fits_i8(), "two-piece parameters must satisfy fits_i8()");
    let g = |n: usize| sc.gap_cost(n as u32);
    let (q1, e1, q2, e2) = (sc.q, sc.e, sc.q2, sc.e2);
    let (qe1, qe2) = (q1 + e1, q2 + e2);

    // u, y, y2 indexed by t; v, x, x2 indexed by t' = t − r + |Q|.
    // Boundary deltas now follow the two-piece gap function g(·).
    let AlignScratch {
        u,
        v,
        x,
        y,
        x2,
        y2,
        dir,
        cigars,
        ..
    } = scratch;
    u.clear();
    u.extend((0..tlen).map(|t| -(g(t + 1) - g(t)) as i8));
    reset_fill(y, tlen, -qe1 as i8);
    reset_fill(y2, tlen, -qe2 as i8);
    v.clear();
    v.extend((0..=qlen).map(|k| {
        let j = qlen - k; // slot k is first read as v(-1, j)
        -(g(j + 1) - g(j)) as i8
    }));
    reset_fill(x, qlen + 1, -qe1 as i8);
    reset_fill(x2, qlen + 1, -qe2 as i8);

    let mut dir = if with_path {
        dir.reset(tlen, qlen);
        Some(dir)
    } else {
        None
    };
    let mut tracker = Tracker::new(tlen, qlen);

    for r in 0..tlen + qlen - 1 {
        let st = r.saturating_sub(qlen - 1);
        let en = r.min(tlen - 1);
        let off = st + qlen - r;
        let mut dir_row = dir.as_mut().map(|d| d.push_row());
        for t in st..=en {
            let tp = t - st + off;
            let s = sc.subst(target[t], query[r - t]);
            let (vt, ut) = (v[tp] as i32, u[t] as i32);
            let a1 = x[tp] as i32 + vt;
            let b1 = y[t] as i32 + ut;
            let a2 = x2[tp] as i32 + vt;
            let b2 = y2[t] as i32 + ut;
            let mut z = s;
            let mut src = 0u8;
            if a1 > z {
                z = a1;
                src = 1;
            }
            if b1 > z {
                z = b1;
                src = 2;
            }
            if a2 > z {
                z = a2;
                src = 3;
            }
            if b2 > z {
                z = b2;
                src = 4;
            }
            let xt = a1 - z + q1;
            let yt = b1 - z + q1;
            let xt2 = a2 - z + q2;
            let yt2 = b2 - z + q2;
            if xt > 0 {
                src |= 8;
            }
            if yt > 0 {
                src |= 16;
            }
            if xt2 > 0 {
                src |= 32;
            }
            if yt2 > 0 {
                src |= 64;
            }
            u[t] = (z - vt) as i8;
            v[tp] = (z - ut) as i8;
            x[tp] = (xt.max(0) - qe1) as i8;
            y[t] = (yt.max(0) - qe1) as i8;
            x2[tp] = (xt2.max(0) - qe2) as i8;
            y2[t] = (yt2.max(0) - qe2) as i8;
            if let Some(row) = dir_row.as_deref_mut() {
                row[t - st] = src;
            }
        }
        let v_st0 = v[qlen - r.min(qlen)] as i32;
        let v_en = v[en + qlen - r] as i32;
        tracker.diag(r, st, en, u[st] as i32, u[en] as i32, v_st0, v_en, g(1));
    }

    let (score, end_i, end_j) = tracker.finalize(mode);
    let cigar = dir.map(|d| {
        let mut c = AlignScratch::take_cigar(cigars);
        backtrack2_into(d, end_i, end_j, &mut c);
        c
    });
    AlignResult {
        score,
        end_i,
        end_j,
        cigar,
        cells: tlen as u64 * qlen as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SC: Scoring2 = Scoring2::LONG_READ;

    fn nt(s: &[u8]) -> Vec<u8> {
        mmm_seq::to_nt4(s)
    }

    #[test]
    fn gap_cost_is_the_min_of_two_pieces() {
        // Crossover at l = (q2-q)/(e-e2) = 20.
        assert_eq!(SC.gap_cost(1), 6);
        assert_eq!(SC.gap_cost(19), 42);
        assert_eq!(SC.gap_cost(20), 44);
        assert_eq!(SC.gap_cost(21), 45); // long piece takes over
        assert_eq!(SC.gap_cost(100), 124);
        // One-piece would charge 204 for the 100-gap.
        assert!(SC.gap_cost(100) < 4 + 100 * 2);
    }

    #[test]
    fn long_deletions_are_cheaper_than_one_piece() {
        // 60-base deletion: two-piece must recover the flanks with one gap.
        let mut t = nt(b"ACGTACGTACGTACGTACGTACGT");
        let insertion: Vec<u8> = (0..60).map(|i| ((i * 7 + 1) % 4) as u8).collect();
        t.splice(12..12, insertion);
        let q = nt(b"ACGTACGTACGTACGTACGTACGT");
        let r = align_manymap_2p(&t, &q, &SC, AlignMode::Global, true);
        let gold = fullmatrix2(&t, &q, &SC, AlignMode::Global, true);
        assert_eq!(r.score, gold.score);
        assert_eq!(r.score, 48 - SC.gap_cost(60));
        let c = r.cigar.unwrap();
        assert_eq!(c.target_len(), t.len() as u64);
        assert_eq!(c.query_len(), q.len() as u64);
    }

    #[test]
    fn matches_reference_on_small_cases() {
        for (t, q) in [
            (nt(b"ACGT"), nt(b"ACGT")),
            (nt(b"ACGTACGTA"), nt(b"ACGA")),
            (nt(b"AC"), nt(b"ACGTACGTACGTACGTACGTACGTACGT")),
        ] {
            for mode in [AlignMode::Global, AlignMode::SemiGlobal] {
                let a = align_manymap_2p(&t, &q, &SC, mode, false);
                let b = fullmatrix2(&t, &q, &SC, mode, false);
                assert_eq!(a.score, b.score, "mode {mode:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn two_piece_kernel_matches_reference(
            t in proptest::collection::vec(0u8..5, 1..70),
            q in proptest::collection::vec(0u8..5, 1..70),
            mode_idx in 0usize..4,
        ) {
            let mode = [
                AlignMode::Global,
                AlignMode::SemiGlobal,
                AlignMode::TargetSuffixFree,
                AlignMode::QuerySuffixFree,
            ][mode_idx];
            let a = align_manymap_2p(&t, &q, &SC, mode, true);
            let b = fullmatrix2(&t, &q, &SC, mode, true);
            prop_assert_eq!(a.score, b.score);
            prop_assert_eq!((a.end_i, a.end_j), (b.end_i, b.end_j));
            prop_assert_eq!(a.cigar, b.cigar);
        }

        #[test]
        fn two_piece_never_scores_below_one_piece_with_same_short_gap(
            t in proptest::collection::vec(0u8..4, 1..60),
            q in proptest::collection::vec(0u8..4, 1..60),
        ) {
            // The two-piece model is gap(l) = min(short, long), so its
            // optimum can only be ≥ the pure one-piece optimum.
            let one = crate::scalar::align_manymap(
                &t, &q,
                &crate::score::Scoring { a: 2, b: 4, ambi: 1, q: 4, e: 2 },
                AlignMode::Global, false,
            );
            let two = align_manymap_2p(&t, &q, &SC, AlignMode::Global, false);
            prop_assert!(two.score >= one.score);
        }
    }
}
