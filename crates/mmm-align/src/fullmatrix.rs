//! Full-matrix affine-gap alignment — the gold reference.
//!
//! A direct, unoptimized implementation of Equation (1) with 32-bit scores
//! and complete `H`/`E`/`F` matrices. Every difference-recurrence kernel
//! (scalar and SIMD, both memory layouts) is property-tested against this
//! implementation for bit-identical scores and CIGARs.
//!
//! Boundary conditions (also the ones the difference kernels encode):
//!
//! * `H(-1,-1) = 0`, `H(i,-1) = -(q+(i+1)e)`, `H(-1,j) = -(q+(j+1)e)`;
//! * `E(0,j) = H(-1,j) - q - e`, `F(i,0) = H(i,-1) - q - e`.
//!
//! Tie-breaking matches the kernels: on equal scores prefer the diagonal,
//! then `E` (gap in query / `D`), then `F` (gap in read / `I`); inside a gap
//! prefer *opening* over continuation on ties.

use crate::cigar::{Cigar, CigarOp};
use crate::score::Scoring;
use crate::types::AlignResult;

const NEG_INF: i32 = i32::MIN / 4;

/// Full-matrix aligner holding the three score matrices.
struct Matrices {
    h: Vec<i32>,
    e: Vec<i32>,
    f: Vec<i32>,
    cols: usize, // |Q| + 1
}

impl Matrices {
    #[inline]
    fn idx(&self, i1: usize, j1: usize) -> usize {
        i1 * self.cols + j1
    }
}

/// Globally align `target` against `query` (both nt4) and return the score
/// and (when `with_path`) the CIGAR.
pub fn align(target: &[u8], query: &[u8], sc: &Scoring, with_path: bool) -> AlignResult {
    let (tlen, qlen) = (target.len(), query.len());
    if tlen == 0 || qlen == 0 {
        return degenerate(tlen, qlen, sc, with_path);
    }
    let cols = qlen + 1;
    let mut m = Matrices {
        h: vec![NEG_INF; (tlen + 1) * cols],
        e: vec![NEG_INF; (tlen + 1) * cols],
        f: vec![NEG_INF; (tlen + 1) * cols],
        cols,
    };

    // Boundaries.
    let origin = m.idx(0, 0);
    m.h[origin] = 0;
    for i in 1..=tlen {
        let id = m.idx(i, 0);
        m.h[id] = -sc.gap_cost(i as u32);
    }
    for j in 1..=qlen {
        let id = m.idx(0, j);
        m.h[id] = -sc.gap_cost(j as u32);
    }

    for i in 1..=tlen {
        for j in 1..=qlen {
            let e = (m.h[m.idx(i - 1, j)] - sc.q).max(m.e[m.idx(i - 1, j)]) - sc.e;
            let f = (m.h[m.idx(i, j - 1)] - sc.q).max(m.f[m.idx(i, j - 1)]) - sc.e;
            let diag = m.h[m.idx(i - 1, j - 1)] + sc.subst(target[i - 1], query[j - 1]);
            let id = m.idx(i, j);
            m.e[id] = e;
            m.f[id] = f;
            m.h[id] = diag.max(e).max(f);
        }
    }

    let cigar = with_path.then(|| backtrack(&m, target, query, sc, tlen, qlen));

    AlignResult {
        score: m.h[m.idx(tlen, qlen)],
        cigar,
        cells: tlen as u64 * qlen as u64,
        t_consumed: tlen,
        q_consumed: qlen,
    }
}

/// Handle empty-sequence corner cases without touching the matrices: with
/// one side empty the only path is a single gap (or nothing).
fn degenerate(tlen: usize, qlen: usize, sc: &Scoring, with_path: bool) -> AlignResult {
    let gap = tlen.max(qlen);
    let cigar = with_path.then(|| {
        let mut c = Cigar::new();
        if qlen > 0 {
            c.push(CigarOp::Ins, qlen as u32);
        } else if tlen > 0 {
            c.push(CigarOp::Del, tlen as u32);
        }
        c
    });
    AlignResult {
        score: if gap == 0 {
            0
        } else {
            -sc.gap_cost(gap as u32)
        },
        cigar,
        cells: 0,
        t_consumed: tlen,
        q_consumed: qlen,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    M,
    E,
    F,
}

fn backtrack(
    m: &Matrices,
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    mut i: usize,
    mut j: usize,
) -> Cigar {
    let mut cig = Cigar::new();
    let mut state = State::M;
    while i > 0 && j > 0 {
        match state {
            State::M => {
                let h = m.h[m.idx(i, j)];
                let diag = m.h[m.idx(i - 1, j - 1)] + sc.subst(target[i - 1], query[j - 1]);
                if h == diag {
                    cig.push(CigarOp::Match, 1);
                    i -= 1;
                    j -= 1;
                } else if h == m.e[m.idx(i, j)] {
                    state = State::E;
                } else {
                    debug_assert_eq!(h, m.f[m.idx(i, j)]);
                    state = State::F;
                }
            }
            State::E => {
                // E(i,j) = max(H(i-1,j) - q, E(i-1,j)) - e; prefer open on tie.
                cig.push(CigarOp::Del, 1);
                let e = m.e[m.idx(i, j)];
                let open = m.h[m.idx(i - 1, j)] - sc.q - sc.e;
                i -= 1;
                if e == open {
                    state = State::M;
                }
            }
            State::F => {
                cig.push(CigarOp::Ins, 1);
                let f = m.f[m.idx(i, j)];
                let open = m.h[m.idx(i, j - 1)] - sc.q - sc.e;
                j -= 1;
                if f == open {
                    state = State::M;
                }
            }
        }
    }
    // Leading boundary gaps.
    if i > 0 {
        cig.push(CigarOp::Del, i as u32);
    }
    if j > 0 {
        cig.push(CigarOp::Ins, j as u32);
    }
    cig.reverse();
    cig
}

#[cfg(test)]
mod tests {
    use super::*;

    const SC: Scoring = Scoring::MAP_ONT; // a=2 b=4 q=4 e=2

    fn nt(s: &[u8]) -> Vec<u8> {
        mmm_seq::to_nt4(s)
    }

    #[test]
    fn identical_sequences_score_perfectly() {
        let t = nt(b"ACGTACGT");
        let r = align(&t, &t, &SC, true);
        assert_eq!(r.score, 16);
        assert_eq!(r.cigar.unwrap().to_string(), "8M");
    }

    #[test]
    fn single_mismatch() {
        let t = nt(b"ACGTACGT");
        let q = nt(b"ACGAACGT");
        let r = align(&t, &q, &SC, true);
        assert_eq!(r.score, 14 - 4);
        assert_eq!(r.cigar.unwrap().to_string(), "8M");
    }

    #[test]
    fn single_deletion() {
        let t = nt(b"ACGTACGT");
        let q = nt(b"ACGACGT"); // T deleted
        let r = align(&t, &q, &SC, true);
        assert_eq!(r.score, 14 - 6);
        let c = r.cigar.unwrap();
        assert_eq!(c.target_len(), 8);
        assert_eq!(c.query_len(), 7);
        assert_eq!(c.score(&t, &q, &SC), r.score);
    }

    #[test]
    fn single_insertion() {
        let t = nt(b"ACGACGT");
        let q = nt(b"ACGTACGT");
        let r = align(&t, &q, &SC, true);
        assert_eq!(r.score, 14 - 6);
        let c = r.cigar.unwrap();
        assert_eq!(c.score(&t, &q, &SC), r.score);
    }

    #[test]
    fn affine_gap_prefers_one_long_gap() {
        // Two separate 1-gaps cost 2(q+e)=12; one 2-gap costs q+2e=8.
        let t = nt(b"AAAACCAAAA");
        let q = nt(b"AAAAAAAA");
        let r = align(&t, &q, &SC, true);
        assert_eq!(r.score, 16 - 8);
        assert_eq!(r.cigar.unwrap().to_string(), "4M2D4M");
    }

    #[test]
    fn cigar_score_matches_reported_score() {
        let t = nt(b"ACGTTTACGGGACT");
        let q = nt(b"ACGTTACGGGCACT");
        let r = align(&t, &q, &SC, true);
        let c = r.cigar.unwrap();
        assert_eq!(c.score(&t, &q, &SC), r.score);
    }

    #[test]
    fn ambiguous_bases_use_ambi_penalty() {
        let t = nt(b"ACNT");
        let q = nt(b"ACGT");
        let r = align(&t, &q, &SC, false);
        assert_eq!(r.score, 6 - 1);
    }

    #[test]
    fn empty_query_is_one_deletion() {
        let t = nt(b"ACGT");
        let r = align(&t, &[], &SC, true);
        assert_eq!(r.score, -(4 + 4 * 2));
        assert_eq!(r.cigar.unwrap().to_string(), "4D");
    }

    #[test]
    fn empty_both_is_zero() {
        let r = align(&[], &[], &SC, true);
        assert_eq!(r.score, 0);
        assert!(r.cigar.unwrap().is_empty());
    }
}
