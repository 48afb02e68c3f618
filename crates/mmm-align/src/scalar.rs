//! Scalar difference-recurrence kernels in both memory layouts.
//!
//! [`align_mm2`] implements Equation (3) with minimap2's linear-array layout:
//! `x`/`v` are indexed by `t`, so cell `(r,t)` must read `X[t-1]`, `V[t-1]`
//! *before* they are overwritten by the current diagonal — the intra-loop
//! dependency §4.3.1 describes. The kernel carries the old values in
//! temporaries (`xlast`/`vlast`), exactly the trick the paper attributes to
//! minimap2 and the reason its vectorization needs shift instructions.
//!
//! [`align_manymap`] implements Equation (4): `x`/`v` are stored at
//! `t' = t - r + |Q|`. Cell `(r,t)` reads and writes the *same* slots
//! (`X[t']`, `V[t']`, `U[t]`, `Y[t]`), so the update is a pure in-place
//! elementwise pass with no temporaries — the paper's contribution, and the
//! shape the SIMD/SIMT kernels exploit.
//!
//! Both kernels produce bit-identical scores and CIGARs to
//! [`crate::fullmatrix::align`] (property-tested below).

use crate::diff::{backtrack_into, cell_update, degenerate, Tracker};
use crate::layout::Eq4;
use crate::score::Scoring;
use crate::scratch::{reset_fill, AlignScratch};
use crate::types::AlignResult;

/// Equation (3): minimap2's layout with the intra-loop dependency resolved
/// via temporaries.
pub fn align_mm2(target: &[u8], query: &[u8], sc: &Scoring, with_path: bool) -> AlignResult {
    align_mm2_with_scratch(target, query, sc, with_path, &mut AlignScratch::new())
}

/// [`align_mm2`] with caller-provided buffers: zero heap allocations once
/// the scratch has warmed up to the problem size.
pub fn align_mm2_with_scratch(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    if let Some(r) = degenerate(target, query, sc, with_path) {
        return r;
    }
    assert!(sc.fits_i8(), "scoring parameters must satisfy fits_i8()");
    let (tlen, qlen) = (target.len(), query.len());
    let (q, e) = (sc.q, sc.e);
    let qe = q + e;

    let AlignScratch {
        u,
        v,
        x,
        y,
        dir,
        cigars,
        ..
    } = scratch;
    reset_fill(u, tlen, -e as i8);
    reset_fill(v, tlen, 0i8);
    reset_fill(x, tlen, 0i8);
    reset_fill(y, tlen, -qe as i8);
    u[0] = -qe as i8; // u(0,-1): the first gap in column 0 pays the open cost

    let mut dir = if with_path {
        dir.reset(tlen, qlen);
        Some(dir)
    } else {
        None
    };
    let mut tracker = Tracker::default();

    let geom = Eq4::new(tlen, qlen);
    for r in 0..geom.diagonals() {
        let (st, en) = geom.band(r);
        // Boundary x(-1,j), v(-1,j) when the diagonal touches the first row;
        // otherwise the previous diagonal's X[st-1], V[st-1].
        let (mut xlast, mut vlast) = if st == 0 {
            (-qe, if r == 0 { -qe } else { -e })
        } else {
            (x[st - 1] as i32, v[st - 1] as i32)
        };
        let mut dir_row = dir.as_deref_mut().map(|d| d.push_row());
        for t in st..=en {
            let s = sc.subst(target[t], query[r - t]);
            let (un, vn, xn, yn, d) = cell_update(s, xlast, vlast, y[t] as i32, u[t] as i32, q, qe);
            // THE DEPENDENCY: save the old X[t]/V[t] for cell t+1 before
            // overwriting them (minimap2's temporary-variable workaround).
            xlast = x[t] as i32;
            vlast = v[t] as i32;
            u[t] = un;
            v[t] = vn;
            x[t] = xn;
            y[t] = yn;
            if let Some(row) = dir_row.as_deref_mut() {
                row[t - st] = d;
            }
        }
        tracker.diag(
            r,
            st,
            en,
            u[st] as i32,
            u[en] as i32,
            v[0] as i32,
            v[en] as i32,
            qe,
        );
    }

    let cigar = dir.map(|d| {
        let mut c = AlignScratch::take_cigar(cigars);
        backtrack_into(|i, j| d.get(i, j), tlen - 1, qlen - 1, &mut c);
        c
    });
    AlignResult {
        score: tracker.finalize(),
        cigar,
        cells: tlen as u64 * qlen as u64,
    }
}

/// Equation (4): manymap's transformed layout, dependency-free in-place
/// updates.
pub fn align_manymap(target: &[u8], query: &[u8], sc: &Scoring, with_path: bool) -> AlignResult {
    align_manymap_with_scratch(target, query, sc, with_path, &mut AlignScratch::new())
}

/// [`align_manymap`] with caller-provided buffers: zero heap allocations
/// once the scratch has warmed up to the problem size.
pub fn align_manymap_with_scratch(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    if let Some(r) = degenerate(target, query, sc, with_path) {
        return r;
    }
    assert!(sc.fits_i8(), "scoring parameters must satisfy fits_i8()");
    let (tlen, qlen) = (target.len(), query.len());
    let (q, e) = (sc.q, sc.e);
    let qe = q + e;

    // u, y keep the Eq. 3 indexing by t; x, v move to t' = t - r + |Q|,
    // which stays in [1, |Q|] — O(|Q|) space, as §4.3.1 notes.
    let AlignScratch {
        u,
        v,
        x,
        y,
        dir,
        cigars,
        ..
    } = scratch;
    reset_fill(u, tlen, -e as i8);
    reset_fill(y, tlen, -qe as i8);
    u[0] = -qe as i8;
    reset_fill(v, qlen + 1, -e as i8);
    reset_fill(x, qlen + 1, -qe as i8);
    v[qlen] = -qe as i8; // v(-1,0): the first-row gap opens here

    let mut dir = if with_path {
        dir.reset(tlen, qlen);
        Some(dir)
    } else {
        None
    };
    let mut tracker = Tracker::default();

    let geom = Eq4::new(tlen, qlen);
    for r in 0..geom.diagonals() {
        let (st, en) = geom.band(r);
        let mut dir_row = dir.as_deref_mut().map(|d| d.push_row());
        for t in st..=en {
            let tp = geom.tprime(r, t); // Eq. 4: t' = t - r + |Q|
            let s = sc.subst(target[t], query[r - t]);
            // In-place, dependency-free updates: each slot is read once and
            // written once per diagonal.
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
        }
        let v_st0 = v[qlen - r.min(qlen)] as i32; // slot of t = 0 when st == 0
        let v_en = v[en + qlen - r] as i32;
        tracker.diag(r, st, en, u[st] as i32, u[en] as i32, v_st0, v_en, qe);
    }

    let cigar = dir.map(|d| {
        let mut c = AlignScratch::take_cigar(cigars);
        backtrack_into(|i, j| d.get(i, j), tlen - 1, qlen - 1, &mut c);
        c
    });
    AlignResult {
        score: tracker.finalize(),
        cigar,
        cells: tlen as u64 * qlen as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fullmatrix;
    use proptest::prelude::*;

    const SC: Scoring = Scoring::MAP_ONT;

    fn nt(s: &[u8]) -> Vec<u8> {
        mmm_seq::to_nt4(s)
    }

    fn check_all(t: &[u8], q: &[u8], sc: &Scoring) {
        let gold = fullmatrix::align(t, q, sc, true);
        for (name, r) in [
            ("mm2", align_mm2(t, q, sc, true)),
            ("manymap", align_manymap(t, q, sc, true)),
        ] {
            assert_eq!(r.score, gold.score, "{name} score");
            assert_eq!(r.cigar, gold.cigar, "{name} cigar");
        }
    }

    #[test]
    fn tiny_cases_match_reference() {
        check_all(&nt(b"A"), &nt(b"A"), &SC);
        check_all(&nt(b"A"), &nt(b"C"), &SC);
        check_all(&nt(b"AC"), &nt(b"A"), &SC);
        check_all(&nt(b"A"), &nt(b"AC"), &SC);
        check_all(&nt(b"ACGT"), &nt(b"ACGT"), &SC);
        check_all(&nt(b"ACGTACGT"), &nt(b"ACGACGGT"), &SC);
    }

    #[test]
    fn ambiguous_bases_match_reference() {
        check_all(&nt(b"ACNNGT"), &nt(b"ACGTNN"), &SC);
    }

    #[test]
    fn asymmetric_lengths_match_reference() {
        check_all(&nt(b"ACGTACGTACGTACGTACG"), &nt(b"ACG"), &SC);
        check_all(&nt(b"ACG"), &nt(b"ACGTACGTACGTACGTACG"), &SC);
    }

    #[test]
    fn empty_inputs_match_reference() {
        let gold = fullmatrix::align(&nt(b"ACG"), &[], &SC, true);
        assert_eq!(align_mm2(&nt(b"ACG"), &[], &SC, true), gold);
        assert_eq!(
            align_manymap(&[], &nt(b"AC"), &SC, true),
            fullmatrix::align(&[], &nt(b"AC"), &SC, true)
        );
    }

    #[test]
    fn score_only_equals_with_path_score() {
        let t = nt(b"ACGTTTACGGGACTAC");
        let q = nt(b"ACGTTACGGGCACTAC");
        let a = align_manymap(&t, &q, &SC, false);
        let b = align_manymap(&t, &q, &SC, true);
        assert_eq!(a.score, b.score);
        assert!(a.cigar.is_none());
    }

    #[test]
    fn long_noisy_pair_matches_reference() {
        // Deterministic pseudo-random pair with ~12% divergence.
        let mut state = 0x12345678u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let t: Vec<u8> = (0..300).map(|_| (rnd() % 4) as u8).collect();
        let mut q = t.clone();
        for _ in 0..36 {
            let pos = rnd() % q.len();
            match rnd() % 3 {
                0 => q[pos] = (rnd() % 4) as u8,
                1 => {
                    q.insert(pos, (rnd() % 4) as u8);
                }
                _ => {
                    q.remove(pos);
                }
            }
        }
        check_all(&t, &q, &SC);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn kernels_match_reference(
            t in proptest::collection::vec(0u8..5, 1..64),
            q in proptest::collection::vec(0u8..5, 1..64),
            a in 1i32..6,
            b in 0i32..8,
            gq in 0i32..10,
            ge in 1i32..6,
        ) {
            let sc = Scoring { a, b, ambi: 1, q: gq, e: ge };
            prop_assume!(sc.fits_i8());
            let gold = fullmatrix::align(&t, &q, &sc, true);
            let m1 = align_mm2(&t, &q, &sc, true);
            let m2 = align_manymap(&t, &q, &sc, true);
            prop_assert_eq!(m1.score, gold.score);
            prop_assert_eq!(m2.score, gold.score);
            prop_assert_eq!(m1.cigar.as_ref(), gold.cigar.as_ref());
            prop_assert_eq!(m2.cigar.as_ref(), gold.cigar.as_ref());
        }

        #[test]
        fn cigar_is_valid_and_score_consistent(
            t in proptest::collection::vec(0u8..4, 1..48),
            q in proptest::collection::vec(0u8..4, 1..48),
        ) {
            let r = align_manymap(&t, &q, &SC, true);
            let c = r.cigar.unwrap();
            prop_assert_eq!(c.target_len(), t.len() as u64);
            prop_assert_eq!(c.query_len(), q.len() as u64);
            prop_assert_eq!(c.score(&t, &q, &SC), r.score);
        }
    }
}
