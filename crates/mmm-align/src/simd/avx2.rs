//! 256-bit (AVX2) kernels — 32 cells per instruction.
//!
//! AVX2 has no single cross-lane byte shift, so the Eq. 3 kernel's
//! `X[t-1]` access costs a `vperm2i128` + `vpalignr` pair per operand —
//! the extra shift work the paper identifies as the reason manymap's gain
//! is largest at this width (§5.2.1).

use core::arch::x86_64::*;

use super::{isa_fns, kernel, Consts, Isa};
use crate::diff::degenerate;
use crate::score::Scoring;
use crate::scratch::AlignScratch;
use crate::types::{AlignResult, GroupJob};
use crate::zdrop::ExtendResult;

/// Runtime support check for this module's kernels.
pub fn available() -> bool {
    is_x86_feature_detected!("avx2")
}

/// Shift a 256-bit register left by one byte, filling byte 0 with zero.
/// AVX2 has no cross-lane byte shift, so this costs a `vperm2i128` plus a
/// `vpalignr` — a direct port of ksw2's `pslldq` pays this on every operand.
///
/// # Safety
/// Requires AVX2; only called from `#[target_feature(enable = "avx2")]` fns.
#[inline(always)]
unsafe fn shl1_zero(v: __m256i) -> __m256i {
    let lo_to_hi = _mm256_permute2x128_si256(v, v, 0x08); // [0, v_lo]
    _mm256_alignr_epi8(v, lo_to_hi, 15)
}

/// `[v[31]]` in byte 0, zeros elsewhere — the carry produced by ksw2's
/// `psrldq(v, 15)`, again needing a lane fix-up on AVX2.
///
/// # Safety
/// Requires AVX2; only called from `#[target_feature(enable = "avx2")]` fns.
#[inline(always)]
unsafe fn shr15_carry(v: __m256i) -> __m256i {
    let hi_to_lo = _mm256_permute2x128_si256(v, v, 0x81); // [v_hi, 0]
    _mm256_bsrli_epi128(hi_to_lo, 15)
}

/// The 256-bit tier. A diagonal's last step loads and stores whole vectors
/// over arrays padded by one vector, blending the stored lanes against a
/// lane-index mask.
struct Avx2;

impl Isa for Avx2 {
    type V = __m256i;
    type W = __m256i;
    type M = __m256i;
    type MW = __m256i;
    const L: usize = 32;
    const PAD: usize = 32;

    isa_fns! {
        fn splat(x: i8) -> __m256i { _mm256_set1_epi8(x) }
        fn load(p: *const u8) -> __m256i { _mm256_loadu_si256(p as *const __m256i) }
        fn store(p: *mut u8, v: __m256i) { _mm256_storeu_si256(p as *mut __m256i, v) }
        fn tail(n: usize) -> __m256i {
            let lane = _mm256_setr_epi8(
                0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
                23, 24, 25, 26, 27, 28, 29, 30, 31,
            );
            _mm256_cmpgt_epi8(_mm256_set1_epi8(n as i8), lane)
        }
        fn load_tail(p: *const u8, _m: __m256i) -> __m256i {
            _mm256_loadu_si256(p as *const __m256i)
        }
        fn store_tail(p: *mut u8, m: __m256i, new: __m256i, old: __m256i) {
            _mm256_storeu_si256(p as *mut __m256i, _mm256_blendv_epi8(old, new, m))
        }
        fn store_dir_tail(p: *mut u8, _m: __m256i, d: __m256i) {
            _mm256_storeu_si256(p as *mut __m256i, d)
        }

        fn adds(a: __m256i, b: __m256i) -> __m256i { _mm256_adds_epi8(a, b) }
        fn subs(a: __m256i, b: __m256i) -> __m256i { _mm256_subs_epi8(a, b) }
        fn max(a: __m256i, b: __m256i) -> __m256i { _mm256_max_epi8(a, b) }
        fn subst(tv: __m256i, qv: __m256i, k: &Consts<__m256i>) -> __m256i {
            let eqm = _mm256_cmpeq_epi8(tv, qv);
            let amb =
                _mm256_or_si256(_mm256_cmpeq_epi8(tv, k.vfour), _mm256_cmpeq_epi8(qv, k.vfour));
            _mm256_blendv_epi8(_mm256_blendv_epi8(k.vmis, k.vmatch, eqm), k.vambi, amb)
        }
        fn dir_bits(
            s: __m256i, a: __m256i, b: __m256i, za: __m256i, xt: __m256i, yt: __m256i,
            k: &Consts<__m256i>,
        ) -> __m256i {
            let mut d = _mm256_and_si256(_mm256_cmpgt_epi8(a, s), k.src_e);
            d = _mm256_blendv_epi8(d, k.src_f, _mm256_cmpgt_epi8(b, za));
            d = _mm256_or_si256(d, _mm256_and_si256(_mm256_cmpgt_epi8(xt, k.zero), k.e_cont));
            _mm256_or_si256(d, _mm256_and_si256(_mm256_cmpgt_epi8(yt, k.zero), k.f_cont))
        }

        // A 16-bit shift moves each byte's low nibble up; the nibble it
        // pushes into the next byte is zero.
        fn nibble_pair(lo: __m256i, hi: __m256i) -> __m256i {
            _mm256_or_si256(lo, _mm256_slli_epi16(hi, 4))
        }

        // ksw2's shift idiom extended to 256 bits: carry vector plus
        // lane-crossing emulation, five shuffle/logic ops per operand.
        fn shift_in(cur: __m256i, carry: __m256i) -> __m256i {
            _mm256_or_si256(shl1_zero(cur), carry)
        }
        fn carry_out(cur: __m256i) -> __m256i { shr15_carry(cur) }
        fn carry_from(x: i8) -> __m256i { _mm256_insert_epi8(_mm256_setzero_si256(), x, 0) }

        fn widen4(v: __m256i) -> [__m256i; 4] {
            let (lo, hi) = (_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
            [
                _mm256_cvtepi8_epi32(lo),
                _mm256_cvtepi8_epi32(_mm_bsrli_si128(lo, 8)),
                _mm256_cvtepi8_epi32(hi),
                _mm256_cvtepi8_epi32(_mm_bsrli_si128(hi, 8)),
            ]
        }
        fn w_splat(x: i32) -> __m256i { _mm256_set1_epi32(x) }
        fn w_load(p: *const i32) -> __m256i { _mm256_loadu_si256(p as *const __m256i) }
        fn w_store(p: *mut i32, w: __m256i) { _mm256_storeu_si256(p as *mut __m256i, w) }
        fn w_tail(n: usize) -> __m256i {
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            _mm256_cmpgt_epi32(_mm256_set1_epi32(n.min(8) as i32), lane)
        }
        fn w_load_tail(p: *const i32, _m: __m256i) -> __m256i {
            _mm256_loadu_si256(p as *const __m256i)
        }
        fn w_store_tail(p: *mut i32, m: __m256i, new: __m256i, old: __m256i) {
            _mm256_storeu_si256(p as *mut __m256i, _mm256_blendv_epi8(old, new, m))
        }
        fn w_select(m: __m256i, a: __m256i, b: __m256i) -> __m256i {
            _mm256_blendv_epi8(b, a, m)
        }
        fn w_add(a: __m256i, b: __m256i) -> __m256i { _mm256_add_epi32(a, b) }
        fn w_max(a: __m256i, b: __m256i) -> __m256i { _mm256_max_epi32(a, b) }
        fn w_reduce_max(w: __m256i) -> i32 {
            let m = _mm_max_epi32(_mm256_castsi256_si128(w), _mm256_extracti128_si256(w, 1));
            let m = _mm_max_epi32(m, _mm_shuffle_epi32(m, 0b01_00_11_10));
            _mm_cvtsi128_si32(_mm_max_epi32(m, _mm_shuffle_epi32(m, 0b10_11_00_01)))
        }
        fn w_eq_bits(w: __m256i, x: __m256i) -> u32 {
            _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(w, x))) as u32
        }
    }
}

/// Equation (3) layout with the two-instruction cross-lane byte shift.
pub fn align_mm2(target: &[u8], query: &[u8], sc: &Scoring, with_path: bool) -> AlignResult {
    align_mm2_with_scratch(target, query, sc, with_path, &mut AlignScratch::new())
}

/// [`align_mm2`] with caller-provided buffers.
pub fn align_mm2_with_scratch(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    assert!(available(), "AVX2 not available on this CPU");
    if let Some(r) = degenerate(target, query, sc, with_path) {
        return r;
    }
    assert!(sc.fits_i8(), "scoring parameters must satisfy fits_i8()");
    // SAFETY: feature checked above.
    unsafe { mm2_inner(target, query, sc, with_path, scratch) }
}

/// Equation (4) layout — plain loads and stores only.
pub fn align_manymap(target: &[u8], query: &[u8], sc: &Scoring, with_path: bool) -> AlignResult {
    align_manymap_with_scratch(target, query, sc, with_path, &mut AlignScratch::new())
}

/// [`align_manymap`] with caller-provided buffers.
pub fn align_manymap_with_scratch(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    assert!(available(), "AVX2 not available on this CPU");
    if let Some(r) = degenerate(target, query, sc, with_path) {
        return r;
    }
    assert!(sc.fits_i8(), "scoring parameters must satisfy fits_i8()");
    // SAFETY: feature checked above.
    unsafe { manymap_inner(target, query, sc, with_path, scratch) }
}

/// Exact z-drop extension on the Equation (4) step; the inputs are checked
/// by [`crate::Engine::extend_zdrop_with_scratch`], the only caller.
pub(crate) fn extend_zdrop(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    zdrop: i32,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> ExtendResult {
    assert!(available(), "AVX2 not available on this CPU");
    // SAFETY: feature checked above.
    unsafe { zdrop_inner(target, query, sc, zdrop, with_path, scratch) }
}

/// A lane group of up to 32 global jobs, one per byte lane (see
/// [`crate::Engine::align_group_with_scratch`]).
pub(crate) fn align_group_with_scratch(
    jobs: &[GroupJob<'_>],
    sc: &Scoring,
    scratch: &mut AlignScratch,
    out: &mut Vec<AlignResult>,
) {
    assert!(available(), "AVX2 not available on this CPU");
    // SAFETY: feature checked above.
    unsafe { group_inner(jobs, sc, scratch, out) }
}

/// # Safety
/// Caller must ensure AVX2 is available — the public wrappers above assert
/// `available()` before dispatching here.
#[target_feature(enable = "avx2")]
unsafe fn mm2_inner(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    kernel::fill_mm2::<Avx2>(target, query, sc, with_path, scratch)
}

/// # Safety
/// Caller must ensure AVX2 is available — the public wrappers above assert
/// `available()` before dispatching here.
#[target_feature(enable = "avx2")]
unsafe fn manymap_inner(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    kernel::fill_manymap::<Avx2>(target, query, sc, with_path, scratch)
}

/// # Safety
/// Caller must ensure AVX2 is available — `extend_zdrop` above asserts
/// `available()` before dispatching here.
#[target_feature(enable = "avx2")]
unsafe fn zdrop_inner(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    zdrop: i32,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> ExtendResult {
    kernel::extend_zdrop::<Avx2>(target, query, sc, zdrop, with_path, scratch)
}

/// # Safety
/// Caller must ensure AVX2 is available — `align_group_with_scratch` above
/// asserts `available()` before dispatching here.
#[target_feature(enable = "avx2")]
unsafe fn group_inner(
    jobs: &[GroupJob<'_>],
    sc: &Scoring,
    scratch: &mut AlignScratch,
    out: &mut Vec<AlignResult>,
) {
    kernel::fill_group::<Avx2>(jobs, sc, scratch, out)
}

// Miri cannot execute vendor intrinsics; the simd tests are host-only.
#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::scalar;
    use proptest::prelude::*;

    const SC: Scoring = Scoring::MAP_ONT;

    #[test]
    fn handles_vector_boundary_lengths() {
        if available() {
            super::super::tests::check_vector_boundary_lengths(32, align_mm2, align_manymap);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn avx2_kernels_match_scalar(
            t in proptest::collection::vec(0u8..5, 1..200),
            q in proptest::collection::vec(0u8..5, 1..200),
            with_path in proptest::bool::ANY,
        ) {
            prop_assume!(available());
            let gold = scalar::align_manymap(&t, &q, &SC, with_path);
            prop_assert_eq!(align_mm2(&t, &q, &SC, with_path), gold.clone());
            prop_assert_eq!(align_manymap(&t, &q, &SC, with_path), gold);
        }
    }
}
