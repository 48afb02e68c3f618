//! 512-bit (AVX-512BW) kernels — 64 cells per instruction.
//!
//! Comparisons produce `__mmask64` k-registers rather than byte vectors, so
//! the select/blend structure differs slightly from the narrower widths, and
//! a diagonal's last step is truly masked: loads and stores under a k-mask
//! touch only the live lanes, so this tier needs no padding. The Eq. 3
//! kernel ports ksw2's byte-shift idiom directly: AVX-512BW still only
//! shifts bytes within 128-bit lanes, so each shifted operand costs a
//! `vpslldq` + `vpsrldq` + qword permute + two ORs. The Eq. 4 kernel needs
//! no shuffle at all.

use core::arch::x86_64::*;

use super::{isa_fns, kernel, Consts, Isa, LaneWalk};
use crate::diff::degenerate;
use crate::score::Scoring;
use crate::scratch::AlignScratch;
use crate::types::{AlignResult, GroupJob};
use crate::zdrop::ExtendResult;

/// Runtime support check for this module's kernels.
pub fn available() -> bool {
    is_x86_feature_detected!("avx512bw")
}

/// Shift a 512-bit register left by one byte with zero fill. Bytes crossing
/// the four 128-bit lane boundaries need an extra qword permute — the cost a
/// direct port of ksw2's `pslldq` pays at this width.
///
/// # Safety
/// Requires AVX-512F/BW; only called from `#[target_feature]`-gated fns.
#[inline(always)]
unsafe fn shl1_zero(v: __m512i) -> __m512i {
    let within = _mm512_bslli_epi128(v, 1);
    let crossers = _mm512_bsrli_epi128(v, 15); // byte 0 of lane k = v[16k+15]
    let idx = _mm512_set_epi64(5, 4, 3, 2, 1, 0, 0, 0);
    let up = _mm512_maskz_permutexvar_epi64(0b1111_1100, idx, crossers);
    _mm512_or_si512(within, up)
}

/// `[v[63]]` in byte 0, zeros elsewhere — the next iteration's carry.
///
/// # Safety
/// Requires AVX-512F/BW; only called from `#[target_feature]`-gated fns.
#[inline(always)]
unsafe fn shr63_carry(v: __m512i) -> __m512i {
    let crossers = _mm512_bsrli_epi128(v, 15);
    let idx = _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, 6);
    _mm512_maskz_permutexvar_epi64(0b0000_0001, idx, crossers)
}

/// The 512-bit tier. A diagonal's last step runs under a k-mask.
struct Avx512;

impl Isa for Avx512 {
    type V = __m512i;
    type W = __m512i;
    type M = __mmask64;
    type MW = __mmask16;
    const L: usize = 64;
    const PAD: usize = 0;

    isa_fns! {
        fn splat(x: i8) -> __m512i { _mm512_set1_epi8(x) }
        fn load(p: *const u8) -> __m512i { _mm512_loadu_si512(p as *const __m512i) }
        fn store(p: *mut u8, v: __m512i) { _mm512_storeu_si512(p as *mut __m512i, v) }
        fn tail(n: usize) -> __mmask64 { (1u64 << n) - 1 }
        // Masked-off lanes neither fault nor store.
        fn load_tail(p: *const u8, m: __mmask64) -> __m512i {
            _mm512_maskz_loadu_epi8(m, p as *const i8)
        }
        fn store_tail(p: *mut u8, m: __mmask64, new: __m512i, _old: __m512i) {
            _mm512_mask_storeu_epi8(p as *mut i8, m, new)
        }
        fn store_dir_tail(p: *mut u8, m: __mmask64, d: __m512i) {
            _mm512_mask_storeu_epi8(p as *mut i8, m, d)
        }

        fn adds(a: __m512i, b: __m512i) -> __m512i { _mm512_adds_epi8(a, b) }
        fn subs(a: __m512i, b: __m512i) -> __m512i { _mm512_subs_epi8(a, b) }
        fn max(a: __m512i, b: __m512i) -> __m512i { _mm512_max_epi8(a, b) }
        fn subst(tv: __m512i, qv: __m512i, k: &Consts<__m512i>) -> __m512i {
            let eqm = _mm512_cmpeq_epi8_mask(tv, qv);
            let amb = _mm512_cmpeq_epi8_mask(tv, k.vfour) | _mm512_cmpeq_epi8_mask(qv, k.vfour);
            _mm512_mask_blend_epi8(amb, _mm512_mask_blend_epi8(eqm, k.vmis, k.vmatch), k.vambi)
        }
        fn dir_bits(
            s: __m512i, a: __m512i, b: __m512i, za: __m512i, xt: __m512i, yt: __m512i,
            k: &Consts<__m512i>,
        ) -> __m512i {
            let mut d = _mm512_maskz_mov_epi8(_mm512_cmpgt_epi8_mask(a, s), k.src_e);
            d = _mm512_mask_blend_epi8(_mm512_cmpgt_epi8_mask(b, za), d, k.src_f);
            d = _mm512_or_si512(
                d,
                _mm512_maskz_mov_epi8(_mm512_cmpgt_epi8_mask(xt, k.zero), k.e_cont),
            );
            _mm512_or_si512(
                d,
                _mm512_maskz_mov_epi8(_mm512_cmpgt_epi8_mask(yt, k.zero), k.f_cont),
            )
        }

        // A 16-bit shift moves each byte's low nibble up; the nibble it
        // pushes into the next byte is zero.
        fn nibble_pair(lo: __m512i, hi: __m512i) -> __m512i {
            _mm512_or_si512(lo, _mm512_slli_epi16(hi, 4))
        }

        // ksw2's shift idiom at 512 bits: within-lane shift, lane-cross
        // permute, carry OR — per operand, per iteration.
        fn shift_in(cur: __m512i, carry: __m512i) -> __m512i {
            _mm512_or_si512(shl1_zero(cur), carry)
        }
        fn carry_out(cur: __m512i) -> __m512i { shr63_carry(cur) }
        fn carry_from(x: i8) -> __m512i { _mm512_maskz_set1_epi8(1, x) }

        fn widen4(v: __m512i) -> [__m512i; 4] {
            [
                _mm512_cvtepi8_epi32(_mm512_castsi512_si128(v)),
                _mm512_cvtepi8_epi32(_mm512_extracti32x4_epi32(v, 1)),
                _mm512_cvtepi8_epi32(_mm512_extracti32x4_epi32(v, 2)),
                _mm512_cvtepi8_epi32(_mm512_extracti32x4_epi32(v, 3)),
            ]
        }
        fn w_splat(x: i32) -> __m512i { _mm512_set1_epi32(x) }
        fn w_load(p: *const i32) -> __m512i { _mm512_loadu_si512(p as *const __m512i) }
        fn w_store(p: *mut i32, w: __m512i) { _mm512_storeu_si512(p as *mut __m512i, w) }
        fn w_tail(n: usize) -> __mmask16 { ((1u32 << n.min(16)) - 1) as __mmask16 }
        fn w_load_tail(p: *const i32, m: __mmask16) -> __m512i {
            _mm512_maskz_loadu_epi32(m, p)
        }
        fn w_store_tail(p: *mut i32, m: __mmask16, new: __m512i, _old: __m512i) {
            _mm512_mask_storeu_epi32(p, m, new)
        }
        fn w_select(m: __mmask16, a: __m512i, b: __m512i) -> __m512i {
            _mm512_mask_blend_epi32(m, b, a)
        }
        fn w_add(a: __m512i, b: __m512i) -> __m512i { _mm512_add_epi32(a, b) }
        fn w_max(a: __m512i, b: __m512i) -> __m512i { _mm512_max_epi32(a, b) }
        fn w_reduce_max(w: __m512i) -> i32 { _mm512_reduce_max_epi32(w) }
        fn w_eq_bits(w: __m512i, x: __m512i) -> u32 { _mm512_cmpeq_epi32_mask(w, x) as u32 }
    }

    #[inline(always)]
    unsafe fn trace_group(t: &mut kernel::GroupTrace<'_>) {
        walk_inner(t)
    }
}

impl LaneWalk for Avx512 {
    isa_fns! {
        fn w_gt(a: __m512i, b: __m512i) -> __mmask16 { _mm512_cmpgt_epi32_mask(a, b) }
        fn w_eq(a: __m512i, b: __m512i) -> __mmask16 { _mm512_cmpeq_epi32_mask(a, b) }
        fn m_and(a: __mmask16, b: __mmask16) -> __mmask16 { a & b }
        fn w_and(a: __m512i, b: __m512i) -> __m512i { _mm512_and_si512(a, b) }
        fn w_sub(a: __m512i, b: __m512i) -> __m512i { _mm512_sub_epi32(a, b) }
        fn w_shl(a: __m512i, n: __m512i) -> __m512i { _mm512_sllv_epi32(a, n) }
        fn w_shr(a: __m512i, n: __m512i) -> __m512i { _mm512_srlv_epi32(a, n) }
        fn w_gather(base: *const u8, off: __m512i, m: __mmask16) -> __m512i {
            _mm512_mask_i32gather_epi32::<1>(_mm512_setzero_si512(), m, off, base.cast())
        }
        fn narrow4(w: [__m512i; 4]) -> __m512i {
            let v = _mm512_castsi128_si512(_mm512_cvtepi32_epi8(w[0]));
            let v = _mm512_inserti32x4::<1>(v, _mm512_cvtepi32_epi8(w[1]));
            let v = _mm512_inserti32x4::<2>(v, _mm512_cvtepi32_epi8(w[2]));
            _mm512_inserti32x4::<3>(v, _mm512_cvtepi32_epi8(w[3]))
        }
        fn eq_bits(a: __m512i, b: __m512i) -> u64 { _mm512_cmpeq_epi8_mask(a, b) }
    }
}

/// Equation (3) layout; the byte shift is a within-lane shift plus a qword
/// permute.
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
    assert!(available(), "AVX-512BW not available on this CPU");
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
    assert!(available(), "AVX-512BW not available on this CPU");
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
    assert!(available(), "AVX-512BW not available on this CPU");
    // SAFETY: feature checked above.
    unsafe { zdrop_inner(target, query, sc, zdrop, with_path, scratch) }
}

/// A lane group of up to 64 global jobs, one per byte lane (see
/// [`crate::Engine::align_group_with_scratch`]).
pub(crate) fn align_group_with_scratch(
    jobs: &[GroupJob<'_>],
    sc: &Scoring,
    scratch: &mut AlignScratch,
    out: &mut Vec<AlignResult>,
) {
    assert!(available(), "AVX-512BW not available on this CPU");
    // SAFETY: feature checked above.
    unsafe { group_inner(jobs, sc, scratch, out) }
}

/// # Safety
/// Caller must ensure AVX-512F/BW are available — the public wrappers above assert
/// `available()` before dispatching here.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn mm2_inner(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    kernel::fill_mm2::<Avx512>(target, query, sc, with_path, scratch)
}

/// # Safety
/// Caller must ensure AVX-512F/BW are available — the public wrappers above assert
/// `available()` before dispatching here.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn manymap_inner(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    kernel::fill_manymap::<Avx512>(target, query, sc, with_path, scratch)
}

/// # Safety
/// Caller must ensure AVX-512F/BW are available — `extend_zdrop` above asserts
/// `available()` before dispatching here.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn zdrop_inner(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    zdrop: i32,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> ExtendResult {
    kernel::extend_zdrop::<Avx512>(target, query, sc, zdrop, with_path, scratch)
}

/// # Safety
/// Caller must ensure AVX-512F/BW are available — `align_group_with_scratch`
/// above asserts `available()` before dispatching here.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn group_inner(
    jobs: &[GroupJob<'_>],
    sc: &Scoring,
    scratch: &mut AlignScratch,
    out: &mut Vec<AlignResult>,
) {
    kernel::fill_group::<Avx512>(jobs, sc, scratch, out)
}

/// The lock-step traceback of a group's direction block (the tests fill
/// the block at random and hold it to the per-lane walk).
#[cfg(test)]
pub(super) fn walk_lockstep(t: &mut kernel::GroupTrace<'_>) {
    assert!(available(), "AVX-512BW not available on this CPU");
    // SAFETY: feature checked above.
    unsafe { walk_inner(t) }
}

/// The lock-step walk in a function of its own: the group kernel's
/// traceback, and the tests' entry point.
///
/// # Safety
/// Caller must ensure the tier's features are available — the group
/// kernel and `walk_lockstep` above assert `available()` first.
#[target_feature(enable = "avx512f,avx512bw")]
#[inline(never)]
unsafe fn walk_inner(t: &mut kernel::GroupTrace<'_>) {
    kernel::walk_lockstep::<Avx512>(t)
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
            super::super::tests::check_vector_boundary_lengths(64, align_mm2, align_manymap);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn avx512_kernels_match_scalar(
            t in proptest::collection::vec(0u8..5, 1..300),
            q in proptest::collection::vec(0u8..5, 1..300),
            with_path in proptest::bool::ANY,
        ) {
            prop_assume!(available());
            let gold = scalar::align_manymap(&t, &q, &SC, with_path);
            prop_assert_eq!(align_mm2(&t, &q, &SC, with_path), gold.clone());
            prop_assert_eq!(align_manymap(&t, &q, &SC, with_path), gold);
        }
    }
}
