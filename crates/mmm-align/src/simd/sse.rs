//! 128-bit (SSE4.1) kernels — 16 cells per instruction.

use core::arch::x86_64::*;

use super::{isa_fns, kernel, Consts, Isa};
use crate::diff::degenerate;
use crate::score::Scoring;
use crate::scratch::AlignScratch;
use crate::types::{AlignMode, AlignResult, GroupJob};
use crate::zdrop::ExtendResult;

/// Runtime support check for this module's kernels.
pub fn available() -> bool {
    is_x86_feature_detected!("sse4.1")
}

/// The 128-bit tier. A diagonal's last step loads and stores whole vectors
/// over arrays padded by one vector, blending the stored lanes against a
/// lane-index mask.
struct Sse;

impl Isa for Sse {
    type V = __m128i;
    type W = __m128i;
    type M = __m128i;
    type MW = __m128i;
    const L: usize = 16;
    const PAD: usize = 16;

    isa_fns! {
        fn splat(x: i8) -> __m128i { _mm_set1_epi8(x) }
        fn load(p: *const u8) -> __m128i { _mm_loadu_si128(p as *const __m128i) }
        fn store(p: *mut u8, v: __m128i) { _mm_storeu_si128(p as *mut __m128i, v) }
        fn tail(n: usize) -> __m128i {
            let lane = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
            _mm_cmpgt_epi8(_mm_set1_epi8(n as i8), lane)
        }
        fn load_tail(p: *const u8, _m: __m128i) -> __m128i { _mm_loadu_si128(p as *const __m128i) }
        fn store_tail(p: *mut u8, m: __m128i, new: __m128i, old: __m128i) {
            _mm_storeu_si128(p as *mut __m128i, _mm_blendv_epi8(old, new, m))
        }
        fn store_dir_tail(p: *mut u8, _m: __m128i, d: __m128i) {
            _mm_storeu_si128(p as *mut __m128i, d)
        }

        fn adds(a: __m128i, b: __m128i) -> __m128i { _mm_adds_epi8(a, b) }
        fn subs(a: __m128i, b: __m128i) -> __m128i { _mm_subs_epi8(a, b) }
        fn max(a: __m128i, b: __m128i) -> __m128i { _mm_max_epi8(a, b) }
        fn subst(tv: __m128i, qv: __m128i, k: &Consts<__m128i>) -> __m128i {
            let eqm = _mm_cmpeq_epi8(tv, qv);
            let amb = _mm_or_si128(_mm_cmpeq_epi8(tv, k.vfour), _mm_cmpeq_epi8(qv, k.vfour));
            _mm_blendv_epi8(_mm_blendv_epi8(k.vmis, k.vmatch, eqm), k.vambi, amb)
        }
        fn dir_bits(
            s: __m128i, a: __m128i, b: __m128i, za: __m128i, xt: __m128i, yt: __m128i,
            k: &Consts<__m128i>,
        ) -> __m128i {
            let mut d = _mm_and_si128(_mm_cmpgt_epi8(a, s), k.src_e);
            d = _mm_blendv_epi8(d, k.src_f, _mm_cmpgt_epi8(b, za));
            d = _mm_or_si128(d, _mm_and_si128(_mm_cmpgt_epi8(xt, k.zero), k.e_cont));
            _mm_or_si128(d, _mm_and_si128(_mm_cmpgt_epi8(yt, k.zero), k.f_cont))
        }

        // A 16-bit shift moves each byte's low nibble up; the nibble it
        // pushes into the next byte is zero.
        fn nibble_pair(lo: __m128i, hi: __m128i) -> __m128i {
            _mm_or_si128(lo, _mm_slli_epi16(hi, 4))
        }

        // Eq. 3's shift is one `pslldq` + `por` per operand, plus a `psrldq`
        // for the next carry.
        fn shift_in(cur: __m128i, carry: __m128i) -> __m128i {
            _mm_or_si128(_mm_bslli_si128(cur, 1), carry)
        }
        fn carry_out(cur: __m128i) -> __m128i { _mm_bsrli_si128(cur, 15) }
        fn carry_from(x: i8) -> __m128i { _mm_insert_epi8(_mm_setzero_si128(), x as i32, 0) }

        fn widen4(v: __m128i) -> [__m128i; 4] {
            [
                _mm_cvtepi8_epi32(v),
                _mm_cvtepi8_epi32(_mm_bsrli_si128(v, 4)),
                _mm_cvtepi8_epi32(_mm_bsrli_si128(v, 8)),
                _mm_cvtepi8_epi32(_mm_bsrli_si128(v, 12)),
            ]
        }
        fn w_splat(x: i32) -> __m128i { _mm_set1_epi32(x) }
        fn w_load(p: *const i32) -> __m128i { _mm_loadu_si128(p as *const __m128i) }
        fn w_store(p: *mut i32, w: __m128i) { _mm_storeu_si128(p as *mut __m128i, w) }
        fn w_tail(n: usize) -> __m128i {
            _mm_cmpgt_epi32(_mm_set1_epi32(n.min(4) as i32), _mm_setr_epi32(0, 1, 2, 3))
        }
        fn w_load_tail(p: *const i32, _m: __m128i) -> __m128i {
            _mm_loadu_si128(p as *const __m128i)
        }
        fn w_store_tail(p: *mut i32, m: __m128i, new: __m128i, old: __m128i) {
            _mm_storeu_si128(p as *mut __m128i, _mm_blendv_epi8(old, new, m))
        }
        fn w_select(m: __m128i, a: __m128i, b: __m128i) -> __m128i { _mm_blendv_epi8(b, a, m) }
        fn w_add(a: __m128i, b: __m128i) -> __m128i { _mm_add_epi32(a, b) }
        fn w_max(a: __m128i, b: __m128i) -> __m128i { _mm_max_epi32(a, b) }
        fn w_reduce_max(w: __m128i) -> i32 {
            let m = _mm_max_epi32(w, _mm_shuffle_epi32(w, 0b01_00_11_10));
            _mm_cvtsi128_si32(_mm_max_epi32(m, _mm_shuffle_epi32(m, 0b10_11_00_01)))
        }
        fn w_eq_bits(w: __m128i, x: __m128i) -> u32 {
            _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(w, x))) as u32
        }
    }
}

/// Equation (3) layout, vectorized with the `palignr` byte-shift
/// (Figure 3a's access pattern).
pub fn align_mm2(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    mode: AlignMode,
    with_path: bool,
) -> AlignResult {
    align_mm2_with_scratch(target, query, sc, mode, with_path, &mut AlignScratch::new())
}

/// [`align_mm2`] with caller-provided buffers.
pub fn align_mm2_with_scratch(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    mode: AlignMode,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    assert!(available(), "SSE4.1 not available on this CPU");
    if let Some(r) = degenerate(target, query, sc, mode, with_path) {
        return r;
    }
    assert!(sc.fits_i8(), "scoring parameters must satisfy fits_i8()");
    // SAFETY: feature checked above.
    unsafe { mm2_inner(target, query, sc, mode, with_path, scratch) }
}

/// Equation (4) layout, vectorized with plain loads/stores (Figure 3b).
pub fn align_manymap(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    mode: AlignMode,
    with_path: bool,
) -> AlignResult {
    align_manymap_with_scratch(target, query, sc, mode, with_path, &mut AlignScratch::new())
}

/// [`align_manymap`] with caller-provided buffers.
pub fn align_manymap_with_scratch(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    mode: AlignMode,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    assert!(available(), "SSE4.1 not available on this CPU");
    if let Some(r) = degenerate(target, query, sc, mode, with_path) {
        return r;
    }
    assert!(sc.fits_i8(), "scoring parameters must satisfy fits_i8()");
    // SAFETY: feature checked above.
    unsafe { manymap_inner(target, query, sc, mode, with_path, scratch) }
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
    assert!(available(), "SSE4.1 not available on this CPU");
    // SAFETY: feature checked above.
    unsafe { zdrop_inner(target, query, sc, zdrop, with_path, scratch) }
}

/// A lane group of up to 16 global jobs, one per byte lane (see
/// [`crate::Engine::align_group_with_scratch`]).
pub(crate) fn align_group_with_scratch(
    jobs: &[GroupJob<'_>],
    sc: &Scoring,
    scratch: &mut AlignScratch,
    out: &mut Vec<AlignResult>,
) {
    assert!(available(), "SSE4.1 not available on this CPU");
    // SAFETY: feature checked above.
    unsafe { group_inner(jobs, sc, scratch, out) }
}

/// # Safety
/// Caller must ensure SSE4.1 is available — the public wrappers above assert
/// `available()` before dispatching here.
#[target_feature(enable = "sse4.1")]
unsafe fn mm2_inner(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    mode: AlignMode,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    kernel::fill_mm2::<Sse>(target, query, sc, mode, with_path, scratch)
}

/// # Safety
/// Caller must ensure SSE4.1 is available — the public wrappers above assert
/// `available()` before dispatching here.
#[target_feature(enable = "sse4.1")]
unsafe fn manymap_inner(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    mode: AlignMode,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    kernel::fill_manymap::<Sse>(target, query, sc, mode, with_path, scratch)
}

/// # Safety
/// Caller must ensure SSE4.1 is available — `extend_zdrop` above asserts
/// `available()` before dispatching here.
#[target_feature(enable = "sse4.1")]
unsafe fn zdrop_inner(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    zdrop: i32,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> ExtendResult {
    kernel::extend_zdrop::<Sse>(target, query, sc, zdrop, with_path, scratch)
}

/// # Safety
/// Caller must ensure SSE4.1 is available — `align_group_with_scratch`
/// above asserts `available()` before dispatching here.
#[target_feature(enable = "sse4.1")]
unsafe fn group_inner(
    jobs: &[GroupJob<'_>],
    sc: &Scoring,
    scratch: &mut AlignScratch,
    out: &mut Vec<AlignResult>,
) {
    kernel::fill_group::<Sse>(jobs, sc, scratch, out)
}

// Miri cannot execute vendor intrinsics; the simd tests are host-only.
#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::scalar;
    use proptest::prelude::*;

    const SC: Scoring = Scoring::MAP_ONT;

    const MODES: [AlignMode; 4] = [
        AlignMode::Global,
        AlignMode::SemiGlobal,
        AlignMode::TargetSuffixFree,
        AlignMode::QuerySuffixFree,
    ];

    fn random_pair(seed: u64, tlen: usize, edits: usize) -> (Vec<u8>, Vec<u8>) {
        let mut state = seed;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let t: Vec<u8> = (0..tlen).map(|_| (rnd() % 4) as u8).collect();
        let mut q = t.clone();
        for _ in 0..edits {
            let pos = rnd() % q.len();
            match rnd() % 3 {
                0 => q[pos] = (rnd() % 4) as u8,
                1 => q.insert(pos, (rnd() % 4) as u8),
                _ => {
                    q.remove(pos);
                }
            }
        }
        (t, q)
    }

    #[test]
    fn matches_scalar_on_long_noisy_pairs() {
        if !available() {
            return;
        }
        for (seed, len) in [(1u64, 64usize), (2, 100), (3, 257), (4, 500)] {
            let (t, q) = random_pair(seed, len, len / 8);
            for mode in MODES {
                let gold = scalar::align_manymap(&t, &q, &SC, mode, true);
                let a = align_mm2(&t, &q, &SC, mode, true);
                let b = align_manymap(&t, &q, &SC, mode, true);
                assert_eq!(a, gold, "sse mm2 len={len} mode={mode:?}");
                assert_eq!(b, gold, "sse manymap len={len} mode={mode:?}");
            }
        }
    }

    #[test]
    fn handles_vector_boundary_lengths() {
        if available() {
            super::super::tests::check_vector_boundary_lengths(16, align_mm2, align_manymap);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn sse_kernels_match_scalar(
            t in proptest::collection::vec(0u8..5, 1..128),
            q in proptest::collection::vec(0u8..5, 1..128),
            mode_idx in 0usize..4,
            with_path in proptest::bool::ANY,
        ) {
            prop_assume!(available());
            let mode = MODES[mode_idx];
            let gold = scalar::align_manymap(&t, &q, &SC, mode, with_path);
            prop_assert_eq!(align_mm2(&t, &q, &SC, mode, with_path), gold.clone());
            prop_assert_eq!(align_manymap(&t, &q, &SC, mode, with_path), gold);
        }
    }
}
