//! Vectorized block-unpack kernels for the packed resident formats
//! (DESIGN.md §14).
//!
//! Two kernel families live here, each with a scalar gold, an AVX2 tier,
//! and an AVX-512 VBMI tier behind the same [`DisabledTiers`] gate the
//! align kernels use (`MMM_DISABLE_SIMD` applies to both):
//!
//! * **delta unpack** — extract `n` fixed-width bit fields from a packed
//!   `u64` word stream (the FOR/delta posting blocks). The AVX2 kernel
//!   byte-gathers an unaligned 64-bit window per field and shifts the
//!   sub-byte remainder; the AVX-512 kernel processes 8 fields per step
//!   with a width-specific `vpermb` byte spread (the
//!   vbmi-bitpack-decoder technique). Both are restricted to widths
//!   ≤ [`MAX_SIMD_WIDTH`], where a field plus its sub-byte shift always
//!   fits one 64-bit window; wider fields take the scalar path.
//! * **nt4 unpack** — expand 2-bit packed bases into nt4 bytes (the
//!   packed-reference window decode feeding the alignment kernels). Both
//!   SIMD tiers spread each source byte to four output lanes, shift the
//!   per-lane bit offset with 16-bit shifts, and mask to the low 2 bits.
//!
//! Every tier is bit-compatible with the scalar gold; the xtask oracle's
//! `packed_crosscheck` pass enforces this on every machine.
//!
//! This is the only module in `mmm-index` allowed to contain SIMD
//! intrinsics or raw-pointer arithmetic: the workspace denies
//! `unsafe_code`, and this module alone expects it.
#![expect(unsafe_code, reason = "SIMD decode, reached only via `available()`")]

use std::sync::OnceLock;

use mmm_align::{parse_disable_list, DisabledTiers};

/// Widest bit field the SIMD delta kernels handle: a field starting at any
/// sub-byte offset (shift ≤ 7) must fit the 64-bit window loaded from its
/// first byte, so `7 + width ≤ 64`. Wider fields fall back to scalar.
pub const MAX_SIMD_WIDTH: u32 = 57;

/// The process-wide `MMM_DISABLE_SIMD` override, read once and cached —
/// the same variable, grammar, and caching discipline as the align
/// kernels' dispatch gate.
fn env_disabled() -> DisabledTiers {
    static CACHE: OnceLock<DisabledTiers> = OnceLock::new();
    *CACHE.get_or_init(|| match std::env::var("MMM_DISABLE_SIMD") {
        Ok(v) => parse_disable_list(&v),
        Err(_) => DisabledTiers::NONE,
    })
}

/// Runtime support for the AVX2 unpack kernels.
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runtime support for the AVX-512 unpack kernels (BW for the 16-bit
/// shifts, VBMI for the byte permute).
fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512bw") && is_x86_feature_detected!("avx512vbmi")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Which unpack tier `MMM_DISABLE_SIMD` and the CPU leave us, for reports.
pub fn best_tier_label() -> &'static str {
    best_tier_label_unless(env_disabled())
}

/// [`best_tier_label`] against an explicit mask.
pub fn best_tier_label_unless(disabled: DisabledTiers) -> &'static str {
    if !disabled.avx512 && avx512_available() {
        "AVX-512 VBMI"
    } else if !disabled.avx2 && avx2_available() {
        "AVX2"
    } else {
        "scalar"
    }
}

/// Mask with the low `width` bits set (`width` in `1..=64`).
#[inline(always)]
fn field_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Words needed to hold `n` fields of `width` bits.
#[inline]
pub fn words_for(n: u64, width: u32) -> u64 {
    (n * width as u64).div_ceil(64)
}

/// Read the `width`-bit little-endian field starting at bit `bit` of
/// `words`. The scalar primitive behind packing, the cursor, and the
/// scalar tail of both SIMD kernels.
#[inline(always)]
pub fn read_field(words: &[u64], bit: usize, width: u32) -> u64 {
    let w = bit >> 6;
    let o = bit & 63;
    let lo = words[w] >> o;
    let val = if o + width as usize > 64 {
        lo | (words[w + 1] << (64 - o))
    } else {
        lo
    };
    val & field_mask(width)
}

/// Append `n` fields of `width` bits to a word buffer starting at bit
/// `bit_base` (the buffer must already be zeroed and large enough). Values
/// must fit `width` bits.
pub fn write_fields(words: &mut [u64], bit_base: usize, width: u32, values: &[u64]) {
    debug_assert!((1..=64).contains(&width));
    let mut bit = bit_base;
    for &v in values {
        debug_assert!(v <= field_mask(width));
        let w = bit >> 6;
        let o = bit & 63;
        words[w] |= v << o;
        if o + width as usize > 64 {
            words[w + 1] |= v >> (64 - o);
        }
        bit += width as usize;
    }
}

/// Scalar gold: unpack `out.len()` consecutive `width`-bit fields from
/// `words` (starting at bit 0) into `out`.
pub fn unpack_fields_scalar(words: &[u64], width: u32, out: &mut [u64]) {
    debug_assert!((1..=64).contains(&width));
    let mut bit = 0usize;
    for slot in out.iter_mut() {
        *slot = read_field(words, bit, width);
        bit += width as usize;
    }
}

/// Unpack `out.len()` consecutive `width`-bit fields from `words` into
/// `out`, on the widest SIMD tier the CPU and `MMM_DISABLE_SIMD` allow.
/// Bit-identical to [`unpack_fields_scalar`] on every tier.
pub fn unpack_fields(words: &[u64], width: u32, out: &mut [u64]) {
    unpack_fields_unless(env_disabled(), words, width, out)
}

/// [`unpack_fields`] against an explicit disable mask — the pure form the
/// oracle drives to force each tier.
pub fn unpack_fields_unless(disabled: DisabledTiers, words: &[u64], width: u32, out: &mut [u64]) {
    debug_assert!((1..=64).contains(&width));
    debug_assert!(words_for(out.len() as u64, width) <= words.len() as u64);
    #[cfg(target_arch = "x86_64")]
    if (1..=MAX_SIMD_WIDTH).contains(&width) && out.len() >= 8 {
        if !disabled.avx512 && avx512_available() {
            // SAFETY: avx512_available() confirmed AVX-512BW+VBMI at
            // runtime; bounds are validated inside the kernel.
            unsafe { unpack_fields_avx512(words, width, out) };
            return;
        }
        if !disabled.avx2 && avx2_available() {
            // SAFETY: avx2_available() confirmed AVX2 at runtime; bounds
            // are validated inside the kernel.
            unsafe { unpack_fields_avx2(words, width, out) };
            return;
        }
    }
    unpack_fields_scalar(words, width, out);
}

/// AVX2 field unpack: 4 fields per step via a scale-1 `vpgatherqq` of each
/// field's first byte, then a per-lane variable shift of the sub-byte
/// remainder. Fields whose 8-byte window would read past the buffer are
/// finished by the scalar tail.
///
/// # Safety
/// Caller must ensure AVX2 is available and
/// `words_for(out.len(), width) <= words.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn unpack_fields_avx2(words: &[u64], width: u32, out: &mut [u64]) {
    use core::arch::x86_64::*;
    let n = out.len();
    let w = width as usize;
    let bytes_len = words.len() * 8;
    // Largest field index whose 8-byte window stays in bounds:
    // (i*w)/8 + 8 <= bytes_len  <=>  i <= ((bytes_len-8)*8 + 7) / w.
    let n_safe = if bytes_len >= 8 {
        n.min(((bytes_len - 8) * 8 + 7) / w + 1)
    } else {
        0
    };
    let base = words.as_ptr() as *const i64;
    let vmask = _mm256_set1_epi64x(field_mask(width) as i64);
    let mut i = 0usize;
    while i + 4 <= n_safe {
        let b0 = i * w;
        // Per-lane byte offset of the field's first byte, and the sub-byte
        // shift left over; shift ∈ 0..=7 and shift+width ≤ 64, so the
        // field always fits the gathered 64-bit window.
        let offs = _mm256_set_epi64x(
            ((b0 + 3 * w) / 8) as i64,
            ((b0 + 2 * w) / 8) as i64,
            ((b0 + w) / 8) as i64,
            (b0 / 8) as i64,
        );
        let shifts = _mm256_set_epi64x(
            ((b0 + 3 * w) % 8) as i64,
            ((b0 + 2 * w) % 8) as i64,
            ((b0 + w) % 8) as i64,
            (b0 % 8) as i64,
        );
        // SAFETY: every gathered window [off, off+8) lies within the
        // `bytes_len`-byte buffer by the n_safe bound above; scale 1 makes
        // the i64 indices byte offsets.
        let win = _mm256_i64gather_epi64(base, offs, 1);
        let vals = _mm256_and_si256(_mm256_srlv_epi64(win, shifts), vmask);
        // SAFETY: i + 4 <= n = out.len(), so the 32-byte store is in
        // bounds; storeu tolerates any alignment.
        _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, vals);
        i += 4;
    }
    let mut bit = i * w;
    for slot in out.iter_mut().skip(i) {
        *slot = read_field(words, bit, width);
        bit += w;
    }
}

/// AVX-512 VBMI field unpack: 8 fields per step. Because 8 fields span
/// exactly `width` bytes, every step's window starts on a whole byte; one
/// 64-byte load plus a width-specific `vpermb` places each field's 8
/// source bytes in its own qword lane, then a per-lane shift of the
/// sub-byte remainder finishes the extraction.
///
/// # Safety
/// Caller must ensure AVX-512BW+VBMI are available and
/// `words_for(out.len(), width) <= words.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn unpack_fields_avx512(words: &[u64], width: u32, out: &mut [u64]) {
    use core::arch::x86_64::*;
    let n = out.len();
    let w = width as usize;
    let bytes_len = words.len() * 8;
    let base = words.as_ptr() as *const u8;
    // Lane j's field starts at bit j*w of the step's window; spread its
    // first byte (j*w)/8 .. +8 into qword lane j. The index depends only
    // on the width, so it is built once per call.
    let mut idx = [0u8; 64];
    for (j, lane) in idx.chunks_exact_mut(8).enumerate() {
        let first = (j * w) / 8;
        for (k, b) in lane.iter_mut().enumerate() {
            *b = (first + k) as u8;
        }
    }
    // SAFETY: `idx` is a properly aligned 64-byte local; loadu has no
    // alignment requirement.
    let vidx = _mm512_loadu_si512(idx.as_ptr() as *const __m512i);
    let shifts = _mm512_set_epi64(
        ((7 * w) % 8) as i64,
        ((6 * w) % 8) as i64,
        ((5 * w) % 8) as i64,
        ((4 * w) % 8) as i64,
        ((3 * w) % 8) as i64,
        ((2 * w) % 8) as i64,
        (w % 8) as i64,
        0,
    );
    let vmask = _mm512_set1_epi64(field_mask(width) as i64);
    let mut i = 0usize;
    // Step g reads 64 bytes from byte g*w (fields 8g.. start at bit
    // 8g*w = (g*w)*8, a whole-byte boundary).
    while i + 8 <= n && (i / 8) * w + 64 <= bytes_len {
        // SAFETY: the loop condition keeps the 64-byte window inside the
        // buffer; loadu tolerates any alignment.
        let src = _mm512_loadu_si512(base.add((i / 8) * w) as *const __m512i);
        let lanes = _mm512_permutexvar_epi8(vidx, src);
        let vals = _mm512_and_si512(_mm512_srlv_epi64(lanes, shifts), vmask);
        // SAFETY: i + 8 <= n = out.len(), so the 64-byte store is in
        // bounds; storeu tolerates any alignment.
        _mm512_storeu_si512(out.as_mut_ptr().add(i) as *mut __m512i, vals);
        i += 8;
    }
    let mut bit = i * w;
    for slot in out.iter_mut().skip(i) {
        *slot = read_field(words, bit, width);
        bit += w;
    }
}

/// Scalar gold: decode 2-bit packed bases `start..end` into nt4 bytes.
/// `packed` holds 4 bases per byte, base `i` at bits `2*(i%4)` of byte
/// `i/4` — the little-endian bytes of the image's `u32` words (16 bases
/// each), read where they lie: they follow variable-length names and have
/// no alignment. `out` must be `end - start` long.
pub fn unpack_nt4_scalar(packed: &[u8], start: usize, end: usize, out: &mut [u8]) {
    debug_assert_eq!(out.len(), end - start);
    for (slot, i) in out.iter_mut().zip(start..end) {
        *slot = (packed[i >> 2] >> ((i & 3) << 1)) & 3;
    }
}

/// Decode 2-bit packed bases `start..end` into nt4 bytes on the widest
/// allowed SIMD tier. Bit-identical to [`unpack_nt4_scalar`].
pub fn unpack_nt4(packed: &[u8], start: usize, end: usize, out: &mut [u8]) {
    unpack_nt4_unless(env_disabled(), packed, start, end, out)
}

/// [`unpack_nt4`] against an explicit disable mask.
pub fn unpack_nt4_unless(
    disabled: DisabledTiers,
    packed: &[u8],
    start: usize,
    end: usize,
    out: &mut [u8],
) {
    debug_assert_eq!(out.len(), end - start);
    debug_assert!(start <= end && end <= packed.len() * 4);
    #[cfg(target_arch = "x86_64")]
    if end - start >= 64 {
        if !disabled.avx512 && avx512_available() {
            // SAFETY: avx512_available() confirmed AVX-512BW+VBMI at
            // runtime; bounds are validated inside the kernel.
            unsafe { unpack_nt4_avx512(packed, start, end, out) };
            return;
        }
        if !disabled.avx2 && avx2_available() {
            // SAFETY: avx2_available() confirmed AVX2 at runtime; bounds
            // are validated inside the kernel.
            unsafe { unpack_nt4_avx2(packed, start, end, out) };
            return;
        }
    }
    unpack_nt4_scalar(packed, start, end, out);
}

/// AVX2 nt4 expansion: 8 packed bytes → 32 nt4 bases per step. The 8
/// source bytes are broadcast to both 128-bit lanes, `vpshufb` spreads
/// byte `i/4` to output byte `i`, three 16-bit right-shifts produce the
/// 2/4/6-bit phases, and per-position 0x03 masks select and truncate each
/// base (bits entering a byte from its 16-bit neighbor sit above bit 1,
/// so they never survive the mask).
///
/// # Safety
/// Caller must ensure AVX2 is available, `out.len() == end - start`, and
/// `end <= packed.len() * 4`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn unpack_nt4_avx2(packed: &[u8], start: usize, end: usize, out: &mut [u8]) {
    use core::arch::x86_64::*;
    // Scalar head up to a whole packed byte (4-base boundary).
    let head = (4 - (start & 3)) & 3;
    let head = head.min(end - start);
    unpack_nt4_scalar(packed, start, start + head, &mut out[..head]);
    let mut o = head; // output cursor
    let bytes = packed.as_ptr();
    let bytes_len = packed.len();
    let spread = _mm256_setr_epi8(
        0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, // lane 0: bytes 0..4
        4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7, // lane 1: bytes 4..8
    );
    let m0 = _mm256_set1_epi32(0x0000_0003);
    let m1 = _mm256_set1_epi32(0x0000_0300);
    let m2 = _mm256_set1_epi32(0x0003_0000);
    let m3 = _mm256_set1_epi32(0x0300_0000u32 as i32);
    while o + 32 <= end - start && (start + o) / 4 + 8 <= bytes_len {
        let b = (start + o) / 4; // whole-byte aligned by the head skip
                                 // SAFETY: b + 8 <= bytes_len by the loop bound, so the 8-byte
                                 // load stays inside the packed buffer.
        let src = _mm_loadl_epi64(bytes.add(b) as *const __m128i);
        let v = _mm256_broadcastsi128_si256(src);
        let sp = _mm256_shuffle_epi8(v, spread);
        let r = _mm256_or_si256(
            _mm256_or_si256(
                _mm256_and_si256(sp, m0),
                _mm256_and_si256(_mm256_srli_epi16(sp, 2), m1),
            ),
            _mm256_or_si256(
                _mm256_and_si256(_mm256_srli_epi16(sp, 4), m2),
                _mm256_and_si256(_mm256_srli_epi16(sp, 6), m3),
            ),
        );
        // SAFETY: o + 32 <= out.len() by the loop bound.
        _mm256_storeu_si256(out.as_mut_ptr().add(o) as *mut __m256i, r);
        o += 32;
    }
    unpack_nt4_scalar(packed, start + o, end, &mut out[o..]);
}

/// AVX-512 VBMI nt4 expansion: 16 packed bytes → 64 nt4 bases per step,
/// structurally the AVX2 kernel with `vpermb` doing the byte spread
/// across the full register.
///
/// # Safety
/// Caller must ensure AVX-512BW+VBMI are available,
/// `out.len() == end - start`, and `end <= packed.len() * 4`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn unpack_nt4_avx512(packed: &[u8], start: usize, end: usize, out: &mut [u8]) {
    use core::arch::x86_64::*;
    let head = (4 - (start & 3)) & 3;
    let head = head.min(end - start);
    unpack_nt4_scalar(packed, start, start + head, &mut out[..head]);
    let mut o = head;
    let bytes = packed.as_ptr();
    let bytes_len = packed.len();
    let mut idx = [0u8; 64];
    for (i, b) in idx.iter_mut().enumerate() {
        *b = (i / 4) as u8;
    }
    // SAFETY: `idx` is a valid 64-byte local; loadu has no alignment
    // requirement.
    let vidx = _mm512_loadu_si512(idx.as_ptr() as *const __m512i);
    let m0 = _mm512_set1_epi32(0x0000_0003);
    let m1 = _mm512_set1_epi32(0x0000_0300);
    let m2 = _mm512_set1_epi32(0x0003_0000);
    let m3 = _mm512_set1_epi32(0x0300_0000u32 as i32);
    while o + 64 <= end - start && (start + o) / 4 + 16 <= bytes_len {
        let b = (start + o) / 4;
        // SAFETY: b + 16 <= bytes_len by the loop bound, so the 16-byte
        // load stays inside the packed buffer.
        let src = _mm_loadu_si128(bytes.add(b) as *const __m128i);
        let v = _mm512_broadcast_i32x4(src);
        let sp = _mm512_permutexvar_epi8(vidx, v);
        let r = _mm512_or_si512(
            _mm512_or_si512(
                _mm512_and_si512(sp, m0),
                _mm512_and_si512(_mm512_srli_epi16(sp, 2), m1),
            ),
            _mm512_or_si512(
                _mm512_and_si512(_mm512_srli_epi16(sp, 4), m2),
                _mm512_and_si512(_mm512_srli_epi16(sp, 6), m3),
            ),
        );
        // SAFETY: o + 64 <= out.len() by the loop bound.
        _mm512_storeu_si512(out.as_mut_ptr().add(o) as *mut __m512i, r);
        o += 64;
    }
    unpack_nt4_scalar(packed, start + o, end, &mut out[o..]);
}

#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn masks() -> [DisabledTiers; 3] {
        [
            DisabledTiers::NONE,
            DisabledTiers {
                avx512: true,
                ..DisabledTiers::NONE
            },
            DisabledTiers::ALL_SIMD,
        ]
    }

    #[test]
    fn field_round_trip_every_width() {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for width in 1..=64u32 {
            for n in [0usize, 1, 3, 7, 8, 9, 31, 64, 100] {
                let vals: Vec<u64> = (0..n)
                    .map(|_| xorshift(&mut state) & field_mask(width))
                    .collect();
                let mut words = vec![0u64; words_for(n as u64, width) as usize];
                write_fields(&mut words, 0, width, &vals);
                let mut gold = vec![0u64; n];
                unpack_fields_scalar(&words, width, &mut gold);
                assert_eq!(gold, vals, "scalar width={width} n={n}");
                for d in masks() {
                    let mut got = vec![0u64; n];
                    unpack_fields_unless(d, &words, width, &mut got);
                    assert_eq!(got, vals, "width={width} n={n} mask={d:?}");
                }
            }
        }
    }

    #[test]
    fn boundary_values_survive() {
        // All-ones and alternating extremes at widths around the SIMD
        // cutoff and the word size.
        for width in [1u32, 7, 8, 39, 56, 57, 58, 63, 64] {
            let n = 37;
            let vals: Vec<u64> = (0..n)
                .map(|i| {
                    if i % 2 == 0 {
                        field_mask(width)
                    } else {
                        (i as u64) & field_mask(width)
                    }
                })
                .collect();
            let mut words = vec![0u64; words_for(n as u64, width) as usize];
            write_fields(&mut words, 0, width, &vals);
            for d in masks() {
                let mut got = vec![0u64; n];
                unpack_fields_unless(d, &words, width, &mut got);
                assert_eq!(got, vals, "width={width} mask={d:?}");
            }
        }
    }

    #[test]
    fn nt4_tiers_match_scalar() {
        let mut state = 7u64;
        let n_bases = 1000usize;
        // An odd offset into the buffer: the image gives no alignment.
        let buf: Vec<u8> = (0..1 + n_bases.div_ceil(4))
            .map(|_| xorshift(&mut state) as u8)
            .collect();
        let words = &buf[1..];
        let ranges = [
            (0usize, n_bases),
            (1, n_bases - 1),
            (3, 900),
            (4, 68),
            (17, 17),
            (0, 63),
            (0, 64),
            (5, 5),
            (995, 1000),
        ];
        for &(s, e) in &ranges {
            let mut gold = vec![0u8; e - s];
            unpack_nt4_scalar(words, s, e, &mut gold);
            assert!(gold.iter().all(|&b| b < 4));
            for d in masks() {
                let mut got = vec![0u8; e - s];
                unpack_nt4_unless(d, words, s, e, &mut got);
                assert_eq!(got, gold, "range {s}..{e} mask={d:?}");
            }
        }
    }

    #[test]
    fn tier_label_reports_something() {
        assert!(!best_tier_label().is_empty());
        assert_eq!(best_tier_label_unless(DisabledTiers::ALL_SIMD), "scalar");
    }
}
