//! Bit-level decoders for the packed resident formats (DESIGN.md §14),
//! one per format:
//!
//! * **posting fields** — fixed-width bit fields in a packed `u64` word
//!   stream (the FOR/delta posting blocks), read one at a time by
//!   [`read_field`], the primitive behind the builder's [`write_fields`]
//!   round trip and the streaming posting cursor.
//! * **nt4 bases** — 2-bit packed bases expanded to nt4 bytes (the
//!   packed-reference window decode feeding the alignment kernels):
//!   [`unpack_nt4`] sends whole packed bytes through a 256-entry table,
//!   checked against the per-base [`unpack_nt4_scalar`] gold. Its encoder,
//!   [`pack_nt4`], is what the index builder writes.

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
/// `words` — the one posting-field decoder.
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

/// Pack nt4 bases 16 to a `u32` word, base `i` at bits `2 * (i % 16)` of
/// word `i / 16` — whose little-endian bytes are what [`unpack_nt4`]
/// decodes. Ambiguous codes (≥ 4) pack as `A`; the index builder skips the
/// minimizers spanning them on its own.
pub fn pack_nt4(seq: &[u8]) -> Vec<u32> {
    let mut words = vec![0u32; seq.len().div_ceil(16)];
    for (i, &c) in seq.iter().enumerate() {
        let code = if c < 4 { c as u32 } else { 0 };
        words[i >> 4] |= code << ((i & 15) << 1);
    }
    words
}

/// The four nt4 bases of every packed byte, lowest bits first.
const NT4_OF_BYTE: [[u8; 4]; 256] = {
    let mut t = [[0u8; 4]; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = [
            (b & 3) as u8,
            ((b >> 2) & 3) as u8,
            ((b >> 4) & 3) as u8,
            (b >> 6) as u8,
        ];
        b += 1;
    }
    t
};

/// The name of the window decoder, for reports.
pub fn best_tier_label() -> &'static str {
    "256-entry table"
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

/// Decode 2-bit packed bases `start..end` into nt4 bytes: a scalar head up
/// to a whole packed byte, every whole byte through a 256-entry table, then
/// a scalar tail. Equal to [`unpack_nt4_scalar`].
pub fn unpack_nt4(packed: &[u8], start: usize, end: usize, out: &mut [u8]) {
    debug_assert_eq!(out.len(), end - start);
    let head = ((4 - (start & 3)) & 3).min(end - start);
    let (head_out, rest) = out.split_at_mut(head);
    unpack_nt4_scalar(packed, start, start + head, head_out);
    let (body, tail) = rest.split_at_mut(rest.len() & !3);
    let first = (start + head) / 4;
    let bytes = &packed[first..first + body.len() / 4];
    for (quad, &b) in body.chunks_exact_mut(4).zip(bytes) {
        quad.copy_from_slice(&NT4_OF_BYTE[b as usize]);
    }
    unpack_nt4_scalar(packed, end - tail.len(), end, tail);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn read_fields(words: &[u64], width: u32, n: usize) -> Vec<u64> {
        (0..n)
            .map(|i| read_field(words, i * width as usize, width))
            .collect()
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
                assert_eq!(read_fields(&words, width, n), vals, "width={width} n={n}");
            }
        }
    }

    #[test]
    fn boundary_values_survive() {
        // All-ones and alternating extremes at widths around the byte and
        // word sizes.
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
            assert_eq!(read_fields(&words, width, n), vals, "width={width}");
        }
    }

    #[test]
    fn nt4_table_matches_scalar() {
        let mut state = 7u64;
        let n_bases = 8 + 8_191usize;
        // An odd offset into the buffer: the image gives no alignment.
        let buf: Vec<u8> = (0..1 + n_bases.div_ceil(4))
            .map(|_| xorshift(&mut state) as u8)
            .collect();
        let packed = &buf[1..];
        let lens = (0..=300).chain([4_096, 8_191]);
        for len in lens {
            for start in 0..8 {
                let end = start + len;
                let mut gold = vec![0u8; len];
                unpack_nt4_scalar(packed, start, end, &mut gold);
                assert!(gold.iter().all(|&b| b < 4));
                let mut got = vec![0xFFu8; len];
                unpack_nt4(packed, start, end, &mut got);
                assert_eq!(got, gold, "range {start}..{end}");
            }
        }
    }
}
