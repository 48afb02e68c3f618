//! XXH64 — the checksum guarding every container section and manifest.
//!
//! The shard container (DESIGN.md §15) stores one 64-bit digest per
//! section (header / packed sequences / bucket map / block pool) plus one
//! over the section directory itself, all computed with XXH64. The
//! algorithm is implemented here from the public specification — no
//! dependency — and verified against the reference test vectors below, so
//! digests are interchangeable with any other xxhash implementation.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn u64le(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

#[inline]
fn u32le(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val)).wrapping_mul(P1).wrapping_add(P4)
}

/// XXH64 of `data` with `seed`.
///
/// Single-shot only (the shard loader always has the whole section mapped),
/// which keeps the implementation a direct transcription of the spec: four
/// parallel lanes over 32-byte stripes, a merge, then the tail and the
/// final avalanche.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let len = data.len() as u64;
    let mut p = data;
    let mut h: u64;
    if p.len() >= 32 {
        let mut v1 = seed.wrapping_add(P1).wrapping_add(P2);
        let mut v2 = seed.wrapping_add(P2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(P1);
        while p.len() >= 32 {
            v1 = round(v1, u64le(&p[0..8]));
            v2 = round(v2, u64le(&p[8..16]));
            v3 = round(v3, u64le(&p[16..24]));
            v4 = round(v4, u64le(&p[24..32]));
            p = &p[32..];
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(P5);
    }
    h = h.wrapping_add(len);
    while p.len() >= 8 {
        h = (h ^ round(0, u64le(&p[0..8])))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
        p = &p[8..];
    }
    if p.len() >= 4 {
        h = (h ^ (u32le(&p[0..4]) as u64).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        p = &p[4..];
    }
    for &b in p {
        h = (h ^ (b as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^= h >> 32;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // Canonical XXH64 vectors (xxhash reference implementation / the
        // Python binding's documented examples).
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: exercises the 32-byte stripe loop plus a tail.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition", 0),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn seed_separates_digests() {
        let d = b"the same bytes";
        let h: Vec<u64> = (0..8).map(|s| xxh64(d, s)).collect();
        for i in 0..h.len() {
            for j in i + 1..h.len() {
                assert_ne!(h[i], h[j], "seeds {i} and {j} collide");
            }
        }
    }

    #[test]
    fn every_byte_position_is_covered() {
        // Flipping any single byte must change the digest — the property
        // the corruption sweep relies on. Length 101 covers stripes, the
        // 8/4-byte tails, and the final bytes.
        let base: Vec<u8> = (0..101u32).map(|i| (i * 37 + 11) as u8).collect();
        let h0 = xxh64(&base, 0);
        for i in 0..base.len() {
            let mut m = base.clone();
            m[i] ^= 0x80;
            assert_ne!(xxh64(&m, 0), h0, "flip at byte {i} not detected");
        }
        // Truncation by one byte must also change it.
        assert_ne!(xxh64(&base[..100], 0), h0);
    }
}
