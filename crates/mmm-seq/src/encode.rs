//! Nucleotide encodings.
//!
//! minimap2 works internally on the *nt4* code: `A=0, C=1, G=2, T/U=3,
//! anything else = 4` (ambiguous). The alignment kernels consume nt4 slices;
//! the index additionally packs references into 2 bits per base (ambiguous
//! bases are randomized at encode time by the caller, mirroring minimap2's
//! index construction which skips non-ACGT minimizers).

/// ASCII → nt4 lookup table, identical in spirit to minimap2's `seq_nt4_table`.
pub static SEQ_NT4_TABLE: [u8; 256] = {
    let mut t = [4u8; 256];
    t[b'A' as usize] = 0;
    t[b'a' as usize] = 0;
    t[b'C' as usize] = 1;
    t[b'c' as usize] = 1;
    t[b'G' as usize] = 2;
    t[b'g' as usize] = 2;
    t[b'T' as usize] = 3;
    t[b't' as usize] = 3;
    t[b'U' as usize] = 3;
    t[b'u' as usize] = 3;
    t
};

/// nt4 code → ASCII base character.
pub static BASE_CHARS: [u8; 5] = *b"ACGTN";

/// Encode one ASCII base to nt4.
#[inline(always)]
pub fn encode_base(b: u8) -> u8 {
    SEQ_NT4_TABLE[b as usize]
}

/// Encode an ASCII sequence into a fresh nt4 vector.
pub fn to_nt4(seq: &[u8]) -> Vec<u8> {
    seq.iter().map(|&b| SEQ_NT4_TABLE[b as usize]).collect()
}

/// Decode an nt4 slice back into ASCII.
pub fn nt4_decode(seq: &[u8]) -> Vec<u8> {
    seq.iter()
        .map(|&c| BASE_CHARS[(c as usize).min(4)])
        .collect()
}

/// Complement of one nt4 code (`N` maps to `N`).
#[inline(always)]
pub fn comp4(c: u8) -> u8 {
    if c < 4 {
        3 - c
    } else {
        4
    }
}

/// Reverse complement of an nt4 slice into a fresh vector.
pub fn revcomp4(seq: &[u8]) -> Vec<u8> {
    seq.iter().rev().map(|&c| comp4(c)).collect()
}

/// Reverse-complement an nt4 slice in place without allocation.
pub fn revcomp_in_place(seq: &mut [u8]) {
    let n = seq.len();
    for i in 0..n / 2 {
        let (a, b) = (seq[i], seq[n - 1 - i]);
        seq[i] = comp4(b);
        seq[n - 1 - i] = comp4(a);
    }
    if n % 2 == 1 {
        let m = n / 2;
        seq[m] = comp4(seq[m]);
    }
}

/// A 2-bit packed DNA sequence (16 bases per `u32` word).
///
/// The minimizer index stores the reference this way — the same layout
/// minimap2 uses for `mm_idx_t::S` — so that a multi-gigabase reference fits
/// in a quarter of its ASCII footprint and minimizer re-extraction during
/// seeding stays cache-friendly. Ambiguous (`N`) bases must be substituted
/// *before* packing; [`PackedSeq::from_nt4_lossy`] maps them to `A` and the
/// index builder independently skips minimizers spanning them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackedSeq {
    words: Vec<u32>,
    len: usize,
}

impl PackedSeq {
    /// Pack an nt4 sequence. Codes ≥ 4 are mapped to `A` (code 0).
    pub fn from_nt4_lossy(seq: &[u8]) -> Self {
        let mut words = vec![0u32; seq.len().div_ceil(16)];
        for (i, &c) in seq.iter().enumerate() {
            let code = if c < 4 { c as u32 } else { 0 };
            words[i >> 4] |= code << ((i & 15) << 1);
        }
        PackedSeq {
            words,
            len: seq.len(),
        }
    }

    /// Number of bases stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bases are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fetch the nt4 code of base `i` (0..=3; packed sequences never hold `N`).
    #[inline(always)]
    pub fn get(&self, i: usize) -> u8 {
        debug_assert!(i < self.len);
        ((self.words[i >> 4] >> ((i & 15) << 1)) & 3) as u8
    }

    /// Copy bases `start..end` into an nt4 vector.
    pub fn slice(&self, start: usize, end: usize) -> Vec<u8> {
        assert!(start <= end && end <= self.len, "slice out of range");
        (start..end).map(|i| self.get(i)).collect()
    }

    /// Copy bases `start..end` reverse-complemented into an nt4 vector.
    pub fn slice_revcomp(&self, start: usize, end: usize) -> Vec<u8> {
        assert!(start <= end && end <= self.len, "slice out of range");
        (start..end).rev().map(|i| 3 - self.get(i)).collect()
    }

    /// [`PackedSeq::slice`] into a caller-provided buffer: `out` is cleared
    /// and refilled, so a reused buffer makes repeated window decodes
    /// allocation-free once its capacity covers the largest window.
    pub fn slice_into(&self, start: usize, end: usize, out: &mut Vec<u8>) {
        assert!(start <= end && end <= self.len, "slice out of range");
        out.clear();
        out.extend((start..end).map(|i| self.get(i)));
    }

    /// [`PackedSeq::slice_revcomp`] into a caller-provided buffer; same
    /// reuse contract as [`PackedSeq::slice_into`].
    pub fn slice_revcomp_into(&self, start: usize, end: usize, out: &mut Vec<u8>) {
        assert!(start <= end && end <= self.len, "slice out of range");
        out.clear();
        out.extend((start..end).rev().map(|i| 3 - self.get(i)));
    }

    /// Raw packed words (16 bases per word), for serialization.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Heap bytes used by the packed representation.
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nt4_table_round_trip() {
        assert_eq!(to_nt4(b"ACGTN"), vec![0, 1, 2, 3, 4]);
        assert_eq!(to_nt4(b"acgtu"), vec![0, 1, 2, 3, 3]);
        assert_eq!(nt4_decode(&[0, 1, 2, 3, 4]), b"ACGTN".to_vec());
    }

    #[test]
    fn unknown_chars_are_ambiguous() {
        for b in [b'X', b'-', b' ', b'8', 0u8, 255u8] {
            assert_eq!(encode_base(b), 4);
        }
    }

    #[test]
    fn complement_pairs() {
        assert_eq!(comp4(0), 3); // A<->T
        assert_eq!(comp4(1), 2); // C<->G
        assert_eq!(comp4(2), 1);
        assert_eq!(comp4(3), 0);
        assert_eq!(comp4(4), 4); // N stays N
    }

    #[test]
    fn revcomp_matches_manual() {
        let s = to_nt4(b"AACGT");
        assert_eq!(revcomp4(&s), to_nt4(b"ACGTT"));
    }

    #[test]
    fn revcomp_in_place_matches_alloc() {
        for n in 0..20 {
            let seq: Vec<u8> = (0..n).map(|i| (i * 7 % 4) as u8).collect();
            let mut inplace = seq.clone();
            revcomp_in_place(&mut inplace);
            assert_eq!(inplace, revcomp4(&seq), "length {n}");
        }
    }

    #[test]
    fn revcomp_is_involution() {
        let s = to_nt4(b"GATTACAGATTACA");
        assert_eq!(revcomp4(&revcomp4(&s)), s);
    }

    #[test]
    fn packed_round_trip() {
        let seq = to_nt4(b"ACGTACGTACGTACGTA"); // 17 bases crosses a word
        let p = PackedSeq::from_nt4_lossy(&seq);
        assert_eq!(p.len(), 17);
        for (i, &c) in seq.iter().enumerate() {
            assert_eq!(p.get(i), c, "base {i}");
        }
        assert_eq!(p.slice(0, 17), seq);
        assert_eq!(p.slice(3, 9), seq[3..9].to_vec());
    }

    #[test]
    fn packed_lossy_maps_n_to_a() {
        let p = PackedSeq::from_nt4_lossy(&to_nt4(b"ANT"));
        assert_eq!(p.slice(0, 3), vec![0, 0, 3]);
    }

    #[test]
    fn packed_revcomp_slice() {
        let seq = to_nt4(b"AACCGGTT");
        let p = PackedSeq::from_nt4_lossy(&seq);
        assert_eq!(p.slice_revcomp(0, 8), revcomp4(&seq));
        assert_eq!(p.slice_revcomp(2, 5), revcomp4(&seq[2..5]));
    }

    #[test]
    fn packed_slice_into_matches_allocating_forms() {
        let seq = to_nt4(b"ACGTACGTTGCATTGACGTACCGGTTAACCGGT");
        let p = PackedSeq::from_nt4_lossy(&seq);
        let mut buf = Vec::new();
        for (s, e) in [(0, 0), (0, 33), (3, 9), (15, 17), (16, 32), (31, 33)] {
            p.slice_into(s, e, &mut buf);
            assert_eq!(buf, p.slice(s, e), "slice {s}..{e}");
            p.slice_revcomp_into(s, e, &mut buf);
            assert_eq!(buf, p.slice_revcomp(s, e), "revcomp {s}..{e}");
        }
        // The buffer is reused, not reallocated, once warm.
        p.slice_into(0, 33, &mut buf);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        p.slice_revcomp_into(1, 20, &mut buf);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_ptr(), ptr);
    }

    #[test]
    fn packed_empty() {
        let p = PackedSeq::from_nt4_lossy(&[]);
        assert!(p.is_empty());
        assert_eq!(p.slice(0, 0), Vec::<u8>::new());
    }
}
