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
}
