//! The sketch from its definition, for differential tests: every k-mer
//! encoded from scratch, every window's minimum found by a full scan. Slow
//! and obviously right; `minimizer.rs`'s tests and `xtask oracle` check the
//! production sketcher against it. The including module must have
//! `hash64` and `Minimizer` in scope.

use super::{hash64, Minimizer};

/// What `minimizers` (or, with `hpc`, `minimizers_hpc`) must return.
pub fn sketch(seq: &[u8], k: usize, w: usize, hpc: bool) -> Vec<Minimizer> {
    // Positions: (base, first original index, last original index). Under
    // HPC a run of one base is one position; an ambiguous base always is.
    let mut positions: Vec<(u8, usize, usize)> = Vec::new();
    let mut i = 0;
    while i < seq.len() {
        let c = seq[i];
        let mut end = i;
        while hpc && c < 4 && end + 1 < seq.len() && seq[end + 1] == c {
            end += 1;
        }
        positions.push((c, i, end));
        i = end + 1;
    }
    // The k-mer ending at each position, if it is valid and not symmetric.
    let mask = (1u64 << (2 * k)) - 1;
    let kmers: Vec<Option<Minimizer>> = (0..positions.len())
        .map(|g| {
            let kmer = positions.get((g + 1).checked_sub(k)?..=g)?;
            if kmer.iter().any(|p| p.0 > 3) {
                return None;
            }
            let fwd = kmer.iter().fold(0, |a, p| (a << 2) | u64::from(p.0));
            let rc = kmer
                .iter()
                .rev()
                .fold(0, |a, p| (a << 2) | u64::from(3 - p.0));
            if fwd == rc {
                return None;
            }
            let end = positions[g].2;
            Some(Minimizer {
                hash: hash64(fwd.min(rc), mask),
                pos: end as u32,
                rev: rc < fwd,
                span: (end - kmer[0].1 + 1).min(255) as u8,
            })
        })
        .collect();
    // Every window of w positions, the first ending at position k + w - 2:
    // its leftmost minimum, unless it repeats the last one emitted.
    let mut out: Vec<Minimizer> = Vec::new();
    for end in k + w - 2..kmers.len() {
        let window = kmers[end + 1 - w..=end].iter().flatten();
        let Some(best) = window.min_by_key(|m| m.hash) else {
            continue;
        };
        if out.last().map(|m| (m.hash, m.pos)) != Some((best.hash, best.pos)) {
            out.push(*best);
        }
    }
    out
}

/// `len` uniform random nt4 bases from `seed`.
pub fn random_seq(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix(seed);
    (0..len).map(|_| (rng.next() % 4) as u8).collect()
}

/// `len` nt4 codes built to stress a sketcher: stretches of random bases,
/// runs of `N` (code 4) and long homopolymers, of random lengths.
pub fn hostile_seq(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix(seed);
    let mut seq = Vec::with_capacity(len);
    while seq.len() < len {
        let run = 1 + (rng.next() % 80) as usize;
        match rng.next() % 8 {
            0 => seq.extend(std::iter::repeat_n(4, run)),
            1 | 2 => seq.extend(std::iter::repeat_n((rng.next() % 4) as u8, run)),
            _ => seq.extend((0..run).map(|_| (rng.next() % 4) as u8)),
        }
    }
    seq.truncate(len);
    seq
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
