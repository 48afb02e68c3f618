//! Minimizer sketching (Roberts et al. 2004, as used by minimap2).
//!
//! A `(w, k)` minimizer is the k-mer with the smallest hash among the `w`
//! consecutive k-mers of a window. Hashing uses minimap2's invertible
//! 64-bit mix so that low-complexity k-mers (poly-A etc.) do not dominate;
//! each k-mer is taken on its canonical strand (the lexicographically
//! smaller of forward/reverse-complement encodings); strand-symmetric
//! k-mers and k-mers spanning an ambiguous base are skipped.
//!
//! The sketcher runs over fixed blocks of [`SKETCH_BLOCK`] k-mer positions
//! in three phases (DESIGN.md §14.5): roll the canonical codes into a flat
//! array, hash the whole array in a loop with no carried state (which the
//! compiler vectorizes), then take the window minimum over it. Scratch
//! memory is one block, whatever the sequence length.

/// One minimizer: hash value, position of the k-mer's *last* base, the
/// strand whose encoding was canonical, and the number of original bases
/// the k-mer covers (= k, or more under homopolymer compression).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Minimizer {
    pub hash: u64,
    /// 0-based position of the last base of the k-mer (original
    /// coordinates).
    pub pos: u32,
    /// True when the reverse-complement encoding was canonical.
    pub rev: bool,
    /// Original bases spanned (saturated at 255).
    pub span: u8,
}

/// minimap2's invertible integer hash (Thomas Wang's 64-bit mix), masked to
/// `2k` bits.
#[inline]
pub fn hash64(key: u64, mask: u64) -> u64 {
    let mut k = key;
    k = (!k).wrapping_add(k << 21) & mask;
    k ^= k >> 24;
    k = (k.wrapping_add(k << 3)).wrapping_add(k << 8) & mask;
    k ^= k >> 14;
    k = (k.wrapping_add(k << 2)).wrapping_add(k << 4) & mask;
    k ^= k >> 28;
    k = k.wrapping_add(k << 31) & mask;
    k
}

/// k-mer positions sketched per block. The block's codes and hashes
/// (16 bytes a position, plus the `w - 1` carried ones) stay in L1.
pub const SKETCH_BLOCK: usize = 1024;

/// "No k-mer here" (ambiguous base, too few bases, or a strand-symmetric
/// k-mer), as a code and as a hash. No real hash reaches it: a hash has
/// `2k <= 56` bits.
const NONE: u64 = u64::MAX;

/// The strand bit of a canonical code: set when the reverse complement was
/// the smaller encoding. It lies above any `2k`-bit code and below bit 63,
/// which only [`NONE`] sets.
const REV: u64 = 1 << 62;

/// Sketch `seq` (nt4 codes) with `(k, w)` minimizers.
///
/// Every window of `w` consecutive k-mer positions contributes its
/// minimum-hash k-mer, and a minimizer shared by consecutive windows is
/// emitted once, so the density is about `2/(w+1)` of the positions, as in
/// minimap2's `mm_sketch`. Where the two differ:
/// - on a tie only the leftmost copy of the minimum is emitted; minimap2
///   emits every copy;
/// - an ambiguous base or a strand-symmetric k-mer leaves a position with
///   no k-mer inside the window; minimap2 restarts the window after an
///   ambiguous base and drops a symmetric k-mer's position altogether.
///
/// ```
/// use mmm_index::minimizers;
/// let seq = mmm_seq::to_nt4(b"ACGTTGCAACGGTCATACGTTGCA");
/// let ms = minimizers(&seq, 11, 5);
/// assert!(!ms.is_empty());
/// // positions are the k-mer end coordinates, strictly increasing
/// assert!(ms.windows(2).all(|p| p[0].pos < p[1].pos));
/// ```
pub fn minimizers(seq: &[u8], k: usize, w: usize) -> Vec<Minimizer> {
    sketch_to_vec(seq, k, w, false)
}

/// Sketch with homopolymer compression (minimap2's `-H`, the `map-pb`
/// default): runs of identical bases collapse to one before k-mer
/// extraction, which suits PacBio CLR's indel-dominant error profile.
/// Positions and spans are reported in *original* coordinates.
pub fn minimizers_hpc(seq: &[u8], k: usize, w: usize) -> Vec<Minimizer> {
    sketch_to_vec(seq, k, w, true)
}

fn sketch_to_vec(seq: &[u8], k: usize, w: usize, hpc: bool) -> Vec<Minimizer> {
    // The expected count plus an eighth, so a sketch rarely reallocates.
    let expect = seq.len() / (w + 1) * 2;
    let mut out = Vec::with_capacity(expect + expect / 8 + 16);
    for_each_minimizer(seq, k, w, hpc, |m| out.push(m));
    out
}

/// Hand each minimizer of `seq` to `emit`, in order — what [`minimizers`]
/// (or, with `hpc`, [`minimizers_hpc`]) returns, without the `Vec`.
pub(crate) fn for_each_minimizer(
    seq: &[u8],
    k: usize,
    w: usize,
    hpc: bool,
    emit: impl FnMut(Minimizer),
) {
    assert!((4..=28).contains(&k), "k must be in [4, 28]");
    assert!((1..256).contains(&w), "w must be in [1, 255]");
    if hpc {
        sketch::<true>(seq, k, w, emit);
    } else {
        sketch::<false>(seq, k, w, emit);
    }
}

/// Hash of a code: [`hash64`] of the canonical k-mer, or [`NONE`]. Written
/// without a branch, so a loop over codes vectorizes.
#[inline(always)]
fn hash_code(code: u64, mask: u64) -> u64 {
    hash64(code & mask, mask) | (code >> 63).wrapping_neg()
}

/// The one sketcher. A *position* is one base, or under `HPC` one run of a
/// base (an ambiguous base is always a position of its own); position `g`
/// carries the k-mer that ends there, or [`NONE`]. Slot `j` of the block
/// buffers holds position `base + j`.
fn sketch<const HPC: bool>(seq: &[u8], k: usize, w: usize, mut emit: impl FnMut(Minimizer)) {
    if seq.len() < k {
        return;
    }
    let mask: u64 = (1 << (2 * k)) - 1;
    let shift = 2 * (k - 1);
    // A sequence shorter than a block is one block of its own length.
    let cap = (w - 1 + SKETCH_BLOCK).min(seq.len());
    let mut codes = vec![0u64; cap];
    let mut hashes = vec![0u64; cap];
    // Under HPC a position's end and span are not implied by its index.
    let mut ends = vec![0u32; if HPC { cap } else { 0 }];
    let mut spans = vec![0u8; if HPC { cap } else { 0 }];

    // Carried across blocks: the rolling k-mer, the bases since the last
    // ambiguous one, the original starts of the last k HPC runs, the last
    // `w - 1` positions (`kept` slots at the front) and the window minimum.
    let (mut fwd, mut rc, mut l) = (0u64, 0u64, 0usize);
    let mut run_starts = [0u32; 32];
    let (mut base, mut kept, mut i) = (0usize, 0usize, 0usize);
    let (mut min_at, mut min_hash) = (0usize, NONE);
    let mut last_emitted = usize::MAX;
    // The first full window ends at position k - 1 + w - 1.
    let first_full = k + w - 2;

    while i < seq.len() {
        // Phase 1: roll the canonical codes of the block's positions.
        let mut n = kept;
        if HPC {
            while n < cap && i < seq.len() {
                let c = seq[i];
                let mut end = i;
                if c < 4 {
                    while end + 1 < seq.len() && seq[end + 1] == c {
                        end += 1;
                    }
                    fwd = ((fwd << 2) | c as u64) & mask;
                    rc = (rc >> 2) | ((3 - c as u64) << shift);
                    run_starts[l % 32] = i as u32;
                    l += 1;
                } else {
                    l = 0;
                }
                let valid = l >= k && fwd != rc;
                codes[n] = canonical(valid, fwd, rc);
                ends[n] = end as u32;
                spans[n] = if valid {
                    (end - run_starts[(l - k) % 32] as usize + 1).min(255) as u8
                } else {
                    0
                };
                i = end + 1;
                n += 1;
            }
        } else {
            let take = (cap - kept).min(seq.len() - i);
            for (code, &c) in codes[kept..kept + take].iter_mut().zip(&seq[i..i + take]) {
                if c < 4 {
                    fwd = ((fwd << 2) | c as u64) & mask;
                    rc = (rc >> 2) | ((3 - c as u64) << shift);
                    l += 1;
                } else {
                    l = 0;
                }
                *code = canonical(l >= k && fwd != rc, fwd, rc);
            }
            i += take;
            n += take;
        }

        // Phase 2: hash them, one independent lane per position.
        for (h, &code) in hashes[kept..n].iter_mut().zip(&codes[kept..n]) {
            *h = hash_code(code, mask);
        }

        // Phase 3: the leftmost window minimum, rescanned only when the
        // current one leaves the window.
        for j in kept..n {
            let g = base + j;
            let h = hashes[j];
            if h < min_hash {
                (min_at, min_hash) = (g, h);
            } else if min_at + w <= g {
                // Right to left, so `<=` lands on the leftmost minimum. A
                // window with no k-mer (an N run) needs no scan.
                let lo = g + 1 - w - base;
                let (mut at, mut best) = (j, h);
                if min_hash == NONE {
                    at = lo;
                } else {
                    for s in (lo..j).rev() {
                        let x = hashes[s];
                        at = if x <= best { s } else { at };
                        best = best.min(x);
                    }
                }
                (min_at, min_hash) = (base + at, best);
            }
            if g >= first_full && min_hash != NONE && min_at != last_emitted {
                let s = min_at - base;
                emit(Minimizer {
                    hash: min_hash,
                    pos: if HPC { ends[s] } else { min_at as u32 },
                    rev: codes[s] & REV != 0,
                    span: if HPC { spans[s] } else { k as u8 },
                });
                last_emitted = min_at;
            }
        }

        // Carry the last `w - 1` positions: every window still to come
        // starts at or after the first of them.
        kept = (w - 1).min(n);
        codes.copy_within(n - kept..n, 0);
        hashes.copy_within(n - kept..n, 0);
        if HPC {
            ends.copy_within(n - kept..n, 0);
            spans.copy_within(n - kept..n, 0);
        }
        base += n - kept;
    }
}

/// The code of a position: the smaller strand encoding, tagged [`REV`]
/// when that is the reverse complement, or [`NONE`].
#[inline(always)]
fn canonical(valid: bool, fwd: u64, rc: u64) -> u64 {
    match (valid, fwd < rc) {
        (false, _) => NONE,
        (true, true) => fwd,
        (true, false) => rc | REV,
    }
}

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_seq::{revcomp4, to_nt4};
    use proptest::prelude::*;

    #[test]
    fn hash_is_invertible_shaped() {
        // Different keys must give different hashes (invertibility implies
        // injectivity within the mask).
        let mask = (1u64 << 30) - 1;
        let a = hash64(12345, mask);
        let b = hash64(12346, mask);
        assert_ne!(a, b);
        assert!(a <= mask && b <= mask);
    }

    #[test]
    fn short_sequence_has_no_minimizers() {
        assert!(minimizers(&to_nt4(b"ACGTACGT"), 15, 5).is_empty());
    }

    #[test]
    fn w1_emits_every_distinct_kmer_position() {
        let seq = to_nt4(b"ACGTTGCAACGGTCAT");
        let ms = minimizers(&seq, 5, 1);
        // Every position from k-1 on yields a k-mer (none are palindromic
        // here); all must be emitted with w = 1.
        assert_eq!(ms.len(), seq.len() - 5 + 1);
        assert!(ms.windows(2).all(|p| p[0].pos < p[1].pos));
        assert!(ms.iter().all(|m| m.span == 5));
    }

    #[test]
    fn hpc_collapses_homopolymers() {
        // AAACCCGGGAATT compresses to ACGAT; with k=4, w=1 the compressed
        // k-mers are ACGA (original span 0..=10) and CGAT (3..=12).
        // (ACGT-style palindromic k-mers would be strand-ambiguous and
        // skipped, so the example avoids them.)
        let seq = to_nt4(b"AAACCCGGGAATT");
        let ms = minimizers_hpc(&seq, 4, 1);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].pos, 10); // last A of the AA run
        assert_eq!(ms[0].span, 11);
        assert_eq!(ms[1].pos, 12); // last T
        assert_eq!(ms[1].span, 10);
    }

    #[test]
    fn hpc_is_insensitive_to_homopolymer_length_errors() {
        // The hallmark property: expanding a homopolymer run does not
        // change the compressed k-mer stream (hash sequence).
        let a = to_nt4(b"ACGGTCATTACGGACTTACGGTACGATCAG");
        let mut b = a.clone();
        b.insert(3, 2); // extend the GG run
        b.insert(9, 3); // extend a T run
        let ha: Vec<u64> = minimizers_hpc(&a, 7, 3).iter().map(|m| m.hash).collect();
        let hb: Vec<u64> = minimizers_hpc(&b, 7, 3).iter().map(|m| m.hash).collect();
        assert_eq!(ha, hb);
        // Plain sketching *is* disturbed by the same edits.
        let pa: Vec<u64> = minimizers(&a, 7, 3).iter().map(|m| m.hash).collect();
        let pb: Vec<u64> = minimizers(&b, 7, 3).iter().map(|m| m.hash).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn density_is_roughly_two_over_w_plus_one() {
        // Pseudo-random 20 kb sequence.
        let mut state = 7u64;
        let seq: Vec<u8> = (0..20_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) % 4) as u8
            })
            .collect();
        let (k, w) = (15, 10);
        let ms = minimizers(&seq, k, w);
        let density = ms.len() as f64 / seq.len() as f64;
        let expect = 2.0 / (w as f64 + 1.0);
        assert!(
            (density - expect).abs() < expect * 0.25,
            "density {density:.4} vs expected {expect:.4}"
        );
    }

    #[test]
    fn strand_symmetry() {
        // The sketch of the reverse complement contains the same hash set.
        let mut state = 99u64;
        let seq: Vec<u8> = (0..2_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) % 4) as u8
            })
            .collect();
        let fwd: std::collections::HashSet<u64> = minimizers(&seq, 15, 10)
            .into_iter()
            .map(|m| m.hash)
            .collect();
        let rev: std::collections::HashSet<u64> = minimizers(&revcomp4(&seq), 15, 10)
            .into_iter()
            .map(|m| m.hash)
            .collect();
        let inter = fwd.intersection(&rev).count();
        // Windows shift slightly between strands; most hashes must survive.
        assert!(
            inter as f64 >= 0.8 * fwd.len() as f64,
            "{inter} of {}",
            fwd.len()
        );
    }

    #[test]
    fn ambiguous_bases_suppress_spanning_kmers() {
        let clean = to_nt4(b"ACGTTGCAACGGTCATACGTTGCAACGGTCAT");
        let mut dirty = clean.clone();
        dirty[16] = 4; // N in the middle
        let mc = minimizers(&clean, 9, 3);
        let md = minimizers(&dirty, 9, 3);
        // No minimizer in the dirty sketch spans position 16.
        assert!(md.iter().all(|m| {
            let start = m.pos as usize + 1 - 9;
            !(start..=m.pos as usize).contains(&16)
        }));
        assert!(md.len() < mc.len());
    }

    #[test]
    fn deterministic() {
        let seq = to_nt4(b"ACGTTGCAACGGTCATACGTTGCAACGGTCATGGCCTTAA");
        assert_eq!(minimizers(&seq, 11, 5), minimizers(&seq, 11, 5));
    }

    fn sketch(seq: &[u8], k: usize, w: usize, hpc: bool) -> Vec<Minimizer> {
        if hpc {
            minimizers_hpc(seq, k, w)
        } else {
            minimizers(seq, k, w)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The sketcher equals the brute-force model on sequences built to
        /// hit its edges: N runs, long homopolymers, every `(k, w)`.
        #[test]
        fn sketch_equals_the_model(
            seed in 0u64..u64::MAX,
            len in 0usize..3_000,
            k in 4usize..29,
            w in 1usize..256,
            hpc in proptest::bool::ANY,
        ) {
            let seq = model::hostile_seq(seed, len);
            prop_assert_eq!(
                sketch(&seq, k, w, hpc),
                model::sketch(&seq, k, w, hpc),
                "seed {} len {} k {} w {} hpc {}", seed, len, k, w, hpc
            );
        }
    }

    /// Lengths where an off-by-one would show: shorter than a k-mer, one
    /// k-mer, one short of the first full window, the first full window,
    /// and one block of positions either side of its boundary.
    #[test]
    fn sketch_equals_the_model_on_edge_lengths() {
        for (k, w) in [(15, 10), (19, 10), (5, 1), (11, 5), (28, 255), (4, 3)] {
            let block = w - 1 + SKETCH_BLOCK;
            let lens = [
                k - 1,
                k,
                k + w - 2,
                k + w - 1,
                block - 1,
                block,
                block + 1,
                2 * block - w + 1,
                2 * block,
            ];
            for (seed, len) in lens.into_iter().enumerate() {
                for hpc in [false, true] {
                    // Plain random bases, where HPC positions are runs.
                    let seq = model::random_seq(seed as u64, len);
                    assert_eq!(
                        sketch(&seq, k, w, hpc),
                        model::sketch(&seq, k, w, hpc),
                        "k {k} w {w} len {len} hpc {hpc}"
                    );
                }
            }
        }
    }

    #[test]
    fn pure_homopolymers_and_n_runs_equal_the_model() {
        for (k, w) in [(15, 10), (5, 1), (28, 255), (4, 3)] {
            for hpc in [false, true] {
                for seq in [vec![0u8; 3_000], vec![4u8; 3_000], {
                    let mut s = vec![2u8; 1_500];
                    s.extend(std::iter::repeat_n(4u8, 700));
                    s.extend(model::random_seq(9, 1_500));
                    s
                }] {
                    assert_eq!(
                        sketch(&seq, k, w, hpc),
                        model::sketch(&seq, k, w, hpc),
                        "k {k} w {w} hpc {hpc}"
                    );
                }
            }
        }
    }
}
