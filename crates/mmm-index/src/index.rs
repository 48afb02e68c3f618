//! The minimizer index: hash table + packed reference sequences.

use mmm_chain::Anchor;
use mmm_seq::{PackedSeq, SeqRecord};

use crate::error::IndexError;
use crate::minimizer::{minimizers, minimizers_hpc, Minimizer};
use crate::postings::{PackedPostings, PostingCursor};
use crate::unpack;

/// Index construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct IdxOpts {
    /// k-mer size (`-k`; 19 for map-pb, 15 for map-ont).
    pub k: usize,
    /// Minimizer window (`-w`, 10).
    pub w: usize,
    /// Fraction of most-frequent minimizers to ignore during seeding
    /// (`-f`, 2e-4).
    pub occ_frac: f64,
    /// Homopolymer-compressed k-mers (`-H`; on for map-pb, matching
    /// PacBio CLR's indel-dominant errors).
    pub hpc: bool,
}

impl IdxOpts {
    /// minimap2's `map-pb` preset (`-H -k19`).
    pub const MAP_PB: IdxOpts = IdxOpts {
        k: 19,
        w: 10,
        occ_frac: 2e-4,
        hpc: true,
    };
    /// minimap2's `map-ont` preset (`-k15`).
    pub const MAP_ONT: IdxOpts = IdxOpts {
        k: 15,
        w: 10,
        occ_frac: 2e-4,
        hpc: false,
    };
}

impl Default for IdxOpts {
    fn default() -> Self {
        IdxOpts::MAP_ONT
    }
}

/// One indexed reference sequence.
#[derive(Clone, Debug)]
pub struct RefSeq {
    pub name: String,
    pub seq: PackedSeq,
}

/// Packed-hit bit budget: a hit is `rid << 40 | pos << 1 | strand`, so the
/// reference id gets the top 24 bits and the position the middle 39. At
/// most this many reference sequences fit in one index.
pub const MAX_REF_SEQS: usize = 1 << 24;
/// Packed-hit bit budget: longest addressable reference sequence (bases).
/// Positions are minimizer starts, so the last base must still pack.
pub const MAX_REF_LEN: usize = 1 << 39;

/// Packed reference hit: `rid << 40 | pos << 1 | strand`.
///
/// Out-of-budget inputs (`rid >= 2^24`, `pos >= 2^39`) would silently
/// corrupt the hit into another reference/strand; [`MinimizerIndex::build`]
/// rejects such reference sets up front, so this can only fire on an
/// internal invariant violation.
#[inline]
pub(crate) fn pack_hit(rid: u32, pos: u32, rev: bool) -> u64 {
    debug_assert!(
        (rid as usize) < MAX_REF_SEQS,
        "pack_hit: rid {rid} exceeds the 24-bit budget"
    );
    debug_assert!(
        (pos as usize) < MAX_REF_LEN,
        "pack_hit: pos {pos} exceeds the 39-bit budget"
    );
    ((rid as u64) << 40) | ((pos as u64) << 1) | rev as u64
}

#[inline]
pub(crate) fn unpack_hit(h: u64) -> (u32, u32, bool) {
    (
        (h >> 40) as u32,
        ((h >> 1) & 0x7F_FFFF_FFFF) as u32,
        h & 1 == 1,
    )
}

/// The minimizer hash index (minimap2's `mm_idx_t`).
#[derive(Debug)]
pub struct MinimizerIndex {
    pub k: usize,
    pub w: usize,
    /// Homopolymer-compressed sketching (queries must match).
    pub hpc: bool,
    pub seqs: Vec<RefSeq>,
    /// Posting lists: minimizer hash → packed reference hits, FOR/delta
    /// bit-packed per bucket.
    pub(crate) postings: PackedPostings,
    /// Seeding ignores minimizers with more occurrences than this.
    pub max_occ: u32,
}

impl MinimizerIndex {
    /// Build the index over a set of reference records.
    ///
    /// Fails with [`IndexError::HitBudget`] when the reference set exceeds
    /// the packed-hit representation ([`MAX_REF_SEQS`] sequences of up to
    /// [`MAX_REF_LEN`] bases): packing such hits would silently wrap them
    /// into the wrong reference or strand and mismap every read that seeds
    /// there, so over-budget inputs must fail loudly at build time.
    pub fn build(refs: &[SeqRecord], opts: &IdxOpts) -> Result<Self, IndexError> {
        check_hit_budget(refs.len(), refs.iter().map(|r| (r.name.as_str(), r.len())))?;
        // Collect (hash, packed hit) pairs across all references.
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        let mut seqs = Vec::with_capacity(refs.len());
        for (rid, r) in refs.iter().enumerate() {
            let nt4 = r.nt4();
            for m in sketch(&nt4, opts.k, opts.w, opts.hpc) {
                pairs.push((m.hash, pack_hit(rid as u32, m.pos, m.rev)));
            }
            seqs.push(RefSeq {
                name: r.name.clone(),
                seq: PackedSeq::from_nt4_lossy(&nt4),
            });
        }
        pairs.sort_unstable();

        let postings = PackedPostings::from_sorted_pairs(&pairs)?;
        let max_occ = occurrence_cutoff(
            postings.map.values().map(|r| r.count() as u32),
            opts.occ_frac,
        );
        Ok(MinimizerIndex {
            k: opts.k,
            w: opts.w,
            hpc: opts.hpc,
            seqs,
            postings,
            max_occ,
        })
    }

    /// Hits recorded for one minimizer hash (0 when absent) — one map
    /// probe, no decode.
    pub fn hit_count(&self, hash: u64) -> usize {
        self.postings.count(hash)
    }

    /// Decode the hits for one minimizer hash into `out` (cleared and
    /// refilled; empty when the hash is absent). Reusing `out` across
    /// calls makes bulk queries allocation-free.
    pub fn decode_hits_into(&self, hash: u64, out: &mut Vec<u64>) {
        self.postings.decode_into(hash, out);
    }

    /// Stream the hits for one minimizer hash without materializing them.
    pub fn hit_cursor(&self, hash: u64) -> PostingCursor<'_> {
        self.postings.cursor(hash)
    }

    /// All minimizer hashes in sorted order (allocates; serialization and
    /// cross-checking, not a mapping-path call).
    pub fn sorted_hashes(&self) -> Vec<u64> {
        self.postings.sorted_hashes()
    }

    /// Number of distinct minimizers.
    pub fn num_minimizers(&self) -> usize {
        self.postings.num_keys()
    }

    /// Total stored hits.
    pub fn num_positions(&self) -> usize {
        self.postings.num_hits() as usize
    }

    /// Bytes of the hit-carrying posting section — the quantity packing
    /// shrinks. A flat `u64`-per-hit array of the same index is
    /// `num_positions() * 8`.
    pub fn posting_bytes(&self) -> usize {
        self.postings.posting_bytes()
    }

    /// Collect chaining anchors for a query (nt4, forward strand).
    ///
    /// Seeds whose minimizer occurs more than `max_occ` times on the
    /// reference are skipped (the repeat filter, minimap2 `-f`).
    pub fn collect_anchors(&self, query: &[u8]) -> Vec<Anchor> {
        let qlen = query.len() as u32;
        let mut anchors = Vec::new();
        for m in sketch(query, self.k, self.w, self.hpc) {
            let n = self.postings.count(m.hash);
            if n == 0 || n as u32 > self.max_occ {
                continue;
            }
            for h in self.postings.cursor(m.hash) {
                anchors.push(anchor_from_hit(&m, h, qlen, self.k, self.hpc, 0));
            }
        }
        anchors
    }

    /// Approximate in-memory footprint in bytes (the paper's "Index Size"
    /// column of Table 5).
    pub fn heap_bytes(&self) -> usize {
        let seq_bytes: usize = self
            .seqs
            .iter()
            .map(|s| s.seq.heap_bytes() + s.name.capacity())
            .sum();
        seq_bytes + self.postings.heap_bytes()
    }

    /// Extract a forward-strand window `[start, end)` of reference `rid`
    /// into a fresh vector. Prefer [`MinimizerIndex::ref_window_into`] on
    /// hot paths.
    pub fn ref_window(&self, rid: u32, start: usize, end: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.ref_window_into(rid, start, end, &mut out);
        out
    }

    /// Extract a forward-strand window `[start, end)` of reference `rid`
    /// into `out` (cleared and refilled), decoding the 2-bit packed
    /// reference through the tiered SIMD unpack kernels. Bounds are
    /// clamped to the sequence length, matching
    /// [`MinimizerIndex::ref_window`].
    pub fn ref_window_into(&self, rid: u32, start: usize, end: usize, out: &mut Vec<u8>) {
        let s = &self.seqs[rid as usize].seq;
        let start = start.min(s.len());
        let end = end.min(s.len()).max(start);
        out.clear();
        out.resize(end - start, 0);
        unpack::unpack_nt4(s.words(), start, end, out);
    }

    /// Fetch one reference base (nt4), or `None` past the end — the
    /// single-base form of [`MinimizerIndex::ref_window_into`] with no
    /// buffer at all.
    #[inline]
    pub fn ref_base(&self, rid: u32, pos: usize) -> Option<u8> {
        let s = &self.seqs[rid as usize].seq;
        (pos < s.len()).then(|| s.get(pos))
    }
}

/// Turn one packed reference hit into a chaining anchor for query
/// minimizer `m`. `rid_offset` rebases a shard-local reference id into
/// global coordinates (0 for a flat index). This is the *only* place that
/// anchor geometry is computed, so the sharded and flat paths cannot drift.
#[inline]
pub(crate) fn anchor_from_hit(
    m: &Minimizer,
    h: u64,
    qlen: u32,
    k: usize,
    hpc: bool,
    rid_offset: u32,
) -> Anchor {
    let (rid, rpos, rrev) = unpack_hit(h);
    let span = if hpc { m.span.max(k as u8) } else { k as u8 };
    if rrev == m.rev {
        Anchor {
            rid: rid + rid_offset,
            rpos,
            qpos: m.pos,
            rev: false,
            span,
        }
    } else {
        // Match on the opposite strand: express the query position in
        // reverse-complement coordinates (the k-mer's original start
        // flips to its rc end).
        Anchor {
            rid: rid + rid_offset,
            rpos,
            qpos: qlen - 1 - (m.pos + 1 - span as u32),
            rev: true,
            span,
        }
    }
}

/// Validate a reference set against the packed-hit bit budget
/// (`rid << 40 | pos << 1 | strand`): at most [`MAX_REF_SEQS`] sequences,
/// each at most [`MAX_REF_LEN`] bases. `lens` yields `(name, len)` per
/// sequence; the count is checked first so an over-wide set fails before
/// any per-sequence work.
pub fn check_hit_budget<'a>(
    count: usize,
    lens: impl Iterator<Item = (&'a str, usize)>,
) -> Result<(), IndexError> {
    if count > MAX_REF_SEQS {
        return Err(IndexError::HitBudget {
            what: format!(
                "{count} reference sequences exceed the packed-hit rid budget \
                 of {MAX_REF_SEQS} (24 bits); split the reference set"
            ),
        });
    }
    for (rid, (name, len)) in lens.enumerate() {
        if len > MAX_REF_LEN {
            return Err(IndexError::HitBudget {
                what: format!(
                    "reference #{rid} ('{name}') is {len} bases, over the \
                     packed-hit position budget of {MAX_REF_LEN} (39 bits); \
                     split the sequence"
                ),
            });
        }
    }
    Ok(())
}

/// Sketch with or without homopolymer compression. Shared by the flat
/// index and the sharded reader ([`crate::ShardedIndex`]), which must
/// sketch queries with the exact same function to stay byte-identical.
#[inline]
pub(crate) fn sketch(seq: &[u8], k: usize, w: usize, hpc: bool) -> Vec<Minimizer> {
    if hpc {
        minimizers_hpc(seq, k, w)
    } else {
        minimizers(seq, k, w)
    }
}

/// Occurrence threshold: the `1 - frac` quantile of per-minimizer counts
/// (minimap2's `mm_idx_cal_max_occ`), at least 10.
pub(crate) fn occurrence_cutoff(counts: impl Iterator<Item = u32>, frac: f64) -> u32 {
    let mut v: Vec<u32> = counts.collect();
    if v.is_empty() || frac <= 0.0 {
        return u32::MAX;
    }
    if v.len() == 1 {
        return v[0].max(10);
    }
    v.sort_unstable();
    // Drop (at least) the top `frac` fraction of keys: the cutoff is the
    // largest kept count.
    let drop = ((frac * v.len() as f64).ceil() as usize).clamp(1, v.len() - 1);
    v[v.len() - 1 - drop].max(10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_seq::nt4_decode;

    fn random_genome(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) % 4) as u8
            })
            .collect()
    }

    fn build_one(genome: &[u8], opts: &IdxOpts) -> MinimizerIndex {
        let rec = SeqRecord::new("chr1", nt4_decode(genome));
        MinimizerIndex::build(&[rec], opts).unwrap()
    }

    #[test]
    fn build_and_lookup_round_trip() {
        let g = random_genome(20_000, 11);
        let idx = build_one(&g, &IdxOpts::MAP_ONT);
        assert!(idx.num_minimizers() > 1000);
        // Every stored minimizer must be findable.
        let ms = minimizers(&g, idx.k, idx.w);
        let mut hits = Vec::new();
        for m in ms.iter().take(50) {
            assert!(idx.hit_count(m.hash) > 0);
            idx.decode_hits_into(m.hash, &mut hits);
            assert!(!hits.is_empty());
        }
    }

    #[test]
    fn packed_posting_section_shrinks_at_least_2x() {
        // The acceptance scenario: a synthetic multi-chromosome reference.
        // Flat postings pay 8 bytes per hit; delta widths on a random
        // multi-megabase-scale genome stay well under 32 bits.
        let recs: Vec<SeqRecord> = (0..4)
            .map(|i| {
                SeqRecord::new(
                    format!("chr{i}"),
                    nt4_decode(&random_genome(60_000, 100 + i)),
                )
            })
            .collect();
        let packed = MinimizerIndex::build(&recs, &IdxOpts::MAP_ONT).unwrap();
        let flat_bytes = packed.num_positions() * 8;
        assert!(
            packed.posting_bytes() * 2 <= flat_bytes,
            "packed {} vs flat {flat_bytes}: shrink below 2x",
            packed.posting_bytes()
        );
    }

    #[test]
    fn exact_substring_produces_diagonal_anchors() {
        let g = random_genome(50_000, 5);
        let idx = build_one(&g, &IdxOpts::MAP_ONT);
        let query = g[10_000..12_000].to_vec();
        let anchors = idx.collect_anchors(&query);
        assert!(!anchors.is_empty());
        // Most anchors must be forward and lie on the diagonal
        // rpos - qpos = 10_000.
        let on_diag = anchors
            .iter()
            .filter(|a| !a.rev && a.rpos - a.qpos == 10_000)
            .count();
        assert!(
            on_diag as f64 > 0.9 * anchors.len() as f64,
            "{on_diag}/{}",
            anchors.len()
        );
    }

    #[test]
    fn reverse_complement_query_produces_rev_anchors() {
        let g = random_genome(50_000, 6);
        let idx = build_one(&g, &IdxOpts::MAP_ONT);
        let query = mmm_seq::revcomp4(&g[10_000..12_000]);
        let anchors = idx.collect_anchors(&query);
        assert!(!anchors.is_empty());
        let rev = anchors.iter().filter(|a| a.rev).count();
        assert!(rev as f64 > 0.9 * anchors.len() as f64);
    }

    #[test]
    fn rev_anchor_coordinates_are_consistent() {
        // For a reverse match, aligning revcomp(query) against the
        // reference must make (rpos - qpos) constant along the chain.
        let g = random_genome(30_000, 7);
        let idx = build_one(&g, &IdxOpts::MAP_ONT);
        let query = mmm_seq::revcomp4(&g[5_000..7_000]);
        let mut diag: Vec<i64> = idx
            .collect_anchors(&query)
            .iter()
            .filter(|a| a.rev)
            .map(|a| a.rpos as i64 - a.qpos as i64)
            .collect();
        diag.sort_unstable();
        let mid = diag[diag.len() / 2];
        let near = diag.iter().filter(|&&d| (d - mid).abs() < 10).count();
        assert!(near as f64 > 0.9 * diag.len() as f64);
    }

    #[test]
    fn pack_unpack_round_trip() {
        for (rid, pos, rev) in [
            (0u32, 0u32, false),
            (3, 123_456, true),
            (1000, 1 << 30, false),
            // The exact corners of the bit budget must survive.
            ((MAX_REF_SEQS - 1) as u32, u32::MAX, true),
            ((MAX_REF_SEQS - 1) as u32, 0, false),
        ] {
            assert_eq!(unpack_hit(pack_hit(rid, pos, rev)), (rid, pos, rev));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "24-bit budget")]
    fn pack_hit_asserts_rid_budget() {
        pack_hit(MAX_REF_SEQS as u32, 0, false);
    }

    #[test]
    fn hit_budget_check_rejects_over_wide_and_over_long_sets() {
        assert!(check_hit_budget(2, [("a", 100), ("b", 100)].into_iter()).is_ok());
        let e =
            check_hit_budget(MAX_REF_SEQS + 1, std::iter::empty::<(&str, usize)>()).unwrap_err();
        assert!(matches!(e, IndexError::HitBudget { .. }));
        assert!(e.to_string().contains("rid budget"), "{e}");
        let e =
            check_hit_budget(2, [("a", 100), ("chrBig", MAX_REF_LEN + 1)].into_iter()).unwrap_err();
        let s = e.to_string();
        assert!(s.contains("chrBig") && s.contains("position budget"), "{s}");
    }

    #[test]
    fn occurrence_cutoff_quantile() {
        // 999 singletons and one 1000-count repeat: cutoff at f=1e-3 keeps
        // the quantile below the repeat.
        let counts = std::iter::repeat_n(1u32, 999).chain(std::iter::once(1000));
        let cut = occurrence_cutoff(counts, 1e-3);
        assert!(cut < 1000);
        assert!(cut >= 10);
    }

    #[test]
    fn repeat_filter_drops_high_occurrence_seeds() {
        // Genome = 60 copies of the same 500 bp unit: every minimizer is
        // highly repetitive, so with a tiny cutoff no anchors survive.
        let unit = random_genome(500, 8);
        let mut g = Vec::new();
        for _ in 0..60 {
            g.extend_from_slice(&unit);
        }
        let mut idx = build_one(&g, &IdxOpts::MAP_ONT);
        idx.max_occ = 10;
        let anchors = idx.collect_anchors(&unit);
        assert!(anchors.is_empty());
    }

    #[test]
    fn ref_window_matches_source() {
        let g = random_genome(1000, 9);
        let idx = build_one(&g, &IdxOpts::MAP_ONT);
        assert_eq!(idx.ref_window(0, 100, 150), g[100..150].to_vec());
        // Clamped at the end.
        assert_eq!(idx.ref_window(0, 990, 2000), g[990..].to_vec());
        // The buffered form agrees and reuses its buffer.
        let mut buf = Vec::new();
        idx.ref_window_into(0, 0, 1000, &mut buf);
        assert_eq!(buf, g);
        let cap = buf.capacity();
        idx.ref_window_into(0, 3, 997, &mut buf);
        assert_eq!(buf, g[3..997].to_vec());
        assert_eq!(buf.capacity(), cap);
        // Single-base fetch.
        assert_eq!(idx.ref_base(0, 42), Some(g[42]));
        assert_eq!(idx.ref_base(0, 1000), None);
    }
}
