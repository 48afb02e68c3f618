//! Posting-list storage: bit-packed FOR/delta buckets (the v2 image).
//!
//! A flat layout would store every hit as a full `u64` in one array with
//! `(offset, count)` map values. The packed layout (DESIGN.md §14) keeps
//! that one-map-probe access pattern but stores each bucket as **base +
//! bit-packed deltas**: hits within a bucket are strictly increasing, so
//! the bucket is encoded as its first hit (FOR base) followed by
//! `count − 1` successive differences packed at the bucket's minimum
//! sufficient bit width. Map values are [`BucketRef`] — the same 16 bytes
//! a `(u64, u32)` value pads to, so the map costs nothing extra and the
//! whole saving lands in the hit array. Singleton buckets (the common case
//! under minimizer sketching) need zero block words: their one hit *is*
//! the base.
//!
//! Decoding goes through [`unpack`]'s tiered kernels
//! (scalar / AVX2 / AVX-512 VBMI) into caller-reused buffers, or
//! streaming through a [`PostingCursor`] without materializing anything.

use std::collections::HashMap;

use crate::error::IndexError;
use crate::unpack;

/// Block-word offsets carry 37 bits: a packed index may hold up to 2^37
/// words (1 TiB) of delta blocks.
pub const MAX_BLOCK_WORDS: u64 = 1 << 37;

/// A single bucket may hold up to 2^20 − 1 hits. The occurrence cutoff
/// drops buckets this repetitive during mapping anyway; the builder
/// refuses (typed [`IndexError::PostingBudget`]) rather than truncate.
pub const MAX_BUCKET_HITS: u64 = (1 << 20) - 1;

/// Packed map value: the bucket's FOR base (its first hit) plus a bit
/// field `ocw` packing the block-word offset (37 bits, `[63:27]`), hit
/// count (20 bits, `[26:7]`), and delta bit width (7 bits, `[6:0]`).
/// 16 bytes total — what a flat `(u64, u32)` map value would pad to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketRef {
    /// First (smallest) hit of the bucket.
    pub base: u64,
    /// `off << 27 | count << 7 | width`.
    pub ocw: u64,
}

impl BucketRef {
    /// Assemble from parts; callers must respect the field budgets.
    #[inline]
    pub fn new(off: u64, count: u64, width: u32) -> Self {
        debug_assert!(off < MAX_BLOCK_WORDS);
        debug_assert!((1..=MAX_BUCKET_HITS).contains(&count));
        debug_assert!(width <= 64);
        BucketRef {
            base: 0,
            ocw: (off << 27) | (count << 7) | width as u64,
        }
    }

    /// Block-word offset of the bucket's delta block.
    #[inline(always)]
    pub fn off(self) -> u64 {
        self.ocw >> 27
    }

    /// Number of hits in the bucket (≥ 1).
    #[inline(always)]
    pub fn count(self) -> u64 {
        (self.ocw >> 7) & MAX_BUCKET_HITS
    }

    /// Delta bit width (0 for singleton buckets, which own no block words).
    #[inline(always)]
    pub fn width(self) -> u32 {
        (self.ocw & 0x7f) as u32
    }

    /// Block words the bucket's deltas occupy.
    #[inline]
    pub fn block_words(self) -> u64 {
        unpack::words_for(self.count() - 1, self.width().max(1)) * u64::from(self.width() > 0)
    }
}

/// The packed posting store: one [`BucketRef`] per distinct minimizer
/// hash plus a shared pool of bit-packed delta blocks.
#[derive(Debug, Default)]
pub struct PackedPostings {
    pub(crate) map: HashMap<u64, BucketRef>,
    pub(crate) blocks: Vec<u64>,
    pub(crate) n_hits: u64,
}

/// Minimum bits that represent `v` (0 → 1: widths are 1..=64 so packed
/// fields always advance).
#[inline]
fn bits_for(v: u64) -> u32 {
    (64 - v.leading_zeros()).max(1)
}

impl PackedPostings {
    /// Build from `(hash, hit)` pairs sorted by hash then hit — exactly
    /// the builder's post-sort stream. Hits within a bucket must be
    /// non-decreasing (strictly increasing in practice).
    pub fn from_sorted_pairs(pairs: &[(u64, u64)]) -> Result<Self, IndexError> {
        let mut map = HashMap::new();
        let mut blocks: Vec<u64> = Vec::new();
        let mut start = 0usize;
        while start < pairs.len() {
            let hash = pairs[start].0;
            let mut end = start + 1;
            while end < pairs.len() && pairs[end].0 == hash {
                end += 1;
            }
            let bucket = &pairs[start..end];
            let count = bucket.len() as u64;
            if count > MAX_BUCKET_HITS {
                return Err(IndexError::PostingBudget {
                    what: format!(
                        "minimizer bucket holds {count} hits, budget is {MAX_BUCKET_HITS}"
                    ),
                });
            }
            let base = bucket[0].1;
            let mut r = if count == 1 {
                BucketRef::new(0, 1, 0)
            } else {
                let mut width = 1u32;
                let mut prev = base;
                for &(_, hit) in &bucket[1..] {
                    debug_assert!(hit >= prev, "bucket hits must be sorted");
                    width = width.max(bits_for(hit - prev));
                    prev = hit;
                }
                let off = blocks.len() as u64;
                let words = unpack::words_for(count - 1, width);
                if off + words > MAX_BLOCK_WORDS {
                    return Err(IndexError::PostingBudget {
                        what: format!(
                            "delta blocks need {} words, budget is {MAX_BLOCK_WORDS}",
                            off + words
                        ),
                    });
                }
                blocks.resize(blocks.len() + words as usize, 0);
                let block = &mut blocks[off as usize..];
                let mut bit = 0usize;
                let mut prev = base;
                for &(_, hit) in &bucket[1..] {
                    unpack::write_fields(block, bit, width, &[hit - prev]);
                    bit += width as usize;
                    prev = hit;
                }
                BucketRef::new(off, count, width)
            };
            r.base = base;
            map.insert(hash, r);
            start = end;
        }
        Ok(PackedPostings {
            map,
            blocks,
            n_hits: pairs.len() as u64,
        })
    }

    /// Decode one bucket into `out` (cleared and refilled). Infallible on
    /// refs produced by this store — load-time validation has already
    /// walked every bucket.
    pub fn decode_ref_into(&self, r: BucketRef, out: &mut Vec<u64>) {
        let count = r.count() as usize;
        out.clear();
        out.resize(count, 0);
        out[0] = r.base;
        if count > 1 {
            let block = &self.blocks[r.off() as usize..];
            unpack::unpack_fields(block, r.width(), &mut out[1..]);
            for i in 1..count {
                out[i] = out[i - 1].wrapping_add(out[i]);
            }
        }
    }

    /// Walk one bucket with checked arithmetic, feeding each decoded hit
    /// to `visit`. Used by load-time validation, where a hostile file
    /// could otherwise wrap deltas past `u64::MAX`.
    pub fn walk_checked(
        &self,
        r: BucketRef,
        mut visit: impl FnMut(u64) -> Result<(), String>,
    ) -> Result<(), String> {
        visit(r.base)?;
        if r.count() > 1 {
            let block = self
                .blocks
                .get(r.off() as usize..)
                .ok_or("bucket offset past delta blocks")?;
            let mut prev = r.base;
            let mut bit = 0usize;
            for _ in 1..r.count() {
                let d = unpack::read_field(block, bit, r.width());
                bit += r.width() as usize;
                prev = prev.checked_add(d).ok_or("delta sum overflows u64")?;
                visit(prev)?;
            }
        }
        Ok(())
    }

    /// Number of distinct minimizer hashes.
    pub fn num_keys(&self) -> usize {
        self.map.len()
    }

    /// Total number of stored hits.
    pub fn num_hits(&self) -> u64 {
        self.n_hits
    }

    /// Hits recorded for `hash` (0 when absent) — one map probe, no decode.
    pub fn count(&self, hash: u64) -> usize {
        self.map.get(&hash).map_or(0, |r| r.count() as usize)
    }

    /// Decode the bucket for `hash` into `out` (cleared and refilled;
    /// empty when the hash is absent). With a reused `out` this is the
    /// allocation-free bulk query path.
    pub fn decode_into(&self, hash: u64, out: &mut Vec<u64>) {
        match self.map.get(&hash) {
            Some(&r) => self.decode_ref_into(r, out),
            None => out.clear(),
        }
    }

    /// Stream the bucket for `hash` without materializing it.
    pub fn cursor(&self, hash: u64) -> PostingCursor<'_> {
        // An absent hash reads as a zero-hit bucket: `next` ends on
        // `remaining` before it touches `blocks`.
        let r = self.map.get(&hash).copied();
        let r = r.unwrap_or(BucketRef { base: 0, ocw: 0 });
        PostingCursor {
            blocks: &self.blocks[r.off() as usize..],
            width: r.width(),
            bit: 0,
            prev: r.base,
            remaining: r.count(),
            first: true,
        }
    }

    /// All minimizer hashes in sorted order (allocates; test/serialize
    /// convenience, not a hot path).
    pub fn sorted_hashes(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Bytes of the hit-carrying section (map excluded): the delta block
    /// pool. A flat `u64`-per-hit array of the same hits is `n_hits * 8`.
    pub fn posting_bytes(&self) -> usize {
        self.blocks.len() * 8
    }

    /// Resident heap bytes (map + delta blocks).
    pub fn heap_bytes(&self) -> usize {
        self.map.len() * 24 + self.blocks.len() * 8
    }
}

/// Streaming decoder over one posting bucket, yielding packed hits in
/// increasing order: a bit cursor into the bucket's delta block and the
/// running prefix sum — no buffer, no allocation.
pub struct PostingCursor<'a> {
    blocks: &'a [u64],
    width: u32,
    bit: usize,
    prev: u64,
    remaining: u64,
    first: bool,
}

impl Iterator for PostingCursor<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.first {
            self.first = false;
            return Some(self.prev);
        }
        let d = unpack::read_field(self.blocks, self.bit, self.width);
        self.bit += self.width as usize;
        self.prev = self.prev.wrapping_add(d);
        Some(self.prev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for PostingCursor<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference is the input itself: `pairs` grouped by hash is what
    /// every query of the packed store must give back.
    fn assert_equivalent(pairs: &[(u64, u64)]) {
        let packed = PackedPostings::from_sorted_pairs(pairs).unwrap();
        let mut want: Vec<(u64, Vec<u64>)> = Vec::new();
        for &(hash, hit) in pairs {
            match want.last_mut() {
                Some((h, hits)) if *h == hash => hits.push(hit),
                _ => want.push((hash, vec![hit])),
            }
        }
        assert_eq!(packed.num_keys(), want.len());
        assert_eq!(packed.num_hits(), pairs.len() as u64);
        let hashes: Vec<u64> = want.iter().map(|&(h, _)| h).collect();
        assert_eq!(packed.sorted_hashes(), hashes);
        let mut b = Vec::new();
        for (h, hits) in &want {
            assert_eq!(packed.count(*h), hits.len(), "count for {h}");
            packed.decode_into(*h, &mut b);
            assert_eq!(&b, hits, "decode for {h}");
            let via_cursor: Vec<u64> = packed.cursor(*h).collect();
            assert_eq!(&via_cursor, hits, "cursor for {h}");
            assert_eq!(packed.cursor(*h).len(), hits.len());
        }
        // An absent hash is an empty bucket on every query.
        let absent = 0xDEAD_BEEF_0BAD_F00Du64;
        assert_eq!(packed.count(absent), 0);
        packed.decode_into(absent, &mut b);
        assert!(b.is_empty());
        assert_eq!(packed.cursor(absent).count(), 0);
    }

    #[test]
    fn empty_store() {
        let p = PackedPostings::from_sorted_pairs(&[]).unwrap();
        assert_eq!(p.num_keys(), 0);
        assert_eq!(p.num_hits(), 0);
        assert_eq!(p.posting_bytes(), 0);
        assert_equivalent(&[]);
    }

    #[test]
    fn singleton_buckets_use_no_block_words() {
        let pairs = [(1u64, 100u64), (2, 7), (9, u64::MAX)];
        let packed = PackedPostings::from_sorted_pairs(&pairs).unwrap();
        assert_eq!(packed.blocks.len(), 0);
        assert_eq!(packed.posting_bytes(), 0);
        assert_equivalent(&pairs);
    }

    #[test]
    fn mixed_buckets_round_trip() {
        let pairs = [
            (5u64, 10u64),
            (5, 11),
            (5, 139),
            (5, 1 << 39),
            (8, 42),
            (13, 0),
            (13, u64::MAX), // 64-bit delta in one bucket
        ];
        assert_equivalent(&pairs);
    }

    #[test]
    fn adversarial_widths_round_trip() {
        // Deltas forced to exactly 1, 7, 8, and 39 significant bits, plus
        // empty-adjacent and singleton buckets (satellite requirement).
        for width in [1u32, 7, 8, 39] {
            let delta = if width == 1 { 1 } else { 1u64 << (width - 1) };
            let mut pairs = Vec::new();
            let mut hit = 3u64;
            for _ in 0..123 {
                pairs.push((77u64, hit));
                hit += delta;
            }
            pairs.push((78, 5)); // trailing singleton
            let packed = PackedPostings::from_sorted_pairs(&pairs).unwrap();
            let r = packed.map[&77];
            assert_eq!(r.width(), width, "width {width}");
            assert_equivalent(&pairs);
        }
    }

    #[test]
    fn bucket_ref_field_round_trip() {
        let r = BucketRef::new(MAX_BLOCK_WORDS - 1, MAX_BUCKET_HITS, 64);
        assert_eq!(r.off(), MAX_BLOCK_WORDS - 1);
        assert_eq!(r.count(), MAX_BUCKET_HITS);
        assert_eq!(r.width(), 64);
        let s = BucketRef::new(0, 1, 0);
        assert_eq!(s.block_words(), 0);
        assert_eq!(std::mem::size_of::<BucketRef>(), 16);
    }

    #[test]
    fn posting_bytes_shrink_on_clustered_hits() {
        // Clustered hits (small deltas) — the realistic minimizer case —
        // must shrink well below the flat 8-bytes-per-hit floor.
        let mut pairs = Vec::new();
        for h in 0..64u64 {
            for i in 0..32u64 {
                pairs.push((h, (h << 20) + i * 97));
            }
        }
        let packed = PackedPostings::from_sorted_pairs(&pairs).unwrap();
        let flat_bytes = pairs.len() * 8;
        assert!(
            packed.posting_bytes() * 2 <= flat_bytes,
            "packed {} vs flat {flat_bytes}",
            packed.posting_bytes()
        );
        assert_equivalent(&pairs);
    }

    #[test]
    fn oversized_bucket_is_refused() {
        let pairs: Vec<(u64, u64)> = (0..=MAX_BUCKET_HITS).map(|i| (1u64, i * 2)).collect();
        let err = PackedPostings::from_sorted_pairs(&pairs).unwrap_err();
        assert!(matches!(err, IndexError::PostingBudget { .. }), "{err}");
        assert!(err.to_string().contains("packed-block budget"), "{err}");
    }

    #[test]
    fn walk_checked_matches_decode() {
        let pairs = [(3u64, 9u64), (3, 9 + 300), (3, 9 + 300 + 5)];
        let packed = PackedPostings::from_sorted_pairs(&pairs).unwrap();
        let r = packed.map[&3];
        let mut walked = Vec::new();
        packed
            .walk_checked(r, |h| {
                walked.push(h);
                Ok(())
            })
            .unwrap();
        let mut decoded = Vec::new();
        packed.decode_ref_into(r, &mut decoded);
        assert_eq!(walked, decoded);
    }

    #[test]
    fn walk_checked_catches_overflow() {
        // Hand-forge a bucket whose delta wraps past u64::MAX.
        let mut blocks = vec![0u64; 1];
        unpack::write_fields(&mut blocks, 0, 64, &[u64::MAX]);
        let p = PackedPostings {
            map: HashMap::new(),
            blocks,
            n_hits: 2,
        };
        let mut r = BucketRef::new(0, 2, 64);
        r.base = 5;
        assert!(p
            .walk_checked(r, |_| Ok(()))
            .unwrap_err()
            .contains("overflow"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_sorted_pairs_round_trip(
            hashes in proptest::collection::vec(0u64..16, 0..400),
            hits in proptest::collection::vec(0u64..1_000_000_000_000, 0..400)
        ) {
            let n = hashes.len().min(hits.len());
            let mut pairs: Vec<(u64, u64)> = hashes[..n]
                .iter()
                .zip(&hits[..n])
                .map(|(&h, &p)| (h, p))
                .collect();
            pairs.sort_unstable();
            assert_equivalent(&pairs);
        }
    }
}
