//! The minimizer table of a v2 image, written once and queried where it
//! lies (DESIGN.md §14).
//!
//! The table is three arrays: the distinct minimizer hashes in ascending
//! order, one [`BucketRef`] per hash, and a pool of bit-packed delta
//! blocks. A bucket is stored as **base + bit-packed deltas**: its hits are
//! strictly increasing, so it is its first hit (FOR base, in the
//! `BucketRef`) followed by `count − 1` successive differences packed at
//! the bucket's minimum sufficient bit width. Singleton buckets (the common
//! case under minimizer sketching) need zero pool words: their one hit *is*
//! the base.
//!
//! `PackedPostings::emit` writes those arrays straight from the builder's
//! sorted `(hash, hit)` pairs; `PackedPostings::open` validates them in a
//! built buffer or a mapped file and keeps only their offsets plus a small
//! radix directory; a lookup is a directory read and a short binary search
//! of the key array. Keys and bucket refs sit at whatever offset the
//! variable-length sequence names left them and are read as little-endian
//! bytes; the pool is padded to 8-byte alignment and is read as `u64` words
//! in place, streaming through a [`PostingCursor`] without materializing
//! anything.

use std::io;

use mmm_io::mmap::as_words;
use mmm_io::SliceSource;

use crate::error::IndexError;
use crate::index::unpack_hit;
use crate::serialize::{corrupt, le_u64};
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

/// Minimum bits that represent `v` (0 → 1: widths are 1..=64 so packed
/// fields always advance).
#[inline]
fn bits_for(v: u64) -> u32 {
    (64 - v.leading_zeros()).max(1)
}

/// Bits of a hash (counted from the widest key's top bit) that index the
/// radix directory of an index over `total_len` reference bases: one slot
/// per 32 bases, rounded up to a power of two, between 2^10 and 2^24 slots.
/// Sized from the reference — a `(w, k)` sketch keeps about `2 / (w + 1)`
/// minimizers per base, so a slot holds a handful of keys whatever the
/// genome's size — and not from the key count: opening allocates `len / 8`
/// bytes (1 MiB for 8 Mbp) however dense the sketch is.
fn radix_bits(total_len: u64) -> u32 {
    (total_len / 32)
        .next_power_of_two()
        .trailing_zeros()
        .clamp(10, 24)
}
/// Probes a lookup spends stepping key by key from its interpolated guess
/// before it falls back to bisection.
const NEAR: u32 = 8;

/// Where the minimizer table lies inside a v2 image — byte offsets, never
/// copies — plus the one structure built at open: the radix directory over
/// the sorted key array. Every query takes the image bytes the offsets
/// were validated against ([`PackedPostings::open`]).
#[derive(Debug)]
pub(crate) struct PackedPostings {
    /// Offset of the sorted key array; the `(base, ocw)` array follows it.
    keys: usize,
    n_keys: usize,
    /// Offset of the first block-pool word (8-byte aligned).
    pool: usize,
    pool_words: usize,
    n_hits: u64,
    /// `hash >> shift` is a key's directory slot.
    shift: u32,
    /// `dir[s]..dir[s + 1]` are the indices of the keys in slot `s`.
    dir: Vec<u32>,
}

impl PackedPostings {
    /// Append the minimizer table of `runs` — `(hash, hit)` pairs sorted by
    /// hash then hit, cut into runs that no hash straddles (the builder's
    /// sorted buckets, in order) — to the image under construction in `out`
    /// (which starts at image offset 0): key count, sorted keys, `(base,
    /// ocw)` per key, then hit count, zero pad to an 8-byte image offset,
    /// and the block pool behind its word count. Returns the offset where
    /// the pool section (the hit count) starts.
    pub(crate) fn emit<R: AsRef<[(u64, u64)]>>(
        runs: &[R],
        out: &mut Vec<u8>,
    ) -> Result<usize, IndexError> {
        let buckets = || {
            runs.iter()
                .flat_map(|run| run.as_ref().chunk_by(|a, b| a.0 == b.0))
        };
        let n_keys = buckets().count();
        let n_hits: usize = runs.iter().map(|run| run.as_ref().len()).sum();
        out.extend_from_slice(&(n_keys as u64).to_le_bytes());
        let keys = out.len();
        let refs = keys + 8 * n_keys;
        out.resize(refs + 16 * n_keys, 0);
        let mut blocks: Vec<u64> = Vec::new();
        for (i, bucket) in buckets().enumerate() {
            let count = bucket.len() as u64;
            if count > MAX_BUCKET_HITS {
                return Err(IndexError::PostingBudget {
                    what: format!(
                        "minimizer bucket holds {count} hits, budget is {MAX_BUCKET_HITS}"
                    ),
                });
            }
            let base = bucket[0].1;
            let r = if count == 1 {
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
            out[keys + 8 * i..][..8].copy_from_slice(&bucket[0].0.to_le_bytes());
            out[refs + 16 * i..][..8].copy_from_slice(&base.to_le_bytes());
            out[refs + 16 * i + 8..][..8].copy_from_slice(&r.ocw.to_le_bytes());
        }
        let map_end = out.len();
        out.extend_from_slice(&(n_hits as u64).to_le_bytes());
        // Zero-pad so the block pool (after its 8-byte length prefix) starts
        // 8-byte aligned in the image: its words are then read in place.
        let pad = (8 - out.len() % 8) % 8;
        out.extend_from_slice(&[0u8; 7][..pad]);
        out.extend_from_slice(&(blocks.len() as u64).to_le_bytes());
        for b in blocks {
            out.extend_from_slice(&b.to_le_bytes());
        }
        Ok(map_end)
    }

    /// Locate and validate the minimizer table `src` stands at, which must
    /// run to the end of the image, over an index of `n_seqs` sequences of
    /// `total_len` bases in all. A checksum only says the bytes are the
    /// ones that were written, so everything a query later relies on is
    /// checked here, in order: counts bounded by the bytes left; keys
    /// strictly increasing (what the search assumes, checked in the walk
    /// that builds the directory); zero pad; the pool 8-byte aligned where
    /// it lies; no trailing bytes; then every bucket — shape and field
    /// budgets (a singleton has width 0, a larger bucket a nonzero one),
    /// pool bounds, overflow-free delta sums, every hit's rid below
    /// `n_seqs` — and bucket counts summing to the stored hit count. A
    /// singleton's one hit is its base, so its rid is checked there and no
    /// cursor walks it. After this the queries below cannot go out of
    /// bounds.
    pub(crate) fn open(
        src: &mut SliceSource<'_>,
        n_seqs: usize,
        total_len: u64,
    ) -> io::Result<Self> {
        // Each key contributes 8 bytes to the key array and 16 to (base, ocw).
        let n_keys = src.take_len_prefix(24)?;
        if u32::try_from(n_keys).is_err() {
            return Err(corrupt(format!(
                "{n_keys} minimizer keys exceed the 2^32 the lookup directory addresses"
            )));
        }
        let keys = src.position();
        let key_bytes = src.take_slice(8 * n_keys)?;
        let key = |i: usize| le_u64(key_bytes, 8 * i);
        let bits = radix_bits(total_len);
        let shift =
            (64 - n_keys.checked_sub(1).map_or(0, key).leading_zeros()).saturating_sub(bits);
        // One walk over the keys checks their order and counts the keys of
        // each directory slot into the entry after it; a prefix sum then
        // makes `dir[s]` the number of keys in the slots before `s`, the
        // index of slot `s`'s first key. A key wider than the last breaks
        // the order further on, where the walk refuses it; until then its
        // slot is clamped to the directory.
        let top = 1usize << bits;
        let mut dir = vec![0u32; top + 1];
        let mut prev = 0u64;
        for (i, k) in key_bytes.chunks_exact(8).map(|c| le_u64(c, 0)).enumerate() {
            if i > 0 && prev >= k {
                return Err(corrupt(format!(
                    "minimizer keys are not strictly increasing (key {i}, {k:#x}, follows {prev:#x})"
                )));
            }
            prev = k;
            dir[((k >> shift) as usize).min(top - 1) + 1] += 1;
        }
        for s in 1..=top {
            dir[s] += dir[s - 1];
        }

        let ref_bytes = src.take_slice(16 * n_keys)?;
        let n_hits = src.take_u64()?;
        // The writer zero-fills to the next 8-byte image offset; anything
        // else there means the image was not produced by this writer.
        let pad = src.take_slice((8 - src.position() % 8) % 8)?;
        if pad.iter().any(|&b| b != 0) {
            return Err(corrupt("nonzero block-pool alignment padding".into()));
        }
        let pool_words = src.take_len_prefix(8)?;
        let pool = src.position();
        let Some(blocks) = as_words(src.take_slice(8 * pool_words)?) else {
            return Err(corrupt(
                "the block pool is not 8-byte aligned in memory".into(),
            ));
        };
        // Bytes past the pool mean the image was torn, zero-padded by an
        // interrupted write, or truncated from a larger index whose early
        // length prefixes still happened to fit.
        if src.remaining() > 0 {
            return Err(corrupt(format!(
                "index sections end {} byte(s) before the end of the file; \
                 the image is torn or was truncated from a larger index",
                src.remaining()
            )));
        }

        let mut total: u64 = 0;
        for (i, c) in ref_bytes.chunks_exact(16).enumerate() {
            let r = BucketRef {
                base: le_u64(c, 0),
                ocw: le_u64(c, 8),
            };
            // Under 2^20 hits in each of under 2^32 buckets: no overflow.
            total += r.count();
            // A sound singleton — count 1, width 0, its (empty) block inside
            // the pool, its one hit the base — passes on one test; anything
            // else gets the full check, which names what is wrong.
            let (rid, _, _) = unpack_hit(r.base);
            if r.count() == 1
                && r.width() == 0
                && r.off() <= pool_words as u64
                && (rid as usize) < n_seqs
            {
                continue;
            }
            check_bucket(r, blocks, n_seqs)
                .map_err(|what| corrupt(format!("minimizer {:#x}: {what}", key(i))))?;
        }
        if total != n_hits {
            return Err(corrupt(format!(
                "bucket counts sum to {total}, header claims {n_hits} hits"
            )));
        }
        Ok(PackedPostings {
            keys,
            n_keys,
            pool,
            pool_words,
            n_hits,
            shift,
            dir,
        })
    }

    /// Offset of the key-count field: where the `seqs` section ends and
    /// the `map` section starts.
    pub(crate) fn map_start(&self) -> usize {
        self.keys - 8
    }

    /// Offset of the hit-count field: where the `pool` section starts.
    pub(crate) fn pool_start(&self) -> usize {
        self.keys + 24 * self.n_keys
    }

    /// Number of distinct minimizer hashes.
    pub(crate) fn num_keys(&self) -> usize {
        self.n_keys
    }

    /// Total number of stored hits.
    pub(crate) fn num_hits(&self) -> u64 {
        self.n_hits
    }

    /// Bytes of the hit-carrying section (keys and bucket refs excluded):
    /// the delta block pool. A flat `u64`-per-hit array of the same hits
    /// is `n_hits * 8`.
    pub(crate) fn posting_bytes(&self) -> usize {
        self.pool_words * 8
    }

    /// Heap bytes this view owns: the radix directory.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.dir.len() * 4
    }

    /// All minimizer hashes, ascending, read from the image's key array.
    pub(crate) fn hashes<'a>(&self, image: &'a [u8]) -> impl ExactSizeIterator<Item = u64> + 'a {
        image[self.keys..self.keys + 8 * self.n_keys]
            .chunks_exact(8)
            .map(|c| le_u64(c, 0))
    }

    /// The key array and the bucket refs where they lie, read by index.
    pub(crate) fn key_table<'a>(&self, image: &'a [u8]) -> KeyTable<'a> {
        let keys = &image[self.keys..self.keys + 8 * self.n_keys];
        let refs = &image[self.keys + 8 * self.n_keys..self.keys + 24 * self.n_keys];
        KeyTable {
            keys: keys.as_chunks().0,
            refs: refs.as_chunks().0,
        }
    }

    /// The bucket of `hash`, or `None` when the index does not hold it: one
    /// directory read, then a search of that slot's run of the sorted key
    /// array that starts where interpolation says the key should be. The
    /// keys of one slot are close to evenly spread, so the guess is within
    /// a few keys of the answer and the first [`NEAR`] probes step to the
    /// adjacent key — one cache line, where bisecting a crowded slot (the
    /// low ones: minimizers are window *minima*) touches three. A slot
    /// whose keys clump falls back to bisection, so the bound stays
    /// logarithmic whatever the image holds.
    #[inline]
    pub(crate) fn lookup(&self, image: &[u8], hash: u64) -> Option<BucketRef> {
        let slot = usize::try_from(hash >> self.shift).ok()?;
        let (mut lo, mut hi) = (
            *self.dir.get(slot)? as usize,
            *self.dir.get(slot + 1)? as usize,
        );
        if lo == hi {
            return None;
        }
        let keys = &image[self.keys..self.keys + 24 * self.n_keys];
        // How far into the slot's value range `hash` lies, scaled to its
        // key count: in `lo..hi` because the fraction is below 1.
        let into = (hash - ((slot as u64) << self.shift)) as u128;
        let mut i = lo + ((into * (hi - lo) as u128) >> self.shift) as usize;
        let mut near = NEAR;
        loop {
            let above = match le_u64(keys, 8 * i).cmp(&hash) {
                std::cmp::Ordering::Equal => {
                    let at = 8 * self.n_keys + 16 * i;
                    return Some(BucketRef {
                        base: le_u64(keys, at),
                        ocw: le_u64(keys, at + 8),
                    });
                }
                std::cmp::Ordering::Less => {
                    lo = i + 1;
                    true
                }
                std::cmp::Ordering::Greater => {
                    hi = i;
                    false
                }
            };
            if lo == hi {
                return None;
            }
            i = match (near, above) {
                (0, _) => lo + (hi - lo) / 2,
                (_, true) => lo,
                (_, false) => hi - 1,
            };
            near = near.saturating_sub(1);
        }
    }

    /// The block pool, where it lies.
    #[inline]
    fn blocks<'a>(&self, image: &'a [u8]) -> &'a [u64] {
        // Aligned and whole by `open`'s check, so the fallback is never taken.
        as_words(&image[self.pool..self.pool + 8 * self.pool_words]).unwrap_or_default()
    }

    /// Stream bucket `r` (a [`PackedPostings::lookup`] result) without
    /// materializing it.
    #[inline]
    pub(crate) fn cursor<'a>(&self, image: &'a [u8], r: BucketRef) -> PostingCursor<'a> {
        PostingCursor::new(self.blocks(image), r)
    }
}

/// A table's sorted keys and their bucket refs, where they lie in the
/// image ([`PackedPostings::key_table`]).
#[derive(Clone, Copy)]
pub(crate) struct KeyTable<'a> {
    /// One little-endian key, and one `(base, ocw)` bucket ref, an entry.
    keys: &'a [[u8; 8]],
    refs: &'a [[u8; 16]],
}

impl<'a> KeyTable<'a> {
    /// Number of keys.
    pub(crate) fn len(self) -> usize {
        self.keys.len()
    }

    /// Keys `range` of the table.
    pub(crate) fn slice(self, range: std::ops::Range<usize>) -> Self {
        KeyTable {
            keys: &self.keys[range.clone()],
            refs: &self.refs[range],
        }
    }

    /// Index of the first key not below `key`.
    pub(crate) fn lower_bound(self, key: u64) -> usize {
        self.keys.partition_point(|k| u64::from_le_bytes(*k) < key)
    }

    /// Every key, ascending, and its hit count.
    pub(crate) fn iter(self) -> impl Iterator<Item = (u64, u32)> + 'a {
        (0..self.len()).filter_map(move |i| self.get(i))
    }

    /// Key `i`, ascending in `i`, and its hit count; `None` past the end.
    #[inline]
    pub(crate) fn get(self, i: usize) -> Option<(u64, u32)> {
        let key = self.keys.get(i)?;
        let r = BucketRef {
            base: 0,
            ocw: u64::from_le_bytes(*self.refs.get(i)?.last_chunk()?),
        };
        Some((u64::from_le_bytes(*key), r.count() as u32))
    }
}

/// Everything [`PackedPostings::open`] requires of bucket `r` over the pool
/// `blocks` of an index of `n_seqs` sequences: its shape (count ≥ 1; width
/// 0 for a singleton, 1..=64 otherwise), its block inside the pool, a delta
/// sum that never wraps, and every hit's rid below `n_seqs`. The walk is
/// the [`PostingCursor`] seeding uses.
fn check_bucket(r: BucketRef, blocks: &[u64], n_seqs: usize) -> Result<(), String> {
    let count = r.count();
    if count == 0 || (count > 1) != (r.width() > 0) || r.width() > 64 {
        return Err(format!(
            "invalid bucket shape (count {count}, width {})",
            r.width()
        ));
    }
    let pool_words = blocks.len() as u64;
    if r.off()
        .checked_add(r.block_words())
        .is_none_or(|end| end > pool_words)
    {
        return Err(format!(
            "delta block {}..+{} exceeds the {pool_words}-word pool",
            r.off(),
            r.block_words()
        ));
    }
    // Deltas are unsigned, so a running sum that ever steps down has
    // wrapped past `u64::MAX`.
    let mut prev = r.base;
    for hit in PostingCursor::new(blocks, r) {
        if hit < prev {
            return Err("delta sum overflows u64".into());
        }
        let (rid, _, _) = unpack_hit(hit);
        if rid as usize >= n_seqs {
            return Err(format!(
                "packed hit names reference {rid}, but only {n_seqs} sequence(s) exist"
            ));
        }
        prev = hit;
    }
    Ok(())
}

/// Streaming decoder over one posting bucket, yielding packed hits in
/// increasing order: a bit cursor into the bucket's delta block and the
/// running prefix sum — no buffer, no allocation. The one walk: open-time
/// validation runs it over every bucket of more than one hit.
pub struct PostingCursor<'a> {
    blocks: &'a [u64],
    width: u32,
    bit: usize,
    prev: u64,
    remaining: u64,
    first: bool,
}

impl<'a> PostingCursor<'a> {
    /// A cursor over bucket `r` of the pool `blocks`. A zero-hit `r` (an
    /// absent hash) ends on `remaining` before it touches `blocks`.
    fn new(blocks: &'a [u64], r: BucketRef) -> Self {
        PostingCursor {
            blocks: blocks.get(r.off() as usize..).unwrap_or_default(),
            width: r.width(),
            bit: 0,
            prev: r.base,
            remaining: r.count(),
            first: true,
        }
    }
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
    use crate::index::Image;
    use proptest::prelude::*;

    /// The table of `pairs` emitted as an image with no sequences before
    /// it, in an aligned buffer, and the view `open` gives over it.
    fn table(pairs: &[(u64, u64)]) -> Result<(Image, PackedPostings), IndexError> {
        let mut out = Vec::new();
        PackedPostings::emit(&[pairs], &mut out)?;
        let image = Image::from_bytes(&out);
        // Hits may name any of the 2^24 references.
        // A directory slot per key or so, as a real index has.
        let total_len = 64 * pairs.len() as u64;
        let p = PackedPostings::open(&mut SliceSource::new(image.bytes()), 1 << 24, total_len)
            .map_err(|e| IndexError::from_parse(0, e))?;
        Ok((image, p))
    }

    /// The reference is the input itself — a naive model: `pairs` grouped
    /// by hash is what every query of the table must give back, and every
    /// hash that is not in `pairs` must miss.
    fn assert_equivalent(pairs: &[(u64, u64)]) {
        let (image, p) = table(pairs).unwrap();
        let image = image.bytes();
        let mut want: Vec<(u64, Vec<u64>)> = Vec::new();
        for &(hash, hit) in pairs {
            match want.last_mut() {
                Some((h, hits)) if *h == hash => hits.push(hit),
                _ => want.push((hash, vec![hit])),
            }
        }
        assert_eq!(p.num_keys(), want.len());
        assert_eq!(p.num_hits(), pairs.len() as u64);
        let hashes: Vec<u64> = want.iter().map(|&(h, _)| h).collect();
        assert_eq!(p.hashes(image).collect::<Vec<_>>(), hashes);
        for (h, hits) in &want {
            let r = p
                .lookup(image, *h)
                .unwrap_or_else(|| panic!("{h:#x} missed"));
            assert_eq!(r.count() as usize, hits.len(), "count for {h}");
            let via_cursor: Vec<u64> = p.cursor(image, r).collect();
            assert_eq!(&via_cursor, hits, "cursor for {h}");
            assert_eq!(p.cursor(image, r).len(), hits.len());
        }
        // Absent hashes: below, between and above the keys, and the two
        // ends of the hash space.
        let absent = hashes
            .iter()
            .flat_map(|&h| [h.wrapping_sub(1), h.wrapping_add(1)])
            .chain([0, 1, u64::MAX, u64::MAX - 1, 0xDEAD_BEEF_0BAD_F00D]);
        for h in absent {
            assert_eq!(
                p.lookup(image, h).is_some(),
                hashes.binary_search(&h).is_ok(),
                "lookup of {h:#x}"
            );
        }
    }

    #[test]
    fn empty_store() {
        let (_, p) = table(&[]).unwrap();
        assert_eq!(p.num_keys(), 0);
        assert_eq!(p.num_hits(), 0);
        assert_eq!(p.posting_bytes(), 0);
        assert_equivalent(&[]);
    }

    #[test]
    fn singleton_buckets_use_no_block_words() {
        let pairs = [(1u64, 100u64), (2, 7), (9, u64::MAX)];
        let (_, p) = table(&pairs).unwrap();
        assert_eq!(p.posting_bytes(), 0);
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
    fn lookup_matches_the_model_at_the_edges_of_the_key_space() {
        // One key; the two ends of the hash space, alone and together.
        assert_equivalent(&[(77, 5)]);
        assert_equivalent(&[(0, 5)]);
        assert_equivalent(&[(u64::MAX, 5)]);
        assert_equivalent(&[(0, 1), (0, 9), (u64::MAX, 2)]);
        // All keys share their top bits: one directory slot holds them all
        // and the binary search does the whole job.
        let crowded: Vec<(u64, u64)> = (0..3_000u64).map(|i| ((1 << 60) | (i * 3), i)).collect();
        assert_equivalent(&crowded);
        // Keys spread over the whole 64-bit space, more than one per slot.
        let mut spread: Vec<(u64, u64)> = (0..100_000u64)
            .map(|i| (i.wrapping_mul(0x0002_9E37_79B9_7F4A), i))
            .collect();
        spread.sort_unstable();
        spread.dedup_by_key(|p| p.0);
        assert_equivalent(&spread);
        // Narrow hashes (2k bits, as minimizers are): the directory is cut
        // from the widest key's top bit, not bit 63.
        let mut narrow: Vec<(u64, u64)> = (0..5_000u64).map(|i| (i * 211 % (1 << 22), i)).collect();
        narrow.sort_unstable();
        assert_equivalent(&narrow);
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
            let (image, p) = table(&pairs).unwrap();
            let r = p.lookup(image.bytes(), 77).unwrap();
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
        let (_, p) = table(&pairs).unwrap();
        let flat_bytes = pairs.len() * 8;
        assert!(
            p.posting_bytes() * 2 <= flat_bytes,
            "packed {} vs flat {flat_bytes}",
            p.posting_bytes()
        );
        assert_equivalent(&pairs);
    }

    #[test]
    fn oversized_bucket_is_refused() {
        let pairs: Vec<(u64, u64)> = (0..=MAX_BUCKET_HITS).map(|i| (1u64, i * 2)).collect();
        let err = PackedPostings::emit(&[pairs], &mut Vec::new()).unwrap_err();
        assert!(matches!(err, IndexError::PostingBudget { .. }), "{err}");
        assert!(err.to_string().contains("packed-block budget"), "{err}");
    }

    /// Re-open the table of `pairs` after `patch` edited its bytes.
    fn reopen(pairs: &[(u64, u64)], patch: impl FnOnce(&mut Vec<u8>)) -> io::Error {
        let mut out = Vec::new();
        PackedPostings::emit(&[pairs], &mut out).unwrap();
        patch(&mut out);
        let image = Image::from_bytes(&out);
        PackedPostings::open(&mut SliceSource::new(image.bytes()), 1 << 24, 0).unwrap_err()
    }

    #[test]
    fn open_refuses_what_a_query_would_trip_over() {
        let pairs = [(3u64, 9u64), (3, 9 + 300), (7, 1), (9, 2)];
        // Layout: n_keys(8) keys(3×8) refs(3×16) n_hits(8) n_words(8) pool.
        let (keys, refs) = (8usize, 32usize);
        // Swapped keys, then a duplicated one: the binary search needs
        // them strictly increasing.
        for (a, b) in [(7u64, 3u64), (3, 3)] {
            let e = reopen(&pairs, |out| {
                out[keys..keys + 8].copy_from_slice(&a.to_le_bytes());
                out[keys + 8..keys + 16].copy_from_slice(&b.to_le_bytes());
            });
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert!(
                e.to_string().contains("not strictly increasing (key 1,"),
                "{e}"
            );
        }
        // A delta that wraps the running sum past u64::MAX: the 9-bit field
        // of bucket 3 re-declared 64 bits wide over an all-ones word.
        let e = reopen(&pairs, |out| {
            let ocw = BucketRef::new(0, 2, 64).ocw;
            out[refs + 8..refs + 16].copy_from_slice(&ocw.to_le_bytes());
            let n = out.len();
            out[n - 8..].fill(0xFF);
        });
        assert!(e.to_string().contains("overflow"), "{e}");
        // A bucket that points past the pool.
        let e = reopen(&pairs, |out| {
            let ocw = BucketRef::new(1, 2, 9).ocw;
            out[refs + 8..refs + 16].copy_from_slice(&ocw.to_le_bytes());
        });
        assert!(e.to_string().contains("exceeds the 1-word pool"), "{e}");
        // Counts that do not add up to the stored hit count.
        let e = reopen(&pairs, |out| {
            let n_hits = refs + 3 * 16;
            out[n_hits..n_hits + 8].copy_from_slice(&5u64.to_le_bytes());
        });
        assert!(e.to_string().contains("bucket counts sum to 4"), "{e}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_sorted_pairs_round_trip(
            hashes in proptest::collection::vec(0u64..16, 0..400),
            hits in proptest::collection::vec(0u64..1_000_000_000_000, 0..400),
            spread in 0u32..60
        ) {
            // `spread` moves the same few keys from one directory slot
            // (0) to the top of the hash space.
            let n = hashes.len().min(hits.len());
            let mut pairs: Vec<(u64, u64)> = hashes[..n]
                .iter()
                .zip(&hits[..n])
                .map(|(&h, &p)| (h << spread, p))
                .collect();
            pairs.sort_unstable();
            assert_equivalent(&pairs);
            // Cut into runs at hash boundaries, as a build's sort buckets
            // are, the table is the same bytes.
            let mut whole = Vec::new();
            PackedPostings::emit(&[&pairs[..]], &mut whole).unwrap();
            let runs: Vec<&[(u64, u64)]> = pairs.chunk_by(|a, b| a.0 >> 2 == b.0 >> 2).collect();
            let mut cut = Vec::new();
            PackedPostings::emit(&runs, &mut cut).unwrap();
            prop_assert_eq!(cut, whole);
        }
    }

    /// A key table read by index is the key array and the bucket counts.
    #[test]
    fn key_table_reads_keys_and_counts() {
        let pairs = [(3u64, 9u64), (3, 309), (3, 400), (7, 1), (9, 2), (9, 5)];
        let (image, p) = table(&pairs).unwrap();
        let t = p.key_table(image.bytes());
        assert_eq!(t.len(), 3);
        let all: Vec<_> = (0..4).map(|i| t.get(i)).collect();
        assert_eq!(all, [Some((3, 3)), Some((7, 1)), Some((9, 2)), None]);
        assert_eq!(
            [0, 3, 4, 8, 9, 10].map(|k| t.lower_bound(k)),
            [0, 0, 1, 2, 2, 3]
        );
        let mid = t.slice(1..3);
        assert_eq!(
            (mid.len(), mid.get(0), mid.get(1)),
            (2, Some((7, 1)), Some((9, 2)))
        );
    }
}
