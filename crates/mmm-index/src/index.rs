//! The minimizer index: a validated view over one v2 image.
//!
//! [`MinimizerIndex::build`] sketches the references, sorts the
//! `(hash, hit)` pairs and writes the image once — header, packed
//! sequences, sorted keys, bucket refs, block pool (`serialize`,
//! `postings`) — on as many workers as it is given, with the same bytes
//! at every count. From then on the image *is* the index: a
//! [`MinimizerIndex`] owns the bytes — the builder's buffer, or the mapped
//! file once its checksums have passed — and keeps only where things lie in
//! them (one small record per sequence, the table's offsets, a radix
//! directory of `len / 8` bytes). Lookups, posting decode and reference
//! windows read the bytes in place; saving a built index and loading a
//! saved one copy nothing.

use std::fmt;
use std::sync::{Mutex, PoisonError};

use mmm_chain::Anchor;
use mmm_io::Mmap;
use mmm_seq::SeqRecord;

use crate::error::IndexError;
use crate::minimizer::{for_each_minimizer, minimizers, minimizers_hpc, Minimizer};
use crate::postings::{BucketRef, KeyTable, PackedPostings, PostingCursor};
use crate::serialize::{self, VerifiedMap, CONTAINER_IMAGE_OFF};
use crate::shard::partition;
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

/// The one owner of an image's bytes. Either way [`Image::bytes`] starts
/// 8-byte aligned, which is what lets the block pool be read as words
/// where it lies.
pub(crate) enum Image {
    /// The buffer a build wrote; the image starts at `start`, the first
    /// 8-byte boundary of the allocation (a `Vec<u8>` promises none).
    Built { buf: Vec<u8>, start: usize },
    /// A checksum-verified container file: page aligned, image at byte 120.
    Mapped(Mmap),
}

impl Image {
    /// `image` itself when it starts 8-byte aligned, as a large allocation
    /// does; an aligned copy otherwise — what a build keeps.
    pub(crate) fn from_vec(image: Vec<u8>) -> Self {
        if image.as_ptr().align_offset(8) == 0 {
            Image::Built {
                buf: image,
                start: 0,
            }
        } else {
            Self::from_bytes(&image)
        }
    }

    /// An owned, aligned copy of `image` — how tests and the hostile-input
    /// suites put bytes behind an index.
    pub(crate) fn from_bytes(image: &[u8]) -> Self {
        let mut buf: Vec<u8> = Vec::with_capacity(image.len() + 7);
        let start = buf.as_ptr().align_offset(8);
        buf.resize(start, 0);
        // Within capacity: the buffer, and so the boundary, does not move.
        buf.extend_from_slice(image);
        Image::Built { buf, start }
    }

    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            Image::Built { buf, start } => &buf[*start..],
            Image::Mapped(map) => &map[CONTAINER_IMAGE_OFF..],
        }
    }
}

/// Where one reference sequence lies in the image.
pub(crate) struct SeqSpan {
    /// Offset and length of the name (validated UTF-8).
    pub(crate) name: usize,
    pub(crate) name_len: usize,
    /// Bases.
    pub(crate) len: usize,
    /// Offset of the 2-bit packed bases (`len.div_ceil(4)` bytes are used).
    pub(crate) words: usize,
}

/// The minimizer hash index (minimap2's `mm_idx_t`).
pub struct MinimizerIndex {
    pub k: usize,
    pub w: usize,
    /// Homopolymer-compressed sketching (queries must match).
    pub hpc: bool,
    /// Seeding ignores minimizers with more occurrences than this. A
    /// sharded build re-cuts it globally, so it is the one header value
    /// [`crate::write_index_image`] writes from the field.
    pub max_occ: u32,
    pub(crate) image: Image,
    pub(crate) seqs: Vec<SeqSpan>,
    /// Posting lists: minimizer hash → packed reference hits, FOR/delta
    /// bit-packed per bucket — offsets into `image` plus the lookup
    /// directory.
    pub(crate) postings: PackedPostings,
}

impl fmt::Debug for MinimizerIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MinimizerIndex")
            .field("n_seqs", &self.num_seqs())
            .field("n_minimizers", &self.num_minimizers())
            .field("image_len", &self.image_len())
            .finish()
    }
}

impl MinimizerIndex {
    /// Build the index over a set of reference records on up to `threads`
    /// workers (at least one): write its image once, straight from the
    /// sorted `(hash, hit)` pairs, open it and cut its occurrence threshold.
    /// Every thread count writes the same bytes.
    ///
    /// Fails with [`IndexError::HitBudget`] when the reference set exceeds
    /// the packed-hit representation ([`MAX_REF_SEQS`] sequences of up to
    /// [`MAX_REF_LEN`] bases): packing such hits would silently wrap them
    /// into the wrong reference or strand and mismap every read that seeds
    /// there, so over-budget inputs must fail loudly at build time.
    pub fn build(refs: &[SeqRecord], opts: &IdxOpts, threads: usize) -> Result<Self, IndexError> {
        let mut idx = Self::build_table(refs, opts, threads)?;
        let counts = idx.key_table().iter().map(|(_, count)| count).collect();
        idx.max_occ = occurrence_cutoff(counts, opts.occ_frac);
        // The built image is the bytes its file holds, header included.
        if let Image::Built { buf, start } = &mut idx.image {
            serialize::set_max_occ(&mut buf[*start..], idx.max_occ);
        }
        Ok(idx)
    }

    /// [`MinimizerIndex::build`] but the cutoff, which a sharded build
    /// takes over all shards at once: `max_occ` is left 0 (the field is
    /// what a written header holds).
    ///
    /// Groups of whole sequences are sketched concurrently, each group's
    /// pairs pushed into [`SORT_BUCKETS`] buckets by the top bits of the
    /// hash as they come (minimap2's `mm_idx_bucket`). Then the buckets are
    /// sorted concurrently: in bucket order they are the one sorted array
    /// the table is written from, whichever worker sketched what.
    pub(crate) fn build_table(
        refs: &[SeqRecord],
        opts: &IdxOpts,
        threads: usize,
    ) -> Result<Self, IndexError> {
        check_hit_budget(refs.len(), refs.iter().map(|r| (r.name.as_str(), r.len())))?;
        let lens: Vec<usize> = refs.iter().map(SeqRecord::len).collect();
        let groups = partition(&lens, pieces(threads));
        let shift = (2 * opts.k as u32).saturating_sub(SORT_BUCKETS.trailing_zeros());
        let sketched = par_map(groups, threads, |(start, count)| {
            let mut buckets: Vec<Vec<(u64, u64)>> = vec![Vec::new(); SORT_BUCKETS];
            let seqs: Vec<(usize, Vec<u32>)> = (start..start + count)
                .map(|rid| {
                    let nt4 = refs[rid].nt4();
                    for_each_minimizer(&nt4, opts.k, opts.w, opts.hpc, |m| {
                        // A hash has `2k` bits, so the clamp is never taken;
                        // were it, the last bucket would still sort last.
                        let b = ((m.hash >> shift) as usize).min(SORT_BUCKETS - 1);
                        buckets[b].push((m.hash, pack_hit(rid as u32, m.pos, m.rev)));
                    });
                    (nt4.len(), unpack::pack_nt4(&nt4))
                })
                .collect();
            (seqs, buckets)
        });
        let mut image = Vec::new();
        serialize::write_header(&mut image, opts, refs.len());
        let mut parts: Vec<Vec<Vec<(u64, u64)>>> = vec![Vec::new(); SORT_BUCKETS];
        let mut names = refs.iter().map(|r| r.name.as_str());
        for (seqs, buckets) in sketched {
            for ((len, words), name) in seqs.iter().zip(&mut names) {
                serialize::write_seq(&mut image, name, *len, words);
            }
            for (part, bucket) in parts.iter_mut().zip(buckets) {
                part.push(bucket);
            }
        }
        let sorted = par_map(parts, threads, |part| {
            let mut part = part.into_iter();
            let mut bucket = part.next().unwrap_or_default();
            part.for_each(|p| bucket.extend(p));
            bucket.sort_unstable();
            bucket
        });
        PackedPostings::emit(&sorted, &mut image)?;
        drop(sorted);
        serialize::open_image(Image::from_vec(image))
    }

    /// Open a copy of `image` (a bare v2 image, as
    /// [`crate::write_index_image`] gives) behind the structural validation
    /// a mapped file gets — everything but the container's checksums.
    pub fn from_image_bytes(image: &[u8]) -> Result<Self, IndexError> {
        serialize::open_image(Image::from_bytes(image))
    }

    /// Open the image of a mapped container where it lies. Takes only what
    /// the checksum pass returns, so an unverified mapping cannot get here.
    pub(crate) fn from_verified(v: VerifiedMap) -> Result<Self, IndexError> {
        serialize::open_image(Image::Mapped(v.into_map()))
    }

    /// Number of reference sequences.
    pub fn num_seqs(&self) -> usize {
        self.seqs.len()
    }

    /// Name of reference `rid`.
    pub fn seq_name(&self, rid: u32) -> &str {
        let s = &self.seqs[rid as usize];
        // Validated as UTF-8 at open, so the fallback is never taken.
        std::str::from_utf8(&self.image.bytes()[s.name..s.name + s.name_len]).unwrap_or_default()
    }

    /// Length of reference `rid` in bases.
    pub fn seq_len(&self, rid: u32) -> usize {
        self.seqs[rid as usize].len
    }

    /// The 2-bit packed bases of reference `rid` where they lie in the
    /// image: 4 bases per byte, base `i` at bits `2 * (i % 4)` of byte
    /// `i / 4` — what [`unpack::unpack_nt4`] decodes.
    pub fn seq_packed(&self, rid: u32) -> &[u8] {
        let s = &self.seqs[rid as usize];
        &self.image.bytes()[s.words..s.words + s.len.div_ceil(4)]
    }

    /// The bucket of one minimizer hash, `None` when the index does not
    /// hold it — the one probe a seed costs. Its `count()` is the hit
    /// count; [`MinimizerIndex::cursor`] streams the hits.
    #[inline]
    pub fn lookup(&self, hash: u64) -> Option<BucketRef> {
        self.postings.lookup(self.image.bytes(), hash)
    }

    /// Stream the hits of a bucket [`MinimizerIndex::lookup`] returned,
    /// without materializing them.
    #[inline]
    pub fn cursor(&self, r: BucketRef) -> PostingCursor<'_> {
        self.postings.cursor(self.image.bytes(), r)
    }

    /// Hits recorded for one minimizer hash (0 when absent) — one probe, no
    /// decode.
    pub fn hit_count(&self, hash: u64) -> usize {
        self.lookup(hash).map_or(0, |r| r.count() as usize)
    }

    /// Stream the hits for one minimizer hash without materializing them
    /// (nothing when the hash is absent).
    pub fn hit_cursor(&self, hash: u64) -> PostingCursor<'_> {
        self.cursor(self.lookup(hash).unwrap_or(BucketRef { base: 0, ocw: 0 }))
    }

    /// All minimizer hashes, ascending, read from the image's key array
    /// (serialization and cross-checking, not a mapping-path call).
    pub fn hashes(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.postings.hashes(self.image.bytes())
    }

    /// Every minimizer hash, ascending, with its hit count, by index: the
    /// key array and the bucket refs where they lie in the image.
    pub(crate) fn key_table(&self) -> KeyTable<'_> {
        self.postings.key_table(self.image.bytes())
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

    /// Collect chaining anchors for a query (nt4, forward strand), one
    /// lookup per minimizer: the reference loop. The mapper seeds through
    /// [`crate::ShardedIndex::collect_anchors`]; the tests hold that path,
    /// at any shard count, to this one, as the scalar kernels are held to
    /// the SIMD tiers.
    ///
    /// Seeds whose minimizer occurs more than `max_occ` times on the
    /// reference are skipped (the repeat filter, minimap2 `-f`).
    pub fn collect_anchors(&self, query: &[u8]) -> Vec<Anchor> {
        let qlen = query.len() as u32;
        let image = self.image.bytes();
        let mut anchors = Vec::new();
        for m in sketch(query, self.k, self.w, self.hpc) {
            let Some(r) = self.postings.lookup(image, m.hash) else {
                continue;
            };
            if r.count() > u64::from(self.max_occ) {
                continue;
            }
            for h in self.postings.cursor(image, r) {
                anchors.push(anchor_from_hit(&m, h, qlen, self.k, self.hpc, 0));
            }
        }
        anchors
    }

    /// Length of the image in bytes: the index's size, in memory and (plus
    /// the container's 120-byte directory) on disk — the paper's "Index
    /// Size" column of Table 5.
    pub fn image_len(&self) -> usize {
        self.image.bytes().len()
    }

    /// Heap bytes the index owns: the lookup directory, one record per
    /// sequence, and — for a built index only — the image buffer. A mapped
    /// index's image is page cache, not heap.
    pub fn heap_bytes(&self) -> usize {
        let image = match &self.image {
            Image::Built { buf, .. } => buf.capacity(),
            Image::Mapped(_) => 0,
        };
        image + self.postings.heap_bytes() + self.seqs.len() * std::mem::size_of::<SeqSpan>()
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
    /// reference where it lies through [`unpack::unpack_nt4`].
    /// Bounds are clamped to the sequence length, matching
    /// [`MinimizerIndex::ref_window`].
    pub fn ref_window_into(&self, rid: u32, start: usize, end: usize, out: &mut Vec<u8>) {
        let len = self.seq_len(rid);
        let start = start.min(len);
        let end = end.min(len).max(start);
        out.clear();
        out.resize(end - start, 0);
        unpack::unpack_nt4(self.seq_packed(rid), start, end, out);
    }

    /// Decode `out.len()` forward-strand bases of reference `rid` from
    /// `start` into `out` — [`MinimizerIndex::ref_window_into`] for a
    /// caller that lays several windows out in one buffer.
    ///
    /// # Panics
    /// If the window runs past the end of the sequence.
    pub fn ref_window_into_slice(&self, rid: u32, start: usize, out: &mut [u8]) {
        let end = start + out.len();
        assert!(
            end <= self.seq_len(rid),
            "window {start}..{end} runs past reference {rid}'s {} bases",
            self.seq_len(rid)
        );
        unpack::unpack_nt4(self.seq_packed(rid), start, end, out);
    }
}

/// Turn one packed reference hit into a chaining anchor for query
/// minimizer `m`. `rid_offset` rebases a shard-local reference id into
/// global coordinates. This is the *only* place that anchor geometry is
/// computed, so the seeding path and the reference loop cannot drift.
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
            qlen,
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
            qlen,
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

/// Sketch with or without homopolymer compression. Shared by the
/// reference loop and the seeding path ([`crate::ShardedIndex`]), which
/// must sketch queries with the exact same function to stay byte-identical.
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
pub(crate) fn occurrence_cutoff(mut counts: Vec<u32>, frac: f64) -> u32 {
    if counts.is_empty() || frac <= 0.0 {
        return u32::MAX;
    }
    if counts.len() == 1 {
        return counts[0].max(10);
    }
    // Drop (at least) the top `frac` fraction of keys: the cutoff is the
    // largest kept count, the one at that sorted position — which selection
    // finds without sorting the rest.
    let drop = ((frac * counts.len() as f64).ceil() as usize).clamp(1, counts.len() - 1);
    let at = counts.len() - 1 - drop;
    (*counts.select_nth_unstable(at).1).max(10)
}

/// How many pieces to cut work into for `threads` workers: a few each, so
/// that one long piece does not leave the others idle behind it, and one
/// piece when nobody shares it.
pub(crate) fn pieces(threads: usize) -> usize {
    if threads > 1 {
        threads.saturating_mul(4)
    } else {
        1
    }
}

/// Buckets a build sorts its `(hash, hit)` pairs in, by the top bits of the
/// hash (a power of two).
pub(crate) const SORT_BUCKETS: usize = 256;

/// `f` of every item, on up to `threads` scoped workers that take the items
/// in order from one queue; the results come back in item order, whichever
/// worker ran each. With one worker, or one item, `f` runs on the caller's
/// thread. A panic in `f` is re-raised here.
pub(crate) fn par_map<T: Send, R: Send>(
    items: Vec<T>,
    threads: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    // Nothing panics while the queue is locked, so it is never poisoned.
    let next = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    while let Some((i, item)) = next() {
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
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
        MinimizerIndex::build(&[rec], opts, 1).unwrap()
    }

    #[test]
    fn build_and_lookup_round_trip() {
        let g = random_genome(20_000, 11);
        let idx = build_one(&g, &IdxOpts::MAP_ONT);
        assert!(idx.num_minimizers() > 1000);
        // Every stored minimizer must be findable.
        let ms = minimizers(&g, idx.k, idx.w);
        for m in ms.iter().take(50) {
            assert!(idx.hit_count(m.hash) > 0);
            assert_eq!(idx.hit_cursor(m.hash).count(), idx.hit_count(m.hash));
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
        let packed = MinimizerIndex::build(&recs, &IdxOpts::MAP_ONT, 1).unwrap();
        let flat_bytes = packed.num_positions() * 8;
        assert!(
            packed.posting_bytes() * 2 <= flat_bytes,
            "packed {} vs flat {flat_bytes}: shrink below 2x",
            packed.posting_bytes()
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

    /// The cutoff as it was defined before selection: sort every count and
    /// read the largest kept one.
    fn sorted_cutoff(counts: &[u32], frac: f64) -> u32 {
        let mut v = counts.to_vec();
        if v.is_empty() || frac <= 0.0 {
            return u32::MAX;
        }
        if v.len() == 1 {
            return v[0].max(10);
        }
        v.sort_unstable();
        let drop = ((frac * v.len() as f64).ceil() as usize).clamp(1, v.len() - 1);
        v[v.len() - 1 - drop].max(10)
    }

    fn assert_cutoff(counts: &[u32], frac: f64) {
        let want = sorted_cutoff(counts, frac);
        assert_eq!(
            occurrence_cutoff(counts.to_vec(), frac),
            want,
            "{} counts, frac {frac}",
            counts.len()
        );
        // The order the counts come in does not matter.
        let mut rotated = counts.to_vec();
        rotated.rotate_left(counts.len() / 3);
        assert_eq!(occurrence_cutoff(rotated, frac), want, "rotated");
    }

    /// Selection gives what the sort gave, at the edges where an off-by-one
    /// would show: no counts, one, all equal, ties straddling the kept
    /// position and either side of the floor, and `frac` at, near and past
    /// 0 and 1.
    #[test]
    fn occurrence_cutoff_matches_the_sorted_quantile() {
        let fracs = [-1.0, 0.0, 1e-9, 2e-4, 0.1, 0.25, 0.5, 0.999, 1.0, 2.0];
        let mut cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![3],
            vec![10],
            vec![11],
            vec![500],
            vec![7; 40],
            vec![11; 40],
            vec![u32::MAX; 3],
            vec![1, 1000],
            vec![1000, 1],
        ];
        // Ties straddling the kept position: with 100 keys and frac 0.1 the
        // ten largest are dropped, so the answer is sorted position 89.
        for tie in [9u32, 10, 11, 12, 40] {
            let mut v: Vec<u32> = (0..85).map(|i| i % 7 + 1).collect();
            v.extend(std::iter::repeat_n(tie, 10));
            v.extend([tie + 1, tie + 5, tie + 9, 300, 301]);
            cases.push(v.clone());
            v.reverse();
            cases.push(v);
        }
        // 999 singletons and one 1000-count repeat.
        cases.push(std::iter::repeat_n(1, 999).chain([1000]).collect());
        for counts in &cases {
            for &frac in &fracs {
                assert_cutoff(counts, frac);
            }
        }
        let counts: Vec<u32> = std::iter::repeat_n(1u32, 999).chain([1000]).collect();
        assert_eq!(occurrence_cutoff(counts, 1e-3), 10);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]
        #[test]
        fn occurrence_cutoff_is_the_sorted_quantile(
            small in proptest::collection::vec(0u32..14, 0..300),
            large in proptest::collection::vec(0u32..5_000, 0..20),
            frac_ppm in 0u32..1_000_001
        ) {
            let counts: Vec<u32> = small.iter().chain(&large).copied().collect();
            assert_cutoff(&counts, f64::from(frac_ppm) / 1e6);
            assert_cutoff(&counts, f64::from(frac_ppm % 1000) / 1e6);
        }
    }

    /// Many sequences of uneven length, so that the sketch groups, the
    /// order their results come back in and the sort buckets all vary with
    /// the thread count: the image is the same bytes at every count.
    #[test]
    fn build_is_the_same_bytes_at_every_thread_count() {
        let mut lens: Vec<usize> = (0..23).map(|i| 200 + (i * 7_919) % 9_000).collect();
        lens.push(40_000);
        for opts in [IdxOpts::MAP_ONT, IdxOpts::MAP_PB] {
            let mut g = random_genome(lens.iter().sum(), 17).into_iter();
            let mut recs: Vec<SeqRecord> = lens
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    SeqRecord::new(
                        format!("c{i}"),
                        nt4_decode(&g.by_ref().take(n).collect::<Vec<_>>()),
                    )
                })
                .collect();
            // A repeated sequence gives multi-hit buckets across groups.
            recs.push(SeqRecord::new("again", recs[3].seq.clone()));
            let one = MinimizerIndex::build(&recs, &opts, 1).unwrap();
            assert!(one.num_positions() > one.num_minimizers());
            for threads in [2, 3, 8, 64] {
                let idx = MinimizerIndex::build(&recs, &opts, threads).unwrap();
                assert_eq!(idx.image.bytes(), one.image.bytes(), "{threads} threads");
                assert_eq!(idx.max_occ, one.max_occ);
            }
        }
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
        // `N` packs as `A`, and windows that start, end or cross inside a
        // packed word read back what was packed.
        let mut with_n = random_genome(1000, 10);
        for i in [0, 15, 16, 17, 500, 999] {
            with_n[i] = 4;
        }
        let idx = build_one(&with_n, &IdxOpts::MAP_ONT);
        let packed: Vec<u8> = with_n.iter().map(|&b| b % 4).collect();
        for (s, e) in [
            (0, 1000),
            (0, 0),
            (3, 9),
            (15, 17),
            (16, 32),
            (31, 33),
            (998, 1000),
        ] {
            idx.ref_window_into(0, s, e, &mut buf);
            assert_eq!(buf, packed[s..e], "window {s}..{e}");
        }
    }
}
