//! The index: one type for every origin, with lazy first-touch loading,
//! per-shard fault domains and graceful degradation (DESIGN.md §15).
//!
//! The paper's KNL result makes beyond-RAM references servable by letting
//! the index page in on demand (§4.4.2). This module generalizes that into
//! *target-range shards*: the reference set is split into contiguous rid
//! ranges, each built into its own `MMXS` container file, with a small
//! `MMX\x04` manifest tying the generation together and holding every
//! shard's minimizer filter, bit-sliced into one (both byte layouts live in
//! [`crate::serialize`]). A single-file index is one such container
//! with no manifest, and [`ShardedIndex::open`] opens it as exactly that: a
//! one-shard [`ShardedIndex`], loaded at open, with no filter — as is an
//! index built in memory (`ShardedIndex::from(MinimizerIndex)`). Every
//! byte of every file sits behind an XXH64 checksum that is verified on
//! first touch, so a torn write, a truncated file, or a flipped bit is
//! detected *before* any value read from it reaches a kernel. A loaded
//! shard is a view over its mapping, not a copy: what stays resident is
//! the page cache's decision, so there is no residency budget, no eviction
//! and no reload here — a shard is loaded once and stays loaded.
//!
//! A shard is also a fault domain. Loading runs a small supervisor ladder:
//! transient I/O faults are retried with a deterministic backoff; anything
//! persistent (missing file, checksum mismatch, manifest disagreement)
//! demotes the shard to quarantined with a recorded reason. A quarantined
//! shard is skipped at seeding time, so losing it loses exactly its slice
//! of the reference space: a read fails with [`ShardUnavailable`] (and
//! degrades at the pipeline layer exactly like any per-read fault) only
//! when the skip left it with no anchors at all, while reads that still
//! seed in healthy shards map normally — their output stays byte-identical
//! to the one-shard run, which [`ShardedIndex::collect_anchors`]
//! guarantees by construction: it sums per-shard hit counts against the
//! *global* occurrence cutoff and emits anchors through the one
//! `crate::index::anchor_from_hit` geometry, iterating shards in ascending
//! rid order.

use std::cell::RefCell;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, TryLockError};
use std::time::Duration;

use mmm_chain::Anchor;
use mmm_io::{write_atomic, Mmap};
use mmm_seq::SeqRecord;

use crate::error::IndexError;
use crate::index::{anchor_from_hit, check_hit_budget, occurrence_cutoff, par_map, pieces};
use crate::index::{IdxOpts, MinimizerIndex};
use crate::minimizer::{sketch_into, Minimizer, SketchBufs};
use crate::postings::{BucketRef, KeyTable};
use crate::serialize::{
    container_section_ranges, parse_manifest, serialize_manifest, stage_container,
    verify_checksums, VerifiedMap, CONTAINER_IMAGE_OFF, MANIFEST_MAGIC,
};

/// Load attempts per shard before the fault ladder gives up: one initial
/// try plus two retries with deterministic backoff.
pub const SHARD_LOAD_ATTEMPTS: u32 = 3;

/// Deterministic backoff before retry `attempt` (1-based): 1 ms, then
/// 4 ms. Fixed — reproducibility matters more here than contention
/// spreading, and chaos-suite replays must schedule identically.
#[inline]
fn backoff(attempt: u32) -> Duration {
    Duration::from_millis(1u64 << (2 * (attempt.saturating_sub(1)).min(4)))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding a shard lock (e.g. a poisoned kernel thread)
    // must not wedge every later read of that shard: the protected state
    // is a load-state machine whose every transition is valid to observe.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------------------
// The shards' minimizer filter, bit-sliced
// ---------------------------------------------------------------------------

#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The two probe hashes of minimizer hash `h`, before masking to a
/// filter's size.
#[inline]
fn probe_hashes(h: u64) -> [u64; 2] {
    [splitmix64(h), splitmix64(h ^ 0xC2B2_AE3D_27D4_EB4F)]
}

/// One shard's two-probe Bloom filter over its minimizer hashes (~10 bits a
/// key, a power of two of at least 64 bits), as a bit array: the filter
/// whose answers the shard's bit of the [`ShardFilter`] repeats.
fn shard_bits(hashes: impl ExactSizeIterator<Item = u64>) -> Vec<u64> {
    let bits = (hashes.len().saturating_mul(10))
        .next_power_of_two()
        .max(64);
    let mut words = vec![0u64; bits / 64];
    for h in hashes {
        for p in probe_hashes(h) {
            let bit = p & (bits as u64 - 1);
            words[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }
    words
}

/// Bits a [`ShardFilter`] position holds for `shards` shards: the count
/// rounded up to a power of two up to 64, to whole words above.
fn position_bits(shards: usize) -> u64 {
    if shards <= 64 {
        shards.next_power_of_two() as u64
    } else {
        64 * shards.div_ceil(64) as u64
    }
}

/// Every shard's minimizer filter in one bit-sliced table: position `p`
/// holds one bit per shard, so a minimizer's row — its filter-positive
/// shards — is the AND of the two positions its probe hashes pick, two
/// word reads for up to 64 shards. Shard `s`'s bit at `p` is its own
/// two-probe filter's bit at `p & (bits_s − 1)`, a smaller filter repeated
/// to the common size, so the row answers exactly as the shard filters
/// would one by one. "Definitely not in this shard" is sound, so a read
/// only *touches* — and can only be degraded by — shards that may hold one
/// of its minimizers; false positives merely cost a wasted lookup.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct ShardFilter {
    words: Vec<u64>,
    /// Bits per position ([`position_bits`] of the shard count).
    pos_bits: u64,
    /// log2 of the position count.
    log2_positions: u32,
}

/// Where a [`ShardFilter`]'s positions lie in its words.
#[derive(Clone, Copy)]
struct Layout {
    /// Words a row spans: 1 up to 64 shards.
    row_words: usize,
    /// log2 of the positions a word holds (0 above 64 shards).
    word_shift: u32,
    /// Positions a word holds, minus one, and log2 of their width: where a
    /// position sits inside its word.
    lane_mask: u64,
    lane_shift: u32,
    /// The bits of one position inside its word.
    row_mask: u64,
}

impl Layout {
    fn new(pos_bits: u64) -> Self {
        let lane_shift = pos_bits.trailing_zeros().min(6);
        let word_shift = 6 - lane_shift;
        Layout {
            row_words: pos_bits.div_ceil(64) as usize,
            word_shift,
            lane_mask: (1u64 << word_shift) - 1,
            lane_shift,
            row_mask: u64::MAX >> (64 - pos_bits.min(64)),
        }
    }

    /// The word holding shard `s`'s bit at position `p`, and that bit.
    #[inline]
    fn slot(self, p: u64, s: usize) -> (usize, u64) {
        let at = (p >> self.word_shift) as usize * self.row_words + s / 64;
        let bit = ((p & self.lane_mask) << self.lane_shift) + (s % 64) as u64;
        (at, 1 << bit)
    }

    /// Word `wi` of the row at position `p` of `words`: shards `64 wi ..`
    /// as bits.
    #[inline(always)]
    fn row_word(self, words: &[u64], p: u64, wi: usize) -> u64 {
        let word = words[(p >> self.word_shift) as usize * self.row_words + wi];
        (word >> ((p & self.lane_mask) << self.lane_shift)) & self.row_mask
    }
}

impl fmt::Debug for ShardFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardFilter")
            .field("pos_bits", &self.pos_bits)
            .field("log2_positions", &self.log2_positions)
            .field("words", &self.words.len())
            .finish()
    }
}

impl ShardFilter {
    /// The sliced filter over `shards`, one [`shard_bits`] array each, built
    /// on up to `threads` workers over ranges of positions.
    fn build(shards: &[Vec<u64>], threads: usize) -> Self {
        let max_bits = shards.iter().map(|w| w.len() * 64).max().unwrap_or(64);
        let log2_positions = max_bits.max(64).trailing_zeros();
        let pos_bits = position_bits(shards.len());
        let layout = Layout::new(pos_bits);
        // 64 positions at a time, one word of every shard's filter, which
        // fill `pos_bits` words.
        let blocks = 1usize << (log2_positions - 6);
        let n = pieces(threads).min(blocks);
        let ranges: Vec<(usize, usize)> = (0..n)
            .map(|j| (j * blocks / n, (j + 1) * blocks / n))
            .collect();
        let chunks = par_map(ranges, threads, |(lo, hi)| {
            let mut out = vec![0u64; (hi - lo) * pos_bits as usize];
            let base = (lo * 64) as u64;
            for (s, bits) in shards.iter().enumerate() {
                for block in lo..hi {
                    let mut word = bits[block % bits.len()];
                    while word != 0 {
                        let p = (block * 64) as u64 + u64::from(word.trailing_zeros());
                        let (at, bit) = layout.slot(p - base, s);
                        out[at] |= bit;
                        word &= word - 1;
                    }
                }
            }
            out
        });
        ShardFilter {
            words: chunks.concat(),
            pos_bits,
            log2_positions,
        }
    }

    /// Words a row spans: 1 up to 64 shards.
    fn row_words(&self) -> usize {
        Layout::new(self.pos_bits).row_words
    }

    /// The probe pass of a read: each minimizer's row is the AND of its two
    /// positions' rows, ORed into `touched` (one bit per shard, `row_words`
    /// long), and its positive shards are pushed to `lookups` as
    /// `(minimizer, shard)`, minimizer then shard ascending.
    fn probe(&self, ms: &[Minimizer], touched: &mut [u64], lookups: &mut Vec<(u32, u32)>) {
        let layout = Layout::new(self.pos_bits);
        let mask = (1u64 << self.log2_positions) - 1;
        for (i, m) in ms.iter().enumerate() {
            let [a, b] = probe_hashes(m.hash).map(|p| p & mask);
            for (wi, t) in touched.iter_mut().enumerate() {
                let mut row =
                    layout.row_word(&self.words, a, wi) & layout.row_word(&self.words, b, wi);
                *t |= row;
                while row != 0 {
                    lookups.push((i as u32, (wi * 64) as u32 + row.trailing_zeros()));
                    row &= row - 1;
                }
            }
        }
    }

    pub(crate) fn pos_bits(&self) -> u64 {
        self.pos_bits
    }

    pub(crate) fn log2_positions(&self) -> u32 {
        self.log2_positions
    }

    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The filter a manifest stores for `shards` shards, checked: its
    /// position width must be the one the shard count gives, it must hold
    /// at least 64 positions and exactly the words its geometry needs, and
    /// no bit may stand for a shard past the last, so every row a probe
    /// reads names only shards that exist.
    pub(crate) fn from_parts(
        shards: usize,
        pos_bits: u64,
        log2_positions: u32,
        words: Vec<u64>,
    ) -> Result<Self, String> {
        if pos_bits != position_bits(shards) {
            return Err(format!(
                "filter holds {pos_bits} bits a position, but {shards} shard(s) \
                 need {}",
                position_bits(shards)
            ));
        }
        if !(6..=48).contains(&log2_positions) {
            return Err(format!(
                "filter of 2^{log2_positions} positions is outside 2^6..=2^48"
            ));
        }
        let want = (u128::from(pos_bits) << log2_positions) / 64;
        if words.len() as u128 != want {
            return Err(format!(
                "filter of 2^{log2_positions} positions x {pos_bits} bits needs \
                 {want} words, not {}",
                words.len()
            ));
        }
        // The bits of shards that exist, per word of a row's stretch.
        let live: Vec<u64> = if pos_bits >= 64 {
            (0..Layout::new(pos_bits).row_words)
                .map(|wi| match shards.saturating_sub(64 * wi) {
                    n if n >= 64 => u64::MAX,
                    n => (1u64 << n) - 1,
                })
                .collect()
        } else {
            let lane = (1u64 << shards) - 1;
            let lanes = 64 / pos_bits;
            vec![(0..lanes).fold(0, |acc, j| acc | lane << (j * pos_bits))]
        };
        let dead = words
            .chunks_exact(live.len())
            .any(|row| row.iter().zip(&live).any(|(w, l)| w & !l != 0));
        if dead {
            return Err(format!(
                "filter sets a bit for a shard past the last of {shards}"
            ));
        }
        Ok(ShardFilter {
            words,
            pos_bits,
            log2_positions,
        })
    }
}

// ---------------------------------------------------------------------------
// Manifest (MMX\x04)
// ---------------------------------------------------------------------------

/// One shard entry of a [`ShardManifest`].
#[derive(Clone, Debug)]
pub struct ShardMeta {
    /// File name relative to the manifest's directory (no separators).
    pub path: String,
    /// First global reference id held by this shard.
    pub rid_start: u32,
    /// Number of reference sequences in this shard.
    pub rid_count: u32,
    /// Exact byte length of the shard file.
    pub file_len: u64,
    /// The shard file's directory hash — transitively covers every byte,
    /// binding the manifest to this exact shard generation.
    pub dir_hash: u64,
}

/// The v4 manifest: global sketching parameters, the full reference
/// catalog (names and lengths — available without touching any shard), the
/// shard table and the shards' minimizer filter.
#[derive(Clone, Debug)]
pub struct ShardManifest {
    pub k: usize,
    pub w: usize,
    pub hpc: bool,
    /// Global occurrence cutoff, computed over the *merged* per-minimizer
    /// counts of all shards — the key to byte-identity with a flat build.
    pub max_occ: u32,
    pub seq_names: Vec<String>,
    pub seq_lens: Vec<u64>,
    pub shards: Vec<ShardMeta>,
    /// Every shard's minimizer filter, bit-sliced; `None` for an index
    /// opened without a manifest (one shard, loaded at open), where every
    /// minimizer is looked up.
    pub(crate) filter: Option<ShardFilter>,
}

impl ShardManifest {
    pub fn num_seqs(&self) -> usize {
        self.seq_names.len()
    }
}

// ---------------------------------------------------------------------------
// Sharded build
// ---------------------------------------------------------------------------

/// Split `lens` into up to `n` contiguous, length-balanced, non-empty
/// ranges. Returns `(start, count)` per range: a shard, or a build's group
/// of sequences sketched together.
pub(crate) fn partition(lens: &[usize], n: usize) -> Vec<(usize, usize)> {
    if lens.is_empty() {
        return vec![(0, 0)];
    }
    let n = n.clamp(1, lens.len());
    let mut cuts = Vec::with_capacity(n);
    let mut i = 0usize;
    let mut rem_len: u128 = lens.iter().map(|&l| l as u128).sum();
    for s in 0..n {
        let rem_shards = n - s;
        // Leave at least one sequence for every later shard.
        let max_take = lens.len() - i - (rem_shards - 1);
        let target = rem_len / rem_shards as u128;
        let mut take = 0usize;
        let mut acc = 0u128;
        while take < max_take && (take == 0 || acc < target) {
            acc += lens[i + take] as u128;
            take += 1;
        }
        cuts.push((i, take));
        i += take;
        rem_len -= acc;
    }
    debug_assert_eq!(i, lens.len());
    cuts
}

/// What [`build_sharded`] produced, for CLI reporting.
#[derive(Clone, Debug)]
pub struct ShardBuildReport {
    pub n_shards: usize,
    pub n_seqs: usize,
    /// Global occurrence cutoff written into the manifest and every shard.
    pub max_occ: u32,
    pub shard_files: Vec<PathBuf>,
    pub shard_bytes: Vec<u64>,
    pub manifest_bytes: u64,
}

fn write_err(path: &Path, e: io::Error) -> IndexError {
    IndexError::Open {
        path: path.to_path_buf(),
        source: e,
    }
}

/// Build a sharded index over `refs` on up to `threads` workers: split it
/// into `n_shards` contiguous target ranges and build each range as its own
/// index, concurrently; take the *global* occurrence cutoff from the merged
/// per-minimizer counts; write the shard files to temp files,
/// concurrently, then rename them into place in shard order, and publish
/// the manifest only once every shard file is — every file atomically,
/// manifest last, so a crash at any point leaves either the previous
/// generation or the complete new one, never a parseable partial. Every
/// file is the same bytes at every thread count. A shard that fails fails
/// the build as it would one shard after another: the error is the
/// lowest-numbered failing shard's, the shards below it are published,
/// those above it and the manifest are not.
pub fn build_sharded(
    refs: &[SeqRecord],
    opts: &IdxOpts,
    n_shards: usize,
    threads: usize,
    manifest_path: &Path,
) -> Result<ShardBuildReport, IndexError> {
    check_hit_budget(refs.len(), refs.iter().map(|r| (r.name.as_str(), r.len())))?;
    let manifest_name = manifest_path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .ok_or_else(|| {
            write_err(
                manifest_path,
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "manifest path has no file name",
                ),
            )
        })?;
    let dir = manifest_path.parent().unwrap_or(Path::new(""));
    let lens: Vec<usize> = refs.iter().map(|r| r.len()).collect();
    let cuts = partition(&lens, n_shards.max(1));
    // One shard per worker; a worker's own build gets the threads left over
    // when there are fewer shards than threads.
    let workers = threads.clamp(1, cuts.len());
    let inner = (threads / workers).max(1);

    let built: Vec<(MinimizerIndex, Vec<u64>)> =
        par_map(cuts.clone(), workers, |(start, count)| {
            let idx = MinimizerIndex::build_table(&refs[start..start + count], opts, inner)?;
            let bits = shard_bits(idx.hashes());
            Ok((idx, bits))
        })
        .into_iter()
        .collect::<Result<_, IndexError>>()?;

    let tables: Vec<KeyTable> = built.iter().map(|(idx, _)| idx.key_table()).collect();
    let max_occ = occurrence_cutoff(merged_counts(&tables, threads), opts.occ_frac);
    let (built, bits): (Vec<_>, Vec<_>) = built.into_iter().unzip();
    let filter = ShardFilter::build(&bits, threads);
    drop(bits);

    let shards: Vec<_> = built.into_iter().zip(cuts).enumerate().collect();
    let staged = par_map(shards, workers, |(si, (mut idx, (start, count)))| {
        idx.max_occ = max_occ;
        let rel = format!("{manifest_name}.s{si:03}");
        let path = dir.join(&rel);
        let (file, file_len, dir_hash) =
            stage_container(&idx, start as u32, &path).map_err(|e| write_err(&path, e))?;
        let meta = ShardMeta {
            path: rel,
            rid_start: start as u32,
            rid_count: count as u32,
            file_len,
            dir_hash,
        };
        Ok((meta, path, file))
    });
    // In shard order, stopping at the first failure; the files staged above
    // it are removed unpublished.
    let mut metas = Vec::with_capacity(staged.len());
    let mut shard_files = Vec::with_capacity(staged.len());
    for shard in staged {
        let (meta, path, file) = shard?;
        file.publish().map_err(|e| write_err(&path, e))?;
        metas.push(meta);
        shard_files.push(path);
    }
    let shard_bytes = metas.iter().map(|m| m.file_len).collect();

    let manifest = ShardManifest {
        k: opts.k,
        w: opts.w,
        hpc: opts.hpc,
        max_occ,
        seq_names: refs.iter().map(|r| r.name.clone()).collect(),
        seq_lens: refs.iter().map(|r| r.len() as u64).collect(),
        shards: metas,
        filter: Some(filter),
    };
    let bytes = serialize_manifest(&manifest);
    write_atomic(manifest_path, &[&bytes]).map_err(|e| write_err(manifest_path, e))?;
    Ok(ShardBuildReport {
        n_shards: manifest.shards.len(),
        n_seqs: refs.len(),
        max_occ,
        shard_files,
        shard_bytes,
        manifest_bytes: bytes.len() as u64,
    })
}

/// The hit count of every distinct minimizer of the whole reference, from
/// the shards' own sorted `(key, count)` arrays: a merge that sums the
/// counts of a key several shards hold. The multiset is the one a flat
/// build would cut its threshold from, so the cutoff — and therefore
/// seeding — matches. On several threads the key space is cut into ranges
/// of about equal size at keys of the largest shard, and the ranges merge
/// concurrently.
fn merged_counts(tables: &[KeyTable], threads: usize) -> Vec<u32> {
    let n = pieces(threads);
    let cuts: Vec<u64> = tables
        .iter()
        .max_by_key(|t| t.len())
        .map_or(Vec::new(), |&t| {
            (1..n)
                .filter_map(|j| t.get(j * t.len() / n))
                .map(|(key, _)| key)
                .collect()
        });
    // Where each table's keys reach each cut.
    let bounds: Vec<Vec<usize>> = tables
        .iter()
        .map(|&t| {
            let at_cuts = cuts.iter().map(|&key| t.lower_bound(key));
            std::iter::once(0).chain(at_cuts).chain([t.len()]).collect()
        })
        .collect();
    let ranges: Vec<Vec<KeyTable>> = (0..=cuts.len())
        .map(|j| {
            let slices = tables.iter().zip(&bounds);
            slices.map(|(&t, b)| t.slice(b[j]..b[j + 1])).collect()
        })
        .collect();
    par_map(ranges, threads, |range| merge_range(&range)).concat()
}

/// [`merged_counts`] over one range of keys.
fn merge_range(tables: &[KeyTable]) -> Vec<u32> {
    let mut counts = Vec::with_capacity(tables.iter().map(|t| t.len()).sum());
    merge(tables, |_, count| counts.push(count));
    counts
}

/// Runs one [`scan`] merges at most: each step of it reads every run's
/// head.
const FAN_IN: usize = 8;

/// Key-sorted `(key, count)` entries a merge reads by index.
trait Run: Copy {
    fn at(self, i: usize) -> Option<(u64, u32)>;
}

impl Run for KeyTable<'_> {
    fn at(self, i: usize) -> Option<(u64, u32)> {
        self.get(i)
    }
}

impl Run for &[(u64, u32)] {
    fn at(self, i: usize) -> Option<(u64, u32)> {
        self.get(i).copied()
    }
}

/// `emit` every key of `runs`, ascending, with its summed count. More runs
/// than [`FAN_IN`] are merged in groups first, into at most [`FAN_IN`]
/// runs, so a key passes `log_FAN_IN(runs)` scans of at most [`FAN_IN`]
/// runs each, not one scan of all of them.
fn merge<R: Run>(runs: &[R], emit: impl FnMut(u64, u32)) {
    if runs.len() <= FAN_IN {
        return scan(runs, emit);
    }
    let groups: Vec<Vec<(u64, u32)>> = runs
        .chunks(runs.len().div_ceil(FAN_IN))
        .map(merged)
        .collect();
    let groups: Vec<&[(u64, u32)]> = groups.iter().map(Vec::as_slice).collect();
    scan(&groups, emit)
}

/// [`merge`] into one run.
fn merged<R: Run>(runs: &[R]) -> Vec<(u64, u32)> {
    let mut run = Vec::new();
    merge(runs, |key, count| run.push((key, count)));
    run
}

/// [`merge`] of at most [`FAN_IN`] runs. Which runs hold the next key is
/// data, not a pattern a branch predicts, so every step reads each run's
/// head and adds and advances by the comparison, with no branch on it. A
/// key is a `2k`-bit hash, so `u64::MAX` stands for a run that has none
/// left.
fn scan<R: Run>(runs: &[R], mut emit: impl FnMut(u64, u32)) {
    const DONE: u64 = u64::MAX;
    let head = |r: R, i: usize| r.at(i).unwrap_or((DONE, 0));
    let mut at = vec![0usize; runs.len()];
    loop {
        let key = runs.iter().zip(&at).map(|(&r, &i)| head(r, i).0).min();
        let Some(key) = key.filter(|&k| k != DONE) else {
            return;
        };
        let mut sum = 0u32;
        for (&r, i) in runs.iter().zip(&mut at) {
            let (k, c) = head(r, *i);
            let here = u32::from(k == key);
            sum = sum.saturating_add(c * here);
            *i += here as usize;
        }
        emit(key, sum);
    }
}

// ---------------------------------------------------------------------------
// Fault injection hook
// ---------------------------------------------------------------------------

/// One fault injected into a shard load attempt. A `FaultPlan` shard rule
/// (in `mmm-exec`) holds one of these directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardLoadFault {
    /// Fail the attempt with a transient I/O error (retried with backoff).
    Io,
    /// Delay the attempt, then load normally.
    SlowIo(Duration),
    /// The shard file is gone (persistent: quarantines immediately).
    Missing,
    /// Flip a byte inside section `0..4`, in
    /// [`CONTAINER_SECTIONS`](crate::CONTAINER_SECTIONS) order, before
    /// validation.
    CorruptSection(usize),
    /// Truncate the mapped bytes, as a torn final write would.
    TornTail,
}

/// Injection point consulted once per load attempt. `None` means load
/// normally. Implemented by `mmm_exec::FaultPlan` and by chaos tests.
pub trait ShardFaultHook: Send + Sync {
    fn on_load(&self, shard: usize, attempt: u32) -> Option<ShardLoadFault>;
}

// ---------------------------------------------------------------------------
// ShardedIndex
// ---------------------------------------------------------------------------

/// A read could not be served because a shard it touches is quarantined or
/// repeatedly failed to load. The pipeline degrades such reads to
/// `tp:A:U`, exactly like any other per-read fault.
#[derive(Clone, Debug)]
pub struct ShardUnavailable {
    pub shard: usize,
    pub reason: String,
}

impl fmt::Display for ShardUnavailable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {} unavailable: {}", self.shard, self.reason)
    }
}

impl std::error::Error for ShardUnavailable {}

/// Point-in-time health of one shard, for `--shard-report` style output
/// and counter reconciliation in the chaos suite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardHealth {
    pub shard: usize,
    /// Successful loads (0 or 1: a loaded shard stays loaded; a shard
    /// loaded at open counts its one load).
    pub loads: u64,
    /// Retries taken by the fault ladder.
    pub retries: u64,
    /// Transient I/O faults observed (each retried attempt records one).
    pub io_faults: u64,
    /// `"unloaded"`, `"loaded"`, or `"quarantined"`.
    pub state: &'static str,
    /// Quarantine reason, when quarantined.
    pub reason: Option<String>,
}

/// One shard's place in the index, and its fault counters. A load runs
/// holding `quarantine`; once it succeeds the shard is read through
/// `loaded` without taking a lock, so the reference windows a mapping
/// decodes cost none.
#[derive(Default)]
struct Slot {
    loaded: OnceLock<MinimizerIndex>,
    /// The reason, once the fault ladder has given up on the shard.
    quarantine: Mutex<Option<String>>,
    loads: AtomicU64,
    retries: AtomicU64,
    io_faults: AtomicU64,
}

/// Options for [`ShardedIndex::open`].
#[derive(Clone, Default)]
pub struct ShardOpenOpts {
    /// Chaos-suite fault injection.
    pub hook: Option<Arc<dyn ShardFaultHook>>,
}

/// The index: a catalog plus shards, each an independent fault domain.
///
/// Opened from a manifest, the shards are loaded on first touch. A
/// single-file container, or an index built in memory
/// ([`ShardedIndex::build`], or `From<MinimizerIndex>`), is one shard
/// loaded from the start, with no filter; its catalog is read from its
/// image.
pub struct ShardedIndex {
    manifest: ShardManifest,
    /// The manifest's directory, which shard paths are relative to; `None`
    /// for an index opened without a manifest.
    manifest_dir: Option<PathBuf>,
    slots: Vec<Slot>,
    opts: ShardOpenOpts,
}

impl fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("n_shards", &self.manifest.shards.len())
            .field("n_seqs", &self.manifest.num_seqs())
            .field("has_manifest", &self.has_manifest())
            .finish()
    }
}

impl From<MinimizerIndex> for ShardedIndex {
    /// One shard holding `idx`, loaded, with no filter; the catalog is
    /// copied from its image.
    fn from(idx: MinimizerIndex) -> Self {
        let n = idx.num_seqs() as u32;
        let manifest = ShardManifest {
            k: idx.k,
            w: idx.w,
            hpc: idx.hpc,
            max_occ: idx.max_occ,
            seq_names: (0..n).map(|r| idx.seq_name(r).to_string()).collect(),
            seq_lens: (0..n).map(|r| idx.seq_len(r) as u64).collect(),
            shards: vec![ShardMeta {
                path: String::new(),
                rid_start: 0,
                rid_count: n,
                file_len: (CONTAINER_IMAGE_OFF + idx.image_len()) as u64,
                dir_hash: 0,
            }],
            filter: None,
        };
        ShardedIndex {
            manifest,
            manifest_dir: None,
            slots: vec![Slot {
                loaded: OnceLock::from(idx),
                loads: AtomicU64::new(1),
                ..Slot::default()
            }],
            opts: ShardOpenOpts::default(),
        }
    }
}

impl ShardedIndex {
    /// Build an index over `refs` in memory on up to `threads` workers
    /// ([`MinimizerIndex::build`]): one shard, loaded, with no filter.
    pub fn build(refs: &[SeqRecord], opts: &IdxOpts, threads: usize) -> Result<Self, IndexError> {
        MinimizerIndex::build(refs, opts, threads).map(Self::from)
    }

    /// Open the index file at `path` as whichever kind its leading magic
    /// says it is — the one way a path becomes an index:
    /// - a container: every byte checksummed and its image validated now,
    ///   so a damaged file fails here, then queried where it is mapped as
    ///   one loaded shard;
    /// - a manifest: checksum-verified and parsed; its shards load on
    ///   first touch, through `opts`' fault hook.
    ///
    /// Anything else — a bare image, another version, not an index — is
    /// the typed error the checksum pass gives.
    pub fn open(path: &Path, opts: ShardOpenOpts) -> Result<Self, IndexError> {
        let map = open_map(path)?;
        if !map.starts_with(&MANIFEST_MAGIC) {
            return Ok(MinimizerIndex::from_verified(VerifiedMap::verify(map)?)?.into());
        }
        let manifest = parse_manifest(&map)?;
        let n = manifest.shards.len();
        Ok(ShardedIndex {
            manifest,
            manifest_dir: Some(path.parent().map(Path::to_path_buf).unwrap_or_default()),
            slots: (0..n).map(|_| Slot::default()).collect(),
            opts,
        })
    }

    /// The catalog and shard table: the manifest's, or for an index opened
    /// without one, a one-entry table read from its image.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Whether the index was opened from a manifest file (the shard report
    /// is printed for such an index, whatever its shard count).
    pub fn has_manifest(&self) -> bool {
        self.manifest_dir.is_some()
    }

    pub fn k(&self) -> usize {
        self.manifest.k
    }

    pub fn w(&self) -> usize {
        self.manifest.w
    }

    pub fn hpc(&self) -> bool {
        self.manifest.hpc
    }

    pub fn max_occ(&self) -> u32 {
        self.manifest.max_occ
    }

    pub fn num_shards(&self) -> usize {
        self.manifest.shards.len()
    }

    pub fn num_seqs(&self) -> usize {
        self.manifest.num_seqs()
    }

    pub fn seq_name(&self, rid: u32) -> &str {
        &self.manifest.seq_names[rid as usize]
    }

    pub fn seq_len(&self, rid: u32) -> usize {
        self.manifest.seq_lens[rid as usize] as usize
    }

    /// Which shard holds global reference id `rid`.
    pub fn shard_of(&self, rid: u32) -> usize {
        self.manifest
            .shards
            .partition_point(|s| s.rid_start <= rid)
            .saturating_sub(1)
    }

    /// Bytes of index image across all shards — the index's size, loaded
    /// or not (read off the shard table: each file is its image behind a
    /// 120-byte directory).
    pub fn image_len(&self) -> usize {
        let images = self.manifest.shards.iter();
        images
            .map(|s| (s.file_len as usize).saturating_sub(CONTAINER_IMAGE_OFF))
            .sum()
    }

    /// Per-shard health snapshot.
    pub fn health(&self) -> Vec<ShardHealth> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let reason = lock(&slot.quarantine).clone();
                let state = match (slot.loaded.get(), &reason) {
                    (Some(_), _) => "loaded",
                    (None, Some(_)) => "quarantined",
                    (None, None) => "unloaded",
                };
                ShardHealth {
                    shard: i,
                    loads: slot.loads.load(Ordering::Relaxed),
                    retries: slot.retries.load(Ordering::Relaxed),
                    io_faults: slot.io_faults.load(Ordering::Relaxed),
                    state,
                    reason,
                }
            })
            .collect()
    }

    /// Shards currently quarantined.
    pub fn quarantined(&self) -> Vec<usize> {
        (0..self.num_shards())
            .filter(|&i| lock(&self.slots[i].quarantine).is_some())
            .collect()
    }

    /// Get shard `shard` loaded, running the fault ladder if needed:
    /// transient errors retry with deterministic backoff; persistent ones
    /// (missing file, any checksum or manifest mismatch) quarantine the
    /// shard so later reads fail fast with the recorded reason. Waits while
    /// another thread holds the slot, e.g. while it loads the shard. A
    /// loaded shard is returned without taking the lock.
    pub fn ensure_shard(&self, shard: usize) -> Result<&MinimizerIndex, ShardUnavailable> {
        match self.slots[shard].loaded.get() {
            Some(idx) => Ok(idx),
            None => self.ensure_locked(shard, lock(&self.slots[shard].quarantine)),
        }
    }

    /// [`ShardedIndex::ensure_shard`] once the caller holds the slot.
    fn ensure_locked(
        &self,
        shard: usize,
        mut quarantine: MutexGuard<'_, Option<String>>,
    ) -> Result<&MinimizerIndex, ShardUnavailable> {
        let slot = &self.slots[shard];
        // Another worker may have loaded or quarantined it meanwhile.
        if let Some(idx) = slot.loaded.get() {
            return Ok(idx);
        }
        if let Some(r) = &*quarantine {
            return Err(ShardUnavailable {
                shard,
                reason: r.clone(),
            });
        }
        let meta = &self.manifest.shards[shard];
        let dir = self.manifest_dir.as_deref().unwrap_or(Path::new(""));
        let path = dir.join(&meta.path);
        let mut last: Option<IndexError> = None;
        for attempt in 0..SHARD_LOAD_ATTEMPTS {
            if attempt > 0 {
                slot.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff(attempt));
            }
            let fault = self
                .opts
                .hook
                .as_ref()
                .and_then(|h| h.on_load(shard, attempt));
            match self.load_once(shard, &path, meta, fault) {
                Ok(idx) => {
                    slot.loads.fetch_add(1, Ordering::Relaxed);
                    return Ok(slot.loaded.get_or_init(|| idx));
                }
                Err(e) if e.is_transient() => {
                    slot.io_faults.fetch_add(1, Ordering::Relaxed);
                    last = Some(e);
                }
                Err(e) => {
                    let reason = e.to_string();
                    *quarantine = Some(reason.clone());
                    return Err(ShardUnavailable { shard, reason });
                }
            }
        }
        // Transient faults survived every retry: treat the shard as down
        // rather than stalling each future read through the same ladder.
        let reason = format!(
            "{SHARD_LOAD_ATTEMPTS} load attempts failed with transient I/O \
             faults (last: {})",
            last.map(|e| e.to_string()).unwrap_or_default()
        );
        *quarantine = Some(reason.clone());
        Err(ShardUnavailable { shard, reason })
    }

    fn load_once(
        &self,
        shard: usize,
        path: &Path,
        meta: &ShardMeta,
        fault: Option<ShardLoadFault>,
    ) -> Result<MinimizerIndex, IndexError> {
        match fault {
            Some(ShardLoadFault::Io) => {
                return Err(IndexError::Io {
                    offset: None,
                    source: io::Error::other(format!("injected I/O fault on shard {shard}")),
                })
            }
            Some(ShardLoadFault::Missing) => {
                return Err(IndexError::Open {
                    path: path.to_path_buf(),
                    source: io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("injected missing shard {shard}"),
                    ),
                })
            }
            Some(ShardLoadFault::SlowIo(d)) => std::thread::sleep(d),
            _ => {}
        }
        let map = open_map(path)?;
        // Byte-level faults damage what the checksum pass is shown (a
        // private copy, or a shorter view); it is what must refuse them.
        let injected = match fault {
            Some(ShardLoadFault::CorruptSection(s)) => {
                let mut v = map.to_vec();
                let off = injected_flip_offset(&v, s);
                v[off] ^= 0xFF;
                Some(verify_checksums(&v))
            }
            Some(ShardLoadFault::TornTail) => {
                Some(verify_checksums(&map[..map.len().saturating_sub(9)]))
            }
            _ => None,
        };
        if let Some(verdict) = injected {
            verdict?;
            return Err(IndexError::Corrupt {
                offset: None,
                what: format!("the fault injected into shard {shard} went undetected"),
            });
        }
        let verified = VerifiedMap::verify(map)?;
        let dir = verified.dir();
        // Bind the file to the manifest generation: the directory hash
        // covers the section digests, which cover every remaining byte.
        if dir.dir_hash != meta.dir_hash {
            return Err(IndexError::Checksum {
                section: "directory",
                what: format!(
                    "shard file {} does not match the manifest generation \
                     (file {:#018x}, manifest {:#018x})",
                    path.display(),
                    dir.dir_hash,
                    meta.dir_hash
                ),
            });
        }
        let rid_start = dir.rid_start;
        let mut idx = MinimizerIndex::from_verified(verified)?;
        if rid_start != meta.rid_start as u64
            || idx.num_seqs() != meta.rid_count as usize
            || idx.k != self.manifest.k
            || idx.w != self.manifest.w
            || idx.hpc != self.manifest.hpc
        {
            return Err(IndexError::Corrupt {
                offset: None,
                what: format!(
                    "shard {shard} disagrees with the manifest (rid_start \
                     {} vs {}, {} seqs vs {}, k/w/hpc {}/{}/{} vs {}/{}/{})",
                    rid_start,
                    meta.rid_start,
                    idx.num_seqs(),
                    meta.rid_count,
                    idx.k,
                    idx.w,
                    idx.hpc,
                    self.manifest.k,
                    self.manifest.w,
                    self.manifest.hpc
                ),
            });
        }
        idx.max_occ = self.manifest.max_occ;
        Ok(idx)
    }

    /// Collect chaining anchors for a query across all shards — the one
    /// seeding path, byte-identical to [`MinimizerIndex::collect_anchors`]
    /// (the reference loop the tests hold it to) over the same reference
    /// set while every consulted shard is loadable.
    ///
    /// Identity holds because (1) queries are sketched with the shared
    /// sketcher, (2) the repeat filter compares the *summed* per-shard
    /// counts against the global `max_occ` from the manifest, (3) shards
    /// are visited in ascending rid order, matching the flat index's
    /// rid-sorted posting lists, and (4) anchor geometry goes through the
    /// one shared `anchor_from_hit`.
    ///
    /// One probe pass over the read's minimizers reads each one's row of
    /// the sliced filter (two words up to 64 shards), ORs it into the
    /// touched mask and lists the (minimizer, shard) lookups as it goes.
    /// The touched shards are loaded (`touch`, free slots first) unless
    /// every one already is; then the lookups resolve in one tight loop and
    /// the hits of each minimizer that passes the cutoff decode shard by
    /// shard. An index with no filter (one shard, loaded at open) looks
    /// every minimizer up directly. The sketch's block buffers and every
    /// list but the anchors returned are the calling thread's, reused read
    /// after read.
    ///
    /// Degraded coverage: an unavailable shard (quarantined, or faulting
    /// right now) is *skipped*, not fatal — losing a shard loses exactly
    /// that shard's slice of the reference space. The read becomes an
    /// `Err` only when the skip plausibly cost it its mapping: no anchors
    /// survived and at least one filter-positive shard was unavailable.
    /// This containment matters because the filter is sized for pruning,
    /// not identity (a few percent of *foreign* minimizers probe positive);
    /// if a filter touch alone degraded the read, a long read's hundreds of
    /// minimizers would tie every read to every shard and collapse all
    /// fault domains into one. The trade: a minimizer shared with a dead
    /// shard sees a smaller summed count, so a repeat right at the
    /// `max_occ` boundary can seed where the flat index would have filtered
    /// it — surviving reads stay byte-identical whenever their minimizers
    /// don't co-occur in the dead shard.
    pub fn collect_anchors(&self, query: &[u8]) -> Result<Vec<Anchor>, ShardUnavailable> {
        SEED_BUFS.with(|cell| match cell.try_borrow_mut() {
            Ok(mut bufs) => self.collect_anchors_in(query, &mut bufs),
            // Only a fault hook that seeds from inside a shard load gets
            // here; it seeds on buffers of its own.
            Err(_) => self.collect_anchors_in(query, &mut SeedBufs::default()),
        })
    }

    fn collect_anchors_in(
        &self,
        query: &[u8],
        b: &mut SeedBufs,
    ) -> Result<Vec<Anchor>, ShardUnavailable> {
        let m = &self.manifest;
        sketch_into(query, m.k, m.w, m.hpc, &mut b.sketch, &mut b.ms);
        b.hits.clear();
        let mut skipped = None;
        match &m.filter {
            Some(filter) => {
                b.touched.clear();
                b.touched.resize(filter.row_words(), 0);
                b.lookups.clear();
                filter.probe(&b.ms, &mut b.touched, &mut b.lookups);
                let loaded = |s: usize| self.slots[s].loaded.get().is_some();
                if !set_bits(&b.touched).all(loaded) {
                    skipped = self.touch(&b.touched);
                }
                // The probes are independent, so their cache misses
                // overlap. Only hits are kept, and the bucket a count came
                // from is the bucket streamed.
                for &(i, s) in &b.lookups {
                    let Some(idx) = self.slots[s as usize].loaded.get() else {
                        continue;
                    };
                    if let Some(r) = idx.lookup(b.ms[i as usize].hash) {
                        b.hits.push((i, s, r));
                    }
                }
            }
            None => {
                let idx = self.ensure_shard(0)?;
                for (i, mz) in b.ms.iter().enumerate() {
                    if let Some(r) = idx.lookup(mz.hash) {
                        b.hits.push((i as u32, 0, r));
                    }
                }
            }
        }
        let kept = || {
            b.hits.chunk_by(|a, b| a.0 == b.0).filter(|group| {
                let total: u64 = group.iter().map(|&(_, _, r)| r.count()).sum();
                total <= u64::from(m.max_occ)
            })
        };
        let n: u64 = kept().flatten().map(|&(_, _, r)| r.count()).sum();
        let qlen = query.len() as u32;
        let mut anchors = Vec::with_capacity(n as usize);
        for group in kept() {
            let mz = &b.ms[group[0].0 as usize];
            for &(_, s, r) in group {
                let Some(idx) = self.slots[s as usize].loaded.get() else {
                    continue;
                };
                let rid_start = m.shards[s as usize].rid_start;
                for h in idx.cursor(r) {
                    anchors.push(anchor_from_hit(mz, h, qlen, m.k, m.hpc, rid_start));
                }
            }
        }
        match skipped {
            Some(e) if anchors.is_empty() => Err(e),
            _ => Ok(anchors),
        }
    }

    /// Load the shards of the bitmask `touched`. A worker first takes every
    /// slot that is free and loads those still unloaded, so two workers
    /// touching a cold index load different shards; only then does it wait,
    /// in ascending order, on the slots another worker holds. Afterwards
    /// every touched shard is loaded or quarantined for good, so its slot's
    /// `loaded` answers which. Returns the lowest-numbered shard that is
    /// unavailable.
    fn touch(&self, touched: &[u64]) -> Option<ShardUnavailable> {
        let mut skipped: Option<ShardUnavailable> = None;
        let mut record = |got: Result<&MinimizerIndex, ShardUnavailable>| match got {
            Err(e) if skipped.as_ref().is_none_or(|p| p.shard > e.shard) => skipped = Some(e),
            _ => {}
        };
        let mut busy = Vec::new();
        for s in set_bits(touched) {
            let slot = &self.slots[s];
            if slot.loaded.get().is_some() {
                continue;
            }
            match slot.quarantine.try_lock() {
                Ok(q) => record(self.ensure_locked(s, q)),
                Err(TryLockError::Poisoned(p)) => record(self.ensure_locked(s, p.into_inner())),
                Err(TryLockError::WouldBlock) => busy.push(s),
            }
        }
        for s in busy {
            record(self.ensure_shard(s));
        }
        skipped
    }

    /// Forward-strand window `[start, end)` of global reference `rid` into
    /// `out` (cleared and refilled, bounds clamped to the sequence),
    /// loading the owning shard if needed.
    pub fn ref_window_into(
        &self,
        rid: u32,
        start: usize,
        end: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), ShardUnavailable> {
        let s = self.shard_of(rid);
        let idx = self.ensure_shard(s)?;
        idx.ref_window_into(rid - self.manifest.shards[s].rid_start, start, end, out);
        Ok(())
    }

    /// `out.len()` forward-strand bases of global reference `rid` from
    /// `start` into `out`, loading the owning shard if needed (see
    /// [`MinimizerIndex::ref_window_into_slice`]).
    ///
    /// # Panics
    /// If the window runs past the end of the sequence.
    pub fn ref_window_into_slice(
        &self,
        rid: u32,
        start: usize,
        out: &mut [u8],
    ) -> Result<(), ShardUnavailable> {
        let s = self.shard_of(rid);
        let idx = self.ensure_shard(s)?;
        idx.ref_window_into_slice(rid - self.manifest.shards[s].rid_start, start, out);
        Ok(())
    }

    /// [`ShardedIndex::ref_window_into`] into a fresh vector.
    pub fn ref_window(
        &self,
        rid: u32,
        start: usize,
        end: usize,
    ) -> Result<Vec<u8>, ShardUnavailable> {
        let mut out = Vec::new();
        self.ref_window_into(rid, start, end, &mut out)?;
        Ok(out)
    }
}

/// What seeding one read needs besides the anchors it returns: the
/// sketch's block buffers, the minimizers, the touched mask, the
/// (minimizer, shard) lookups and their hits. One set per thread, reused
/// read after read.
#[derive(Default)]
struct SeedBufs {
    sketch: SketchBufs,
    ms: Vec<Minimizer>,
    touched: Vec<u64>,
    lookups: Vec<(u32, u32)>,
    hits: Vec<(u32, u32, BucketRef)>,
}

thread_local! {
    static SEED_BUFS: RefCell<SeedBufs> = RefCell::new(SeedBufs::default());
}

/// The indices of the set bits of a little-endian bitmask, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let mut rest = w;
        std::iter::from_fn(move || {
            let bit = rest.trailing_zeros() as usize;
            rest &= rest.wrapping_sub(1);
            (bit < 64).then_some(i * 64 + bit)
        })
    })
}

/// The byte to flip for an injected `CorruptSection(s)` fault: the first
/// byte of the section, or byte 0 if the file is already damaged.
fn injected_flip_offset(bytes: &[u8], section: usize) -> usize {
    container_section_ranges(bytes).map_or(0, |r| r[section.min(3)].0 as usize)
}

fn open_map(path: &Path) -> Result<Mmap, IndexError> {
    Mmap::open(path).map_err(|e| IndexError::Open {
        path: path.to_path_buf(),
        source: e,
    })
}

// ---------------------------------------------------------------------------
// The benchmark harness's names for the one index (ROADMAP item 7 deletes
// both once `benchmark/src/trace.rs` stops naming them)
// ---------------------------------------------------------------------------

/// An index borrowed for a `Mapper`.
pub type IndexRef<'a> = &'a ShardedIndex;

/// An opened index. Only `Sharded` is ever built: `Flat` is uninhabited,
/// kept so a two-arm `match` over this type still compiles.
#[derive(Debug)]
pub enum AnyIndex {
    Flat(std::convert::Infallible),
    Sharded(ShardedIndex),
}

impl AnyIndex {
    /// [`ShardedIndex::open`].
    pub fn open_mmap(path: &Path, opts: ShardOpenOpts) -> Result<Self, IndexError> {
        ShardedIndex::open(path, opts).map(AnyIndex::Sharded)
    }

    pub fn as_index_ref(&self) -> IndexRef<'_> {
        match self {
            AnyIndex::Flat(never) => match *never {},
            AnyIndex::Sharded(s) => s,
        }
    }
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

    fn multi_chrom(n: usize, len: usize, seed: u64) -> Vec<SeqRecord> {
        (0..n)
            .map(|i| {
                SeqRecord::new(
                    format!("chr{}", i + 1),
                    nt4_decode(&random_genome(len, seed + i as u64)),
                )
            })
            .collect()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mmm-shard-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn partition_is_contiguous_and_balanced() {
        let lens = [10usize, 20, 30, 40, 50, 60, 70, 80];
        for n in 1..=10 {
            let cuts = partition(&lens, n);
            assert_eq!(cuts.len(), n.min(lens.len()));
            let mut next = 0;
            for &(s, c) in &cuts {
                assert_eq!(s, next);
                assert!(c >= 1);
                next += c;
            }
            assert_eq!(next, lens.len());
        }
        assert_eq!(partition(&[], 4), vec![(0, 0)]);
        // 4 equal seqs over 4 shards: exactly one each.
        assert_eq!(
            partition(&[5, 5, 5, 5], 4),
            vec![(0, 1), (1, 1), (2, 1), (3, 1)]
        );
    }

    /// A shard's own two-probe filter as it stood before the filters were
    /// sliced together: ~10 bits a key, a power of two of at least 64
    /// bits, and a hash is in it when both of its masked probe bits are
    /// set.
    struct ModelFilter {
        words: Vec<u64>,
    }

    impl ModelFilter {
        fn build(hashes: &[u64]) -> Self {
            let bits = (hashes.len() * 10).next_power_of_two().max(64) as u64;
            let mut words = vec![0u64; (bits / 64) as usize];
            for &h in hashes {
                for p in probe_hashes(h) {
                    let bit = p % bits;
                    words[(bit / 64) as usize] |= 1 << (bit % 64);
                }
            }
            ModelFilter { words }
        }

        fn contains(&self, h: u64) -> bool {
            let bits = self.words.len() as u64 * 64;
            probe_hashes(h).iter().all(|&p| {
                let bit = p % bits;
                self.words[(bit / 64) as usize] >> (bit % 64) & 1 == 1
            })
        }
    }

    fn minimizer(hash: u64) -> Minimizer {
        Minimizer {
            hash,
            pos: 0,
            rev: false,
            span: 15,
        }
    }

    /// The sliced filter answers every probe as each shard's own filter
    /// does, bit for bit: at shard counts that fill a position, leave dead
    /// bits in it (3, 5, 63) or spill into a second word (65), with shard
    /// sizes spread so that the shards' own filters differ in size, for
    /// every indexed hash and 3 000 fresh ones. The filter is the same at
    /// any build thread count and passes the manifest's checks.
    #[test]
    fn sliced_rows_answer_like_each_shard_filter() {
        let mut state = 0x51ED_u64;
        let mut next = move || {
            state = splitmix64(state);
            state
        };
        for shards in [1usize, 2, 3, 4, 5, 63, 64, 65] {
            let keys: Vec<Vec<u64>> = (0..shards)
                .map(|s| (0..5 + (s * 389 + 200) % 1_500).map(|_| next()).collect())
                .collect();
            let models: Vec<ModelFilter> = keys.iter().map(|k| ModelFilter::build(k)).collect();
            let sizes: std::collections::BTreeSet<usize> =
                models.iter().map(|m| m.words.len()).collect();
            assert!(shards == 1 || sizes.len() > 1, "{shards} shards: {sizes:?}");
            let bits: Vec<Vec<u64>> = keys.iter().map(|k| shard_bits(k.iter().copied())).collect();
            let filter = ShardFilter::build(&bits, 1);
            assert_eq!(filter, ShardFilter::build(&bits, 3), "{shards} shards");
            assert_eq!(filter.pos_bits(), position_bits(shards));
            let parsed = ShardFilter::from_parts(
                shards,
                filter.pos_bits(),
                filter.log2_positions(),
                filter.words().to_vec(),
            );
            assert_eq!(parsed.as_ref(), Ok(&filter), "{shards} shards");

            let mut hashes = keys.concat();
            hashes.extend((0..3_000).map(|_| next()));
            let ms: Vec<Minimizer> = hashes.iter().map(|&h| minimizer(h)).collect();
            let mut touched = vec![0u64; shards.div_ceil(64)];
            let mut lookups = Vec::new();
            filter.probe(&ms, &mut touched, &mut lookups);
            let mut want = Vec::new();
            let mut want_touched = vec![0u64; touched.len()];
            for (i, &h) in hashes.iter().enumerate() {
                for (s, model) in models.iter().enumerate() {
                    if model.contains(h) {
                        want.push((i as u32, s as u32));
                        want_touched[s / 64] |= 1 << (s % 64);
                    }
                }
            }
            assert!(lookups == want, "{shards} shards: rows differ");
            assert_eq!(touched, want_touched, "{shards} shards");
            // Every key is in its own shard's filter; fresh hashes mostly
            // in none.
            assert!(lookups.len() >= keys.concat().len(), "{shards} shards");
        }
    }

    /// A manifest's filter is refused unless its geometry is the one its
    /// shard count gives and no bit stands for a shard that does not exist.
    #[test]
    fn filter_geometry_is_checked() {
        let bits: Vec<Vec<u64>> = (0..3u32)
            .map(|s| shard_bits((0..40 * (s + 1)).map(|i| splitmix64(u64::from(i)))))
            .collect();
        let f = ShardFilter::build(&bits, 1);
        let parts = |pos_bits: u64, log2: u32, words: Vec<u64>| {
            ShardFilter::from_parts(3, pos_bits, log2, words).unwrap_err()
        };
        let (p, l, w) = (f.pos_bits(), f.log2_positions(), f.words().to_vec());
        assert_eq!(p, 4);
        assert!(parts(2, l, w.clone()).contains("need 4"));
        assert!(parts(8, l - 1, w.clone()).contains("need 4"));
        assert!(parts(p, l + 1, w.clone()).contains("words"));
        assert!(parts(p, l - 1, w.clone()).contains("words"));
        assert!(parts(p, 5, w[..w.len() / 2].to_vec()).contains("outside"));
        assert!(parts(p, 63, w.clone()).contains("outside"));
        // Bit 3 of a position would be a fourth shard.
        let mut dead = w.clone();
        dead[w.len() - 1] |= 1 << 63;
        assert!(parts(p, l, dead).contains("past the last"));
        // Above 64 shards the spare bits are in a row's last word.
        let f = ShardFilter::build(&vec![shard_bits((0..10u32).map(u64::from)); 65], 1);
        let mut dead = f.words().to_vec();
        dead[1] |= 1 << 1;
        let e = ShardFilter::from_parts(65, 128, f.log2_positions(), dead).unwrap_err();
        assert!(e.contains("past the last"), "{e}");
        // No shards: no bit may be set at all.
        assert!(ShardFilter::from_parts(0, 1, 6, vec![0]).is_ok());
        assert!(ShardFilter::from_parts(0, 1, 6, vec![1]).is_err());
    }

    #[test]
    fn manifest_round_trip_and_torn_tail() {
        let m = ShardManifest {
            k: 15,
            w: 10,
            hpc: false,
            max_occ: 77,
            seq_names: vec!["chr1".into(), "chr2".into(), "chr3".into()],
            seq_lens: vec![100, 200, 300],
            shards: vec![
                ShardMeta {
                    path: "x.mmx.s000".into(),
                    rid_start: 0,
                    rid_count: 2,
                    file_len: 999,
                    dir_hash: 0xABCD,
                },
                ShardMeta {
                    path: "x.mmx.s001".into(),
                    rid_start: 2,
                    rid_count: 1,
                    file_len: 555,
                    dir_hash: 0x1234,
                },
            ],
            filter: Some(ShardFilter::build(
                &[
                    shard_bits([1, 2, 3].into_iter()),
                    shard_bits([9].into_iter()),
                ],
                1,
            )),
        };
        let bytes = serialize_manifest(&m);
        let back = parse_manifest(&bytes).unwrap();
        assert_eq!(back.k, 15);
        assert_eq!(back.max_occ, 77);
        assert_eq!(back.seq_names, m.seq_names);
        assert_eq!(back.shards.len(), 2);
        assert_eq!(back.shards[1].rid_start, 2);
        assert_eq!(back.filter, m.filter);
        assert_eq!(back.shards[1].dir_hash, 0x1234);

        // Torn tail: typed corruption, caught by the declared length.
        let e = parse_manifest(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(e.is_corrupt(), "{e}");
        assert!(e.to_string().contains("torn"), "{e}");

        // Payload flip: typed checksum error naming the manifest.
        let mut bad = bytes.clone();
        bad[20] ^= 1;
        let e = parse_manifest(&bad).unwrap_err();
        assert!(
            matches!(
                e,
                IndexError::Checksum {
                    section: "manifest",
                    ..
                }
            ),
            "{e}"
        );

        // Anything but the manifest magic is refused by name.
        let mut other = bytes.clone();
        other[3] = b'S';
        let e = parse_manifest(&other).unwrap_err();
        assert!(e.to_string().contains("bad manifest magic"), "{e}");

        // Sketch parameters the sketcher would refuse are refused here,
        // before a query reaches it.
        for (k, w) in [(3, 10), (29, 10), (15, 0), (15, 256)] {
            let bad = ShardManifest { k, w, ..m.clone() };
            let e = parse_manifest(&serialize_manifest(&bad)).unwrap_err();
            assert!(e.to_string().contains("sketch parameters"), "{e}");
        }
    }

    #[test]
    fn manifest_rejects_escaping_shard_paths() {
        let mut m = ShardManifest {
            k: 15,
            w: 10,
            hpc: false,
            max_occ: 1,
            seq_names: vec!["c".into()],
            seq_lens: vec![10],
            shards: vec![ShardMeta {
                path: "../evil".into(),
                rid_start: 0,
                rid_count: 1,
                file_len: 1,
                dir_hash: 0,
            }],
            filter: Some(ShardFilter::build(&[shard_bits(std::iter::empty())], 1)),
        };
        let e = parse_manifest(&serialize_manifest(&m)).unwrap_err();
        assert!(e.to_string().contains("bare file name"), "{e}");
        m.shards[0].path = "sub/dir".into();
        let e = parse_manifest(&serialize_manifest(&m)).unwrap_err();
        assert!(e.to_string().contains("bare file name"), "{e}");
    }

    /// A two-unit repeat planted round-robin over `n` chromosomes of
    /// random background: unit `i` is planted `copies[i]` times, so no
    /// shard of a few chromosomes holds most of a unit's copies. Returns
    /// the references and the two units.
    fn planted(copies: [usize; 2], n: usize, seed: u64) -> (Vec<SeqRecord>, [Vec<u8>; 2]) {
        let mut bg = random_genome(200_000, seed).into_iter();
        let mut take = |n: usize| bg.by_ref().take(n).collect::<Vec<u8>>();
        let units = [take(300), take(300)];
        let mut chroms: Vec<Vec<u8>> = (0..n).map(|_| take(4_000)).collect();
        for (unit, &copies) in units.iter().zip(&copies) {
            for i in 0..copies {
                chroms[i % n].extend_from_slice(unit);
                chroms[i % n].extend(take(1_500));
            }
        }
        let refs = chroms
            .iter()
            .enumerate()
            .map(|(i, g)| SeqRecord::new(format!("chr{}", i + 1), nt4_decode(g)))
            .collect();
        (refs, units)
    }

    /// The merged counts against summing each shard's `(hash, count)`
    /// pairs in a map, as the cutoff was first taken: planted units put
    /// keys in several shards with counts either side of the floor, and the
    /// counts and the cutoff agree at every quantile, thread count and
    /// shard count. Each shard's table given 5 and 30 times over stands in
    /// for more shards than one scan merges (one and two levels of groups),
    /// every count then 5 or 30 times the sum.
    #[test]
    fn merged_counts_sum_the_keys_shards_share() {
        let (refs, _) = planted([12, 37], 4, 5);
        for n_shards in [2, 3, 4] {
            let shards: Vec<MinimizerIndex> = partition(
                &refs.iter().map(SeqRecord::len).collect::<Vec<_>>(),
                n_shards,
            )
            .into_iter()
            .map(|(start, count)| {
                MinimizerIndex::build_table(&refs[start..start + count], &IdxOpts::MAP_ONT, 1)
                    .unwrap()
            })
            .collect();
            let mut model = std::collections::BTreeMap::<u64, u32>::new();
            for idx in &shards {
                for h in idx.hashes() {
                    *model.entry(h).or_default() += idx.hit_count(h) as u32;
                }
            }
            let shared = shards.iter().map(|i| i.num_minimizers()).sum::<usize>() - model.len();
            assert!(shared > 20, "{shared} shared keys");
            let tables: Vec<KeyTable> = shards.iter().map(|idx| idx.key_table()).collect();
            for times in [1, 5, 30] {
                let runs: Vec<KeyTable> = (0..times).flat_map(|_| tables.clone()).collect();
                let mut want: Vec<u32> = model.values().map(|&c| c * times).collect();
                want.sort_unstable();
                for threads in [1, 2, 3, 7] {
                    let what = format!("{n_shards} shards x {times}, {threads} threads");
                    let mut got = merged_counts(&runs, threads);
                    for frac in [1e-4, 2e-4, 1e-3, 3e-3, 1e-2, 0.1] {
                        let cut = occurrence_cutoff(got.clone(), frac);
                        assert_eq!(cut, occurrence_cutoff(want.clone(), frac), "{what}");
                    }
                    got.sort_unstable();
                    assert!(got == want, "{what}: counts differ");
                }
            }
        }
    }

    /// The one seeding path against the reference loop, at every shard
    /// count and origin: an in-memory build and a single-file container
    /// (one shard, no filter) and manifests of 1 to 5 shards (3 and 5 leave
    /// dead bits in each filter position) over five chromosomes. With
    /// `occ_frac` 0.05 the cutoff is its floor, 10, and the two planted
    /// units have minimizers counted exactly 10 (kept) and 11 (filtered)
    /// over the whole reference — each split so that no shard alone
    /// crosses the cutoff, which only a cutoff on the *summed* count gets
    /// right. Forward and reverse-complement queries, under both presets
    /// (map-pb sketches homopolymer-compressed).
    #[test]
    fn seeding_matches_the_reference_loop_at_every_shard_count() {
        const MAX_OCC: usize = 10;
        let d = tmp_dir("gold");
        let open = |p: &Path| ShardedIndex::open(p, ShardOpenOpts::default()).unwrap();
        for (p, preset) in [IdxOpts::MAP_ONT, IdxOpts::MAP_PB].into_iter().enumerate() {
            let opts = IdxOpts {
                occ_frac: 0.05,
                ..preset
            };
            let (refs, units) = planted([MAX_OCC, MAX_OCC + 1], 5, 70 + p as u64);
            let gold = MinimizerIndex::build(&refs, &opts, 1).unwrap();
            let flat = d.join(format!("flat{p}.mmx"));
            crate::serialize::save_index(&gold, &flat).unwrap();
            let mut indexes = vec![
                (0, ShardedIndex::build(&refs, &opts, 1).unwrap()),
                (0, open(&flat)),
            ];
            for n in [1, 2, 3, 4, 5] {
                let path = d.join(format!("sharded{p}x{n}.mmx"));
                build_sharded(&refs, &opts, n, 1, &path).unwrap();
                indexes.push((n, open(&path)));
            }

            // The edge is there: unit 0 has minimizers counted exactly
            // `max_occ`, unit 1 `max_occ + 1`, and only the summed count
            // says so.
            assert_eq!(gold.max_occ as usize, MAX_OCC);
            for (unit, count) in units.iter().zip([MAX_OCC, MAX_OCC + 1]) {
                let ms = crate::index::sketch(unit, opts.k, opts.w, opts.hpc);
                let at: Vec<u64> = ms
                    .iter()
                    .map(|m| m.hash)
                    .filter(|&h| gold.hit_count(h) == count)
                    .collect();
                assert!(at.len() >= 5, "preset {p}: {} keys at {count}", at.len());
                for (n, sh) in indexes.iter().filter(|(n, _)| *n > 1) {
                    for &h in &at {
                        let per_shard: Vec<usize> = (0..*n)
                            .map(|s| sh.ensure_shard(s).unwrap().hit_count(h))
                            .collect();
                        assert_eq!(per_shard.iter().sum::<usize>(), count);
                        assert!(per_shard.iter().all(|&c| c < MAX_OCC), "{per_shard:?}");
                    }
                }
            }
            assert!(gold.collect_anchors(&units[0]).len() >= MAX_OCC * 5);
            assert!(gold.collect_anchors(&units[1]).is_empty());

            let mut queries: Vec<Vec<u8>> = units.to_vec();
            for rid in 0..5u32 {
                let len = gold.seq_len(rid);
                queries.push(gold.ref_window(rid, 2_000, 6_000));
                queries.push(gold.ref_window(rid, len - 3_000, len));
            }
            queries.push([gold.ref_window(0, 0, 1_500), gold.ref_window(3, 500, 2_000)].concat());
            let rc: Vec<Vec<u8>> = queries.iter().map(|q| mmm_seq::revcomp4(q)).collect();
            queries.extend(rc);
            for (n, sh) in &indexes {
                assert_eq!((sh.num_shards(), sh.has_manifest()), ((*n).max(1), *n > 0));
                assert_eq!(
                    (sh.k(), sh.hpc(), sh.max_occ() as usize),
                    (opts.k, opts.hpc, MAX_OCC)
                );
                for (i, q) in queries.iter().enumerate() {
                    let want = gold.collect_anchors(q);
                    assert_eq!(
                        sh.collect_anchors(q).unwrap(),
                        want,
                        "preset {p}, {n} shards, query {i}"
                    );
                }
                assert_eq!(sh.num_seqs(), 5);
                for rid in 0..5u32 {
                    let len = gold.seq_len(rid);
                    assert_eq!(
                        (sh.seq_name(rid), sh.seq_len(rid)),
                        (gold.seq_name(rid), len)
                    );
                    let window = sh.ref_window(rid, 123, len + 9).unwrap();
                    assert_eq!(window, gold.ref_window(rid, 123, len));
                }
            }
            // A shard loaded at open counts its one load.
            assert_eq!(
                (
                    indexes[0].1.health()[0].loads,
                    indexes[1].1.health()[0].loads
                ),
                (1, 1)
            );
        }
        std::fs::remove_dir_all(&d).unwrap();
    }

    struct ScriptHook {
        faults: Mutex<Vec<(usize, u32, ShardLoadFault)>>,
    }

    impl ShardFaultHook for ScriptHook {
        fn on_load(&self, shard: usize, attempt: u32) -> Option<ShardLoadFault> {
            lock(&self.faults)
                .iter()
                .find(|(s, a, _)| *s == shard && *a == attempt)
                .map(|&(_, _, f)| f)
        }
    }

    fn open_with_script(path: &Path, faults: Vec<(usize, u32, ShardLoadFault)>) -> ShardedIndex {
        ShardedIndex::open(
            path,
            ShardOpenOpts {
                hook: Some(Arc::new(ScriptHook {
                    faults: Mutex::new(faults),
                })),
            },
        )
        .unwrap()
    }

    #[test]
    fn transient_fault_retries_then_succeeds() {
        let d = tmp_dir("retry");
        let refs = multi_chrom(2, 10_000, 3);
        build_sharded(&refs, &IdxOpts::MAP_ONT, 2, 1, &d.join("r.mmx")).unwrap();
        let sh = open_with_script(&d.join("r.mmx"), vec![(0, 0, ShardLoadFault::Io)]);
        // Attempt 0 faults, attempt 1 succeeds.
        assert!(sh.ensure_shard(0).is_ok());
        let h = &sh.health()[0];
        assert_eq!((h.loads, h.retries, h.io_faults), (1, 1, 1));
        assert_eq!(h.state, "loaded");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn quarantined_shard_degrades_only_seedless_queries() {
        // The fault-domain contract: losing one shard loses exactly that
        // shard's slice of the reference space. Queries that still seed in
        // healthy shards must survive *byte-identical* to the flat index —
        // even though their minimizers bloom-touch the dead shard at the
        // filter's false-positive rate — and only queries left seedless
        // everywhere degrade.
        let d = tmp_dir("partial");
        let refs = multi_chrom(3, 12_000, 41);
        build_sharded(&refs, &IdxOpts::MAP_ONT, 3, 1, &d.join("r.mmx")).unwrap();
        let flat = MinimizerIndex::build(&refs, &IdxOpts::MAP_ONT, 1).unwrap();
        let sh = open_with_script(&d.join("r.mmx"), vec![(1, 0, ShardLoadFault::Missing)]);

        for rid in [0u32, 2] {
            let q = flat.ref_window(rid, 2_000, 4_000);
            assert_eq!(
                sh.collect_anchors(&q).unwrap(),
                flat.collect_anchors(&q),
                "rid {rid} must be unaffected by shard 1's quarantine"
            );
        }
        let q1 = flat.ref_window(1, 2_000, 4_000);
        let e = sh.collect_anchors(&q1).unwrap_err();
        assert_eq!(e.shard, 1);
        assert_eq!(sh.quarantined(), vec![1]);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn persistent_faults_quarantine_with_reason() {
        let d = tmp_dir("quarantine");
        let refs = multi_chrom(4, 8_000, 13);
        build_sharded(&refs, &IdxOpts::MAP_ONT, 4, 1, &d.join("r.mmx")).unwrap();

        // Missing file: immediate quarantine, no retries.
        let sh = open_with_script(&d.join("r.mmx"), vec![(1, 0, ShardLoadFault::Missing)]);
        let e = sh.ensure_shard(1).unwrap_err();
        assert_eq!(e.shard, 1);
        let h = &sh.health()[1];
        assert_eq!(h.state, "quarantined");
        assert_eq!(h.retries, 0);
        // Second touch fails fast with the same recorded reason.
        assert_eq!(sh.ensure_shard(1).unwrap_err().reason, e.reason);
        // Other shards unaffected.
        assert!(sh.ensure_shard(0).is_ok());
        assert_eq!(sh.quarantined(), vec![1]);

        // Corrupt section: typed checksum reason.
        let sh = open_with_script(
            &d.join("r.mmx"),
            vec![(2, 0, ShardLoadFault::CorruptSection(2))],
        );
        let e = sh.ensure_shard(2).unwrap_err();
        assert!(
            e.reason.contains("checksum mismatch in map"),
            "{}",
            e.reason
        );

        // Torn tail.
        let sh = open_with_script(&d.join("r.mmx"), vec![(3, 0, ShardLoadFault::TornTail)]);
        let e = sh.ensure_shard(3).unwrap_err();
        assert!(
            e.reason.contains("torn") || e.reason.contains("truncated"),
            "{}",
            e.reason
        );

        // Transient faults on every attempt: quarantined after the ladder.
        let sh = open_with_script(
            &d.join("r.mmx"),
            (0..SHARD_LOAD_ATTEMPTS)
                .map(|a| (0usize, a, ShardLoadFault::Io))
                .collect(),
        );
        let e = sh.ensure_shard(0).unwrap_err();
        assert!(e.reason.contains("transient"), "{}", e.reason);
        let h = &sh.health()[0];
        assert_eq!(h.retries as u32, SHARD_LOAD_ATTEMPTS - 1);
        assert_eq!(h.io_faults as u32, SHARD_LOAD_ATTEMPTS);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn slow_io_delays_but_loads() {
        let d = tmp_dir("slow");
        let refs = multi_chrom(1, 6_000, 5);
        build_sharded(&refs, &IdxOpts::MAP_ONT, 1, 1, &d.join("r.mmx")).unwrap();
        let sh = open_with_script(
            &d.join("r.mmx"),
            vec![(0, 0, ShardLoadFault::SlowIo(Duration::from_millis(5)))],
        );
        let t = std::time::Instant::now();
        assert!(sh.ensure_shard(0).is_ok());
        assert!(t.elapsed() >= Duration::from_millis(5));
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn manifest_binds_shard_generation() {
        // Rebuilding only a shard file (stale manifest) must be detected
        // even though the new file is internally self-consistent.
        let d = tmp_dir("generation");
        let refs = multi_chrom(2, 9_000, 31);
        build_sharded(&refs, &IdxOpts::MAP_ONT, 2, 1, &d.join("r.mmx")).unwrap();
        // Overwrite shard 1 with a *valid* container built from different
        // content but the same geometry.
        let other = multi_chrom(2, 9_000, 32);
        let idx = MinimizerIndex::build(&other[1..2], &IdxOpts::MAP_ONT, 1).unwrap();
        let (staged, ..) = stage_container(&idx, 1, &d.join("r.mmx.s001")).unwrap();
        staged.publish().unwrap();
        let sh = ShardedIndex::open(&d.join("r.mmx"), ShardOpenOpts::default()).unwrap();
        assert!(sh.ensure_shard(0).is_ok());
        let e = sh.ensure_shard(1).unwrap_err();
        assert!(e.reason.contains("generation"), "{}", e.reason);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn empty_reference_set_builds_and_opens() {
        let d = tmp_dir("empty");
        let r = build_sharded(&[], &IdxOpts::MAP_ONT, 4, 1, &d.join("e.mmx")).unwrap();
        assert_eq!(r.n_shards, 1);
        assert_eq!(r.n_seqs, 0);
        let sh = ShardedIndex::open(&d.join("e.mmx"), ShardOpenOpts::default()).unwrap();
        assert_eq!(sh.num_seqs(), 0);
        assert!(sh
            .collect_anchors(&[0, 1, 2, 3, 0, 1, 2, 3])
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(&d).unwrap();
    }
}
