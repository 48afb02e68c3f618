//! Sharded mmap'd index: lazy first-touch loading, per-shard fault
//! domains, graceful degradation (DESIGN.md §15) — and
//! [`AnyIndex::open_mmap`], the one way a path becomes an index.
//!
//! The paper's KNL result makes beyond-RAM references servable by letting
//! the index page in on demand (§4.4.2). This module generalizes that into
//! *target-range shards*: the reference set is split into contiguous rid
//! ranges, each built into its own `MMXS` container file, with a small
//! `MMX\x03` manifest tying the generation together (both byte layouts
//! live in [`crate::serialize`]; a single-file index is one such container
//! with no manifest). Every byte of every file sits behind an XXH64
//! checksum that is verified on first touch, so a torn write, a truncated
//! file, or a flipped bit is detected *before* any value read from it
//! reaches a kernel. A loaded shard is a view over its mapping, not a copy:
//! what stays resident is the page cache's decision, so there is no
//! residency budget, no eviction and no reload here — a shard is loaded
//! once and stays loaded.
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
//! to the unsharded run, which [`ShardedIndex::collect_anchors`]
//! guarantees by construction: it sums per-shard hit counts against the
//! *global* occurrence cutoff and emits anchors through the same
//! `crate::index::anchor_from_hit` geometry as the flat path, iterating
//! shards in ascending rid order.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::Duration;

use mmm_chain::Anchor;
use mmm_io::{write_atomic, Mmap};
use mmm_seq::SeqRecord;

use crate::error::IndexError;
use crate::index::{anchor_from_hit, check_hit_budget, occurrence_cutoff, sketch};
use crate::index::{IdxOpts, MinimizerIndex};
use crate::minimizer::Minimizer;
use crate::postings::BucketRef;
use crate::serialize::{
    container_section_ranges, parse_manifest, serialize_manifest, verify_checksums,
    write_container, VerifiedMap, CONTAINER_IMAGE_OFF, MANIFEST_MAGIC,
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
// Per-shard minimizer Bloom filter
// ---------------------------------------------------------------------------

#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two-probe Bloom filter over a shard's minimizer hashes (~10 bits/key,
/// power-of-two sized). "Definitely not in this shard" is sound, so a read
/// only *touches* — and can only be degraded by — shards that may hold one
/// of its minimizers; false positives merely cost a wasted probe and never
/// affect output identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Bloom {
    words: Vec<u64>,
}

impl Bloom {
    pub(crate) fn build(hashes: impl ExactSizeIterator<Item = u64>) -> Self {
        let bits = (hashes.len().saturating_mul(10))
            .next_power_of_two()
            .max(64);
        let mut words = vec![0u64; bits / 64];
        for h in hashes {
            for bit in Self::probes(h, bits as u64) {
                words[(bit / 64) as usize] |= 1u64 << (bit % 64);
            }
        }
        Bloom { words }
    }

    pub(crate) fn from_words(words: Vec<u64>) -> Self {
        Bloom { words }
    }

    /// The two probe hashes of minimizer hash `h`, before masking to a
    /// filter's size: every filter probes the same two, so a caller testing
    /// one `h` against many filters computes them once.
    #[inline]
    pub(crate) fn probe_hashes(h: u64) -> [u64; 2] {
        [splitmix64(h), splitmix64(h ^ 0xC2B2_AE3D_27D4_EB4F)]
    }

    /// The two bits `h` sets in a filter of `bits` (a power of two) bits.
    #[inline]
    fn probes(h: u64, bits: u64) -> [u64; 2] {
        Self::probe_hashes(h).map(|p| p & (bits - 1))
    }

    /// This filter as the seeding pass reads it: its words and the mask
    /// that cuts a probe hash to a bit of them.
    pub(crate) fn view(&self) -> BloomView<'_> {
        const EMPTY: [u64; 1] = [0];
        match self.words.len() {
            // A filter with no words holds nothing: one zero word answers
            // that without a branch per probe.
            0 => BloomView {
                words: &EMPTY,
                mask: 63,
            },
            n => BloomView {
                words: &self.words,
                mask: (n as u64 * 64) - 1,
            },
        }
    }

    /// Whether `h` may be in the filter: the one-filter form of the
    /// seeding pass's probe.
    #[cfg(test)]
    fn contains(&self, h: u64) -> bool {
        self.view().test(Self::probe_hashes(h)) != 0
    }

    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }
}

/// One filter's words and probe mask, borrowed for a read's probe pass.
#[derive(Clone, Copy)]
pub(crate) struct BloomView<'a> {
    words: &'a [u64],
    /// `bits − 1` over the words' bits. A parsed manifest's word count need
    /// not be a power of two; the mask keeps every probe inside the words
    /// all the same.
    mask: u64,
}

impl BloomView<'_> {
    /// 1 if both bits of `probes` ([`Bloom::probe_hashes`]) are set, else
    /// 0: both words are read and ANDed, with no early exit to mispredict.
    #[inline(always)]
    pub(crate) fn test(self, probes: [u64; 2]) -> u64 {
        let [a, b] = probes.map(|p| p & self.mask);
        let word = |bit: u64| self.words[(bit / 64) as usize] >> (bit % 64);
        word(a) & word(b) & 1
    }
}

// ---------------------------------------------------------------------------
// Manifest (MMX\x03)
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
    pub(crate) bloom: Bloom,
}

/// The v3 manifest: global sketching parameters, the full reference
/// catalog (names and lengths — available without touching any shard), and
/// the shard table.
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
/// ranges. Returns `(start, count)` per shard.
fn partition(lens: &[usize], n: usize) -> Vec<(usize, usize)> {
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

/// Build a sharded index over `refs`: split into `n_shards` contiguous
/// target ranges, build each range as its own index, compute the *global*
/// occurrence cutoff from the merged per-minimizer counts, then publish
/// shard files and finally the manifest — every file atomically, manifest
/// last, so a crash at any point leaves either the previous generation or
/// the complete new one, never a parseable partial.
pub fn build_sharded(
    refs: &[SeqRecord],
    opts: &IdxOpts,
    n_shards: usize,
    manifest_path: &Path,
) -> Result<ShardBuildReport, IndexError> {
    check_hit_budget(refs.len(), refs.iter().map(|r| (r.name.as_str(), r.len())))?;
    let lens: Vec<usize> = refs.iter().map(|r| r.len()).collect();
    let cuts = partition(&lens, n_shards.max(1));

    let mut shards: Vec<MinimizerIndex> = Vec::with_capacity(cuts.len());
    for &(start, count) in &cuts {
        shards.push(MinimizerIndex::build(&refs[start..start + count], opts)?);
    }

    // Global occurrence cutoff: merge (hash, count) across shards and sum
    // counts of minimizers that appear in several shards. The resulting
    // multiset of per-key counts is exactly what a flat build would feed
    // occurrence_cutoff, so the cutoff — and therefore seeding — matches.
    let mut pairs: Vec<(u64, u32)> = Vec::new();
    for idx in &shards {
        pairs.extend(idx.hashes().map(|h| (h, idx.hit_count(h) as u32)));
    }
    pairs.sort_unstable();
    let mut counts: Vec<u32> = Vec::new();
    let mut i = 0;
    while i < pairs.len() {
        let h = pairs[i].0;
        let mut c = 0u32;
        while i < pairs.len() && pairs[i].0 == h {
            c += pairs[i].1;
            i += 1;
        }
        counts.push(c);
    }
    let max_occ = occurrence_cutoff(counts.into_iter(), opts.occ_frac);
    for idx in &mut shards {
        idx.max_occ = max_occ;
    }

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
    let dir = manifest_path
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_default();

    let mut metas = Vec::with_capacity(shards.len());
    let mut shard_files = Vec::with_capacity(shards.len());
    let mut shard_bytes = Vec::with_capacity(shards.len());
    for (si, (idx, &(start, count))) in shards.iter().zip(&cuts).enumerate() {
        let rel = format!("{manifest_name}.s{si:03}");
        let path = if dir.as_os_str().is_empty() {
            PathBuf::from(&rel)
        } else {
            dir.join(&rel)
        };
        let (file_len, dir_hash) =
            write_container(idx, start as u32, &path).map_err(|e| write_err(&path, e))?;
        metas.push(ShardMeta {
            path: rel,
            rid_start: start as u32,
            rid_count: count as u32,
            file_len,
            dir_hash,
            bloom: Bloom::build(idx.hashes()),
        });
        shard_files.push(path);
        shard_bytes.push(file_len);
    }

    let manifest = ShardManifest {
        k: opts.k,
        w: opts.w,
        hpc: opts.hpc,
        max_occ,
        seq_names: refs.iter().map(|r| r.name.clone()).collect(),
        seq_lens: refs.iter().map(|r| r.len() as u64).collect(),
        shards: metas,
    };
    let bytes = serialize_manifest(&manifest);
    write_atomic(manifest_path, &bytes).map_err(|e| write_err(manifest_path, e))?;
    Ok(ShardBuildReport {
        n_shards: cuts.len(),
        n_seqs: refs.len(),
        max_occ,
        shard_files,
        shard_bytes,
        manifest_bytes: bytes.len() as u64,
    })
}

// ---------------------------------------------------------------------------
// Fault injection hook
// ---------------------------------------------------------------------------

/// One fault injected into a shard load attempt — the chaos-suite side of
/// the `FaultPlan` shard grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardLoadFault {
    /// Fail the attempt with a transient I/O error (retried with backoff).
    Io,
    /// Delay the attempt, then load normally.
    SlowIo(Duration),
    /// The shard file is gone (persistent: quarantines immediately).
    Missing,
    /// Flip a byte inside section `0..4` before validation.
    CorruptSection(usize),
    /// Truncate the mapped bytes, as a torn final write would.
    TornTail,
}

/// Injection point consulted once per load attempt. `None` means load
/// normally. Implemented by the `FaultPlan` bridge in the mapper crate and
/// by chaos tests.
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

#[derive(Debug, Default)]
struct ShardCounters {
    loads: AtomicU64,
    retries: AtomicU64,
    io_faults: AtomicU64,
}

/// Point-in-time health of one shard, for `--shard-report` style output
/// and counter reconciliation in the chaos suite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardHealth {
    pub shard: usize,
    /// Successful loads (0 or 1: a loaded shard stays loaded).
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

enum Slot {
    Unloaded,
    Loaded(Arc<MinimizerIndex>),
    Quarantined(String),
}

/// Options for [`ShardedIndex::open_with`].
#[derive(Clone, Default)]
pub struct ShardOpenOpts {
    /// Chaos-suite fault injection.
    pub hook: Option<Arc<dyn ShardFaultHook>>,
}

/// The sharded index reader: a manifest plus lazily mmap-loaded shards,
/// each an independent fault domain.
pub struct ShardedIndex {
    manifest: ShardManifest,
    dir: PathBuf,
    slots: Vec<Mutex<Slot>>,
    counters: Vec<ShardCounters>,
    opts: ShardOpenOpts,
}

impl fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("n_shards", &self.manifest.shards.len())
            .field("n_seqs", &self.manifest.num_seqs())
            .finish()
    }
}

impl ShardedIndex {
    /// Open a v3 manifest with default options (no fault hook).
    pub fn open(path: &Path) -> Result<Self, IndexError> {
        Self::open_with(path, ShardOpenOpts::default())
    }

    /// Open a v3 manifest. Only the manifest is read (and fully checksum-
    /// verified); shard files load on first touch.
    pub fn open_with(path: &Path, opts: ShardOpenOpts) -> Result<Self, IndexError> {
        let map = open_map(path)?;
        Ok(Self::from_manifest(parse_manifest(&map)?, path, opts))
    }

    fn from_manifest(manifest: ShardManifest, path: &Path, opts: ShardOpenOpts) -> Self {
        let n = manifest.shards.len();
        ShardedIndex {
            manifest,
            dir: path.parent().map(Path::to_path_buf).unwrap_or_default(),
            slots: (0..n).map(|_| Mutex::new(Slot::Unloaded)).collect(),
            counters: (0..n).map(|_| ShardCounters::default()).collect(),
            opts,
        }
    }

    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
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

    /// Bytes of index image across all shards, from the manifest (no shard
    /// is touched): each file is its image behind a 120-byte directory.
    pub fn image_len(&self) -> usize {
        let images = self.manifest.shards.iter();
        images
            .map(|s| (s.file_len as usize).saturating_sub(CONTAINER_IMAGE_OFF))
            .sum()
    }

    /// Per-shard health snapshot.
    pub fn health(&self) -> Vec<ShardHealth> {
        (0..self.num_shards())
            .map(|i| {
                let (state, reason) = match &*lock(&self.slots[i]) {
                    Slot::Unloaded => ("unloaded", None),
                    Slot::Loaded(_) => ("loaded", None),
                    Slot::Quarantined(r) => ("quarantined", Some(r.clone())),
                };
                let c = &self.counters[i];
                ShardHealth {
                    shard: i,
                    loads: c.loads.load(Ordering::Relaxed),
                    retries: c.retries.load(Ordering::Relaxed),
                    io_faults: c.io_faults.load(Ordering::Relaxed),
                    state,
                    reason,
                }
            })
            .collect()
    }

    /// Shards currently quarantined.
    pub fn quarantined(&self) -> Vec<usize> {
        (0..self.num_shards())
            .filter(|&i| matches!(&*lock(&self.slots[i]), Slot::Quarantined(_)))
            .collect()
    }

    /// Get shard `shard` loaded, running the fault ladder if needed:
    /// transient errors retry with deterministic backoff; persistent ones
    /// (missing file, any checksum or manifest mismatch) quarantine the
    /// shard so later reads fail fast with the recorded reason. Waits while
    /// another thread holds the slot, e.g. while it loads the shard.
    pub fn ensure_shard(&self, shard: usize) -> Result<Arc<MinimizerIndex>, ShardUnavailable> {
        self.ensure_locked(shard, lock(&self.slots[shard]))
    }

    /// [`ShardedIndex::ensure_shard`] once the caller holds the slot.
    fn ensure_locked(
        &self,
        shard: usize,
        mut slot: MutexGuard<'_, Slot>,
    ) -> Result<Arc<MinimizerIndex>, ShardUnavailable> {
        match &*slot {
            Slot::Loaded(a) => return Ok(a.clone()),
            Slot::Quarantined(r) => {
                return Err(ShardUnavailable {
                    shard,
                    reason: r.clone(),
                })
            }
            Slot::Unloaded => {}
        }
        let meta = &self.manifest.shards[shard];
        let path = if self.dir.as_os_str().is_empty() {
            PathBuf::from(&meta.path)
        } else {
            self.dir.join(&meta.path)
        };
        let mut last: Option<IndexError> = None;
        for attempt in 0..SHARD_LOAD_ATTEMPTS {
            if attempt > 0 {
                self.counters[shard].retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff(attempt));
            }
            let fault = self
                .opts
                .hook
                .as_ref()
                .and_then(|h| h.on_load(shard, attempt));
            match self.load_once(shard, &path, meta, fault) {
                Ok(idx) => {
                    let arc = Arc::new(idx);
                    *slot = Slot::Loaded(arc.clone());
                    self.counters[shard].loads.fetch_add(1, Ordering::Relaxed);
                    return Ok(arc);
                }
                Err(e) if e.is_transient() => {
                    self.counters[shard]
                        .io_faults
                        .fetch_add(1, Ordering::Relaxed);
                    last = Some(e);
                }
                Err(e) => {
                    let reason = e.to_string();
                    *slot = Slot::Quarantined(reason.clone());
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
        *slot = Slot::Quarantined(reason.clone());
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

    /// Collect chaining anchors for a query across all shards —
    /// byte-identical to [`MinimizerIndex::collect_anchors`] on the same
    /// reference set while every consulted shard is loadable.
    ///
    /// Identity holds because (1) queries are sketched with the shared
    /// `sketch` function, (2) the repeat filter compares the *summed*
    /// per-shard counts against the global `max_occ` from the manifest,
    /// (3) shards are visited in ascending rid order, matching the flat
    /// index's rid-sorted posting lists, and (4) anchor geometry goes
    /// through the one shared `anchor_from_hit`.
    ///
    /// Two passes over the read's minimizers: a branch-free probe of every
    /// shard filter gives each minimizer its bloom-positive shards as a
    /// bitmask, whose union is loaded (`touch`, free slots first); then the
    /// (minimizer, shard) lookups are resolved in one tight loop and the
    /// hits of each minimizer that passes the cutoff decode shard by shard.
    ///
    /// Degraded coverage: an unavailable shard (quarantined, or faulting
    /// right now) is *skipped*, not fatal — losing a shard loses exactly
    /// that shard's slice of the reference space. The read becomes an
    /// `Err` only when the skip plausibly cost it its mapping: no anchors
    /// survived and at least one bloom-positive shard was unavailable.
    /// This containment matters because the per-shard blooms are sized
    /// for pruning, not identity (a few percent of *foreign* minimizers
    /// probe positive); if a bloom touch alone degraded the read, a long
    /// read's hundreds of minimizers would tie every read to every shard
    /// and collapse all fault domains into one. The trade: a minimizer
    /// shared with a dead shard sees a smaller summed count, so a repeat
    /// right at the `max_occ` boundary can seed where the flat index
    /// would have filtered it — surviving reads stay byte-identical
    /// whenever their minimizers don't co-occur in the dead shard.
    pub fn collect_anchors(&self, query: &[u8]) -> Result<Vec<Anchor>, ShardUnavailable> {
        let m = &self.manifest;
        let ms = sketch(query, m.k, m.w, m.hpc);
        let row = m.shards.len().div_ceil(64).max(1);
        let cands = self.bloom_rows(&ms, row);
        let mut touched = vec![0u64; row];
        for bits in cands.chunks_exact(row) {
            for (t, b) in touched.iter_mut().zip(bits) {
                *t |= b;
            }
        }
        let (loaded, skipped) = self.touch(&touched);
        // The (minimizer, shard) lookups in minimizer then shard order,
        // listed first and then resolved in one tight loop: the probes are
        // independent, so their cache misses overlap. Only hits are kept,
        // and the bucket a count came from is the bucket streamed.
        let mut wanted: Vec<(u32, u32)> = Vec::new();
        for (i, bits) in cands.chunks_exact(row).enumerate() {
            for s in set_bits(bits).filter(|&s| loaded[s].is_some()) {
                wanted.push((i as u32, s as u32));
            }
        }
        let mut found: Vec<(u32, &MinimizerIndex, u32, BucketRef)> =
            Vec::with_capacity(wanted.len());
        for &(i, s) in &wanted {
            let Some(idx) = loaded[s as usize].as_deref() else {
                continue;
            };
            if let Some(r) = idx.lookup(ms[i as usize].hash) {
                found.push((i, idx, m.shards[s as usize].rid_start, r));
            }
        }
        let qlen = query.len() as u32;
        let mut anchors = Vec::new();
        for group in found.chunk_by(|a, b| a.0 == b.0) {
            let total: u64 = group.iter().map(|&(_, _, _, r)| r.count()).sum();
            if total > u64::from(m.max_occ) {
                continue;
            }
            let mz = &ms[group[0].0 as usize];
            for &(_, idx, rid_start, r) in group {
                for h in idx.cursor(r) {
                    anchors.push(anchor_from_hit(mz, h, qlen, m.k, m.hpc, rid_start));
                }
            }
        }
        if anchors.is_empty() {
            if let Some(e) = skipped {
                return Err(e);
            }
        }
        Ok(anchors)
    }

    /// Row `i` of the result is minimizer `i`'s bloom-positive shards as a
    /// bitmask, `row` words wide. Each minimizer's two probe hashes are
    /// computed once; then one filter at a time tests all of them, with no
    /// early exit, so the filter's lines stay in cache across the read.
    fn bloom_rows(&self, ms: &[Minimizer], row: usize) -> Vec<u64> {
        let probes: Vec<[u64; 2]> = ms.iter().map(|mz| Bloom::probe_hashes(mz.hash)).collect();
        let mut cands = vec![0u64; ms.len() * row];
        for (s, meta) in self.manifest.shards.iter().enumerate() {
            let view = meta.bloom.view();
            for (&p, bits) in probes.iter().zip(cands.chunks_exact_mut(row)) {
                bits[s / 64] |= view.test(p) << (s % 64);
            }
        }
        cands
    }

    /// Load the shards of the bitmask `touched`. A worker first takes every
    /// slot that is free and loads those still unloaded, so two workers
    /// touching a cold index load different shards; only then does it wait,
    /// in ascending order, on the slots another worker holds. Returns each
    /// shard's index (`None` where unavailable or untouched) and the
    /// lowest-numbered shard that is unavailable.
    fn touch(
        &self,
        touched: &[u64],
    ) -> (Vec<Option<Arc<MinimizerIndex>>>, Option<ShardUnavailable>) {
        let mut loaded: Vec<Option<Arc<MinimizerIndex>>> = vec![None; self.num_shards()];
        let mut skipped: Option<ShardUnavailable> = None;
        let mut record = |s: usize, got: Result<Arc<MinimizerIndex>, ShardUnavailable>| match got {
            Ok(idx) => loaded[s] = Some(idx),
            Err(e) if skipped.as_ref().is_none_or(|p| p.shard > e.shard) => skipped = Some(e),
            Err(_) => {}
        };
        let mut busy = Vec::new();
        for s in set_bits(touched) {
            match self.slots[s].try_lock() {
                Ok(slot) => record(s, self.ensure_locked(s, slot)),
                Err(TryLockError::Poisoned(p)) => record(s, self.ensure_locked(s, p.into_inner())),
                Err(TryLockError::WouldBlock) => busy.push(s),
            }
        }
        for s in busy {
            record(s, self.ensure_shard(s));
        }
        (loaded, skipped)
    }

    /// Forward-strand window of global reference `rid` into `out`
    /// (cleared/refilled, clamped like the flat form), loading the owning
    /// shard if needed.
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

    /// One reference base, or `Ok(None)` past the end.
    pub fn ref_base(&self, rid: u32, pos: usize) -> Result<Option<u8>, ShardUnavailable> {
        let s = self.shard_of(rid);
        let idx = self.ensure_shard(s)?;
        Ok(idx.ref_base(rid - self.manifest.shards[s].rid_start, pos))
    }
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

// ---------------------------------------------------------------------------
// IndexRef / AnyIndex — the one surface the mapper sees
// ---------------------------------------------------------------------------

/// A borrowed view over either index shape. `Copy`, so the mapper can pass
/// it by value; every accessor on the flat arm is infallible and the
/// `Result` is `Ok` by construction.
#[derive(Clone, Copy)]
pub enum IndexRef<'a> {
    Flat(&'a MinimizerIndex),
    Sharded(&'a ShardedIndex),
}

impl<'a> From<&'a MinimizerIndex> for IndexRef<'a> {
    fn from(i: &'a MinimizerIndex) -> Self {
        IndexRef::Flat(i)
    }
}

impl<'a> From<&'a ShardedIndex> for IndexRef<'a> {
    fn from(i: &'a ShardedIndex) -> Self {
        IndexRef::Sharded(i)
    }
}

impl<'a> From<&'a AnyIndex> for IndexRef<'a> {
    fn from(i: &'a AnyIndex) -> Self {
        i.as_index_ref()
    }
}

impl<'a> IndexRef<'a> {
    pub fn k(self) -> usize {
        match self {
            IndexRef::Flat(i) => i.k,
            IndexRef::Sharded(i) => i.k(),
        }
    }

    pub fn w(self) -> usize {
        match self {
            IndexRef::Flat(i) => i.w,
            IndexRef::Sharded(i) => i.w(),
        }
    }

    pub fn hpc(self) -> bool {
        match self {
            IndexRef::Flat(i) => i.hpc,
            IndexRef::Sharded(i) => i.hpc(),
        }
    }

    pub fn max_occ(self) -> u32 {
        match self {
            IndexRef::Flat(i) => i.max_occ,
            IndexRef::Sharded(i) => i.max_occ(),
        }
    }

    pub fn num_seqs(self) -> usize {
        match self {
            IndexRef::Flat(i) => i.num_seqs(),
            IndexRef::Sharded(i) => i.num_seqs(),
        }
    }

    pub fn seq_name(self, rid: u32) -> &'a str {
        match self {
            IndexRef::Flat(i) => i.seq_name(rid),
            IndexRef::Sharded(i) => i.seq_name(rid),
        }
    }

    pub fn seq_len(self, rid: u32) -> usize {
        match self {
            IndexRef::Flat(i) => i.seq_len(rid),
            IndexRef::Sharded(i) => i.seq_len(rid),
        }
    }

    /// A flat index is one fault domain; shard count otherwise.
    pub fn num_shards(self) -> usize {
        match self {
            IndexRef::Flat(_) => 1,
            IndexRef::Sharded(i) => i.num_shards(),
        }
    }

    pub fn collect_anchors(self, query: &[u8]) -> Result<Vec<Anchor>, ShardUnavailable> {
        match self {
            IndexRef::Flat(i) => Ok(i.collect_anchors(query)),
            IndexRef::Sharded(i) => i.collect_anchors(query),
        }
    }

    pub fn ref_window_into(
        self,
        rid: u32,
        start: usize,
        end: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), ShardUnavailable> {
        match self {
            IndexRef::Flat(i) => {
                i.ref_window_into(rid, start, end, out);
                Ok(())
            }
            IndexRef::Sharded(i) => i.ref_window_into(rid, start, end, out),
        }
    }

    pub fn ref_window(
        self,
        rid: u32,
        start: usize,
        end: usize,
    ) -> Result<Vec<u8>, ShardUnavailable> {
        let mut out = Vec::new();
        self.ref_window_into(rid, start, end, &mut out)?;
        Ok(out)
    }

    pub fn ref_base(self, rid: u32, pos: usize) -> Result<Option<u8>, ShardUnavailable> {
        match self {
            IndexRef::Flat(i) => Ok(i.ref_base(rid, pos)),
            IndexRef::Sharded(i) => i.ref_base(rid, pos),
        }
    }

    /// Bytes of index image — the index's size, loaded or not (a sharded
    /// one reads it off the manifest).
    pub fn image_len(self) -> usize {
        match self {
            IndexRef::Flat(i) => i.image_len(),
            IndexRef::Sharded(i) => i.image_len(),
        }
    }
}

/// An owned index of either shape, for callers (the CLI, the serve
/// daemon) that load by path and do not care which format they got.
#[derive(Debug)]
pub enum AnyIndex {
    Flat(MinimizerIndex),
    Sharded(ShardedIndex),
}

impl AnyIndex {
    pub fn as_index_ref(&self) -> IndexRef<'_> {
        match self {
            AnyIndex::Flat(i) => IndexRef::Flat(i),
            AnyIndex::Sharded(i) => IndexRef::Sharded(i),
        }
    }

    /// Open `path` as whichever index file its leading magic says it is: a
    /// single-file container, every byte checksummed and its image then
    /// validated and queried where it is mapped ([`AnyIndex::Flat`]), or a
    /// manifest, opened lazily with `opts` into [`AnyIndex::Sharded`].
    /// Anything else — a bare image, another version, not an index — is
    /// the typed error the checksum pass gives.
    pub fn open_mmap(path: &Path, opts: ShardOpenOpts) -> Result<Self, IndexError> {
        let map = open_map(path)?;
        if map.starts_with(&MANIFEST_MAGIC) {
            let manifest = parse_manifest(&map)?;
            return Ok(AnyIndex::Sharded(ShardedIndex::from_manifest(
                manifest, path, opts,
            )));
        }
        let idx = MinimizerIndex::from_verified(VerifiedMap::verify(map)?)?;
        Ok(AnyIndex::Flat(idx))
    }
}

fn open_map(path: &Path) -> Result<Mmap, IndexError> {
    Mmap::open(path).map_err(|e| IndexError::Open {
        path: path.to_path_buf(),
        source: e,
    })
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

    #[test]
    fn bloom_has_no_false_negatives() {
        let hashes: Vec<u64> = (0..5000u64).map(|i| splitmix64(i * 7 + 3)).collect();
        let b = Bloom::build(hashes.iter().copied());
        for &h in &hashes {
            assert!(b.contains(h));
        }
        // And a usable false-positive rate on fresh keys.
        let fp = (0..10_000u64)
            .map(|i| splitmix64(i.wrapping_mul(0xDEAD_BEEF).wrapping_add(1)))
            .filter(|&h| b.contains(h))
            .count();
        assert!(fp < 1000, "false-positive rate too high: {fp}/10000");
        assert!(!Bloom::build(std::iter::empty()).contains(42));
    }

    /// The one-filter answer as it was written before the probe pass: both
    /// masked bits set, checked one after the other.
    fn contains_model(b: &Bloom, h: u64) -> bool {
        let bits = (b.words().len() * 64) as u64;
        !b.words().is_empty()
            && Bloom::probe_hashes(h).iter().all(|&p| {
                let bit = p & (bits - 1);
                b.words()[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
            })
    }

    /// `collect_anchors` hashes a minimizer once and tests the two probes
    /// against every filter in one pass; each minimizer's bitmask must be
    /// what each shard's filter answers alone.
    #[test]
    fn probe_pass_answers_like_each_filter() {
        let d = tmp_dir("probes");
        let refs = multi_chrom(4, 20_000, 21);
        build_sharded(&refs, &IdxOpts::MAP_ONT, 4, &d.join("r.mmx")).unwrap();
        let sh = ShardedIndex::open(&d.join("r.mmx")).unwrap();
        let blooms: Vec<&Bloom> = sh.manifest().shards.iter().map(|s| &s.bloom).collect();
        assert_eq!(blooms.len(), 4);
        // 5 000 of the shards' own keys (present in one filter, mostly
        // absent from the others), then 5 000 fresh hashes.
        let mut hashes: Vec<u64> = (0..4)
            .flat_map(|s| {
                sh.ensure_shard(s)
                    .unwrap()
                    .hashes()
                    .take(1_250)
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(hashes.len(), 5_000);
        hashes.extend((0..5_000u64).map(|i| splitmix64(i ^ 0x5EED)));
        let ms: Vec<Minimizer> = hashes
            .iter()
            .map(|&hash| Minimizer {
                hash,
                pos: 0,
                rev: false,
                span: 15,
            })
            .collect();
        let rows = sh.bloom_rows(&ms, 1);
        let mut positive = 0;
        for (&h, &row) in hashes.iter().zip(&rows) {
            let want: u64 = (0..4)
                .map(|s| u64::from(contains_model(blooms[s], h)) << s)
                .sum();
            assert_eq!(row, want, "hash {h:#x}");
            for b in &blooms {
                assert_eq!(b.contains(h), contains_model(b, h), "hash {h:#x}");
            }
            positive += row.count_ones() as usize;
        }
        assert!(positive >= 5_000, "{positive} positives");
        assert!(positive < 5_000 + 4 * 5_000 / 10, "{positive} positives");
        let empty = Bloom::from_words(Vec::new());
        assert!(!empty.contains(42));
        assert_eq!(empty.view().test(Bloom::probe_hashes(42)), 0);
        // A parsed manifest's filter need not be a power of two words.
        let odd = Bloom::from_words(vec![u64::MAX, 0, u64::MAX]);
        for &h in &hashes {
            assert_eq!(odd.contains(h), contains_model(&odd, h), "hash {h:#x}");
        }
        std::fs::remove_dir_all(&d).unwrap();
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
                    bloom: Bloom::build([1, 2, 3].into_iter()),
                },
                ShardMeta {
                    path: "x.mmx.s001".into(),
                    rid_start: 2,
                    rid_count: 1,
                    file_len: 555,
                    dir_hash: 0x1234,
                    bloom: Bloom::build([9].into_iter()),
                },
            ],
        };
        let bytes = serialize_manifest(&m);
        let back = parse_manifest(&bytes).unwrap();
        assert_eq!(back.k, 15);
        assert_eq!(back.max_occ, 77);
        assert_eq!(back.seq_names, m.seq_names);
        assert_eq!(back.shards.len(), 2);
        assert_eq!(back.shards[1].rid_start, 2);
        assert_eq!(back.shards[0].bloom, m.shards[0].bloom);
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
                bloom: Bloom::build(std::iter::empty()),
            }],
        };
        let e = parse_manifest(&serialize_manifest(&m)).unwrap_err();
        assert!(e.to_string().contains("bare file name"), "{e}");
        m.shards[0].path = "sub/dir".into();
        let e = parse_manifest(&serialize_manifest(&m)).unwrap_err();
        assert!(e.to_string().contains("bare file name"), "{e}");
    }

    #[test]
    fn sharded_build_loads_and_matches_flat_anchors() {
        let d = tmp_dir("identity");
        let refs = multi_chrom(5, 30_000, 40);
        let opts = IdxOpts::MAP_ONT;
        let flat = MinimizerIndex::build(&refs, &opts).unwrap();
        let report = build_sharded(&refs, &opts, 3, &d.join("ref.mmx")).unwrap();
        assert_eq!(report.n_shards, 3);
        assert_eq!(report.n_seqs, 5);
        // The global cutoff must equal the flat build's.
        assert_eq!(report.max_occ, flat.max_occ);

        let sh = ShardedIndex::open(&d.join("ref.mmx")).unwrap();
        assert_eq!(sh.num_seqs(), 5);
        assert_eq!(sh.max_occ(), flat.max_occ);
        for rid in 0..5u32 {
            assert_eq!(sh.seq_name(rid), format!("chr{}", rid + 1));
            assert_eq!(sh.seq_len(rid), 30_000);
            assert_eq!(sh.shard_of(rid) as u32, {
                let mut s = 0;
                for (i, meta) in sh.manifest().shards.iter().enumerate() {
                    if rid >= meta.rid_start {
                        s = i as u32;
                    }
                }
                s
            });
        }

        // Anchor identity on queries drawn from every chromosome, both
        // strands.
        for rid in 0..5usize {
            let g: Vec<u8> = flat.ref_window(rid as u32, 0, 30_000).to_vec();
            let q = &g[7_000..9_000];
            assert_eq!(
                sh.collect_anchors(q).unwrap(),
                flat.collect_anchors(q),
                "fwd rid {rid}"
            );
            let rc = mmm_seq::revcomp4(q);
            assert_eq!(
                sh.collect_anchors(&rc).unwrap(),
                flat.collect_anchors(&rc),
                "rev rid {rid}"
            );
        }

        // Reference windows agree across shard boundaries.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for rid in 0..5u32 {
            flat.ref_window_into(rid, 123, 4_567, &mut a);
            sh.ref_window_into(rid, 123, 4_567, &mut b).unwrap();
            assert_eq!(a, b);
            assert_eq!(
                sh.ref_base(rid, 29_999).unwrap(),
                flat.ref_base(rid, 29_999)
            );
            assert_eq!(sh.ref_base(rid, 30_000).unwrap(), None);
        }
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn index_ref_is_uniform_over_both_shapes() {
        let d = tmp_dir("indexref");
        let refs = multi_chrom(3, 12_000, 77);
        let opts = IdxOpts::MAP_ONT;
        let flat = MinimizerIndex::build(&refs, &opts).unwrap();
        build_sharded(&refs, &opts, 2, &d.join("r.mmx")).unwrap();
        let sh = ShardedIndex::open(&d.join("r.mmx")).unwrap();

        let fr: IndexRef = (&flat).into();
        let sr: IndexRef = (&sh).into();
        assert_eq!(fr.k(), sr.k());
        assert_eq!(fr.num_seqs(), sr.num_seqs());
        assert_eq!(fr.seq_name(2), sr.seq_name(2));
        assert_eq!(fr.seq_len(1), sr.seq_len(1));
        assert_eq!(fr.num_shards(), 1);
        assert_eq!(sr.num_shards(), 2);
        let g = flat.ref_window(1, 0, 12_000);
        let q = &g[2_000..3_500];
        assert_eq!(
            fr.collect_anchors(q).unwrap(),
            sr.collect_anchors(q).unwrap()
        );
        assert_eq!(
            fr.ref_window(1, 5, 105).unwrap(),
            sr.ref_window(1, 5, 105).unwrap()
        );

        // AnyIndex::open_mmap dispatches on the magic.
        let any = AnyIndex::open_mmap(&d.join("r.mmx"), ShardOpenOpts::default()).unwrap();
        assert!(matches!(any, AnyIndex::Sharded(_)));
        let flat_path = d.join("flat.mmx");
        crate::serialize::save_index(&flat, &flat_path).unwrap();
        let any = AnyIndex::open_mmap(&flat_path, ShardOpenOpts::default()).unwrap();
        assert!(matches!(any, AnyIndex::Flat(_)));
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
        ShardedIndex::open_with(
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
        build_sharded(&refs, &IdxOpts::MAP_ONT, 2, &d.join("r.mmx")).unwrap();
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
        build_sharded(&refs, &IdxOpts::MAP_ONT, 3, &d.join("r.mmx")).unwrap();
        let flat = MinimizerIndex::build(&refs, &IdxOpts::MAP_ONT).unwrap();
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
        build_sharded(&refs, &IdxOpts::MAP_ONT, 4, &d.join("r.mmx")).unwrap();

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
        build_sharded(&refs, &IdxOpts::MAP_ONT, 1, &d.join("r.mmx")).unwrap();
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
        build_sharded(&refs, &IdxOpts::MAP_ONT, 2, &d.join("r.mmx")).unwrap();
        // Overwrite shard 1 with a *valid* container built from different
        // content but the same geometry.
        let other = multi_chrom(2, 9_000, 32);
        let idx = MinimizerIndex::build(&other[1..2], &IdxOpts::MAP_ONT).unwrap();
        write_container(&idx, 1, &d.join("r.mmx.s001")).unwrap();
        let sh = ShardedIndex::open(&d.join("r.mmx")).unwrap();
        assert!(sh.ensure_shard(0).is_ok());
        let e = sh.ensure_shard(1).unwrap_err();
        assert!(e.reason.contains("generation"), "{}", e.reason);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn empty_reference_set_builds_and_opens() {
        let d = tmp_dir("empty");
        let r = build_sharded(&[], &IdxOpts::MAP_ONT, 4, &d.join("e.mmx")).unwrap();
        assert_eq!(r.n_shards, 1);
        assert_eq!(r.n_seqs, 0);
        let sh = ShardedIndex::open(&d.join("e.mmx")).unwrap();
        assert_eq!(sh.num_seqs(), 0);
        assert!(sh
            .collect_anchors(&[0, 1, 2, 3, 0, 1, 2, 3])
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(&d).unwrap();
    }
}
