//! Seeded structure-aware fuzzing of every byte format the binaries read
//! from outside: the serve wire protocol (`manymap::serve::proto`), the
//! FASTA/FASTQ reader (`mmm_seq::FastxReader`), the index container and the
//! shard manifest (both through `mmm_index::ShardedIndex::open`, the one
//! file loader).
//!
//! Each format is a [`Corpus`]: a generator of *valid* inputs from the
//! seeded RNG that checks round-trip identity through the real codec, a
//! mutator that derives hostile variants of a valid input (DESIGN.md §8.3
//! lists the families), and a sink that feeds a variant to the real decoder
//! under `catch_unwind`. A typed `Err` is the correct answer for hostile
//! input; any panic is a finding — and for the index, where every byte
//! sits behind a checksum, so is a damaged file that loads. Checksums
//! detect, they do not authenticate: one family re-seals its damage behind
//! recomputed digests, so the structural validation that runs after the
//! checksum pass is fuzzed too — what it lets through is queried in full.
//! A manifest that opens, damaged or forged behind a recomputed checksum,
//! must answer every `collect_anchors` call: its filter's geometry and
//! bits decide which shards a probe reads.
//!
//! The sweep core is generic over the corpora so a unit test can hand it a
//! deliberately broken decoder (one that trusts a length prefix or a line
//! start, one that loads anything) and prove the harness catches it — the
//! fuzzer's canaries, mirroring the broken-variant tests the loom-lite
//! models keep.

use std::fmt;
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use manymap::index::{
    build_sharded, container_section_ranges, save_index, xxh64, IdxOpts, MinimizerIndex,
    ShardOpenOpts, ShardedIndex,
};
use manymap::seq::{to_nt4, write_fasta, write_fastq, FastxReader, SeqRecord};
use manymap::serve::proto::{decode_read, encode_read, read_frame, write_frame, Op, MAX_FRAME};

/// splitmix64 — tiny, seedable, and good enough to decorrelate cases.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn byte(&mut self) -> u8 {
        (self.next() & 0xFF) as u8
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.byte()).collect()
    }

    /// `len` characters drawn from `alphabet`.
    fn text(&mut self, len: usize, alphabet: &[u8]) -> Vec<u8> {
        (0..len)
            .map(|_| alphabet[self.below(alphabet.len())])
            .collect()
    }
}

/// Every opcode the protocol defines, for valid-frame generation.
const OPS: [Op; 10] = [
    Op::Hello,
    Op::Read,
    Op::End,
    Op::Stats,
    Op::Drain,
    Op::Ok,
    Op::Rec,
    Op::StatsReply,
    Op::Done,
    Op::Err,
];

/// A valid input for case number `.1`, already checked to round-trip
/// through the real codec (`Err` = it did not).
type Valid<'a> = &'a dyn Fn(&mut Rng, u64) -> Result<Vec<u8>, String>;
/// One hostile variant of a valid input, and its family's name.
type Mutate<'a> = &'a dyn Fn(&mut Rng, &[u8]) -> (&'static str, Vec<u8>);
/// Feeds a variant to the decoder. It must swallow it with a typed error: a
/// panic is a finding, and so is an `Err` (the decoder did something worse
/// than fail, e.g. accepted a damaged file).
type Sink<'a> = &'a dyn Fn(&[u8]) -> Result<(), String>;

/// One input format under fuzz.
pub struct Corpus<'a> {
    /// Names the decoder in a finding.
    pub decoder: &'static str,
    pub valid: Valid<'a>,
    pub mutate: Mutate<'a>,
    pub sink: Sink<'a>,
}

/// What a finished sweep covered.
#[derive(Debug)]
pub struct Summary {
    pub cases: u64,
    pub mutations: u64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cases round-tripped (frames, reads, FASTA/FASTQ, index \
             containers, shard manifests), {} hostile mutations decoded \
             without a panic",
            self.cases, self.mutations
        )
    }
}

/// Fuzz the real decoders of all five formats.
pub fn run(cases: u64, seed: u64) -> Result<Summary, String> {
    let index = IndexCorpus::build(seed)?;
    let manifests = ManifestCorpus::build(seed)?;
    let result = sweep(
        cases,
        seed,
        &[
            Corpus {
                decoder: "frame decoder",
                valid: &valid_frame,
                mutate: &mutate_proto,
                sink: &|bytes| {
                    let _ = read_frame(&mut &bytes[..]);
                    Ok(())
                },
            },
            Corpus {
                decoder: "read decoder",
                valid: &valid_read,
                mutate: &mutate_proto,
                sink: &|payload| {
                    let _ = decode_read(payload);
                    Ok(())
                },
            },
            Corpus {
                decoder: "FASTA/FASTQ reader",
                valid: &valid_fastx,
                mutate: &mutate_fastx,
                sink: &|bytes| {
                    let _ = FastxReader::new(Cursor::new(bytes)).read_all();
                    Ok(())
                },
            },
            Corpus {
                decoder: "index loader",
                valid: &|rng, _| Ok(index.files[rng.below(index.files.len())].clone()),
                mutate: &mutate_container,
                sink: &|bytes| index.open_hostile(bytes),
            },
            Corpus {
                decoder: "manifest loader",
                valid: &|rng, _| Ok(manifests.files[rng.below(manifests.files.len())].clone()),
                mutate: &mutate_manifest,
                sink: &|bytes| manifests.open_hostile(bytes),
            },
        ],
    );
    let _ = std::fs::remove_file(&index.scratch);
    let _ = std::fs::remove_dir_all(&manifests.dir);
    result
}

// --- serve protocol -----------------------------------------------------

/// Valid frame → wire → identical frame back.
fn valid_frame(rng: &mut Rng, case: u64) -> Result<Vec<u8>, String> {
    let op = OPS[rng.below(OPS.len())];
    let payload_len = rng.below(512);
    let payload = rng.bytes(payload_len);
    let mut wire = Vec::new();
    write_frame(&mut wire, op, &payload)
        .map_err(|e| format!("case {case}: write_frame on a valid frame: {e}"))?;
    match read_frame(&mut &wire[..]) {
        Ok(Some(f)) if f.op == op && f.payload == payload => Ok(wire),
        other => Err(format!(
            "case {case}: frame round-trip lost identity (op {op:?}, \
             {} payload bytes): {other:?}",
            payload.len()
        )),
    }
}

/// Valid read → payload → identical fields back.
fn valid_read(rng: &mut Rng, case: u64) -> Result<Vec<u8>, String> {
    let name_len = rng.below(24);
    let name =
        String::from_utf8_lossy(&rng.text(name_len, b"abcdefghijklmnopqrstuvwxyz")).into_owned();
    let seq_len = rng.below(256);
    let seq = rng.bytes(seq_len);
    let qual = if rng.below(2) == 0 {
        Vec::new()
    } else {
        rng.bytes(seq.len())
    };
    let enc = encode_read(&name, &seq, &qual);
    match decode_read(&enc) {
        Ok((n, s, q)) if n == name && s == seq && q == qual => Ok(enc),
        other => Err(format!(
            "case {case}: read round-trip lost identity (name {name:?}, \
             {} seq bytes): {other:?}",
            seq.len()
        )),
    }
}

/// One hostile variant of a valid frame or read payload.
fn mutate_proto(rng: &mut Rng, valid: &[u8]) -> (&'static str, Vec<u8>) {
    match rng.below(6) {
        0 => ("truncated", valid[..rng.below(valid.len().max(1))].to_vec()),
        1 => ("bit-flipped", bit_flipped(rng, valid)),
        2 => {
            let mut m = valid.to_vec();
            let huge = (MAX_FRAME as u32).saturating_add(1 + (rng.next() as u32 >> 8));
            let n = 4.min(m.len());
            m[..n].copy_from_slice(&huge.to_le_bytes()[..n]);
            ("oversized-length", m)
        }
        3 => {
            let mut m = valid.to_vec();
            if m.len() > 4 {
                m[4] = rng.byte();
            }
            ("opcode-rewritten", m)
        }
        4 => {
            let mut m = valid.to_vec();
            let extra = rng.below(32);
            m.extend(rng.bytes(extra));
            ("trailing-garbage", m)
        }
        _ => {
            let len = rng.below(64);
            ("byte-soup", rng.bytes(len))
        }
    }
}

fn bit_flipped(rng: &mut Rng, valid: &[u8]) -> Vec<u8> {
    let mut m = valid.to_vec();
    let at = rng.below(m.len().max(1));
    if let Some(b) = m.get_mut(at) {
        *b ^= 1 << rng.below(8);
    }
    m
}

// --- FASTA / FASTQ ------------------------------------------------------

/// Valid records → FASTA (randomly wrapped) or FASTQ text → the same
/// records back.
pub fn valid_fastx(rng: &mut Rng, case: u64) -> Result<Vec<u8>, String> {
    let fastq = rng.below(2) == 0;
    let records: Vec<SeqRecord> = (0..1 + rng.below(4))
        .map(|_| {
            let name_len = 1 + rng.below(24);
            let name = rng.text(name_len, b"abcdefghijklmnopqrstuvwxyz0123456789_");
            let seq_len = 1 + rng.below(300);
            let mut rec = SeqRecord::new(
                String::from_utf8_lossy(&name),
                rng.text(seq_len, b"ACGTNacgtn"),
            );
            if fastq {
                rec.qual = Some((0..seq_len).map(|_| b'!' + rng.below(94) as u8).collect());
            }
            rec
        })
        .collect();
    let mut text = Vec::new();
    if fastq {
        write_fastq(&mut text, &records)
    } else {
        write_fasta(&mut text, &records, rng.below(3) * 40)
    }
    .map_err(|e| format!("case {case}: writing valid records: {e}"))?;
    match FastxReader::new(Cursor::new(&text)).read_all() {
        Ok(back) if back == records => Ok(text),
        other => Err(format!(
            "case {case}: {} round-trip lost identity ({} records): {:?}",
            if fastq { "FASTQ" } else { "FASTA" },
            records.len(),
            other.map(|r| r.len())
        )),
    }
}

/// One hostile variant of a valid FASTA/FASTQ text.
fn mutate_fastx(rng: &mut Rng, valid: &[u8]) -> (&'static str, Vec<u8>) {
    let lines: Vec<&[u8]> = valid.split_inclusive(|&b| b == b'\n').collect();
    // The start of a random line, to grow that line at.
    let line_start: usize = lines[..rng.below(lines.len())]
        .iter()
        .map(|l| l.len())
        .sum();
    let mut m = valid.to_vec();
    match rng.below(8) {
        0 => ("truncated", valid[..rng.below(valid.len())].to_vec()),
        // A FASTQ record without its separator (a no-op on FASTA).
        1 => (
            "missing-plus",
            lines
                .iter()
                .filter(|l| **l != b"+\n")
                .copied()
                .collect::<Vec<_>>()
                .concat(),
        ),
        2 => {
            // One line a base longer: a FASTQ record's sequence and quality
            // stop agreeing.
            m.insert(line_start, b'A');
            ("length-mismatch", m)
        }
        3 => (
            "crlf",
            valid
                .split(|&b| b == b'\n')
                .collect::<Vec<_>>()
                .join(&b"\r\n"[..]),
        ),
        // The first header, cut down to its marker.
        4 => ("empty-name", [&valid[..1], &lines[1..].concat()].concat()),
        5 => {
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(m.len());
                m[at] = [0, 0xFF, b'*', b'-', b'>', b'@', b' ', b'\t'][rng.below(8)];
            }
            ("nul-and-non-acgt", m)
        }
        6 => {
            let filler = [b'A', b'>', b'@', b'+', 0][rng.below(5)];
            m.splice(line_start..line_start, std::iter::repeat_n(filler, 1 << 20));
            ("megabyte-line", m)
        }
        _ => {
            let len = rng.below(256);
            ("byte-soup", rng.bytes(len))
        }
    }
}

// --- index container ----------------------------------------------------

/// Layout of the container directory (DESIGN.md §15.2), as the forger needs
/// it: four `(offset, length, xxh64)` entries from byte 16, the directory
/// hash over bytes `0..112` stored at 112.
const DIR_ENTRIES_OFF: usize = 16;
const DIR_HASHED_LEN: usize = 112;

/// Distinguishes the scratch files of sweeps running in one process (the
/// unit tests run on parallel threads).
static SCRATCH_ID: AtomicU64 = AtomicU64::new(0);

/// A few valid single-file indexes, built once per sweep, and the scratch
/// path hostile variants are written to.
struct IndexCorpus {
    files: Vec<Vec<u8>>,
    scratch: PathBuf,
}

impl IndexCorpus {
    fn build(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed ^ 0x1DE5);
        let scratch = std::env::temp_dir().join(format!(
            "xtask-fuzz-{}-{}.mmx",
            std::process::id(),
            SCRATCH_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let mut files = Vec::new();
        for n in 0..3 {
            let refs: Vec<SeqRecord> = (0..1 + rng.below(3))
                .map(|i| {
                    let len = 400 + rng.below(2_000);
                    SeqRecord::new(format!("ref{n}_{i}"), rng.text(len, b"ACGT"))
                })
                .collect();
            let built = MinimizerIndex::build(&refs, &IdxOpts::MAP_ONT, 1)
                .map_err(|e| format!("building fuzz index {n}: {e}"))?;
            save_index(&built, &scratch).map_err(|e| format!("saving fuzz index {n}: {e}"))?;
            // Valid file → the one loader → the same index back.
            match ShardedIndex::open(&scratch, ShardOpenOpts::default()) {
                Ok(back)
                    if back.num_seqs() == built.num_seqs()
                        && back
                            .ensure_shard(0)
                            .is_ok_and(|b| b.hashes().eq(built.hashes())) => {}
                other => {
                    return Err(format!(
                        "fuzz index {n}: container round-trip lost identity: {other:?}"
                    ))
                }
            }
            files.push(std::fs::read(&scratch).map_err(|e| format!("reading back: {e}"))?);
        }
        Ok(IndexCorpus { files, scratch })
    }

    /// Write `bytes` where a user's index would sit and open it the way the
    /// binaries do. Anything whose checksums do not hold must be refused;
    /// a re-sealed variant the structural validation accepts (a flipped
    /// base is a different, valid index) must answer every query.
    fn open_hostile(&self, bytes: &[u8]) -> Result<(), String> {
        std::fs::write(&self.scratch, bytes).map_err(|e| format!("writing the variant: {e}"))?;
        let Ok(opened) = ShardedIndex::open(&self.scratch, ShardOpenOpts::default()) else {
            return Ok(());
        };
        if container_section_ranges(bytes).is_err() {
            return Err("a damaged container loaded".into());
        }
        let mut window = Vec::new();
        for rid in 0..opened.num_seqs() as u32 {
            opened
                .ref_window_into(rid, 0, opened.seq_len(rid), &mut window)
                .map_err(|e| e.to_string())?;
        }
        let idx = opened.ensure_shard(0).map_err(|e| e.to_string())?;
        if idx
            .hashes()
            .any(|h| idx.hit_cursor(h).count() != idx.hit_count(h))
        {
            return Err("an accepted image decodes inconsistently".into());
        }
        Ok(())
    }
}

/// One hostile variant of a valid container file.
fn mutate_container(rng: &mut Rng, valid: &[u8]) -> (&'static str, Vec<u8>) {
    match rng.below(10) {
        0..=2 => ("bit-flipped", bit_flipped(rng, valid)),
        3 | 4 => ("truncated", valid[..rng.below(valid.len().max(1))].to_vec()),
        5 | 6 => {
            // Rewrite one section's offset or length, then re-hash the
            // directory so the forgery gets past the directory checksum.
            let mut m = valid.to_vec();
            let field = DIR_ENTRIES_OFF + rng.below(4) * 24 + rng.below(2) * 8;
            let forged: u64 = match rng.below(4) {
                0 => u64::MAX - rng.below(16) as u64,
                1 => valid.len() as u64 + rng.below(64) as u64,
                2 => rng.below(valid.len()) as u64,
                _ => rng.next(),
            };
            m[field..field + 8].copy_from_slice(&forged.to_le_bytes());
            let hash = xxh64(&m[..DIR_HASHED_LEN], 0);
            m[DIR_HASHED_LEN..DIR_HASHED_LEN + 8].copy_from_slice(&hash.to_le_bytes());
            ("forged-section-length", m)
        }
        7 | 8 => {
            // Damage the image, then recompute every digest the directory
            // holds: only the structural validation stands behind these.
            let mut m = valid.to_vec();
            let image_off = DIR_HASHED_LEN + 8;
            for _ in 0..1 + rng.below(3) {
                let at = image_off + rng.below(m.len() - image_off);
                m[at] = if rng.below(2) == 0 {
                    m[at] ^ (1 << rng.below(8))
                } else {
                    rng.byte()
                };
            }
            // `valid` is a container the corpus round-tripped.
            let sections = container_section_ranges(valid).unwrap_or_default();
            for (i, &(start, end)) in sections.iter().enumerate() {
                let digest = xxh64(&m[start as usize..end as usize], i as u64);
                let at = DIR_ENTRIES_OFF + i * 24 + 16;
                m[at..at + 8].copy_from_slice(&digest.to_le_bytes());
            }
            let hash = xxh64(&m[..DIR_HASHED_LEN], 0);
            m[DIR_HASHED_LEN..DIR_HASHED_LEN + 8].copy_from_slice(&hash.to_le_bytes());
            ("resealed", m)
        }
        _ => {
            let mut m = valid.to_vec();
            let extra = 1 + rng.below(32);
            m.extend(rng.bytes(extra));
            ("trailing-garbage", m)
        }
    }
}

// --- shard manifest -----------------------------------------------------

/// Layout of a manifest file (DESIGN.md §15.1), as the forger needs it: a
/// 12-byte prefix (magic, payload length), the payload, and the payload's
/// xxh64 in the last 8 bytes. The filter's geometry sits in the payload
/// header: bits per position (`u32`), log2 of the position count (`u32`)
/// and the word count (`u64`).
const MANIFEST_PAYLOAD_OFF: usize = 12;
const FILTER_POS_BITS_AT: usize = MANIFEST_PAYLOAD_OFF + 20;
const FILTER_LOG2_AT: usize = MANIFEST_PAYLOAD_OFF + 24;
const FILTER_WORDS_AT: usize = MANIFEST_PAYLOAD_OFF + 28;

/// Valid `--shards 3` and `--shards 4` manifests of one reference, their
/// shard files in `dir`, and the reads every opened variant is asked for.
struct ManifestCorpus {
    files: Vec<Vec<u8>>,
    dir: PathBuf,
    /// Where a variant is written: in `dir`, so the shard names it lists
    /// resolve to the corpus's shard files.
    scratch: PathBuf,
    queries: Vec<Vec<u8>>,
}

impl ManifestCorpus {
    fn build(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed ^ 0x3A41);
        let dir = std::env::temp_dir().join(format!(
            "xtask-fuzz-manifests-{}-{}",
            std::process::id(),
            SCRATCH_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("fuzz manifest dir: {e}"))?;
        // Unequal lengths, so the shards' filters differ in size.
        let refs: Vec<SeqRecord> = [6_000, 1_500, 3_000, 800, 4_000]
            .iter()
            .enumerate()
            .map(|(i, &len)| SeqRecord::new(format!("ref{i}"), rng.text(len, b"ACGT")))
            .collect();
        let flat = MinimizerIndex::build(&refs, &IdxOpts::MAP_ONT, 1)
            .map_err(|e| format!("building the fuzz reference: {e}"))?;
        let mut queries: Vec<Vec<u8>> = refs
            .iter()
            .map(|r| to_nt4(&r.seq[r.seq.len() / 4..r.seq.len() / 2]))
            .collect();
        queries.push(to_nt4(&rng.text(1_000, b"ACGT")));
        let mut files = Vec::new();
        for n in [3, 4] {
            let path = dir.join(format!("s{n}.mmx"));
            build_sharded(&refs, &IdxOpts::MAP_ONT, n, 1, &path)
                .map_err(|e| format!("building the --shards {n} fuzz index: {e}"))?;
            // Valid manifest → the one loader → the flat index's anchors.
            let opened = ShardedIndex::open(&path, ShardOpenOpts::default())
                .map_err(|e| format!("opening the --shards {n} fuzz index: {e}"))?;
            for q in &queries {
                if opened.collect_anchors(q).ok() != Some(flat.collect_anchors(q)) {
                    return Err(format!(
                        "--shards {n} fuzz index: manifest round-trip lost identity"
                    ));
                }
            }
            files.push(std::fs::read(&path).map_err(|e| format!("reading back: {e}"))?);
        }
        let scratch = dir.join("hostile.mmx");
        Ok(ManifestCorpus {
            files,
            dir,
            scratch,
            queries,
        })
    }

    /// Write `bytes` as a manifest beside the shard files and open it the
    /// way the binaries do. One whose checksum does not hold must be
    /// refused; one that opens must answer every seeding call, `Ok` or a
    /// typed shard fault.
    fn open_hostile(&self, bytes: &[u8]) -> Result<(), String> {
        std::fs::write(&self.scratch, bytes).map_err(|e| format!("writing the variant: {e}"))?;
        let Ok(opened) = ShardedIndex::open(&self.scratch, ShardOpenOpts::default()) else {
            return Ok(());
        };
        if !manifest_sealed(bytes) {
            return Err("a damaged manifest loaded".into());
        }
        for q in &self.queries {
            let _ = opened.collect_anchors(q);
        }
        Ok(())
    }
}

/// Whether a manifest's payload length and checksum hold.
fn manifest_sealed(bytes: &[u8]) -> bool {
    let n = bytes.len();
    n >= MANIFEST_PAYLOAD_OFF + 8
        && le_u64(bytes, 4) == (n - MANIFEST_PAYLOAD_OFF - 8) as u64
        && le_u64(bytes, n - 8) == xxh64(&bytes[MANIFEST_PAYLOAD_OFF..n - 8], 0)
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Recompute a manifest's payload checksum over whatever the payload now
/// holds.
fn reseal(m: &mut [u8]) {
    let n = m.len();
    let sum = xxh64(&m[MANIFEST_PAYLOAD_OFF..n - 8], 0);
    m[n - 8..].copy_from_slice(&sum.to_le_bytes());
}

/// One hostile variant of a valid manifest file.
fn mutate_manifest(rng: &mut Rng, valid: &[u8]) -> (&'static str, Vec<u8>) {
    match rng.below(10) {
        0 | 1 => ("bit-flipped", bit_flipped(rng, valid)),
        2 | 3 => ("truncated", valid[..rng.below(valid.len().max(1))].to_vec()),
        4..=6 => {
            // Forge one field of the filter's geometry behind a recomputed
            // checksum: only the manifest's own checks stand behind it.
            let mut m = valid.to_vec();
            let (at, width) = [
                (FILTER_POS_BITS_AT, 4),
                (FILTER_LOG2_AT, 4),
                (FILTER_WORDS_AT, 8),
            ][rng.below(3)];
            let mut field = [0u8; 8];
            field[..width].copy_from_slice(&m[at..at + width]);
            let was = u64::from_le_bytes(field);
            let forged = match rng.below(5) {
                0 => was.wrapping_add(1),
                1 => was.wrapping_sub(1),
                2 => was.wrapping_mul(2),
                3 => was / 2,
                _ => rng.next(),
            };
            m[at..at + width].copy_from_slice(&forged.to_le_bytes()[..width]);
            reseal(&mut m);
            ("forged-filter-geometry", m)
        }
        7 | 8 => {
            // Damage the payload — the header, the shard table or the
            // filter's bits — then recompute its checksum.
            let mut m = valid.to_vec();
            let payload = MANIFEST_PAYLOAD_OFF..m.len() - 8;
            for _ in 0..1 + rng.below(3) {
                let at = payload.start + rng.below(payload.len());
                m[at] = if rng.below(2) == 0 {
                    m[at] ^ (1 << rng.below(8))
                } else {
                    rng.byte()
                };
            }
            reseal(&mut m);
            ("resealed", m)
        }
        _ => {
            let mut m = valid.to_vec();
            let extra = 1 + rng.below(32);
            m.extend(rng.bytes(extra));
            ("trailing-garbage", m)
        }
    }
}

// --- the sweep ----------------------------------------------------------

/// The sweep core. Every case draws one valid input per corpus (checked to
/// round-trip by the corpus itself, against the *real* codec), then feeds
/// four hostile variants of each to the corpus's sink.
pub fn sweep(cases: u64, seed: u64, corpora: &[Corpus<'_>]) -> Result<Summary, String> {
    let mut rng = Rng::new(seed);
    let mut mutations = 0u64;
    for case in 0..cases {
        let valid: Vec<Vec<u8>> = corpora
            .iter()
            .map(|c| (c.valid)(&mut rng, case))
            .collect::<Result<_, _>>()?;
        for _ in 0..4 {
            for (c, valid) in corpora.iter().zip(&valid) {
                let (kind, bytes) = (c.mutate)(&mut rng, valid);
                mutations += 1;
                let why = match catch_unwind(AssertUnwindSafe(|| (c.sink)(&bytes))) {
                    Ok(Ok(())) => continue,
                    Ok(Err(why)) => why,
                    Err(_) => "panicked".to_string(),
                };
                return Err(finding(case, seed, c.decoder, &why, kind, &bytes));
            }
        }
    }
    Ok(Summary { cases, mutations })
}

/// A reproducible finding: the case, seed, mutation family, and an input
/// prefix — enough to replay with `xtask fuzz --seed`.
fn finding(case: u64, seed: u64, decoder: &str, why: &str, kind: &str, bytes: &[u8]) -> String {
    let prefix: Vec<String> = bytes.iter().take(16).map(|b| format!("{b:02x}")).collect();
    format!(
        "{decoder}: {why} on {kind} input at case {case} (seed {seed:#x}, \
         {} bytes, prefix {})",
        bytes.len(),
        prefix.join(" ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real decoders survive a deeper sweep than the verify default.
    #[test]
    fn real_codec_survives_the_sweep() {
        let s = run(128, 0xF00D).expect("clean sweep");
        assert_eq!(s.cases, 128);
        assert!(
            s.mutations > 2000,
            "mutation corpus too small: {}",
            s.mutations
        );
    }

    /// One corpus with a broken sink, the rest of it real.
    fn canary(valid: Valid<'_>, mutate: Mutate<'_>, broken: Sink<'_>) -> String {
        let corpus = Corpus {
            decoder: "canary",
            valid,
            mutate,
            sink: broken,
        };
        sweep(16, 0x5EED, &[corpus]).unwrap_err()
    }

    /// Canary: a decoder that trusts the length prefix must be caught.
    /// This is the truncated-frame-panic variant the acceptance criteria
    /// name — if the harness stops catching it, the fuzz pass is dead.
    #[test]
    fn harness_catches_a_length_trusting_decoder() {
        let err = canary(&valid_frame, &mutate_proto, &|bytes| {
            let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
            let _payload = &bytes[5..5 + len]; // panics on truncation
            Ok(())
        });
        assert!(err.contains("canary: panicked"), "{err}");
    }

    /// Canary: a FASTA/FASTQ reader that looks at a line's first byte
    /// without asking whether the line has one.
    #[test]
    fn harness_catches_a_line_start_trusting_reader() {
        let err = canary(&valid_fastx, &mutate_fastx, &|bytes| {
            for line in bytes.split(|&b| b == b'\n') {
                let _marker = line[0]; // panics on an empty line
            }
            Ok(())
        });
        assert!(err.contains("canary: panicked"), "{err}");
    }

    /// Canary: an index loader that loads whatever it is given. No panic
    /// to catch — the sink's own verdict is the finding.
    #[test]
    fn harness_catches_a_loader_that_accepts_damage() {
        let index = IndexCorpus::build(7).unwrap();
        let valid = |rng: &mut Rng, _| Ok(index.files[rng.below(index.files.len())].clone());
        let err = canary(&valid, &mutate_container, &|bytes| match index
            .files
            .iter()
            .any(|f| f == bytes)
        {
            true => Ok(()),
            false => Err("a damaged container loaded".into()),
        });
        assert!(err.contains("canary: a damaged container loaded"), "{err}");
        let _ = std::fs::remove_file(&index.scratch);
    }

    /// Canary: a manifest reader that checks the payload's checksum, then
    /// trusts the filter's geometry and slices the words it declares off
    /// the end of the payload.
    #[test]
    fn harness_catches_a_reader_that_trusts_the_filter_geometry() {
        let manifests = ManifestCorpus::build(7).unwrap();
        let valid =
            |rng: &mut Rng, _| Ok(manifests.files[rng.below(manifests.files.len())].clone());
        let err = canary(&valid, &mutate_manifest, &|bytes| {
            if !manifest_sealed(bytes) {
                return Ok(());
            }
            let field = |at: usize, width: usize| {
                let mut b = [0u8; 8];
                b[..width].copy_from_slice(&bytes[at..at + width]);
                u64::from_le_bytes(b)
            };
            let pos_bits = field(FILTER_POS_BITS_AT, 4) as usize;
            let log2 = field(FILTER_LOG2_AT, 4) as u32;
            let words = (pos_bits << log2) / 64;
            // Panics when the geometry promises more words than there are.
            let _filter = &bytes[bytes.len() - 8 - 8 * words..bytes.len() - 8];
            Ok(())
        });
        assert!(err.contains("canary: panicked"), "{err}");
        assert!(err.contains("forged-filter-geometry"), "{err}");
        let _ = std::fs::remove_dir_all(&manifests.dir);
    }

    /// Determinism: the same seed walks the same corpus.
    #[test]
    fn sweep_is_deterministic_per_seed() {
        let a = run(32, 42).expect("clean");
        let b = run(32, 42).expect("clean");
        assert_eq!(a.mutations, b.mutations);
    }
}
