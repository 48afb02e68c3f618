//! Index serialization and the two loading paths of §4.4.2.
//!
//! The on-disk format mirrors minimap2's `.mmi` in spirit: a magic header,
//! per-sequence metadata and packed bases, then the minimizer table. The
//! fourth byte after the `MMX` magic prefix names the version, and there is
//! one image version, **v2** (`MMX\x02`, DESIGN.md §14): `(base, ocw)`
//! [`BucketRef`] map values plus a pool of FOR/delta bit-packed block
//! words, zero-padded so the pool sits 8-byte aligned in the file (mmap'd
//! `u64` loads never straddle).
//!
//! An `MMX` file of any *other* version — the retired flat v1 layout or a
//! future format — is a typed [`IndexError::Version`] naming the found and
//! expected versions: "rebuild your index", never "corrupt".
//!
//! Crucially the format is identical for both loaders; only the I/O
//! mechanism differs:
//!
//! * [`load_index`] replays minimap2's fragmented loader — one small
//!   `read` per field through a [`mmm_io::ChunkedReader`];
//! * [`load_index_mmap`] is manymap's path: `mmap(2)` the file once and
//!   parse in place with zero-copy bulk array reads.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use mmm_io::{ByteSource, ChunkedReader, Mmap, SliceSource};
use mmm_seq::PackedSeq;

use crate::error::IndexError;
use crate::index::{MinimizerIndex, RefSeq};
use crate::postings::{BucketRef, PackedPostings};

/// Shared magic prefix; the fourth byte is the format version.
const MAGIC_PREFIX: &[u8; 3] = b"MMX";
/// v2: FOR/delta bit-packed posting blocks — the one image version this
/// build writes and reads (v1 was the retired `u64`-per-hit layout).
pub(crate) const VERSION_PACKED: u8 = 2;
/// v3: the sharded-index manifest (per-shard files + checksums). Parsed by
/// the sharded loader in [`crate::shard`], not by [`parse_index`]; the
/// dispatch here only recognizes the byte so the flat loaders can say
/// "use the sharded loader" instead of "unknown version".
pub(crate) const VERSION_SHARDED: u8 = 3;

/// Timing and syscall statistics from a load, consumed by the Table 2 /
/// Figure 11 harnesses.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadStats {
    pub seconds: f64,
    pub read_calls: u64,
    pub bytes: u64,
}

/// `Write` adapter that tracks the absolute file position, so the v2
/// writer can compute the zero-pad that 8-byte-aligns the block pool.
struct CountingWriter<W: Write> {
    w: W,
    pos: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.w.write(buf)?;
        self.pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// Byte boundaries of the four sections of one serialized index image,
/// reported by [`write_index_image`]. Offsets are image-relative and
/// half-open: `header` is `[0, header_end)`, `seqs` is
/// `[header_end, seqs_end)`, `map` is `[seqs_end, map_end)` and the pool
/// (packed blocks) runs `[map_end, total)`. The v3 shard
/// container checksums each range independently so corruption reports can
/// name the damaged section.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SectionBounds {
    pub header_end: u64,
    pub seqs_end: u64,
    pub map_end: u64,
    pub total: u64,
}

/// Write the index to `path` as a v2 image.
pub fn save_index(idx: &MinimizerIndex, path: &Path) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::with_capacity(1 << 20, f);
    write_index_image(idx, &mut w)?;
    w.flush()
}

/// Serialize `idx` into `out` (the v2 image both loaders parse) and
/// report the section boundaries. The image is self-contained: parsing it
/// from offset 0 of any [`ByteSource`] reproduces the index, which is how
/// the v3 shard container embeds it after its checksum directory.
pub(crate) fn write_index_image<W: Write>(
    idx: &MinimizerIndex,
    out: W,
) -> io::Result<SectionBounds> {
    let mut w = CountingWriter { w: out, pos: 0 };
    w.write_all(MAGIC_PREFIX)?;
    w.write_all(&[VERSION_PACKED])?;
    w.write_all(&(idx.k as u32).to_le_bytes())?;
    w.write_all(&(idx.w as u32).to_le_bytes())?;
    w.write_all(&(idx.hpc as u32).to_le_bytes())?;
    w.write_all(&idx.max_occ.to_le_bytes())?;
    w.write_all(&(idx.seqs.len() as u64).to_le_bytes())?;
    let header_end = w.pos;
    for s in &idx.seqs {
        w.write_all(&(s.name.len() as u64).to_le_bytes())?;
        w.write_all(s.name.as_bytes())?;
        w.write_all(&(s.seq.len() as u64).to_le_bytes())?;
        w.write_all(&(s.seq.words().len() as u64).to_le_bytes())?;
        for &word in s.seq.words() {
            w.write_all(&word.to_le_bytes())?;
        }
    }
    let seqs_end = w.pos;
    // Minimizer table: keys sorted for determinism, then the per-key
    // values, then the hit-carrying section.
    let p = &idx.postings;
    let mut keys: Vec<u64> = p.map.keys().copied().collect();
    keys.sort_unstable();
    w.write_all(&(keys.len() as u64).to_le_bytes())?;
    for &k in &keys {
        w.write_all(&k.to_le_bytes())?;
    }
    for &k in &keys {
        let r = p.map[&k];
        w.write_all(&r.base.to_le_bytes())?;
        w.write_all(&r.ocw.to_le_bytes())?;
    }
    let map_end = w.pos;
    w.write_all(&p.n_hits.to_le_bytes())?;
    // Zero-pad so the block pool (after its 8-byte length prefix) starts
    // 8-byte aligned in the file: an mmap'd parse can then read block
    // words without straddling.
    let pad = (8 - (w.pos % 8) as usize) % 8;
    w.write_all(&[0u8; 7][..pad])?;
    w.write_all(&(p.blocks.len() as u64).to_le_bytes())?;
    for &b in &p.blocks {
        w.write_all(&b.to_le_bytes())?;
    }
    w.flush()?;
    Ok(SectionBounds {
        header_end,
        seqs_end,
        map_end,
        total: w.pos,
    })
}

/// Read a `u64` element count and sanity-check it against the bytes left in
/// the source. Every counted element occupies at least `min_bytes_each`
/// bytes on disk, so a count that claims more data than remains is corrupt —
/// rejecting it here turns a hostile/bit-flipped prefix into `InvalidData`
/// instead of a multi-gigabyte allocation.
fn bounded_count<S: ByteSource>(src: &mut S, min_bytes_each: u64, what: &str) -> io::Result<usize> {
    let n = src.take_u64()?;
    if let Some(rem) = src.remaining_hint() {
        match n.checked_mul(min_bytes_each) {
            Some(need) if need <= rem => {}
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{what} count {n} exceeds the {rem} bytes remaining"),
                ))
            }
        }
    }
    usize::try_from(n).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{what} count {n} does not fit in memory"),
        )
    })
}

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Header fields (everything after the magic, up to the minimizer table).
struct Header {
    k: usize,
    w: usize,
    hpc: bool,
    max_occ: u32,
    seqs: Vec<RefSeq>,
}

fn parse_header<S: ByteSource>(src: &mut S) -> io::Result<Header> {
    let k = src.take_u32()? as usize;
    let w = src.take_u32()? as usize;
    let hpc = src.take_u32()? != 0;
    let max_occ = src.take_u32()?;
    // Each sequence record is at least 24 bytes (three u64 length fields).
    let n_seqs = bounded_count(src, 24, "sequence")?;
    let mut seqs = Vec::with_capacity(n_seqs);
    for _ in 0..n_seqs {
        let name = String::from_utf8_lossy(&src.take_bytes()?).into_owned();
        let len = src.take_u64()? as usize;
        let words = src.take_u32_vec()?;
        // `PackedSeq::from_raw` asserts this invariant; a corrupt image must
        // surface as a typed error, not a panic.
        if words.len() != len.div_ceil(16) {
            return Err(corrupt(format!(
                "sequence '{name}': {} packed words cannot hold {len} bases",
                words.len()
            )));
        }
        seqs.push(RefSeq {
            name,
            seq: PackedSeq::from_raw(words, len),
        });
    }
    Ok(Header {
        k,
        w,
        hpc,
        max_occ,
        seqs,
    })
}

/// Validate one packed hit's reference id against the sequence table — the
/// same bit-budget contract `MinimizerIndex::build` enforces. Every rid is
/// used as a direct index into the table, so a corrupt or hostile image
/// carrying an out-of-range rid must surface as typed corruption here, not
/// as a panic (or silent mismap) at seeding time.
fn check_rid(hit: u64, n_seqs: usize, what: &str) -> Result<(), String> {
    let (rid, _, _) = crate::index::unpack_hit(hit);
    if rid as usize >= n_seqs {
        return Err(format!(
            "{what} names reference {rid}, but only {n_seqs} sequence(s) exist"
        ));
    }
    Ok(())
}

/// v2 body: `(base, ocw)` bucket refs + zero-padded packed block pool.
fn parse_v2_body<S: ByteSource>(src: &mut S) -> io::Result<MinimizerIndex> {
    let h = parse_header(src)?;
    // Each key contributes 8 bytes to the key array and 16 to (base, ocw).
    let n_keys = bounded_count(src, 24, "minimizer key")?;
    let keys = {
        let mut v = Vec::with_capacity(n_keys);
        for _ in 0..n_keys {
            v.push(src.take_u64()?);
        }
        v
    };
    let mut map = HashMap::with_capacity(n_keys);
    for &key in &keys {
        let base = src.take_u64()?;
        let ocw = src.take_u64()?;
        map.insert(key, BucketRef { base, ocw });
    }
    let n_hits = src.take_u64()?;
    // Consume the alignment pad: the writer zero-fills to the next 8-byte
    // file boundary so the block pool's words are 8-byte aligned. Nonzero
    // pad bytes mean the image was not produced by this writer.
    let pos = src
        .stream_position()
        .ok_or_else(|| corrupt("v2 index needs a position-tracking source".into()))?;
    let pad = (8 - (pos % 8) as usize) % 8;
    let mut padb = [0u8; 7];
    src.take_exact(&mut padb[..pad])?;
    if padb[..pad].iter().any(|&b| b != 0) {
        return Err(corrupt("nonzero block-pool alignment padding".into()));
    }
    if let Some(p) = src.stream_position() {
        if p % 8 != 0 {
            return Err(corrupt(format!("block pool misaligned at byte {p}")));
        }
    }
    let blocks = src.take_u64_vec()?;
    let postings = PackedPostings {
        map,
        blocks,
        n_hits,
    };
    // Walk every bucket before accepting the image: field budgets, block
    // bounds, overflow-free delta sums, and in-budget reference ids. After
    // this walk the infallible decode path cannot be surprised.
    let mut total: u64 = 0;
    for (&key, &r) in &postings.map {
        let count = r.count();
        if count == 0 || (count > 1 && r.width() == 0) || r.width() > 64 {
            return Err(corrupt(format!(
                "minimizer {key:#x}: invalid bucket shape (count {count}, width {})",
                r.width()
            )));
        }
        let end = r.off().checked_add(r.block_words());
        if end.is_none() || end.unwrap_or(u64::MAX) > postings.blocks.len() as u64 {
            return Err(corrupt(format!(
                "minimizer {key:#x}: delta block {}..+{} exceeds the {}-word pool",
                r.off(),
                r.block_words(),
                postings.blocks.len()
            )));
        }
        total = total.saturating_add(count);
        postings
            .walk_checked(r, |hit| check_rid(hit, h.seqs.len(), "packed hit"))
            .map_err(|e| corrupt(format!("minimizer {key:#x}: {e}")))?;
    }
    if total != n_hits {
        return Err(corrupt(format!(
            "bucket counts sum to {total}, header claims {n_hits} hits"
        )));
    }
    Ok(MinimizerIndex {
        k: h.k,
        w: h.w,
        hpc: h.hpc,
        seqs: h.seqs,
        postings,
        max_occ: h.max_occ,
    })
}

/// Parse an index image from any [`ByteSource`].
///
/// All failures are typed: a malformed or truncated image yields
/// [`IndexError::Corrupt`] with the byte offset where parsing stopped, a
/// recognized-but-unsupported `MMX` version yields [`IndexError::Version`],
/// and a device fault yields [`IndexError::Io`]. This never panics and
/// never allocates more than the source can actually deliver.
pub fn parse_index<S: ByteSource>(src: &mut S) -> Result<MinimizerIndex, IndexError> {
    let mut magic = [0u8; 4];
    if let Err(e) = src.take_exact(&mut magic) {
        return Err(IndexError::from_parse(src.stream_position(), e));
    }
    if magic[..3] != MAGIC_PREFIX[..] {
        return Err(IndexError::Corrupt {
            offset: src.stream_position(),
            what: "bad index magic".into(),
        });
    }
    let body = match magic[3] {
        VERSION_PACKED => parse_v2_body(src),
        VERSION_SHARDED => {
            // A manifest is a different artifact, not an unknown version:
            // the loaders re-tag this with the offending path.
            return Err(IndexError::ShardedManifest {
                path: std::path::PathBuf::new(),
            });
        }
        found => {
            return Err(IndexError::Version {
                found,
                expected: VERSION_PACKED,
            })
        }
    };
    let idx = body.map_err(|e| IndexError::from_parse(src.stream_position(), e))?;
    // The declared sections must span the whole source: bytes past the end
    // of the final section mean the image was torn, zero-padded by an
    // interrupted write, or truncated from a larger index whose early
    // length prefixes still happened to fit. Accepting them would let a
    // damaged file masquerade as a (different) valid index.
    if let Some(rem) = src.remaining_hint() {
        if rem > 0 {
            return Err(IndexError::Corrupt {
                offset: src.stream_position(),
                what: format!(
                    "index sections end {rem} byte(s) before the end of the \
                     file; the image is torn or was truncated from a larger \
                     index"
                ),
            });
        }
    }
    Ok(idx)
}

/// [`parse_index`] has no path; fill in which file turned out to be a
/// sharded manifest so the caller's "use the sharded loader" hint names it.
fn tag_manifest_path(e: IndexError, path: &Path) -> IndexError {
    match e {
        IndexError::ShardedManifest { .. } => IndexError::ShardedManifest {
            path: path.to_path_buf(),
        },
        e => e,
    }
}

/// minimap2's loading path: fragmented buffered reads.
pub fn load_index(path: &Path) -> Result<(MinimizerIndex, LoadStats), IndexError> {
    let start = Instant::now();
    let mut r = ChunkedReader::open(path, 16 * 1024).map_err(|e| IndexError::Open {
        path: path.to_path_buf(),
        source: e,
    })?;
    let idx = parse_index(&mut r).map_err(|e| tag_manifest_path(e, path))?;
    Ok((
        idx,
        LoadStats {
            seconds: start.elapsed().as_secs_f64(),
            read_calls: r.read_calls(),
            bytes: r.bytes_read(),
        },
    ))
}

/// manymap's loading path: one `mmap`, zero-copy parse (§4.4.2).
pub fn load_index_mmap(path: &Path) -> Result<(MinimizerIndex, LoadStats), IndexError> {
    let start = Instant::now();
    let map = Mmap::open(path).map_err(|e| IndexError::Open {
        path: path.to_path_buf(),
        source: e,
    })?;
    // A flat v2 image carries no checksum (only the v3 shard container
    // does). `parse_index` bounds- and budget-checks every field, which
    // keeps a damaged file from panicking — not from mapping wrong: a
    // flipped byte that stays in range loads (ROADMAP item 5).
    // xtask-allow: mmap-checksum — no checksum exists in a flat v2 image; parse_index bounds-checks only.
    let mut src = SliceSource::new(&map);
    let idx = parse_index(&mut src).map_err(|e| tag_manifest_path(e, path))?;
    let bytes = src.position() as u64;
    Ok((
        idx,
        LoadStats {
            seconds: start.elapsed().as_secs_f64(),
            read_calls: 1,
            bytes,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IdxOpts;
    use mmm_seq::{nt4_decode, SeqRecord};

    fn sample_records() -> Vec<SeqRecord> {
        let mut state = 31u64;
        let g: Vec<u8> = (0..30_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) % 4) as u8
            })
            .collect();
        vec![
            SeqRecord::new("chrA", nt4_decode(&g[..20_000])),
            SeqRecord::new("chrB", nt4_decode(&g[20_000..])),
        ]
    }

    fn sample_index() -> MinimizerIndex {
        MinimizerIndex::build(&sample_records(), &IdxOpts::MAP_ONT).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mmm-index-{name}-{}", std::process::id()))
    }

    fn assert_same(a: &MinimizerIndex, b: &MinimizerIndex) {
        assert_eq!(a.k, b.k);
        assert_eq!(a.w, b.w);
        assert_eq!(a.hpc, b.hpc);
        assert_eq!(a.max_occ, b.max_occ);
        assert_eq!(a.seqs.len(), b.seqs.len());
        for (x, y) in a.seqs.iter().zip(&b.seqs) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.seq, y.seq);
        }
        assert_eq!(a.num_minimizers(), b.num_minimizers());
        assert_eq!(a.num_positions(), b.num_positions());
        // Spot-check decoded posting lists agree.
        let (mut ha, mut hb) = (Vec::new(), Vec::new());
        for &k in a.sorted_hashes().iter().take(100) {
            a.decode_hits_into(k, &mut ha);
            b.decode_hits_into(k, &mut hb);
            assert_eq!(ha, hb);
        }
    }

    #[test]
    fn round_trip_buffered() {
        let idx = sample_index();
        let p = tmp("buffered");
        save_index(&idx, &p).unwrap();
        let (back, stats) = load_index(&p).unwrap();
        assert_same(&idx, &back);
        // The fragmented loader issues many reads — that is the point.
        assert!(stats.read_calls > 1000, "read_calls={}", stats.read_calls);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn round_trip_mmap() {
        let idx = sample_index();
        let p = tmp("mmap");
        save_index(&idx, &p).unwrap();
        let (back, stats) = load_index_mmap(&p).unwrap();
        assert_same(&idx, &back);
        assert_eq!(stats.read_calls, 1);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn packed_file_is_smaller() {
        // Smaller than the same index with 8 bytes per hit in place of the
        // block pool (what the flat layout spent on its positions array).
        let idx = sample_index();
        let p = tmp("size-packed");
        save_index(&idx, &p).unwrap();
        let image = std::fs::read(&p).unwrap();
        std::fs::remove_file(&p).unwrap();
        assert_eq!(&image[..4], b"MMX\x02");
        let flat = image.len() - idx.posting_bytes() + idx.num_positions() * 8;
        assert!(
            image.len() < flat,
            "packed {} vs flat {flat} bytes",
            image.len()
        );
    }

    #[test]
    fn both_loaders_agree() {
        let idx = sample_index();
        let p = tmp("agree");
        save_index(&idx, &p).unwrap();
        let (a, _) = load_index(&p).unwrap();
        let (b, _) = load_index_mmap(&p).unwrap();
        assert_same(&a, &b);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn queries_survive_round_trip() {
        let idx = sample_index();
        let p = tmp("query");
        save_index(&idx, &p).unwrap();
        let (back, _) = load_index_mmap(&p).unwrap();
        let q = back.seqs[0].seq.slice(5_000, 6_000);
        let a1 = idx.collect_anchors(&q);
        let a2 = back.collect_anchors(&q);
        assert_eq!(a1, a2);
        assert!(!a1.is_empty());
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn corrupt_magic_rejected() {
        let p = tmp("corrupt");
        std::fs::write(&p, b"NOPE").unwrap();
        for r in [load_index(&p), load_index_mmap(&p)] {
            let e = r.unwrap_err();
            assert!(e.is_corrupt(), "{e}");
            assert!(e.to_string().contains("bad index magic"), "{e}");
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn unknown_mmx_version_is_typed_not_corrupt() {
        use crate::shard::{AnyIndex, ShardOpenOpts};
        // MMX-prefixed files of other versions name found vs. expected —
        // distinct from corruption, so tooling can say "rebuild". Version 1
        // is the retired flat layout. (Version 3 is the sharded manifest,
        // tested separately below.)
        let assert_version = |e: IndexError, found: u8| {
            assert!(
                matches!(e, IndexError::Version { found: f, expected: 2 } if f == found),
                "{e}"
            );
            assert!(!e.is_corrupt());
            let s = e.to_string();
            assert!(s.contains(&format!("version {found}")), "{s}");
            assert!(s.contains("version 2"), "{s}");
            assert!(s.contains("manymap index"), "{s}");
        };
        for found in [0u8, 1, 4, 42] {
            let p = tmp(&format!("version-{found}"));
            let mut bytes = b"MMX".to_vec();
            bytes.push(found);
            bytes.extend_from_slice(&[0u8; 64]); // junk body, never parsed
            std::fs::write(&p, &bytes).unwrap();
            for r in [load_index(&p), load_index_mmap(&p)] {
                assert_version(r.unwrap_err(), found);
            }
            let e = AnyIndex::open_mmap(&p, ShardOpenOpts::default()).unwrap_err();
            assert_version(e, found);
            std::fs::remove_file(&p).unwrap();
        }
        // A manifest whose format byte says its shards hold v1 images: the
        // same typed error, before any shard file is looked for.
        let m = crate::shard::ShardManifest {
            k: 15,
            w: 10,
            hpc: false,
            max_occ: 10,
            seq_names: vec![],
            seq_lens: vec![],
            shards: vec![],
        };
        let mut bytes = crate::shard::serialize_manifest(&m);
        let n = bytes.len();
        assert_eq!(bytes[28..32], 2u32.to_le_bytes(), "format byte moved");
        bytes[28] = 1;
        let sum = crate::xxh::xxh64(&bytes[12..n - 8], 0);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let p = tmp("manifest-format-1");
        std::fs::write(&p, &bytes).unwrap();
        let e = AnyIndex::open_mmap(&p, ShardOpenOpts::default()).unwrap_err();
        assert_version(e, 1);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn v3_manifest_magic_routes_to_the_sharded_loader() {
        // A v3 manifest handed to a flat loader is neither "unknown
        // version" nor "corrupt": it is a typed redirect naming the file.
        let p = tmp("v3-route");
        let mut bytes = b"MMX\x03".to_vec();
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&p, &bytes).unwrap();
        for r in [load_index(&p), load_index_mmap(&p)] {
            let e = r.unwrap_err();
            assert!(
                matches!(&e, IndexError::ShardedManifest { path } if *path == p),
                "{e}"
            );
            assert!(!e.is_corrupt());
            assert!(e.to_string().contains("sharded"), "{e}");
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn trailing_bytes_after_declared_sections_are_rejected() {
        // Regression: the parser used to stop at the end of the declared
        // block pool and silently ignore anything after it, so a torn
        // write's zero padding (or a truncation of a larger index whose
        // early length prefixes still fit) produced a "valid" index. The
        // declared sections must span the file exactly.
        let p = tmp("trailing");
        save_index(&sample_index(), &p).unwrap();
        let clean = std::fs::read(&p).unwrap();
        // The untampered file still loads.
        assert!(load_index(&p).is_ok());
        for pad in [1usize, 8, 4096] {
            let mut torn = clean.clone();
            torn.resize(clean.len() + pad, 0);
            std::fs::write(&p, &torn).unwrap();
            for r in [load_index(&p), load_index_mmap(&p)] {
                let e = r.unwrap_err();
                assert!(e.is_corrupt(), "pad={pad}: {e}");
                assert!(e.to_string().contains("before the end of the file"), "{e}");
            }
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn truncated_suffix_with_refitting_prefix_is_rejected() {
        // A *larger* index truncated such that a smaller one's sections
        // still parse: simulate by writing a small index followed by the
        // tail of a big one (what a partially overwritten file looks
        // like). The parse of the small image succeeds but must then be
        // rejected for not reaching EOF.
        let small = sample_index();
        let p = tmp("refit");
        save_index(&small, &p).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let tail: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        bytes.extend_from_slice(&tail);
        std::fs::write(&p, &bytes).unwrap();
        let e = load_index_mmap(&p).unwrap_err();
        assert!(e.is_corrupt(), "{e}");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn v2_block_pool_is_file_aligned() {
        let idx = sample_index();
        let p = tmp("aligned");
        save_index(&idx, &p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        // File parses; by construction the pool length prefix sits at an
        // 8-aligned offset. Recover it by replaying the loader's math on
        // a raw slice parse.
        let mut src = SliceSource::new(&bytes);
        assert!(parse_index(&mut src).is_ok());
        assert_eq!(bytes.len() % 8, 0, "v2 files end 8-aligned");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn v2_truncations_and_bitflips_are_typed() {
        let idx = sample_index();
        let p = tmp("v2-fault");
        save_index(&idx, &p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::remove_file(&p).unwrap();
        // Truncation at a spread of offsets: typed corruption, no panic.
        for cut in [
            5usize,
            21,
            100,
            bytes.len() / 2,
            bytes.len() - 9,
            bytes.len() - 1,
        ] {
            let mut src = SliceSource::new(&bytes[..cut]);
            let e = parse_index(&mut src).unwrap_err();
            assert!(e.is_corrupt(), "cut at {cut}: {e}");
        }
        // Flip bits in the bucket-ref region: the checked walk or the
        // budget checks must catch anything that decodes out of range.
        let mut evil = bytes.clone();
        let n = evil.len();
        evil[n - 12] ^= 0xff; // inside the block pool: decode walk sees it
        let mut src = SliceSource::new(&evil);
        // Either rejected as corrupt, or it decodes to different (still
        // in-range) hits — both are sound; what is forbidden is a panic.
        let _ = parse_index(&mut src);
    }
}
