//! The on-disk formats, and the one way a file becomes an index.
//!
//! * The **image** (v2, `MMX\x02`, DESIGN.md §14) mirrors minimap2's `.mmi`
//!   in spirit: a magic header, per-sequence metadata and packed bases, then
//!   the minimizer table — `(base, ocw)` [`BucketRef`] map values plus a
//!   pool of FOR/delta bit-packed block words, zero-padded so the pool sits
//!   8-byte aligned (mmap'd `u64` loads never straddle). The fourth byte
//!   after the `MMX` prefix names the version; an image of any *other*
//!   version is a typed [`IndexError::Version`] — "rebuild your index",
//!   never "corrupt". An image is never a file by itself.
//! * The **container** (`MMXS`, DESIGN.md §15.2) is what every index file
//!   is: a 120-byte directory (magic, version, first reference id, four
//!   `(offset, length, xxh64)` section entries, and a hash of all of that)
//!   followed by one embedded image. [`save_index`] writes a single-file
//!   index as one container; `build_sharded` writes one per shard. A bare
//!   image in a file is a typed [`IndexError::NoContainer`].
//! * The **manifest** (`MMX\x03`) ties the containers of a sharded index
//!   together: length-prefixed payload plus a trailing xxh64.
//!
//! Reading is one path: `Mmap::open` → `verify_checksums` (every byte of
//! the file, before any of it is interpreted) → [`parse_index`] over the
//! embedded image. There is no unchecked reader.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use mmm_io::{write_atomic, ByteSource, SliceSource};
use mmm_seq::PackedSeq;

use crate::error::IndexError;
use crate::index::{MinimizerIndex, RefSeq};
use crate::postings::{BucketRef, PackedPostings};
use crate::shard::{Bloom, ShardManifest, ShardMeta};
use crate::xxh::xxh64;

/// Shared magic prefix of everything this crate writes; the fourth byte
/// names the kind (`\x02` image, `\x03` manifest, `S` container).
pub const MAGIC_PREFIX: &[u8; 3] = b"MMX";
/// v2: FOR/delta bit-packed posting blocks — the one image version this
/// build writes and reads (v1 was the retired `u64`-per-hit layout).
pub(crate) const VERSION_PACKED: u8 = 2;

/// Magic of a container file.
const CONTAINER_MAGIC: [u8; 4] = *b"MMXS";
const CONTAINER_VERSION: u32 = 1;
/// Bytes covered by the directory hash: magic, version, rid_start and the
/// four section entries.
const CONTAINER_DIR_LEN: usize = 112;
/// Offset of the embedded index image (8-aligned).
const CONTAINER_IMAGE_OFF: usize = 120;
/// Section names, in file order. Index `i` seeds section `i`'s XXH64 so
/// two sections with identical bytes still get distinct digests.
pub const CONTAINER_SECTIONS: [&str; 4] = ["header", "seqs", "map", "pool"];

/// Magic of a shard manifest.
pub(crate) const MANIFEST_MAGIC: [u8; 4] = *b"MMX\x03";

/// Write `idx` to `path` as a single-file index: one container, atomically.
pub fn save_index(idx: &MinimizerIndex, path: &Path) -> io::Result<()> {
    write_container(idx, 0, path).map(|_| ())
}

/// Append `idx` to `out` as a v2 image and report the image-relative
/// `[start, end)` byte ranges of its four sections, in
/// [`CONTAINER_SECTIONS`] order (the container checksums each range
/// independently so corruption reports can name the damaged section). The
/// image is self-contained: parsing it from offset 0 of any [`ByteSource`]
/// reproduces the index, which is how the container embeds it after its
/// checksum directory (and how the hostile-input suites get at the bare
/// image).
pub fn write_index_image(idx: &MinimizerIndex, out: &mut Vec<u8>) -> [(u64, u64); 4] {
    let start = out.len();
    let pos = |out: &Vec<u8>| (out.len() - start) as u64;
    out.extend_from_slice(MAGIC_PREFIX);
    out.push(VERSION_PACKED);
    out.extend_from_slice(&(idx.k as u32).to_le_bytes());
    out.extend_from_slice(&(idx.w as u32).to_le_bytes());
    out.extend_from_slice(&(idx.hpc as u32).to_le_bytes());
    out.extend_from_slice(&idx.max_occ.to_le_bytes());
    out.extend_from_slice(&(idx.seqs.len() as u64).to_le_bytes());
    let header_end = pos(out);
    for s in &idx.seqs {
        out.extend_from_slice(&(s.name.len() as u64).to_le_bytes());
        out.extend_from_slice(s.name.as_bytes());
        out.extend_from_slice(&(s.seq.len() as u64).to_le_bytes());
        out.extend_from_slice(&(s.seq.words().len() as u64).to_le_bytes());
        for &word in s.seq.words() {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }
    let seqs_end = pos(out);
    // Minimizer table: keys sorted for determinism, then the per-key
    // values, then the hit-carrying section.
    let p = &idx.postings;
    let mut keys: Vec<u64> = p.map.keys().copied().collect();
    keys.sort_unstable();
    out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
    for &k in &keys {
        out.extend_from_slice(&k.to_le_bytes());
    }
    for &k in &keys {
        let r = p.map[&k];
        out.extend_from_slice(&r.base.to_le_bytes());
        out.extend_from_slice(&r.ocw.to_le_bytes());
    }
    let map_end = pos(out);
    out.extend_from_slice(&p.n_hits.to_le_bytes());
    // Zero-pad so the block pool (after its 8-byte length prefix) starts
    // 8-byte aligned in the image: an mmap'd parse can then read block
    // words without straddling.
    let pad = (8 - (pos(out) % 8) as usize) % 8;
    out.extend_from_slice(&[0u8; 7][..pad]);
    out.extend_from_slice(&(p.blocks.len() as u64).to_le_bytes());
    for &b in &p.blocks {
        out.extend_from_slice(&b.to_le_bytes());
    }
    [
        (0, header_end),
        (header_end, seqs_end),
        (seqs_end, map_end),
        (map_end, pos(out)),
    ]
}

/// Serialize `idx` into a container at `path`, atomically. Returns
/// `(file_len, dir_hash)`; the directory hash transitively covers every
/// byte of the file (it hashes the section digests), so a manifest can pin
/// the exact shard generation with eight bytes.
pub(crate) fn write_container(
    idx: &MinimizerIndex,
    rid_start: u32,
    path: &Path,
) -> io::Result<(u64, u64)> {
    // The image goes straight behind a directory-sized gap, filled in once
    // the section boundaries and digests are known.
    let mut file = vec![0u8; CONTAINER_IMAGE_OFF];
    let sections = write_index_image(idx, &mut file);
    let mut dir = Vec::with_capacity(CONTAINER_IMAGE_OFF);
    dir.extend_from_slice(&CONTAINER_MAGIC);
    dir.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
    dir.extend_from_slice(&(rid_start as u64).to_le_bytes());
    let image = &file[CONTAINER_IMAGE_OFF..];
    for (i, &(s, e)) in sections.iter().enumerate() {
        let digest = xxh64(&image[s as usize..e as usize], i as u64);
        dir.extend_from_slice(&(CONTAINER_IMAGE_OFF as u64 + s).to_le_bytes());
        dir.extend_from_slice(&(e - s).to_le_bytes());
        dir.extend_from_slice(&digest.to_le_bytes());
    }
    debug_assert_eq!(dir.len(), CONTAINER_DIR_LEN);
    let dir_hash = xxh64(&dir, 0);
    dir.extend_from_slice(&dir_hash.to_le_bytes());
    file[..CONTAINER_IMAGE_OFF].copy_from_slice(&dir);
    write_atomic(path, &file)?;
    Ok((file.len() as u64, dir_hash))
}

/// Validated container directory: rid base plus absolute section ranges.
#[derive(Debug)]
pub(crate) struct ContainerDir {
    pub rid_start: u64,
    pub dir_hash: u64,
    pub sections: [(u64, u64); 4],
}

/// What a file that does not start with the container magic is: a bare
/// image this build used to write (no checksum to verify — rebuild), an
/// `MMX` file of some other version, or not an index at all.
fn foreign_magic(bytes: &[u8]) -> IndexError {
    match bytes {
        [b'M', b'M', b'X', VERSION_PACKED, ..] => IndexError::NoContainer,
        [b'M', b'M', b'X', found, ..] => IndexError::Version {
            found: *found,
            expected: VERSION_PACKED,
        },
        _ => IndexError::Corrupt {
            offset: Some(0),
            what: "bad index magic (want \"MMXS\")".into(),
        },
    }
}

/// Validate a container end-to-end *before* any byte of it is parsed:
/// magic, directory hash, version, section contiguity against the real
/// file length, and all four section digests. Every mmap-derived slice
/// must pass through here before it leaves this crate (enforced by the
/// xtask `mmap-checksum` lint).
pub(crate) fn verify_checksums(bytes: &[u8]) -> Result<ContainerDir, IndexError> {
    let corrupt = |what: String| IndexError::Corrupt { offset: None, what };
    if !bytes.starts_with(&CONTAINER_MAGIC) {
        return Err(foreign_magic(bytes));
    }
    if bytes.len() < CONTAINER_IMAGE_OFF {
        return Err(corrupt(format!(
            "index file is {} bytes, smaller than the {CONTAINER_IMAGE_OFF}-byte \
             container directory; the file is torn or was truncated",
            bytes.len()
        )));
    }
    let stored_dir = le_u64(bytes, CONTAINER_DIR_LEN);
    let computed_dir = xxh64(&bytes[..CONTAINER_DIR_LEN], 0);
    if stored_dir != computed_dir {
        return Err(IndexError::Checksum {
            section: "directory",
            what: format!("stored {stored_dir:#018x}, computed {computed_dir:#018x}"),
        });
    }
    // Behind the directory hash, so a flipped bit here is a checksum
    // mismatch and only a container some other build wrote is a version.
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != CONTAINER_VERSION {
        return Err(IndexError::Version {
            found: version.min(u8::MAX as u32) as u8,
            expected: CONTAINER_VERSION as u8,
        });
    }
    let rid_start = le_u64(bytes, 8);
    let mut sections = [(0u64, 0u64); 4];
    let mut cursor = CONTAINER_IMAGE_OFF as u64;
    for (i, sec) in sections.iter_mut().enumerate() {
        let entry = 16 + i * 24;
        let (off, len, digest) = (
            le_u64(bytes, entry),
            le_u64(bytes, entry + 8),
            le_u64(bytes, entry + 16),
        );
        if off != cursor {
            return Err(corrupt(format!(
                "{} section starts at byte {off}, expected {cursor} \
                 (sections must be contiguous)",
                CONTAINER_SECTIONS[i]
            )));
        }
        let end = off.checked_add(len).ok_or_else(|| {
            corrupt(format!(
                "{} section length overflows",
                CONTAINER_SECTIONS[i]
            ))
        })?;
        if end > bytes.len() as u64 {
            return Err(corrupt(format!(
                "{} section ends at byte {end} but the file is {} bytes; \
                 the file is torn or was truncated",
                CONTAINER_SECTIONS[i],
                bytes.len()
            )));
        }
        let computed = xxh64(&bytes[off as usize..end as usize], i as u64);
        if computed != digest {
            return Err(IndexError::Checksum {
                section: CONTAINER_SECTIONS[i],
                what: format!("stored {digest:#018x}, computed {computed:#018x}"),
            });
        }
        *sec = (off, end);
        cursor = end;
    }
    if cursor != bytes.len() as u64 {
        return Err(corrupt(format!(
            "pool section ends at byte {cursor} but the file is {} bytes; \
             trailing bytes are not allowed",
            bytes.len()
        )));
    }
    Ok(ContainerDir {
        rid_start,
        dir_hash: stored_dir,
        sections,
    })
}

/// Absolute `[start, end)` byte ranges of the four sections of a container,
/// in [`CONTAINER_SECTIONS`] order. Validates the whole container first.
/// Exists for the corruption-sweep tests and tooling that needs to aim at a
/// specific section; the mapper never calls it.
pub fn container_section_ranges(bytes: &[u8]) -> Result<[(u64, u64); 4], IndexError> {
    Ok(verify_checksums(bytes)?.sections)
}

/// The little-endian `u64` at `bytes[at..at + 8]` (the caller has checked
/// the length).
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Validate and parse a container from bytes (a memory map). Checksum
/// verification happens first; only then is the embedded image handed to
/// [`parse_index`].
pub(crate) fn parse_container(bytes: &[u8]) -> Result<(MinimizerIndex, ContainerDir), IndexError> {
    let dir = verify_checksums(bytes)?;
    let mut src = SliceSource::new(&bytes[CONTAINER_IMAGE_OFF..]);
    let idx = parse_index(&mut src)?;
    Ok((idx, dir))
}

/// Read a `u64` element count and sanity-check it against the bytes left in
/// the source. Every counted element occupies at least `min_bytes_each`
/// bytes on disk, so a count that claims more data than remains is corrupt —
/// rejecting it here turns a hostile/bit-flipped prefix into `InvalidData`
/// instead of a multi-gigabyte allocation.
fn bounded_count<S: ByteSource>(src: &mut S, min_bytes_each: u64, what: &str) -> io::Result<usize> {
    let n = src.take_u64()?;
    let rem = src.remaining_hint();
    if n.checked_mul(min_bytes_each).is_none_or(|need| need > rem) {
        return Err(corrupt(format!(
            "{what} count {n} exceeds the {rem} bytes remaining"
        )));
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
    let pad = (8 - (src.stream_position() % 8) as usize) % 8;
    let mut padb = [0u8; 7];
    src.take_exact(&mut padb[..pad])?;
    if padb[..pad].iter().any(|&b| b != 0) {
        return Err(corrupt("nonzero block-pool alignment padding".into()));
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

/// Parse an index image from any [`ByteSource`] — in production the bytes
/// behind a container directory that `verify_checksums` has accepted.
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
            offset: Some(src.stream_position()),
            what: "bad index magic".into(),
        });
    }
    let body = match magic[3] {
        VERSION_PACKED => parse_v2_body(src),
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
    let rem = src.remaining_hint();
    if rem > 0 {
        return Err(IndexError::Corrupt {
            offset: Some(src.stream_position()),
            what: format!(
                "index sections end {rem} byte(s) before the end of the \
                 file; the image is torn or was truncated from a larger \
                 index"
            ),
        });
    }
    Ok(idx)
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u64).to_le_bytes());
    out.extend_from_slice(b);
}

/// Serialize a manifest: magic, `u64` payload length, payload, trailing
/// XXH64 of the payload. The explicit length makes a torn tail detectable
/// even before the checksum is consulted.
pub(crate) fn serialize_manifest(m: &ShardManifest) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&(m.k as u32).to_le_bytes());
    p.extend_from_slice(&(m.w as u32).to_le_bytes());
    p.extend_from_slice(&(m.hpc as u32).to_le_bytes());
    p.extend_from_slice(&m.max_occ.to_le_bytes());
    // The image version of the shards' embedded index images.
    p.extend_from_slice(&u32::from(VERSION_PACKED).to_le_bytes());
    p.extend_from_slice(&(m.seq_names.len() as u64).to_le_bytes());
    for (name, len) in m.seq_names.iter().zip(&m.seq_lens) {
        put_bytes(&mut p, name.as_bytes());
        p.extend_from_slice(&len.to_le_bytes());
    }
    p.extend_from_slice(&(m.shards.len() as u64).to_le_bytes());
    for s in &m.shards {
        put_bytes(&mut p, s.path.as_bytes());
        p.extend_from_slice(&(s.rid_start as u64).to_le_bytes());
        p.extend_from_slice(&(s.rid_count as u64).to_le_bytes());
        p.extend_from_slice(&s.file_len.to_le_bytes());
        p.extend_from_slice(&s.dir_hash.to_le_bytes());
        p.extend_from_slice(&(s.bloom.words().len() as u64).to_le_bytes());
        for &w in s.bloom.words() {
            p.extend_from_slice(&w.to_le_bytes());
        }
    }
    let mut out = Vec::with_capacity(12 + p.len() + 8);
    out.extend_from_slice(&MANIFEST_MAGIC);
    out.extend_from_slice(&(p.len() as u64).to_le_bytes());
    out.extend_from_slice(&p);
    out.extend_from_slice(&xxh64(&p, 0).to_le_bytes());
    out
}

/// Parse and validate a v3 manifest. The payload checksum is verified
/// before a single field is interpreted.
pub(crate) fn parse_manifest(bytes: &[u8]) -> Result<ShardManifest, IndexError> {
    let corrupt = |what: String| IndexError::Corrupt { offset: None, what };
    if bytes.len() < 12 {
        return Err(corrupt(format!(
            "manifest is {} bytes, smaller than its 12-byte header",
            bytes.len()
        )));
    }
    if bytes[0..4] != MANIFEST_MAGIC {
        return Err(corrupt("bad manifest magic (want \"MMX\\x03\")".into()));
    }
    let plen = le_u64(bytes, 4);
    let want = 12u64.checked_add(plen).and_then(|v| v.checked_add(8));
    if want != Some(bytes.len() as u64) {
        return Err(corrupt(format!(
            "manifest declares a {plen}-byte payload but the file is {} \
             bytes; the manifest is torn or was truncated",
            bytes.len()
        )));
    }
    let payload = &bytes[12..12 + plen as usize];
    let stored = le_u64(bytes, 12 + plen as usize);
    let computed = xxh64(payload, 0);
    if stored != computed {
        return Err(IndexError::Checksum {
            section: "manifest",
            what: format!("stored {stored:#018x}, computed {computed:#018x}"),
        });
    }

    let mut src = SliceSource::new(payload);
    macro_rules! take {
        ($m:ident) => {{
            let pos = src.stream_position();
            src.$m().map_err(|e| IndexError::from_parse(pos, e))?
        }};
    }
    let k = take!(take_u32) as usize;
    let w = take!(take_u32) as usize;
    let hpc = take!(take_u32) != 0;
    let max_occ = take!(take_u32);
    match take!(take_u32) {
        f if f == u32::from(VERSION_PACKED) => {}
        // Shards of the retired flat layout: rebuild, as for a v1 image.
        1 => {
            return Err(IndexError::Version {
                found: 1,
                expected: VERSION_PACKED,
            })
        }
        f => {
            return Err(corrupt(format!("unknown posting format {f} in manifest")));
        }
    }
    let n_seqs = take!(take_u64) as usize;
    let mut seq_names = Vec::new();
    let mut seq_lens = Vec::new();
    for _ in 0..n_seqs {
        let name = take!(take_bytes);
        let name =
            String::from_utf8(name).map_err(|_| corrupt("reference name is not UTF-8".into()))?;
        seq_names.push(name);
        seq_lens.push(take!(take_u64));
    }
    let n_shards = take!(take_u64) as usize;
    let mut shards = Vec::new();
    let mut next_rid = 0u64;
    for i in 0..n_shards {
        let path = String::from_utf8(take!(take_bytes))
            .map_err(|_| corrupt(format!("shard {i} path is not UTF-8")))?;
        if path.is_empty() || path.contains('/') || path.contains('\\') || path.contains("..") {
            // A hostile manifest must not be able to point a shard outside
            // its own directory.
            return Err(corrupt(format!(
                "shard {i} path {path:?} is not a bare file name"
            )));
        }
        let rid_start = take!(take_u64);
        let rid_count = take!(take_u64);
        if rid_start != next_rid {
            return Err(corrupt(format!(
                "shard {i} starts at rid {rid_start}, expected {next_rid} \
                 (shards must tile the reference set contiguously)"
            )));
        }
        next_rid = rid_start
            .checked_add(rid_count)
            .ok_or_else(|| corrupt(format!("shard {i} rid range overflows")))?;
        let file_len = take!(take_u64);
        let dir_hash = take!(take_u64);
        let bloom = Bloom::from_words(take!(take_u64_vec));
        shards.push(ShardMeta {
            path,
            rid_start: rid_start as u32,
            rid_count: rid_count as u32,
            file_len,
            dir_hash,
            bloom,
        });
    }
    if next_rid != n_seqs as u64 {
        return Err(corrupt(format!(
            "shards cover {next_rid} reference ids but the manifest lists \
             {n_seqs} sequences"
        )));
    }
    if src.remaining() != 0 {
        return Err(corrupt(format!(
            "{} unparsed byte(s) after the shard table",
            src.remaining()
        )));
    }
    Ok(ShardManifest {
        k,
        w,
        hpc,
        max_occ,
        seq_names,
        seq_lens,
        shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IdxOpts;
    use crate::shard::{AnyIndex, ShardOpenOpts};
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

    /// The one file reader, as every caller outside this crate reaches it.
    fn open(p: &Path) -> Result<MinimizerIndex, IndexError> {
        match AnyIndex::open_mmap(p, ShardOpenOpts::default())? {
            AnyIndex::Flat(idx) => Ok(idx),
            AnyIndex::Sharded(_) => panic!("{} opened as a manifest", p.display()),
        }
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
    fn round_trip_mmap() {
        let idx = sample_index();
        let p = tmp("mmap");
        save_index(&idx, &p).unwrap();
        let back = open(&p).unwrap();
        std::fs::remove_file(&p).unwrap();
        assert_same(&idx, &back);
        // And it answers queries the same.
        let q = back.seqs[0].seq.slice(5_000, 6_000);
        assert_eq!(idx.collect_anchors(&q), back.collect_anchors(&q));
        assert!(!idx.collect_anchors(&q).is_empty());
    }

    #[test]
    fn packed_file_is_smaller() {
        // Smaller than the same index with 8 bytes per hit in place of the
        // block pool (what the flat layout spent on its positions array).
        let idx = sample_index();
        let p = tmp("size-packed");
        save_index(&idx, &p).unwrap();
        let file = std::fs::read(&p).unwrap();
        std::fs::remove_file(&p).unwrap();
        assert_eq!(file[..4], CONTAINER_MAGIC);
        assert_eq!(&file[CONTAINER_IMAGE_OFF..][..4], b"MMX\x02");
        let flat = file.len() - idx.posting_bytes() + idx.num_positions() * 8;
        assert!(
            file.len() < flat,
            "packed {} vs flat {flat} bytes",
            file.len()
        );
    }

    #[test]
    fn container_round_trip_and_section_corruption() {
        let idx = sample_index();
        let p = tmp("container");
        let (len, dir_hash) = write_container(&idx, 7, &p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::remove_file(&p).unwrap();
        assert_eq!(bytes.len() as u64, len);

        let (back, dir) = parse_container(&bytes).unwrap();
        assert_eq!(dir.rid_start, 7);
        assert_eq!(dir.dir_hash, dir_hash);
        assert_same(&idx, &back);

        // Flip the first and last byte of each section: the error names it.
        for (i, &(s, e)) in dir.sections.iter().enumerate() {
            for off in [s, e - 1] {
                let mut bad = bytes.clone();
                bad[off as usize] ^= 0x01;
                match parse_container(&bad).unwrap_err() {
                    IndexError::Checksum { section, .. } => {
                        assert_eq!(section, CONTAINER_SECTIONS[i], "offset {off}")
                    }
                    other => panic!("section {i} offset {off}: {other}"),
                }
            }
        }
        // Torn tail: the directory span check catches it.
        let err = parse_container(&bytes[..bytes.len() - 5]).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
        // Directory damage is its own section — the version field included,
        // which sits behind the directory hash.
        for off in [4usize, 9, 119] {
            let mut bad = bytes.clone();
            bad[off] ^= 0x10;
            assert!(
                matches!(
                    parse_container(&bad).unwrap_err(),
                    IndexError::Checksum {
                        section: "directory",
                        ..
                    }
                ),
                "offset {off}"
            );
        }
    }

    #[test]
    fn corrupt_magic_rejected() {
        let p = tmp("corrupt");
        for bytes in [&b"NOPE"[..], b"MM", b""] {
            std::fs::write(&p, bytes).unwrap();
            let e = open(&p).unwrap_err();
            assert!(e.is_corrupt(), "{e}");
            assert!(e.to_string().contains("bad index magic"), "{e}");
        }
        std::fs::remove_file(&p).unwrap();
    }

    /// What the parent build wrote as a single-file index: the image with
    /// no container around it. There is nothing to verify it against, so it
    /// is refused with a rebuild hint — not parsed, not called corrupt.
    #[test]
    fn bare_image_file_is_a_typed_rebuild_error() {
        let idx = sample_index();
        let mut image = Vec::new();
        write_index_image(&idx, &mut image);
        assert!(parse_index(&mut SliceSource::new(&image)).is_ok());
        let p = tmp("bare-v2");
        // Whole, truncated to the magic, and damaged: the same answer.
        let mut flipped = image.clone();
        flipped[image.len() / 2] ^= 0x10;
        for bytes in [&image[..], &image[..4], &flipped[..]] {
            std::fs::write(&p, bytes).unwrap();
            let e = open(&p).unwrap_err();
            assert!(matches!(e, IndexError::NoContainer), "{e}");
            assert!(!e.is_corrupt());
            let s = e.to_string();
            assert!(s.contains("no checksum container"), "{s}");
            assert!(s.contains("rebuild the index with `manymap index`"), "{s}");
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn unknown_mmx_version_is_typed_not_corrupt() {
        // MMX-prefixed files of other versions name found vs. expected —
        // distinct from corruption, so tooling can say "rebuild". Version 1
        // is the retired flat layout.
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
            assert_version(open(&p).unwrap_err(), found);
            // The same byte inside a container is the embedded image's.
            let e = parse_index(&mut SliceSource::new(&bytes)).unwrap_err();
            assert_version(e, found);
            std::fs::remove_file(&p).unwrap();
        }
        // A manifest whose format byte says its shards hold v1 images: the
        // same typed error, before any shard file is looked for.
        let m = ShardManifest {
            k: 15,
            w: 10,
            hpc: false,
            max_occ: 10,
            seq_names: vec![],
            seq_lens: vec![],
            shards: vec![],
        };
        let mut bytes = serialize_manifest(&m);
        let n = bytes.len();
        assert_eq!(bytes[28..32], 2u32.to_le_bytes(), "format byte moved");
        bytes[28] = 1;
        let sum = xxh64(&bytes[12..n - 8], 0);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let p = tmp("manifest-format-1");
        std::fs::write(&p, &bytes).unwrap();
        let e = AnyIndex::open_mmap(&p, ShardOpenOpts::default()).unwrap_err();
        assert_version(e, 1);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn trailing_bytes_after_declared_sections_are_rejected() {
        // Regression: the parser used to stop at the end of the declared
        // block pool and silently ignore anything after it, so a torn
        // write's zero padding (or a truncation of a larger index whose
        // early length prefixes still fit) produced a "valid" index. The
        // declared sections must span the image — and the file — exactly.
        let p = tmp("trailing");
        save_index(&sample_index(), &p).unwrap();
        let clean = std::fs::read(&p).unwrap();
        // The untampered file still loads.
        assert!(open(&p).is_ok());
        // Zero padding, and the nonzero tail of a larger, overwritten index.
        for (pad, fill) in [(1usize, 0u8), (8, 0), (4096, 0), (1024, 0xA7)] {
            let mut torn = clean.clone();
            torn.resize(clean.len() + pad, fill);
            std::fs::write(&p, &torn).unwrap();
            let e = open(&p).unwrap_err();
            assert!(e.is_corrupt(), "pad={pad}: {e}");
            assert!(e.to_string().contains("trailing bytes"), "{e}");
            let e = parse_index(&mut SliceSource::new(&torn[CONTAINER_IMAGE_OFF..])).unwrap_err();
            assert!(e.to_string().contains("before the end of the file"), "{e}");
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn v2_block_pool_is_file_aligned() {
        let idx = sample_index();
        let p = tmp("aligned");
        save_index(&idx, &p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        // The image starts 8-aligned behind the directory and, by
        // construction, puts the pool length prefix at an 8-aligned offset.
        assert_eq!(CONTAINER_IMAGE_OFF % 8, 0);
        let mut src = SliceSource::new(&bytes[CONTAINER_IMAGE_OFF..]);
        assert!(parse_index(&mut src).is_ok());
        assert_eq!(bytes.len() % 8, 0, "index files end 8-aligned");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn v2_truncations_and_bitflips_are_typed() {
        let idx = sample_index();
        let mut bytes = Vec::new();
        write_index_image(&idx, &mut bytes);
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
        // Behind no checksum (a bare image only tests and the fuzzer can
        // hand to the parser) it is either rejected as corrupt or decodes
        // to different, still in-range hits — what is forbidden is a panic.
        let _ = parse_index(&mut src);
    }
}
