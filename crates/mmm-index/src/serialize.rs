//! The on-disk formats, and the one way a file becomes an index.
//!
//! * The **image** (v2, `MMX\x02`, DESIGN.md §14) mirrors minimap2's `.mmi`
//!   in spirit: a magic header, per-sequence metadata and packed bases, then
//!   the minimizer table — sorted keys, `(base, ocw)` bucket refs and a
//!   pool of FOR/delta bit-packed block words, zero-padded so the pool sits
//!   8-byte aligned. It is also the *in-memory* index: the builder writes
//!   these bytes once and a [`MinimizerIndex`] is a validated view over
//!   them, so writing a file wraps bytes that already exist. An image of
//!   any *other* version is a typed [`IndexError::Version`] — "rebuild your
//!   index", never "corrupt". An image is never a file by itself.
//! * The **container** (`MMXS`, DESIGN.md §15.2) is what every index file
//!   is: a 120-byte directory (magic, version, first reference id, four
//!   `(offset, length, xxh64)` section entries, and a hash of all of that)
//!   followed by one embedded image. [`save_index`] writes a single-file
//!   index as one container; `build_sharded` writes one per shard. A bare
//!   image in a file is a typed [`IndexError::NoContainer`].
//! * The **manifest** (`MMX\x04`, DESIGN.md §15.1) ties the containers of a
//!   sharded index together and holds their one bit-sliced minimizer
//!   filter: length-prefixed payload plus a trailing xxh64. A v3 manifest
//!   (one filter per shard) is a typed [`IndexError::OldManifest`].
//!
//! Reading is one path: `Mmap::open` → `VerifiedMap::verify` (every byte
//! checksummed before any is interpreted) → `open_image` (every offset,
//! count and bucket a query will follow validated where it lies; nothing
//! copied). Checksums detect damage, they do not authenticate, so the
//! second step trusts nothing the first let through.

use std::io;
use std::path::Path;

use mmm_io::{stage_atomic, Mmap, SliceSource, Staged};

use crate::error::IndexError;
use crate::index::{IdxOpts, Image, MinimizerIndex, SeqSpan};
use crate::postings::PackedPostings;
use crate::shard::{ShardFilter, ShardManifest, ShardMeta};
use crate::xxh::xxh64;

/// Shared magic prefix of everything this crate writes; the fourth byte
/// names the kind (`\x02` image, `\x04` manifest, `S` container).
pub const MAGIC_PREFIX: &[u8; 3] = b"MMX";
/// v2: FOR/delta bit-packed posting blocks — the one image version this
/// build writes and reads (v1 was the retired `u64`-per-hit layout).
pub(crate) const VERSION_PACKED: u8 = 2;
/// Image offset of the header's `max_occ` field: the one header value that
/// is re-cut after a build (`build_sharded`'s global cutoff).
const MAX_OCC_AT: usize = 16;
/// Length of the image header: magic, `k`, `w`, `hpc`, `max_occ`, and the
/// sequence count.
const HEADER_LEN: usize = 28;

/// Magic of a container file.
const CONTAINER_MAGIC: [u8; 4] = *b"MMXS";
const CONTAINER_VERSION: u32 = 1;
/// Bytes covered by the directory hash: magic, version, rid_start and the
/// four section entries.
const CONTAINER_DIR_LEN: usize = 112;
/// Offset of the embedded index image (8-aligned).
pub(crate) const CONTAINER_IMAGE_OFF: usize = 120;
/// Section names, in file order. Index `i` seeds section `i`'s XXH64 so
/// two sections with identical bytes still get distinct digests.
pub const CONTAINER_SECTIONS: [&str; 4] = ["header", "seqs", "map", "pool"];

/// Magic of a shard manifest.
pub(crate) const MANIFEST_MAGIC: [u8; 4] = *b"MMX\x04";
/// The fourth magic byte of the retired v3 manifest, which stored one
/// filter per shard.
const MANIFEST_V3: u8 = 3;

/// Write `idx` to `path` as a single-file index: one container, atomically.
pub fn save_index(idx: &MinimizerIndex, path: &Path) -> io::Result<()> {
    stage_container(idx, 0, path)?.0.publish()
}

/// Start an image in `out`: the header of an index over `n_seqs`
/// sequences, `max_occ` still zero. The builder follows it with one
/// [`write_seq`] per sequence and the minimizer table
/// ([`PackedPostings::emit`]); a written image takes `max_occ` from the
/// index's field.
pub(crate) fn write_header(out: &mut Vec<u8>, opts: &IdxOpts, n_seqs: usize) {
    out.extend_from_slice(MAGIC_PREFIX);
    out.push(VERSION_PACKED);
    for field in [opts.k as u32, opts.w as u32, opts.hpc as u32, 0] {
        out.extend_from_slice(&field.to_le_bytes());
    }
    out.extend_from_slice(&(n_seqs as u64).to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN);
}

/// Set the header's `max_occ` — in a written image, the index's field.
pub(crate) fn set_max_occ(image: &mut [u8], max_occ: u32) {
    image[MAX_OCC_AT..][..4].copy_from_slice(&max_occ.to_le_bytes());
}

/// Append one sequence record: name, base count, and the 2-bit packed
/// bases as little-endian `u32` words (16 bases each).
pub(crate) fn write_seq(out: &mut Vec<u8>, name: &str, len: usize, words: &[u32]) {
    out.extend_from_slice(&(name.len() as u64).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&(len as u64).to_le_bytes());
    out.extend_from_slice(&(words.len() as u64).to_le_bytes());
    for &word in words {
        out.extend_from_slice(&word.to_le_bytes());
    }
}

/// Append `idx`'s v2 image to `out` and report the image-relative
/// `[start, end)` byte ranges of its four sections, in
/// [`CONTAINER_SECTIONS`] order (the container checksums each range
/// independently so corruption reports can name the damaged section). The
/// bytes are the ones `idx` reads, with the header's `max_occ` set from the
/// field; [`MinimizerIndex::from_image_bytes`] over them reproduces the
/// index, which is how the hostile-input suites get at the bare image.
pub fn write_index_image(idx: &MinimizerIndex, out: &mut Vec<u8>) -> [(u64, u64); 4] {
    let (header, body, sections) = image_parts(idx);
    out.extend_from_slice(&header);
    out.extend_from_slice(body);
    sections
}

/// `idx`'s v2 image as the header — with `max_occ` set from the field —
/// and the rest where it lies, and the image-relative ranges of its four
/// sections.
fn image_parts(idx: &MinimizerIndex) -> ([u8; HEADER_LEN], &[u8], [(u64, u64); 4]) {
    let image = idx.image.bytes();
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&image[..HEADER_LEN]);
    set_max_occ(&mut header, idx.max_occ);
    let (map, pool) = (idx.postings.map_start(), idx.postings.pool_start());
    let sections = [
        (0, HEADER_LEN),
        (HEADER_LEN, map),
        (map, pool),
        (pool, image.len()),
    ]
    .map(|(s, e)| (s as u64, e as u64));
    (header, &image[HEADER_LEN..], sections)
}

/// Wrap `idx`'s image in a container staged for `path` (published by
/// [`Staged::publish`], atomically). Returns it with `(file_len,
/// dir_hash)`; the directory hash transitively covers every byte of the
/// file (it hashes the section digests), so a manifest can pin the exact
/// shard generation with eight bytes. The image is written from where it
/// lies, behind the directory and its own header.
pub(crate) fn stage_container(
    idx: &MinimizerIndex,
    rid_start: u32,
    path: &Path,
) -> io::Result<(Staged, u64, u64)> {
    let (header, body, sections) = image_parts(idx);
    let mut dir = Vec::with_capacity(CONTAINER_IMAGE_OFF);
    dir.extend_from_slice(&CONTAINER_MAGIC);
    dir.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
    dir.extend_from_slice(&(rid_start as u64).to_le_bytes());
    for (i, &(s, e)) in sections.iter().enumerate() {
        let digest = if i == 0 {
            xxh64(&header, 0)
        } else {
            xxh64(
                &body[s as usize - HEADER_LEN..e as usize - HEADER_LEN],
                i as u64,
            )
        };
        dir.extend_from_slice(&(CONTAINER_IMAGE_OFF as u64 + s).to_le_bytes());
        dir.extend_from_slice(&(e - s).to_le_bytes());
        dir.extend_from_slice(&digest.to_le_bytes());
    }
    debug_assert_eq!(dir.len(), CONTAINER_DIR_LEN);
    let dir_hash = xxh64(&dir, 0);
    dir.extend_from_slice(&dir_hash.to_le_bytes());
    let staged = stage_atomic(path, &[&dir, &header, body])?;
    Ok((
        staged,
        (CONTAINER_IMAGE_OFF + HEADER_LEN + body.len()) as u64,
        dir_hash,
    ))
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
        [b'M', b'M', b'X', MANIFEST_V3, ..] => IndexError::OldManifest { found: MANIFEST_V3 },
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

/// Validate a container end-to-end *before* any byte of it is interpreted:
/// magic, directory hash, version, section contiguity against the real
/// file length, and all four section digests.
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

/// A mapped container file every byte of which has passed its checksum —
/// the only thing [`MinimizerIndex::from_verified`] accepts, and
/// [`VerifiedMap::verify`] is its only constructor: no mapped byte reaches
/// a query without having gone through [`verify_checksums`].
pub(crate) struct VerifiedMap {
    map: Mmap,
    dir: ContainerDir,
}

impl VerifiedMap {
    /// Run the checksum pass over `map` (under the sequential read-ahead it
    /// was opened with), then tell the kernel the lookups that follow probe
    /// it at random.
    pub(crate) fn verify(map: Mmap) -> Result<Self, IndexError> {
        let dir = verify_checksums(&map)?;
        map.advise_random();
        Ok(VerifiedMap { map, dir })
    }

    pub(crate) fn dir(&self) -> &ContainerDir {
        &self.dir
    }

    pub(crate) fn into_map(self) -> Mmap {
        self.map
    }
}

/// Absolute `[start, end)` byte ranges of the four sections of a container,
/// in [`CONTAINER_SECTIONS`] order. Validates the whole container first.
/// Exists for the corruption-sweep tests and tooling that needs to aim at a
/// specific section; the mapper never calls it.
pub fn container_section_ranges(bytes: &[u8]) -> Result<[(u64, u64); 4], IndexError> {
    Ok(verify_checksums(bytes)?.sections)
}

/// The little-endian `u64` at `bytes[at..at + 8]` (the caller has checked
/// the length). Everything in an image that follows the variable-length
/// sequence names is read this way: it has no alignment to rely on.
#[inline(always)]
pub(crate) fn le_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

pub(crate) fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Turn image bytes — a built buffer, or a mapped file that passed its
/// checksums — into an index *without copying them*: walk the header and
/// the sequence records to find where everything lies, then let
/// [`PackedPostings::open`] validate the minimizer table. Validated here,
/// in order: magic and version; sketch parameters in the range the sketcher
/// asserts; the sequence count and every name and word count bounded by the
/// bytes left; names UTF-8; each sequence's word count what its length
/// needs. A malformed or truncated image is [`IndexError::Corrupt`] with
/// the image offset where reading stopped; this never panics and allocates
/// nothing proportional to the image but one record per sequence.
pub(crate) fn open_image(image: Image) -> Result<MinimizerIndex, IndexError> {
    let mut src = SliceSource::new(image.bytes());
    let at = |src: &SliceSource, e| IndexError::from_parse(src.position() as u64, e);
    let magic = src.take_slice(4).map_err(|e| at(&src, e))?;
    if magic[..3] != MAGIC_PREFIX[..] {
        return Err(at(&src, corrupt("bad index magic".into())));
    }
    if magic[3] != VERSION_PACKED {
        return Err(IndexError::Version {
            found: magic[3],
            expected: VERSION_PACKED,
        });
    }
    let (k, w, hpc, max_occ, seqs, postings) = parse_v2_body(&mut src).map_err(|e| at(&src, e))?;
    Ok(MinimizerIndex {
        k,
        w,
        hpc,
        max_occ,
        image,
        seqs,
        postings,
    })
}

type V2Body = (usize, usize, bool, u32, Vec<SeqSpan>, PackedPostings);

fn parse_v2_body(src: &mut SliceSource<'_>) -> io::Result<V2Body> {
    let k = src.take_u32()? as usize;
    let w = src.take_u32()? as usize;
    let hpc = src.take_u32()? != 0;
    let max_occ = src.take_u32()?;
    // The sketcher asserts these ranges; a query must not be what finds out.
    if !(4..=28).contains(&k) || !(1..256).contains(&w) {
        return Err(corrupt(format!(
            "sketch parameters k={k}, w={w} are outside k in 4..=28, w in 1..=255"
        )));
    }
    // Each sequence record is at least 24 bytes (three u64 length fields).
    let n_seqs = src.take_len_prefix(24)?;
    let (mut seqs, mut total_len) = (Vec::new(), 0u64);
    for _ in 0..n_seqs {
        let name = src.position() + 8;
        let Ok(name_str) = std::str::from_utf8(src.take_bytes()?) else {
            return Err(corrupt("reference name is not UTF-8".into()));
        };
        let len = src.take_u64()?;
        let n_words = src.take_len_prefix(4)?;
        if n_words as u64 != len.div_ceil(16) {
            return Err(corrupt(format!(
                "sequence '{name_str}': {n_words} packed words cannot hold {len} bases"
            )));
        }
        seqs.push(SeqSpan {
            name,
            name_len: name_str.len(),
            // At most 16 bases per word of an image that is in memory.
            len: len as usize,
            words: src.position(),
        });
        src.take_slice(4 * n_words)?;
        total_len += len;
    }
    let postings = PackedPostings::open(src, n_seqs, total_len)?;
    Ok((k, w, hpc, max_occ, seqs, postings))
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u64).to_le_bytes());
    out.extend_from_slice(b);
}

/// Serialize a manifest: magic, `u64` payload length, payload, trailing
/// XXH64 of the payload. The explicit length makes a torn tail detectable
/// even before the checksum is consulted. The payload is the header (the
/// sketch parameters, the cutoff, the shards' image version and the
/// filter's geometry), the catalog, the shard table, and last the filter's
/// words.
pub(crate) fn serialize_manifest(m: &ShardManifest) -> Vec<u8> {
    // `build_sharded` gives every manifest it writes a filter.
    let (pos_bits, log2_positions, words) = m.filter.as_ref().map_or((0, 0, &[][..]), |f| {
        (f.pos_bits(), f.log2_positions(), f.words())
    });
    let mut p = Vec::with_capacity(MANIFEST_HEADER_LEN + 8 * words.len());
    p.extend_from_slice(&(m.k as u32).to_le_bytes());
    p.extend_from_slice(&(m.w as u32).to_le_bytes());
    p.extend_from_slice(&(m.hpc as u32).to_le_bytes());
    p.extend_from_slice(&m.max_occ.to_le_bytes());
    // The image version of the shards' embedded index images.
    p.extend_from_slice(&u32::from(VERSION_PACKED).to_le_bytes());
    p.extend_from_slice(&(pos_bits as u32).to_le_bytes());
    p.extend_from_slice(&log2_positions.to_le_bytes());
    p.extend_from_slice(&(words.len() as u64).to_le_bytes());
    debug_assert_eq!(p.len(), MANIFEST_HEADER_LEN);
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
    }
    for &w in words {
        p.extend_from_slice(&w.to_le_bytes());
    }
    let mut out = Vec::with_capacity(12 + p.len() + 8);
    out.extend_from_slice(&MANIFEST_MAGIC);
    out.extend_from_slice(&(p.len() as u64).to_le_bytes());
    out.extend_from_slice(&p);
    out.extend_from_slice(&xxh64(&p, 0).to_le_bytes());
    out
}

/// Bytes of the manifest payload's header: `k`, `w`, `hpc`, `max_occ`, the
/// shards' image version, the filter's bits per position and log2
/// position count (`u32` each), and its word count (`u64`).
const MANIFEST_HEADER_LEN: usize = 36;

/// Parse and validate a v4 manifest. The payload checksum is verified
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
        return Err(corrupt("bad manifest magic (want \"MMX\\x04\")".into()));
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
            let pos = src.position() as u64;
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
    // The sketcher asserts these ranges; a query must not be what finds out.
    if !(4..=28).contains(&k) || !(1..256).contains(&w) {
        return Err(corrupt(format!(
            "manifest sketch parameters k={k}, w={w} are outside k in 4..=28, w in 1..=255"
        )));
    }
    let pos_bits = take!(take_u32);
    let log2_positions = take!(take_u32);
    let n_words = take!(take_u64);
    let n_seqs = take!(take_u64) as usize;
    let mut seq_names = Vec::new();
    let mut seq_lens = Vec::new();
    for _ in 0..n_seqs {
        let name = std::str::from_utf8(take!(take_bytes))
            .map_err(|_| corrupt("reference name is not UTF-8".into()))?;
        seq_names.push(name.to_string());
        seq_lens.push(take!(take_u64));
    }
    let n_shards = take!(take_u64) as usize;
    let mut shards = Vec::new();
    let mut next_rid = 0u64;
    for i in 0..n_shards {
        let path = std::str::from_utf8(take!(take_bytes))
            .map_err(|_| corrupt(format!("shard {i} path is not UTF-8")))?
            .to_string();
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
        shards.push(ShardMeta {
            path,
            rid_start: rid_start as u32,
            rid_count: rid_count as u32,
            file_len,
            dir_hash,
        });
    }
    if next_rid != n_seqs as u64 {
        return Err(corrupt(format!(
            "shards cover {next_rid} reference ids but the manifest lists \
             {n_seqs} sequences"
        )));
    }
    if n_words.checked_mul(8) != Some(src.remaining() as u64) {
        return Err(corrupt(format!(
            "the filter declares {n_words} words but {} byte(s) follow the \
             shard table",
            src.remaining()
        )));
    }
    let words = payload[src.position()..]
        .chunks_exact(8)
        .map(|c| le_u64(c, 0))
        .collect();
    let filter = ShardFilter::from_parts(n_shards, u64::from(pos_bits), log2_positions, words)
        .map_err(corrupt)?;
    Ok(ShardManifest {
        k,
        w,
        hpc,
        max_occ,
        seq_names,
        seq_lens,
        shards,
        filter: Some(filter),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IdxOpts;
    use crate::shard::{ShardOpenOpts, ShardedIndex};
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
        MinimizerIndex::build(&sample_records(), &IdxOpts::MAP_ONT, 1).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mmm-index-{name}-{}", std::process::id()))
    }

    /// The one file reader, as every caller outside this crate reaches it.
    fn open(p: &Path) -> Result<ShardedIndex, IndexError> {
        ShardedIndex::open(p, ShardOpenOpts::default())
    }

    fn assert_same(a: &MinimizerIndex, b: &MinimizerIndex) {
        assert_eq!(a.k, b.k);
        assert_eq!(a.w, b.w);
        assert_eq!(a.hpc, b.hpc);
        assert_eq!(a.max_occ, b.max_occ);
        assert_eq!(a.num_seqs(), b.num_seqs());
        for rid in 0..a.num_seqs() as u32 {
            assert_eq!(a.seq_name(rid), b.seq_name(rid));
            assert_eq!(a.seq_len(rid), b.seq_len(rid));
            assert_eq!(a.seq_packed(rid), b.seq_packed(rid));
        }
        // The same bytes, in a buffer or in a mapping.
        assert_eq!(a.image.bytes(), b.image.bytes());
        assert!(a.hashes().eq(b.hashes()));
        // Spot-check decoded posting lists agree.
        for k in a.hashes().take(100) {
            assert!(a.hit_cursor(k).eq(b.hit_cursor(k)));
        }
    }

    /// Validate container bytes, then open the image inside them.
    fn parse_container(bytes: &[u8]) -> Result<(MinimizerIndex, ContainerDir), IndexError> {
        let dir = verify_checksums(bytes)?;
        let idx = MinimizerIndex::from_image_bytes(&bytes[CONTAINER_IMAGE_OFF..])?;
        Ok((idx, dir))
    }

    #[test]
    fn round_trip_mmap() {
        let idx = sample_index();
        let p = tmp("mmap");
        save_index(&idx, &p).unwrap();
        let sh = open(&p).unwrap();
        std::fs::remove_file(&p).unwrap();
        assert!(!sh.has_manifest());
        let back = sh.ensure_shard(0).unwrap();
        assert_same(&idx, back);
        // And it answers queries the same.
        let q = back.ref_window(0, 5_000, 6_000);
        assert_eq!(sh.collect_anchors(&q).unwrap(), idx.collect_anchors(&q));
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
        let (staged, len, dir_hash) = stage_container(&idx, 7, &p).unwrap();
        staged.publish().unwrap();
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
        assert!(MinimizerIndex::from_image_bytes(&image).is_ok());
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
        for found in [0u8, 1, 5, 42] {
            let p = tmp(&format!("version-{found}"));
            let mut bytes = b"MMX".to_vec();
            bytes.push(found);
            bytes.extend_from_slice(&[0u8; 64]); // junk body, never parsed
            std::fs::write(&p, &bytes).unwrap();
            assert_version(open(&p).unwrap_err(), found);
            // The same byte inside a container is the embedded image's.
            let e = MinimizerIndex::from_image_bytes(&bytes).unwrap_err();
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
            filter: None,
        };
        let mut bytes = serialize_manifest(&m);
        let n = bytes.len();
        assert_eq!(bytes[28..32], 2u32.to_le_bytes(), "format byte moved");
        bytes[28] = 1;
        let sum = xxh64(&bytes[12..n - 8], 0);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let p = tmp("manifest-format-1");
        std::fs::write(&p, &bytes).unwrap();
        let e = open(&p).unwrap_err();
        assert_version(e, 1);
        std::fs::remove_file(&p).unwrap();
    }

    /// What the parent build wrote as a sharded index's manifest: `MMX\x03`,
    /// one filter per shard. This build has no reader for it; it is
    /// refused by name with a rebuild hint, whatever follows the magic.
    #[test]
    fn v3_manifest_is_a_typed_rebuild_error() {
        let p = tmp("manifest-v3");
        for body in [&[][..], &[0u8; 64], &[0xA7; 300]] {
            let mut bytes = b"MMX\x03".to_vec();
            bytes.extend_from_slice(body);
            std::fs::write(&p, &bytes).unwrap();
            let e = open(&p).unwrap_err();
            assert!(matches!(e, IndexError::OldManifest { found: 3 }), "{e}");
            assert!(!e.is_corrupt() && !e.is_transient());
            let s = e.to_string();
            assert!(s.contains("v3 shard manifest"), "{s}");
            assert!(s.contains("rebuild the index with `manymap index`"), "{s}");
        }
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
            let e = MinimizerIndex::from_image_bytes(&torn[CONTAINER_IMAGE_OFF..]).unwrap_err();
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
        assert_eq!(bytes.len() % 8, 0, "index files end 8-aligned");
        // The pool's word count sits at the last 8-aligned offset before
        // the pool: the words behind it are read in place.
        let pool_bytes = idx.posting_bytes();
        assert!(pool_bytes > 0);
        let count_at = bytes.len() - pool_bytes - 8;
        assert_eq!(count_at % 8, 0);
        assert_eq!(le_u64(&bytes, count_at), pool_bytes as u64 / 8);
        std::fs::remove_file(&p).unwrap();
    }
}
