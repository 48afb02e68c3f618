//! Hostile-input suite for the index image validator.
//!
//! Property: no image — truncated, bit-flipped, or length-patched — may
//! make opening it panic or allocate unboundedly, and none may come back as
//! an index a query could trip over. Every failure must surface as a typed
//! [`IndexError`]. Checksums *detect* damage; they do not authenticate, so
//! each hostile image is offered twice: bare, through
//! [`MinimizerIndex::from_image_bytes`], and sealed into a container whose
//! digests are recomputed to match (what a hostile or buggy writer would
//! produce), through the loader the binaries use, [`ShardedIndex::open`].
//! Both run the one structural validation; `shard_corruption.rs` and
//! `cli_faults.rs` cover damage the checksums do catch.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU64, Ordering};

use mmm_index::{
    write_index_image, xxh64, BucketRef, IdxOpts, IndexError, MinimizerIndex, ShardOpenOpts,
    ShardedIndex,
};
use mmm_seq::SeqRecord;
use proptest::prelude::*;

/// Wrap `image` in a container with valid digests: the directory layout of
/// DESIGN.md §15.2, with the pristine image's section boundaries clamped to
/// however many bytes `image` has.
fn seal(image: &[u8], sections: &[(u64, u64); 4]) -> Vec<u8> {
    let len = image.len() as u64;
    let mut file = b"MMXS".to_vec();
    file.extend_from_slice(&1u32.to_le_bytes());
    file.extend_from_slice(&0u64.to_le_bytes());
    for (i, &(s, e)) in sections.iter().enumerate() {
        let (s, e) = (s.min(len), if i == 3 { len } else { e.min(len) });
        file.extend_from_slice(&(120 + s).to_le_bytes());
        file.extend_from_slice(&(e - s).to_le_bytes());
        let digest = xxh64(&image[s as usize..e as usize], i as u64);
        file.extend_from_slice(&digest.to_le_bytes());
    }
    let dir_hash = xxh64(&file, 0);
    file.extend_from_slice(&dir_hash.to_le_bytes());
    file.extend_from_slice(image);
    file
}

/// Open `image` both ways. The two must agree on whether it is an index.
fn open_both(image: &[u8], sections: &[(u64, u64); 4]) -> Result<ShardedIndex, IndexError> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "mmm-hostile-{}-{}.mmx",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, seal(image, sections)).unwrap();
    let mapped = ShardedIndex::open(&path, ShardOpenOpts::default());
    std::fs::remove_file(&path).unwrap();
    let bare = MinimizerIndex::from_image_bytes(image);
    match (mapped, bare) {
        (Ok(idx), Ok(_)) => Ok(idx),
        (Err(m), Err(b)) => {
            assert_eq!(m.to_string(), b.to_string(), "the two opens disagree");
            Err(m)
        }
        (m, b) => panic!(
            "sealed and bare opens disagree: mapped {:?}, bare {:?}",
            m.map(|_| "an index"),
            b.map(|_| "an index")
        ),
    }
}

/// `expect_err` needs `Debug` on the success type; unwrap the error by
/// hand.
fn must_fail(r: Result<ShardedIndex, IndexError>, ctx: &str) -> IndexError {
    match r {
        Ok(_) => panic!("{ctx}: hostile input opened as a full index"),
        Err(e) => e,
    }
}

/// An index of `refs`, its image bytes and the image's section ranges.
struct Sample {
    idx: MinimizerIndex,
    image: Vec<u8>,
    sections: [(u64, u64); 4],
}

impl Sample {
    fn of(refs: &[SeqRecord]) -> Sample {
        let idx = MinimizerIndex::build(refs, &IdxOpts::MAP_ONT, 1).unwrap();
        let mut image = Vec::new();
        let sections = write_index_image(&idx, &mut image);
        Sample {
            idx,
            image,
            sections,
        }
    }

    /// A small two-sequence index.
    fn small() -> Sample {
        Sample::of(&[
            SeqRecord::new(
                "chrA",
                b"ACGTACGTAGGCTAGCTAGGACTGACTGATCGATCGTACG".repeat(40),
            ),
            SeqRecord::new(
                "chrB",
                b"TTGACCAGTTGACCAGCCGGAATTCCGGTTAACCGGTTAA".repeat(25),
            ),
        ])
    }

    fn open(&self, image: &[u8]) -> Result<ShardedIndex, IndexError> {
        open_both(image, &self.sections)
    }

    /// Image offset of the key-count field: magic(4) + opts(16) +
    /// n_seqs(8) + per-sequence records.
    fn table_at(&self) -> usize {
        let idx = &self.idx;
        (0..idx.num_seqs() as u32)
            .map(|rid| 24 + idx.seq_name(rid).len() + idx.seq_len(rid).div_ceil(16) * 4)
            .sum::<usize>()
            + 28
    }
}

#[test]
fn full_file_round_trips() {
    let s = Sample::small();
    let sh = s.open(&s.image).unwrap();
    let idx = sh.ensure_shard(0).unwrap();
    assert_eq!(idx.num_seqs(), 2);
    assert!(idx.num_minimizers() > 0);
    assert!(idx.hashes().eq(s.idx.hashes()));
}

/// Exhaustive: every strict prefix of a valid image must yield a typed
/// error — never a panic, never an `Ok`.
#[test]
fn every_strict_prefix_is_a_typed_error() {
    let s = Sample::small();
    for len in 0..s.image.len() {
        match s.open(&s.image[..len]) {
            Ok(_) => panic!(
                "prefix of {len}/{} bytes opened as a full index",
                s.image.len()
            ),
            Err(e) => {
                // Truncation is corruption, and the message must carry a
                // byte offset for the operator.
                assert!(e.is_corrupt(), "prefix {len}: unexpected kind: {e}");
                assert!(e.to_string().contains("byte"), "prefix {len}: {e}");
            }
        }
    }
}

/// Length prefixes patched to hostile values must be rejected as corrupt
/// before anything is sized by them.
#[test]
fn hostile_length_prefixes_are_rejected_without_allocating() {
    let s = Sample::small();
    let bytes = &s.image;
    // Offset 20: the u64 sequence count (after magic + k/w/hpc/max_occ).
    // Offset 28: the u64 name-length prefix of the first sequence.
    for offset in [20usize, 28] {
        for patch in [u64::MAX, u64::MAX / 8, 1 << 40, (bytes.len() as u64) + 1] {
            let mut evil = bytes.clone();
            evil[offset..offset + 8].copy_from_slice(&patch.to_le_bytes());
            let err = must_fail(s.open(&evil), "patched length prefix");
            assert!(err.is_corrupt(), "offset {offset} patch {patch:#x}: {err}");
        }
    }
}

/// A position word patched to name a reference past the sequence table must
/// be rejected as corruption at load time: unpacked rids are direct indices
/// into `seqs`, so letting one through would panic (or mismap) at seeding.
#[test]
fn out_of_range_packed_rid_is_corruption() {
    // Two copies of one sequence: every bucket holds hits of both
    // references, so its deltas are 40 bits wide (one step from rid 0 to
    // rid 1). The block pool is the last section and a field spans at most
    // two words: all-ones in the final two makes the last bucket's last
    // delta 2^40 - 1, which carries that hit from rid 1 to a reference
    // past the 2-sequence table.
    let seq = b"ACGTACGTAGGCTAGCTAGGACTGACTGATCGATCGTACG".repeat(40);
    let refs = [
        SeqRecord::new("chrA", seq.clone()),
        SeqRecord::new("chrB", seq),
    ];
    let s = Sample::of(&refs);
    let mut patched = s.image.clone();
    let n = patched.len();
    patched[n - 16..].fill(0xFF);
    let e = must_fail(s.open(&patched), "out-of-range rid");
    assert!(e.is_corrupt(), "{e}");
    assert!(e.to_string().contains("names reference"), "{e}");
}

#[test]
fn out_of_range_v2_bucket_base_is_corruption() {
    // v2 layout: each bucket's first hit is stored verbatim as the FOR
    // base in the (base, ocw) array. Locate a real bucket base in the
    // image by byte pattern and patch it to a hostile rid — the load-time
    // decode walk must reject it.
    let s = Sample::small();
    // The first (base, ocw) pair: behind n_keys(8) and the keys.
    let first = s.idx.hashes().next().unwrap();
    let at = s.table_at() + 8 + s.idx.num_minimizers() * 8;
    // Sanity: the bytes there are the first sorted bucket's FOR base.
    let hit = s.idx.hit_cursor(first).next().unwrap();
    assert_eq!(s.image[at..at + 8], hit.to_le_bytes(), "layout replay");
    let mut patched = s.image.clone();
    let hostile: u64 = ((1u64 << 24) - 1) << 40;
    patched[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
    let e = must_fail(s.open(&patched), "out-of-range v2 base rid");
    assert!(e.is_corrupt(), "{e}");
    assert!(e.to_string().contains("names reference"), "{e}");
}

/// A singleton bucket — one hit, stored as its base, no delta block — is
/// checked without walking a cursor over it, so each of its three
/// constraints must still hold on its own: its base names a reference in
/// the table, its width is 0, and its block offset lies inside the pool.
#[test]
fn hostile_singleton_buckets_are_corruption() {
    // Random bases: nearly every minimizer occurs once.
    let mut state = 17u64;
    let seq: Vec<u8> = (0..3_000)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            b"ACGT"[((state >> 33) % 4) as usize]
        })
        .collect();
    let s = Sample::of(&[
        SeqRecord::new("chrA", seq[..1_500].to_vec()),
        SeqRecord::new("chrB", seq[1_500..].to_vec()),
    ]);
    let (i, hash) = s
        .idx
        .hashes()
        .enumerate()
        .find(|&(_, h)| s.idx.hit_count(h) == 1)
        .expect("a singleton bucket");
    // Layout replay: bucket `i`'s (base, ocw) pair holds its one hit and a
    // count-1, width-0 shape.
    let at = s.table_at() + 8 + s.idx.num_minimizers() * 8 + 16 * i;
    let r = s.idx.lookup(hash).unwrap();
    assert_eq!((r.count(), r.width()), (1, 0));
    assert_eq!(s.image[at..at + 8], r.base.to_le_bytes(), "layout replay");
    assert_eq!(
        s.image[at + 8..at + 16],
        r.ocw.to_le_bytes(),
        "layout replay"
    );
    assert_eq!(s.idx.hit_cursor(hash).collect::<Vec<_>>(), vec![r.base]);
    let pool_words = s.idx.posting_bytes() as u64 / 8;

    let past_table = (2u64 << 40) | (r.base & ((1 << 40) - 1));
    let wide = BucketRef::new(0, 1, 5).ocw;
    let far = BucketRef::new(pool_words + 1, 1, 0).ocw;
    for (what, field, value, want) in [
        ("rid past the table", 0, past_table, "names reference 2"),
        (
            "nonzero width",
            8,
            wide,
            "invalid bucket shape (count 1, width 5)",
        ),
        ("offset past the pool", 8, far, "exceeds the"),
    ] {
        let mut patched = s.image.clone();
        patched[at + field..at + field + 8].copy_from_slice(&value.to_le_bytes());
        let e = must_fail(s.open(&patched), what);
        assert!(e.is_corrupt(), "{what}: {e}");
        assert!(e.to_string().contains(want), "{what}: {e}");
    }
}

/// The lookup binary-searches the key array, which a hash map never
/// needed sorted: swapped or duplicated keys behind valid checksums must be
/// refused at open, or a present minimizer would silently miss.
#[test]
fn unsorted_or_duplicate_keys_are_corruption() {
    let s = Sample::small();
    let keys = s.table_at() + 8;
    let hashes: Vec<u64> = s.idx.hashes().take(2).collect();
    assert_eq!(s.image[keys..keys + 8], hashes[0].to_le_bytes(), "replay");
    for (what, first, second) in [
        ("swapped", hashes[1], hashes[0]),
        ("duplicated", hashes[0], hashes[0]),
    ] {
        let mut patched = s.image.clone();
        patched[keys..keys + 8].copy_from_slice(&first.to_le_bytes());
        patched[keys + 8..keys + 16].copy_from_slice(&second.to_le_bytes());
        let e = must_fail(s.open(&patched), what);
        assert!(e.is_corrupt(), "{what}: {e}");
        assert!(
            e.to_string().contains("not strictly increasing"),
            "{what}: {e}"
        );
    }
}

/// Header values a query would panic on (the sketcher asserts its `k` and
/// `w` ranges) and a name that is not text are refused at open too.
#[test]
fn unusable_header_values_are_corruption() {
    let s = Sample::small();
    for (at, value, want) in [
        (4usize, 0u32, "sketch parameters"),
        (4, 64, "sketch parameters"),
        (8, 0, "sketch parameters"),
        (8, 256, "sketch parameters"),
    ] {
        let mut patched = s.image.clone();
        patched[at..at + 4].copy_from_slice(&value.to_le_bytes());
        let e = must_fail(s.open(&patched), want);
        assert!(e.is_corrupt() && e.to_string().contains(want), "{e}");
    }
    let mut patched = s.image.clone();
    assert_eq!(&patched[36..40], b"chrA");
    patched[37] = 0xFF;
    let e = must_fail(s.open(&patched), "name");
    assert!(e.to_string().contains("not UTF-8"), "{e}");
}

/// Blast every aligned u64 of the image with 0xFF: the validator may accept
/// or reject, but must never panic and never balloon allocation.
#[test]
fn corruption_sweep_never_panics() {
    let s = Sample::small();
    for offset in (0..s.image.len().saturating_sub(8)).step_by(8) {
        let mut evil = s.image.clone();
        for b in &mut evil[offset..offset + 8] {
            *b ^= 0xFF;
        }
        // What it does accept must answer every query without panicking.
        if let Ok(sh) = s.open(&evil) {
            let idx = sh.ensure_shard(0).unwrap();
            for h in idx.hashes() {
                assert_eq!(idx.hit_cursor(h).count(), idx.hit_count(h));
            }
        }
    }
}

proptest! {
    /// Randomized variant of the sweep: arbitrary 8-byte patches at
    /// arbitrary offsets never panic the validator.
    #[test]
    fn random_patches_never_panic(offset in 0usize..4096, patch in 0u64..u64::MAX) {
        let s = Sample::small();
        let offset = offset % s.image.len().saturating_sub(8).max(1);
        let mut evil = s.image.clone();
        let patch = patch.to_le_bytes();
        let end = (offset + 8).min(evil.len());
        evil[offset..end].copy_from_slice(&patch[..end - offset]);
        let _ = s.open(&evil);
    }
}
