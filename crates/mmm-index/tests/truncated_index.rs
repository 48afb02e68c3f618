//! Hostile-input suite for the index deserializer.
//!
//! Property: no byte stream — truncated, bit-flipped, or length-patched —
//! may make [`parse_index`] panic or allocate unboundedly. Every failure
//! must surface as a typed [`IndexError`], and a clean mid-stream I/O error
//! must be distinguishable from corruption. The bytes are the *embedded
//! image*: in a file it sits behind a container whose checksums stop these
//! inputs before the parser (`shard_corruption.rs`, `cli_faults.rs`), so
//! this suite is what keeps the parser sound without that help.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmm_index::{parse_index, write_index_image, IdxOpts, IndexError, MinimizerIndex};
use mmm_io::{ByteSource, FaultMode, FaultSource, SliceSource};
use mmm_seq::SeqRecord;
use proptest::prelude::*;

/// `expect_err` needs `Debug` on the success type; `MinimizerIndex` has
/// none, so unwrap the error by hand.
fn must_fail(r: Result<MinimizerIndex, IndexError>, ctx: &str) -> IndexError {
    match r {
        Ok(_) => panic!("{ctx}: hostile input parsed as a full index"),
        Err(e) => e,
    }
}

/// Build the index of `refs` and return it with its serialized image.
fn image_of(refs: &[SeqRecord]) -> (MinimizerIndex, Vec<u8>) {
    let idx = MinimizerIndex::build(refs, &IdxOpts::MAP_ONT).unwrap();
    let mut bytes = Vec::new();
    write_index_image(&idx, &mut bytes);
    (idx, bytes)
}

/// A small two-sequence index with its image bytes.
fn sample() -> (MinimizerIndex, Vec<u8>) {
    image_of(&[
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

/// Image bytes of the sample index.
fn serialized_index() -> Vec<u8> {
    sample().1
}

#[test]
fn full_file_round_trips() {
    let bytes = serialized_index();
    let idx = parse_index(&mut SliceSource::new(&bytes)).unwrap();
    assert_eq!(idx.seqs.len(), 2);
    assert!(idx.num_minimizers() > 0);
}

/// Exhaustive: every strict prefix of a valid index must yield a typed
/// error — never a panic, never an `Ok`.
#[test]
fn every_strict_prefix_is_a_typed_error() {
    let bytes = serialized_index();
    for len in 0..bytes.len() {
        let mut src = SliceSource::new(&bytes[..len]);
        match parse_index(&mut src) {
            Ok(_) => panic!(
                "prefix of {len}/{} bytes parsed as a full index",
                bytes.len()
            ),
            Err(e) => {
                // Truncation is corruption (UnexpectedEof), and the message
                // must carry a byte offset for the operator.
                assert!(e.is_corrupt(), "prefix {len}: unexpected kind: {e}");
                assert!(e.to_string().contains("byte"), "prefix {len}: {e}");
            }
        }
    }
}

/// Length prefixes patched to hostile values must be rejected as corrupt
/// before any allocation is attempted, not passed to `Vec::with_capacity`.
#[test]
fn hostile_length_prefixes_are_rejected_without_allocating() {
    let bytes = serialized_index();
    // Offset 20: the u64 sequence count (after magic + k/w/hpc/max_occ).
    // Offset 28: the u64 name-length prefix of the first sequence.
    for offset in [20usize, 28] {
        for patch in [u64::MAX, u64::MAX / 8, 1 << 40, (bytes.len() as u64) + 1] {
            let mut evil = bytes.clone();
            evil[offset..offset + 8].copy_from_slice(&patch.to_le_bytes());
            let err = must_fail(
                parse_index(&mut SliceSource::new(&evil)),
                "patched length prefix",
            );
            assert!(err.is_corrupt(), "offset {offset} patch {patch:#x}: {err}");
        }
    }
}

/// Blast every aligned u64 of the file with 0xFF: the parser may accept or
/// reject, but must never panic and never balloon allocation.
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
    let (_, bytes) = image_of(&refs);
    let mut patched = bytes.clone();
    let n = patched.len();
    patched[n - 16..].fill(0xFF);
    let e = must_fail(
        parse_index(&mut SliceSource::new(&patched)),
        "out-of-range rid",
    );
    assert!(e.is_corrupt(), "{e}");
    assert!(e.to_string().contains("names reference"), "{e}");
}

#[test]
fn out_of_range_v2_bucket_base_is_corruption() {
    // v2 layout: each bucket's first hit is stored verbatim as the FOR
    // base in the (base, ocw) array. Locate a real bucket base in the
    // image by byte pattern and patch it to a hostile rid — the load-time
    // decode walk must reject it.
    let (idx, bytes) = sample();
    // Replay the v2 layout to the first (base, ocw) pair: magic(4) +
    // opts(16) + n_seqs(8) + per-seq records + n_keys(8) + keys.
    let mut at = 28usize;
    for s in &idx.seqs {
        at += 24 + s.name.len() + s.seq.words().len() * 4;
    }
    let hashes = idx.sorted_hashes();
    at += 8 + hashes.len() * 8;
    // Sanity: the bytes there are the first sorted bucket's FOR base.
    let mut hits = Vec::new();
    idx.decode_hits_into(hashes[0], &mut hits);
    assert_eq!(bytes[at..at + 8], hits[0].to_le_bytes(), "layout replay");
    let mut patched = bytes.clone();
    let hostile: u64 = ((1u64 << 24) - 1) << 40;
    patched[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
    let e = must_fail(
        parse_index(&mut SliceSource::new(&patched)),
        "out-of-range v2 base rid",
    );
    assert!(e.is_corrupt(), "{e}");
    assert!(e.to_string().contains("names reference"), "{e}");
}

#[test]
fn corruption_sweep_never_panics() {
    let bytes = serialized_index();
    for offset in (0..bytes.len().saturating_sub(8)).step_by(8) {
        let mut evil = bytes.clone();
        for b in &mut evil[offset..offset + 8] {
            *b ^= 0xFF;
        }
        let _ = parse_index(&mut SliceSource::new(&evil));
    }
}

/// A device error mid-stream must surface as an I/O error (retryable), not
/// be misreported as file corruption.
#[test]
fn mid_stream_fault_is_io_not_corruption() {
    let bytes = serialized_index();
    let cut = bytes.len() as u64 / 2;

    let mut src = FaultSource::new(SliceSource::new(&bytes), cut, FaultMode::Error);
    let err = must_fail(parse_index(&mut src), "device fault");
    assert!(!err.is_corrupt(), "device fault misclassified: {err}");
    assert!(matches!(err, IndexError::Io { .. }));
    assert!(err.to_string().contains("injected"), "{err}");

    // The same cut point as a truncation is corruption.
    let mut src = FaultSource::new(SliceSource::new(&bytes), cut, FaultMode::Truncate);
    let err = must_fail(parse_index(&mut src), "truncation");
    assert!(err.is_corrupt(), "truncation misclassified: {err}");
}

proptest! {
    /// Randomized variant of the sweep: arbitrary 8-byte patches at
    /// arbitrary offsets never panic the parser.
    #[test]
    fn random_patches_never_panic(offset in 0usize..4096, patch in 0u64..u64::MAX) {
        let bytes = serialized_index();
        let offset = offset % bytes.len().saturating_sub(8).max(1);
        let mut evil = bytes.clone();
        let patch = patch.to_le_bytes();
        let end = (offset + 8).min(evil.len());
        evil[offset..end].copy_from_slice(&patch[..end - offset]);
        let _ = parse_index(&mut SliceSource::new(&evil));
    }

    /// Random fault points: the parse always terminates with a typed error
    /// whose offset never exceeds the number of bytes actually delivered.
    #[test]
    fn random_fault_points_yield_typed_errors(cut in 0u64..8192) {
        let bytes = serialized_index();
        let cut = cut % bytes.len() as u64;
        let mut src = FaultSource::new(SliceSource::new(&bytes), cut, FaultMode::Error);
        let err = must_fail(parse_index(&mut src), "strict-prefix fault");
        prop_assert!(src.stream_position() <= cut);
        prop_assert!(!err.to_string().is_empty());
    }
}
