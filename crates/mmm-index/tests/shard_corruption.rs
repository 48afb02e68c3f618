//! On-disk corruption sweep over the sharded format, end to end through
//! the public mmap path (DESIGN.md §15).
//!
//! The serialize.rs unit tests cover `parse_container` in isolation; this
//! suite corrupts *files* and drives `ShardedIndex::open` /
//! `ensure_shard`, proving that every checksummed byte of every section is
//! validated before any parsed value escapes the crate, that each failure
//! carries its section name, and that a quarantined shard never poisons
//! its neighbors.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};

use mmm_index::{
    build_sharded, container_section_ranges, IdxOpts, ShardOpenOpts, ShardedIndex,
    CONTAINER_SECTIONS,
};
use mmm_seq::{nt4_decode, SeqRecord};

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mmm-shardcorr-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn refs(n: usize, len: usize, seed: u64) -> Vec<SeqRecord> {
    (0..n)
        .map(|i| {
            let mut state = seed + i as u64;
            let g: Vec<u8> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((state >> 33) % 4) as u8
                })
                .collect();
            SeqRecord::new(format!("chr{}", i + 1), nt4_decode(&g))
        })
        .collect()
}

fn build(dir: &Path, n_shards: usize) -> PathBuf {
    let manifest = dir.join("ref.mmx");
    build_sharded(
        &refs(n_shards, 9_000, 77),
        &IdxOpts::MAP_ONT,
        n_shards,
        1,
        &manifest,
    )
    .unwrap();
    manifest
}

/// Flipping the first and last byte of every checksummed section of a
/// shard file quarantines that shard with the section named in the
/// reason, while the sibling shard keeps serving.
#[test]
fn every_shard_section_byte_is_covered() {
    let d = tmp_dir("sections");
    let manifest = build(&d, 2);
    let shard_path = d.join("ref.mmx.s000");
    let pristine = std::fs::read(&shard_path).unwrap();
    let ranges = container_section_ranges(&pristine).unwrap();

    for (i, &(start, end)) in ranges.iter().enumerate() {
        assert!(end > start, "section {i} is empty");
        for off in [start, end - 1] {
            let mut bad = pristine.clone();
            bad[off as usize] ^= 0x40;
            std::fs::write(&shard_path, &bad).unwrap();

            let sh = ShardedIndex::open(&manifest, ShardOpenOpts::default()).unwrap();
            let e = sh.ensure_shard(0).unwrap_err();
            assert_eq!(e.shard, 0);
            assert!(
                e.reason.contains(CONTAINER_SECTIONS[i]),
                "section {i} offset {off}: reason {:?} does not name {:?}",
                e.reason,
                CONTAINER_SECTIONS[i]
            );
            // Fault containment: the sibling shard is untouched.
            assert!(sh.ensure_shard(1).is_ok());
            assert_eq!(sh.quarantined(), vec![0]);
        }
    }
    std::fs::write(&shard_path, &pristine).unwrap();
    let sh = ShardedIndex::open(&manifest, ShardOpenOpts::default()).unwrap();
    assert!(sh.ensure_shard(0).is_ok(), "pristine bytes load again");
    std::fs::remove_dir_all(&d).unwrap();
}

/// A torn final write (truncated shard file) is caught by the directory
/// span check, not read out of bounds.
#[test]
fn torn_shard_tail_quarantines_with_reason() {
    let d = tmp_dir("torn");
    let manifest = build(&d, 2);
    let shard_path = d.join("ref.mmx.s001");
    let pristine = std::fs::read(&shard_path).unwrap();
    for keep in [pristine.len() - 3, pristine.len() / 2, 16] {
        std::fs::write(&shard_path, &pristine[..keep]).unwrap();
        let sh = ShardedIndex::open(&manifest, ShardOpenOpts::default()).unwrap();
        let e = sh.ensure_shard(1).unwrap_err();
        assert!(
            e.reason.contains("torn")
                || e.reason.contains("truncated")
                || e.reason.contains("short")
                || e.reason.contains("corrupt"),
            "keep={keep}: {}",
            e.reason
        );
        assert!(sh.ensure_shard(0).is_ok());
    }
    std::fs::remove_dir_all(&d).unwrap();
}

/// Every byte of the manifest itself is behind its checksum: flipping any
/// probe byte makes `open` fail with a typed corruption error, before any
/// shard is touched.
#[test]
fn manifest_corruption_fails_open() {
    let d = tmp_dir("manifest");
    let manifest = build(&d, 2);
    let pristine = std::fs::read(&manifest).unwrap();
    // Sweep a spread of offsets past the magic, including the final byte.
    let probes: Vec<usize> = (8..pristine.len() - 1)
        .step_by((pristine.len() / 13).max(1))
        .chain([pristine.len() - 1])
        .collect();
    for off in probes {
        let mut bad = pristine.clone();
        bad[off] ^= 0x01;
        std::fs::write(&manifest, &bad).unwrap();
        let r = ShardedIndex::open(&manifest, ShardOpenOpts::default());
        assert!(r.is_err(), "flip at {off} must not parse");
    }
    std::fs::write(&manifest, &pristine).unwrap();
    assert!(ShardedIndex::open(&manifest, ShardOpenOpts::default()).is_ok());
    std::fs::remove_dir_all(&d).unwrap();
}

/// Deleting a shard file quarantines exactly that shard; the manifest
/// still opens and the other shards keep serving.
#[test]
fn missing_shard_file_is_contained() {
    let d = tmp_dir("missing");
    let manifest = build(&d, 3);
    std::fs::remove_file(d.join("ref.mmx.s001")).unwrap();
    let sh = ShardedIndex::open(&manifest, ShardOpenOpts::default()).unwrap();
    assert!(sh.ensure_shard(0).is_ok());
    let e = sh.ensure_shard(1).unwrap_err();
    assert!(e.reason.contains("ref.mmx.s001"), "{}", e.reason);
    assert!(sh.ensure_shard(2).is_ok());
    assert_eq!(sh.quarantined(), vec![1]);
    std::fs::remove_dir_all(&d).unwrap();
}
