//! The on-disk format, pinned: an xxh64 of every file `manymap index` would
//! write for one seeded reference, flat and `--shards 4`, both presets, at
//! 1, 2 and 4 build threads.
//!
//! The image is no longer produced by a serializer that could be compared
//! with a parser — the builder writes it once and the index reads it in
//! place — so nothing else would notice the format drifting by a byte. The
//! digests below were taken from the tree *before* the in-place index
//! (PR 22's writer); a change to them is a format change and needs a new
//! image version, not a new constant.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmm_index::{build_sharded, save_index, xxh64, IdxOpts, MinimizerIndex};
use mmm_seq::{nt4_decode, SeqRecord};

/// Five chromosomes of unequal length; chr3 repeats chr1's head so some
/// buckets carry delta blocks, and chr5 is short enough to share a shard.
fn reference() -> Vec<SeqRecord> {
    let mut state = 0x5EED_0FF0_4DA7_u64;
    let mut bases = |n: usize| -> Vec<u8> {
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) % 4) as u8
            })
            .collect()
    };
    let mut chroms: Vec<Vec<u8>> = [40_000, 25_000, 30_000, 35_000, 6_000]
        .into_iter()
        .map(&mut bases)
        .collect();
    let head = chroms[0][..8_000].to_vec();
    chroms[2].extend(head);
    chroms
        .iter()
        .enumerate()
        .map(|(i, g)| SeqRecord::new(format!("chr{}", i + 1), nt4_decode(g)))
        .collect()
}

/// Digest of each file, in order: the flat index, then the sharded
/// manifest, then its shard files, built on `threads` threads.
fn digests(opts: &IdxOpts, threads: usize, tag: &str) -> Vec<u64> {
    let dir = std::env::temp_dir().join(format!(
        "mmm-golden-{tag}-t{threads}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let refs = reference();
    let flat = dir.join("flat.mmx");
    save_index(&MinimizerIndex::build(&refs, opts, threads).unwrap(), &flat).unwrap();
    let manifest = dir.join("golden.mmx");
    let report = build_sharded(&refs, opts, 4, threads, &manifest).unwrap();
    assert_eq!(report.n_shards, 4);
    let out = [flat, manifest]
        .iter()
        .chain(&report.shard_files)
        .map(|p| xxh64(&std::fs::read(p).unwrap(), 0))
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

#[test]
fn every_index_file_is_byte_identical_to_the_pinned_format() {
    for threads in [1, 2, 4] {
        let ont = digests(&IdxOpts::MAP_ONT, threads, "ont");
        let pb = digests(&IdxOpts::MAP_PB, threads, "pb");
        assert_eq!(
            ont, GOLDEN_MAP_ONT,
            "map-ont files drifted at {threads} threads"
        );
        assert_eq!(
            pb, GOLDEN_MAP_PB,
            "map-pb files drifted at {threads} threads"
        );
    }
}

const GOLDEN_MAP_ONT: [u64; 6] = [
    0x8f23_5e10_68f0_a32d,
    0x92e2_536a_cf61_75a8,
    0xb681_d168_80b7_3cd7,
    0x42ac_bbb2_cf30_fd79,
    0x6f76_ae81_69f5_3acc,
    0x5cb1_c3ae_5412_4dab,
];
const GOLDEN_MAP_PB: [u64; 6] = [
    0xf20d_8dae_768e_38a4,
    0xc5ff_65c5_7f96_424c,
    0xbe00_0aec_541d_eb98,
    0x2dc8_2424_27a8_bb35,
    0x546d_4664_24b3_2429,
    0xae6a_ef13_45f6_c4cf,
];
