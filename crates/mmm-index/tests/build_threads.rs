//! A build on several threads writes what a build on one writes, and fails
//! as one would: shard files are written concurrently and published in
//! shard order, the manifest only once all of them are, and the error is
//! the lowest-numbered shard's.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};

use mmm_index::{build_sharded, IdxOpts, IndexError};
use mmm_seq::{nt4_decode, SeqRecord};

/// `n` chromosomes of uneven length; the last repeats the first's head, so
/// some minimizers are counted in two shards.
fn reference(n: usize) -> Vec<SeqRecord> {
    let mut state = 0xB0A7_5EED_u64;
    let mut bases = |len: usize| -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) % 4) as u8
            })
            .collect()
    };
    let mut chroms: Vec<Vec<u8>> = (0..n).map(|i| bases(9_000 + 3_500 * (i % 4))).collect();
    let head = chroms[0][..4_000].to_vec();
    chroms[n - 1].extend(head);
    chroms
        .iter()
        .enumerate()
        .map(|(i, g)| SeqRecord::new(format!("chr{}", i + 1), nt4_decode(g)))
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mmm-build-threads-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The manifest and shard files of a build into `dir`, by file name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

/// Five shards on three threads (more shards than workers, a worker taking
/// a second shard) and two shards on four (fewer shards than threads, each
/// shard's own build on two): every file — the manifest too, which names
/// its shards by the manifest's file name — is the 1-thread build's bytes.
#[test]
fn shard_files_are_the_same_bytes_at_every_thread_count() {
    for (n_shards, threads) in [(5, 3), (2, 4)] {
        let refs = reference(7);
        for opts in [IdxOpts::MAP_ONT, IdxOpts::MAP_PB] {
            let tag = format!("{n_shards}-{}", opts.k);
            let (one, many) = (
                scratch(&format!("{tag}-one")),
                scratch(&format!("{tag}-many")),
            );
            let a = build_sharded(&refs, &opts, n_shards, 1, &one.join("r.mmx")).unwrap();
            let b = build_sharded(&refs, &opts, n_shards, threads, &many.join("r.mmx")).unwrap();
            assert_eq!(a.n_shards, n_shards);
            assert_eq!((a.max_occ, &a.shard_bytes), (b.max_occ, &b.shard_bytes));
            let (fa, fb) = (files(&one), files(&many));
            assert_eq!(fa.len(), n_shards + 1);
            for ((na, ba), (nb, bb)) in fa.iter().zip(&fb) {
                assert_eq!(na, nb);
                assert!(
                    ba == bb,
                    "{na}: {n_shards} shards at {threads} threads differ"
                );
            }
            std::fs::remove_dir_all(&one).unwrap();
            std::fs::remove_dir_all(&many).unwrap();
        }
    }
}

/// A shard whose file cannot be published (its path is a non-empty
/// directory, which no rename replaces) fails the build with that shard's
/// typed error at 1 and at 4 threads, and no manifest is published. With
/// two such shards the error names the lower-numbered one, as a build one
/// shard after another would. As there, the shards below the failing one
/// are published and those above it keep their old files, and no temp file
/// is left behind.
#[test]
fn an_unwritable_shard_fails_the_build_and_publishes_no_manifest() {
    const OLD: &[u8] = b"previous generation";
    let refs = reference(6);
    for (blocked, named) in [(&[2][..], 2), (&[3, 1], 1)] {
        for threads in [1, 4] {
            let dir = scratch(&format!("blocked-{named}-{threads}"));
            let shard = |s: usize| dir.join(format!("r.mmx.s{s:03}"));
            for s in 0..5 {
                if blocked.contains(&s) {
                    std::fs::create_dir_all(shard(s).join("occupied")).unwrap();
                } else {
                    std::fs::write(shard(s), OLD).unwrap();
                }
            }
            let manifest = dir.join("r.mmx");
            let e = build_sharded(&refs, &IdxOpts::MAP_ONT, 5, threads, &manifest).unwrap_err();
            assert!(
                matches!(&e, IndexError::Open { path, .. } if *path == shard(named)),
                "blocked {blocked:?} at {threads} threads: {e}"
            );
            assert!(
                !manifest.exists(),
                "a manifest was published over a failed build"
            );
            for s in (0..5).filter(|s| !blocked.contains(s)) {
                let replaced = std::fs::read(shard(s)).unwrap() != OLD;
                assert_eq!(
                    replaced,
                    s < named,
                    "shard {s} with shard {named} failing at {threads} threads"
                );
            }
            let names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            assert!(
                names.iter().all(|n| !n.contains(".tmp.")),
                "temp files left: {names:?}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
