//! First touch of a cold sharded index from several workers (DESIGN.md
//! §15.3).
//!
//! `ShardedIndex::collect_anchors` takes every free slot first and waits
//! only on the shards another worker is still loading, so while one worker
//! sits in a slow shard the other loads the rest instead of queueing behind
//! it. Here two threads seed through a fresh 4-shard index whose shard 0 is
//! delayed by an injected `SlowIo`: each shard must load exactly once, both
//! threads must get the reference loop's anchors
//! (`MinimizerIndex::collect_anchors` over the whole reference), and the
//! thread that did not load shard 0 must have loaded another shard. With
//! shard 1 missing as well, every read's outcome must equal a
//! single-threaded run's.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use mmm_chain::Anchor;
use mmm_index::{
    build_sharded, IdxOpts, MinimizerIndex, ShardFaultHook, ShardLoadFault, ShardOpenOpts,
    ShardUnavailable, ShardedIndex,
};
use mmm_seq::{nt4_decode, SeqRecord};

const SHARDS: usize = 4;
const CHROM_LEN: usize = 40_000;

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mmm-firsttouch-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `n` random sequences as 2-bit codes, from one LCG stream per sequence.
fn genomes(n: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let mut state = seed + i as u64;
            (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((state >> 33) % 4) as u8
                })
                .collect()
        })
        .collect()
}

/// The fixture: the whole reference built in memory (the reference loop's
/// index) and a 4-shard manifest over the same four chromosomes, one per
/// shard.
fn fixture(dir: &Path) -> (MinimizerIndex, PathBuf, Vec<Vec<u8>>) {
    let chroms = genomes(SHARDS, CHROM_LEN, 5);
    let refs: Vec<SeqRecord> = chroms
        .iter()
        .enumerate()
        .map(|(i, g)| SeqRecord::new(format!("chr{}", i + 1), nt4_decode(g)))
        .collect();
    let gold = MinimizerIndex::build(&refs, &IdxOpts::MAP_ONT, 1).unwrap();
    let manifest = dir.join("ref.mmx");
    let report = build_sharded(&refs, &IdxOpts::MAP_ONT, SHARDS, 1, &manifest).unwrap();
    assert_eq!(report.n_shards, SHARDS);
    (gold, manifest, chroms)
}

/// The reads every thread seeds: first one that spans all four
/// chromosomes (so it touches every shard), then 1 kb fragments of each
/// chromosome, then random decoys.
fn reads(chroms: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut out = vec![chroms
        .iter()
        .flat_map(|g| g[1_000..2_000].to_vec())
        .collect()];
    for start in (3_000..CHROM_LEN - 1_000).step_by(7_000) {
        out.extend(chroms.iter().map(|g| g[start..start + 1_000].to_vec()));
    }
    out.extend(genomes(8, 1_000, 999));
    out
}

/// Delays shard 0's load, fails shard `missing`'s, and records which
/// thread attempted each shard.
struct Recorder {
    missing: Option<usize>,
    attempts: Mutex<Vec<(usize, ThreadId)>>,
}

impl ShardFaultHook for Recorder {
    fn on_load(&self, shard: usize, _attempt: u32) -> Option<ShardLoadFault> {
        let me = std::thread::current().id();
        self.attempts.lock().unwrap().push((shard, me));
        match shard {
            0 => Some(ShardLoadFault::SlowIo(Duration::from_millis(50))),
            s if Some(s) == self.missing => Some(ShardLoadFault::Missing),
            _ => None,
        }
    }
}

type Outcome = Result<Vec<Anchor>, (usize, String)>;

/// Each thread's id and the outcome of every read it seeded.
type Runs = Vec<(ThreadId, Vec<Outcome>)>;

fn outcome(r: Result<Vec<Anchor>, ShardUnavailable>) -> Outcome {
    r.map_err(|e| (e.shard, e.reason))
}

/// Seed `reads` on `threads` threads released together through a fresh
/// index; returns each thread's id and outcomes, and the hook.
fn seed(
    manifest: &Path,
    missing: Option<usize>,
    threads: usize,
    reads: &[Vec<u8>],
) -> (ShardedIndex, Arc<Recorder>, Runs) {
    let hook = Arc::new(Recorder {
        missing,
        attempts: Mutex::new(Vec::new()),
    });
    let opts = ShardOpenOpts {
        hook: Some(hook.clone()),
    };
    let sh = ShardedIndex::open(manifest, opts).unwrap();
    let start = Barrier::new(threads);
    let runs = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let got = reads.iter().map(|q| outcome(sh.collect_anchors(q)));
                    (std::thread::current().id(), got.collect::<Vec<_>>())
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    (sh, hook, runs)
}

#[test]
fn a_worker_loads_other_shards_while_one_is_slow() {
    let d = tmp_dir("slow");
    let (gold, manifest, chroms) = fixture(&d);
    let reads = reads(&chroms);
    let (sh, hook, runs) = seed(&manifest, None, 2, &reads);

    for h in sh.health() {
        assert_eq!((h.loads, h.state), (1, "loaded"), "shard {}", h.shard);
    }
    for (_, got) in &runs {
        for (q, g) in reads.iter().zip(got) {
            assert_eq!(g.as_ref().unwrap(), &gold.collect_anchors(q));
        }
    }
    let attempts = hook.attempts.lock().unwrap().clone();
    assert_eq!(
        attempts.len(),
        SHARDS,
        "one attempt per shard: {attempts:?}"
    );
    let slow = attempts.iter().find(|a| a.0 == 0).unwrap().1;
    let other = runs.iter().map(|r| r.0).find(|&t| t != slow).unwrap();
    assert!(
        attempts.iter().any(|&(s, t)| s != 0 && t == other),
        "the thread that did not load shard 0 loaded nothing: {attempts:?}"
    );
    std::fs::remove_dir_all(&d).unwrap();
}

#[test]
fn a_missing_shard_degrades_the_same_reads_on_two_threads() {
    let d = tmp_dir("missing");
    let (gold, manifest, chroms) = fixture(&d);
    let reads = reads(&chroms);
    let (_, _, solo) = seed(&manifest, Some(1), 1, &reads);
    let solo = &solo[0].1;
    // Both outcomes occur: shard 1's own fragments fail naming it, every
    // other chromosome's fragments seed as in the reference loop.
    let fragments = reads.iter().zip(solo).skip(1).take(reads.len() - 9);
    for (i, (q, o)) in fragments.enumerate() {
        match (i % SHARDS, o) {
            (1, Err((shard, _))) => assert_eq!(*shard, 1),
            (1, Ok(_)) => panic!("fragment {i} of the missing shard seeded"),
            (_, o) => assert_eq!(
                o.as_ref().unwrap(),
                &gold.collect_anchors(q),
                "fragment {i}"
            ),
        }
    }

    let (sh, _, runs) = seed(&manifest, Some(1), 2, &reads);
    assert_eq!(sh.quarantined(), vec![1]);
    for (i, h) in sh.health().iter().enumerate() {
        assert_eq!(h.loads, u64::from(i != 1), "shard {i}");
    }
    for (_, got) in &runs {
        assert_eq!(got, solo);
    }
    std::fs::remove_dir_all(&d).unwrap();
}
