//! End-to-end behavior of the sharded index through the `manymap` binary
//! (DESIGN.md §15).
//!
//! Four contracts, all over a multi-chromosome reference whose shards are
//! real fault domains (one chromosome per shard, distinct content):
//!
//! 1. **Byte-identity**: `map` over a sharded manifest produces output
//!    byte-identical to `map` over the flat `.mmx` built from the same
//!    FASTA — including on the device backend with and without a
//!    compute-plane fault: the run has one backend session whatever the
//!    shard count. So do a `--shards 1` manifest and the FASTA itself.
//! 2. **Origin**: the shard report follows where the index came from, not
//!    its shard count — a manifest gets one, a single-file index or a
//!    FASTA (one shard, no manifest) none.
//! 3. **Fault containment**: every persistent `FaultPlan` shard class
//!    (`corrupt-section`, `missing-shard`, `torn-tail`) quarantines only
//!    the targeted shard; reads from its chromosome degrade to unmapped
//!    while every other read's output line stays byte-identical to the
//!    healthy run. `slow-io` delays loads but changes nothing.
//! 4. **Determinism**: a seeded chaos run replays to identical stdout and
//!    identical fault counters.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use manymap::session::MAP_BATCH_BASES;
use mmm_seq::{nt4_decode, write_fasta, SeqRecord};
use mmm_simreads::{generate_chromosomes, simulate_reads, GenomeOpts, Platform, SimOpts};

struct Fixture {
    dir: PathBuf,
    fasta: PathBuf,
    flat: PathBuf,
    one_shard: PathBuf,
    sharded: PathBuf,
    reads: PathBuf,
    /// read name -> chromosome ordinal (0-based) it was sampled from.
    origin: HashMap<String, usize>,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn manymap() -> Command {
    Command::new(env!("CARGO_BIN_EXE_manymap"))
}

/// Three distinct chromosomes, reads simulated per chromosome (so each
/// read's owning shard is known), plus a flat, a 1-shard and a 3-shard
/// index built through the CLI itself.
fn fixture(tag: &str) -> Fixture {
    let dir = std::env::temp_dir().join(format!("manymap-shard-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let chroms = generate_chromosomes(
        &GenomeOpts {
            len: 150_000,
            repeat_frac: 0.0,
            seed: 17,
            ..Default::default()
        },
        3,
    );
    let refs: Vec<SeqRecord> = chroms
        .iter()
        .enumerate()
        .map(|(i, g)| SeqRecord::new(format!("chr{}", i + 1), nt4_decode(g)))
        .collect();
    let ref_fa = dir.join("ref.fa");
    let mut fa = Vec::new();
    write_fasta(&mut fa, &refs, 0).unwrap();
    std::fs::write(&ref_fa, &fa).unwrap();

    let mut recs = Vec::new();
    let mut origin = HashMap::new();
    for (ci, g) in chroms.iter().enumerate() {
        let sims = simulate_reads(
            g,
            &SimOpts {
                platform: Platform::Nanopore,
                num_reads: 5,
                seed: 100 + ci as u64,
            },
        );
        for r in sims {
            let name = format!("c{}{}", ci + 1, r.name);
            origin.insert(name.clone(), ci);
            recs.push(SeqRecord::new(name, nt4_decode(&r.seq)));
        }
    }
    let bases: usize = recs.iter().map(SeqRecord::len).sum();
    assert!(
        bases < MAP_BATCH_BASES,
        "the tests below assume the reads ({bases} bases) fit one map batch"
    );
    let reads = dir.join("reads.fa");
    let mut fa = Vec::new();
    write_fasta(&mut fa, &recs, 0).unwrap();
    std::fs::write(&reads, &fa).unwrap();

    let flat = dir.join("flat.mmx");
    let one_shard = dir.join("one.mmx");
    let sharded = dir.join("sharded.mmx");
    for (out, extra) in [
        (&flat, &[][..]),
        (&one_shard, &["--shards", "1"][..]),
        (&sharded, &["--shards", "3"][..]),
    ] {
        let st = manymap()
            .arg("index")
            .arg(&ref_fa)
            .arg(out)
            .args(extra)
            .status()
            .expect("spawn manymap index");
        assert!(st.success(), "index build failed for {}", out.display());
    }
    assert!(
        dir.join("sharded.mmx.s002").exists(),
        "expected three shard files next to the manifest"
    );

    Fixture {
        dir,
        fasta: ref_fa,
        flat,
        one_shard,
        sharded,
        reads,
        origin,
    }
}

fn run_map(index: &Path, reads: &Path, extra: &[&str]) -> Output {
    let out = manymap()
        .arg("map")
        .arg(index)
        .arg(reads)
        .args(["--threads", "2"])
        .args(extra)
        .output()
        .expect("spawn manymap map");
    assert!(
        out.status.success(),
        "map failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// stdout split into lines keyed by read name (first PAF column), in
/// emission order per read.
fn by_read(stdout: &[u8]) -> HashMap<String, Vec<String>> {
    let mut m: HashMap<String, Vec<String>> = HashMap::new();
    for line in String::from_utf8_lossy(stdout).lines() {
        let name = line.split('\t').next().unwrap_or_default().to_string();
        m.entry(name).or_default().push(line.to_string());
    }
    m
}

#[test]
fn sharded_output_is_byte_identical_to_flat() {
    let fx = fixture("ident");
    let base = run_map(&fx.flat, &fx.reads, &[]);
    assert!(!base.stdout.is_empty());

    let sharded = run_map(&fx.sharded, &fx.reads, &[]);
    assert_eq!(
        sharded.stdout, base.stdout,
        "sharded mapping must be byte-identical to flat"
    );
    let stderr = String::from_utf8_lossy(&sharded.stderr);
    assert!(
        stderr.contains("shards: 3 total, 0 quarantined, 3 loaded"),
        "stderr: {stderr}"
    );

    // The device backend over the sharded index, clean and with its first
    // submit failing (no retries: the whole batch reroutes to the CPU
    // standby). The fixture's reads fit one map batch (the fixture asserts
    // it), so the run's one backend session reports one batch, all of it
    // rerouted.
    let launch_fail = [
        "--backend-retries",
        "0",
        "--inject-backend-fault",
        "launch-fail:batches=0..1",
    ];
    for fault in [&[][..], &launch_fail] {
        let out = run_map(
            &fx.sharded,
            &fx.reads,
            &[&["--backend", "gpu-sim"], fault].concat(),
        );
        assert_eq!(out.stdout, base.stdout, "gpu-sim {fault:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let blocks: Vec<&str> = stderr
            .lines()
            .filter(|l| l.contains("backend gpu-sim: "))
            .collect();
        assert_eq!(blocks.len(), 1, "stderr: {stderr}");
        let (_, counts) = blocks[0].split_once("backend gpu-sim: ").unwrap();
        let (jobs, _) = counts
            .split_once(" jobs in 1 batches")
            .unwrap_or_else(|| panic!("one dispatch must be one batch: {counts}"));
        assert_eq!(
            stderr.contains(&format!(" {jobs} rerouted")),
            !fault.is_empty(),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn the_shard_report_follows_the_index_origin() {
    let fx = fixture("origin");
    let base = run_map(&fx.flat, &fx.reads, &[]);
    for (index, manifest) in [(&fx.flat, false), (&fx.fasta, false), (&fx.one_shard, true)] {
        let out = run_map(index, &fx.reads, &[]);
        assert_eq!(out.stdout, base.stdout, "{}", index.display());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.contains("opened shard manifest"),
            manifest,
            "{stderr}"
        );
        assert_eq!(stderr.contains("shards: "), manifest, "{stderr}");
        if manifest {
            assert!(
                stderr.contains("shards: 1 total, 0 quarantined, 1 loaded"),
                "stderr: {stderr}"
            );
        }
    }
}

#[test]
fn persistent_shard_faults_degrade_only_that_shards_reads() {
    let fx = fixture("chaos");
    let base = by_read(&run_map(&fx.flat, &fx.reads, &[]).stdout);

    for plan in [
        "corrupt-section:section=header:shards=1",
        "corrupt-section:section=seqs:shards=1",
        "corrupt-section:section=map:shards=1",
        "corrupt-section:section=pool:shards=1",
        "missing-shard:shards=1",
        "torn-tail:shards=1",
    ] {
        let out = run_map(&fx.sharded, &fx.reads, &["--inject-backend-fault", plan]);
        let got = by_read(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("shards: 3 total, 1 quarantined"),
            "{plan}: stderr: {stderr}"
        );
        assert!(
            stderr.contains("shard 1: quarantined"),
            "{plan}: stderr: {stderr}"
        );
        assert!(
            stderr.contains("on quarantined shard(s)"),
            "{plan}: stderr: {stderr}"
        );

        for (name, ci) in &fx.origin {
            let lines = got.get(name).unwrap_or_else(|| {
                panic!("{plan}: read {name} missing from output (no record emitted)")
            });
            if *ci == 1 {
                // Shard 1 holds chr2: its reads must degrade to unmapped.
                assert_eq!(lines.len(), 1, "{plan}: {name}: {lines:?}");
                assert!(
                    lines[0].contains("\ttp:A:U"),
                    "{plan}: {name} should be unmapped: {}",
                    lines[0]
                );
            } else {
                // Everyone else: byte-identical to the healthy flat run.
                assert_eq!(
                    Some(lines),
                    base.get(name),
                    "{plan}: {name} changed despite living on a healthy shard"
                );
            }
        }
    }
}

#[test]
fn slow_io_delays_loads_but_output_is_unchanged() {
    let fx = fixture("slowio");
    let base = run_map(&fx.sharded, &fx.reads, &[]);
    let out = run_map(
        &fx.sharded,
        &fx.reads,
        &["--inject-backend-fault", "slow-io:ms=5:shards=0..3"],
    );
    assert_eq!(
        out.stdout, base.stdout,
        "slow-io must be invisible in output"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("shards: 3 total, 0 quarantined"),
        "stderr: {stderr}"
    );
}

#[test]
fn chaos_replay_is_deterministic() {
    let fx = fixture("replay");
    let args = &["--inject-backend-fault", "missing-shard:shards=2"][..];
    let a = run_map(&fx.sharded, &fx.reads, args);
    let b = run_map(&fx.sharded, &fx.reads, args);
    assert_eq!(a.stdout, b.stdout, "seeded chaos replay must be identical");
    // The fault counters reconcile across replays too.
    let count = |o: &Output| {
        String::from_utf8_lossy(&o.stderr)
            .lines()
            .find(|l| l.contains("degraded to unmapped"))
            .map(str::to_string)
    };
    assert_eq!(count(&a), count(&b));
    assert!(count(&a).is_some(), "shard 2's reads must degrade");
}
