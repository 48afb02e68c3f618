//! End-to-end backend parity of the `manymap` binary.
//!
//! The acceptance bar for the backend abstraction: `--backend gpu-sim`
//! must produce byte-identical stdout (PAF and SAM) to `--backend cpu`,
//! including when a shrunken simulated device forces oversized pairs
//! through the CPU-fallback path, and the stderr summary must account for
//! the backend's work.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use manymap::session::MAP_BATCH_BASES;
use mmm_index::{save_index, IdxOpts, MinimizerIndex};
use mmm_seq::{nt4_decode, write_fasta, SeqRecord};
use mmm_simreads::{generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts};

struct Fixture {
    dir: PathBuf,
    index: PathBuf,
    reads: PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A genome, an index file, and a FASTA of noisy simulated reads (noise
/// guarantees the mapper emits deferred gap-fill jobs).
fn fixture(tag: &str) -> Fixture {
    let dir = std::env::temp_dir().join(format!("manymap-backend-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let g = generate_genome(&GenomeOpts {
        len: 80_000,
        repeat_frac: 0.0,
        seed: 17,
        ..Default::default()
    });
    let idx = MinimizerIndex::build(
        &[SeqRecord::new("chr1", nt4_decode(&g))],
        &IdxOpts::MAP_ONT,
        1,
    )
    .unwrap();
    let index = dir.join("ref.mmx");
    save_index(&idx, &index).unwrap();

    let sims = simulate_reads(
        &g,
        &SimOpts {
            platform: Platform::Nanopore,
            num_reads: 8,
            seed: 23,
        },
    );
    let recs: Vec<SeqRecord> = sims
        .iter()
        .map(|r| SeqRecord::new(r.name.clone(), nt4_decode(&r.seq)))
        .collect();
    // The `batches=0..1` fault plans below fault the run's only submission.
    let bases: usize = recs.iter().map(SeqRecord::len).sum();
    assert!(
        bases < MAP_BATCH_BASES,
        "the fault plans assume the reads ({bases} bases) fit one map batch"
    );
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &recs, 0).unwrap();
    let reads = dir.join("reads.fa");
    std::fs::write(&reads, &fasta).unwrap();

    Fixture { dir, index, reads }
}

fn run_map(index: &Path, reads: &Path, extra: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_manymap"));
    cmd.arg("map").arg(index).arg(reads);
    // A repeated flag is a usage error, so the default yields to `extra`.
    if !extra.contains(&"--threads") {
        cmd.args(["--threads", "2"]);
    }
    cmd.args(extra);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn manymap")
}

/// Fallback count from the stderr summary line
/// (`... N cpu-fallbacks, ...`).
fn fallbacks_in(stderr: &str) -> u64 {
    let line = stderr
        .lines()
        .find(|l| l.contains("cpu-fallbacks"))
        .unwrap_or_else(|| panic!("no backend summary in stderr: {stderr}"));
    let head = line.split(" cpu-fallbacks").next().unwrap();
    head.rsplit(' ').next().unwrap().parse().unwrap()
}

#[test]
fn gpu_sim_stdout_is_byte_identical_to_cpu() {
    let fx = fixture("parity");
    for format in [&[][..], &["--sam"][..]] {
        let cpu = run_map(
            &fx.index,
            &fx.reads,
            &[&["--backend", "cpu"], format].concat(),
            &[],
        );
        assert!(cpu.status.success());
        assert!(!cpu.stdout.is_empty(), "no records produced");
        let cpu_err = String::from_utf8_lossy(&cpu.stderr);
        assert!(cpu_err.contains("backend cpu:"), "stderr: {cpu_err}");
        let gpu = run_map(
            &fx.index,
            &fx.reads,
            &[&["--backend", "gpu-sim"], format].concat(),
            &[],
        );
        assert!(gpu.status.success());
        assert_eq!(
            cpu.stdout, gpu.stdout,
            "backend choice must never change output ({format:?})"
        );
        let stderr = String::from_utf8_lossy(&gpu.stderr);
        assert!(stderr.contains("backend gpu-sim:"), "stderr: {stderr}");
    }
}

#[test]
fn shrunken_device_forces_fallbacks_but_not_divergence() {
    let fx = fixture("fallback");
    let cpu = run_map(&fx.index, &fx.reads, &["--backend", "cpu"], &[]);
    // 16 KB of simulated device memory: any nontrivial with-path gap fill
    // overflows it and must be routed to the CPU executor.
    let gpu = run_map(
        &fx.index,
        &fx.reads,
        &["--backend", "gpu-sim"],
        &[("MMM_GPU_MEM", "16384")],
    );
    assert!(gpu.status.success());
    assert_eq!(
        cpu.stdout, gpu.stdout,
        "fallback path must stay bit-identical"
    );
    let stderr = String::from_utf8_lossy(&gpu.stderr);
    assert!(
        fallbacks_in(&stderr) >= 1,
        "shrunken device must exercise the fallback path: {stderr}"
    );
}

#[test]
fn unknown_backend_is_a_usage_error() {
    let fx = fixture("unknown");
    let out = run_map(&fx.index, &fx.reads, &["--backend", "tpu"], &[]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown backend"), "stderr: {stderr}");
}

// --- supervised execution (DESIGN.md §10) -------------------------------

/// The tentpole acceptance bar: a fault plan that fails *every* gpu-sim
/// submit must not change stdout by a byte. The supervisor retries, trips
/// the breaker, reroutes everything to the standby CPU backend, and the
/// stderr supervisor line accounts for it.
#[test]
fn total_gpu_failure_is_invisible_in_stdout() {
    let fx = fixture("chaos-total");
    let clean = run_map(&fx.index, &fx.reads, &["--backend", "cpu"], &[]);
    assert!(clean.status.success());
    let chaos = run_map(
        &fx.index,
        &fx.reads,
        &[
            "--backend",
            "gpu-sim",
            "--inject-backend-fault",
            "launch-fail",
        ],
        &[],
    );
    assert!(
        chaos.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&chaos.stderr)
    );
    assert_eq!(
        clean.stdout, chaos.stdout,
        "a fully failing primary must reroute, not corrupt output"
    );
    let stderr = String::from_utf8_lossy(&chaos.stderr);
    assert!(
        stderr.contains("supervisor gpu-sim:"),
        "supervisor summary missing: {stderr}"
    );
    assert!(
        stderr.contains("breaker-trips") && !stderr.contains("0 breaker-trips"),
        "breaker must trip under a 100%-failing plan: {stderr}"
    );
    assert!(stderr.contains("rerouted"), "stderr: {stderr}");
}

/// A hung primary submit must be abandoned at the batch deadline and the
/// batch rerouted — the run completes instead of wedging.
#[test]
fn hung_batch_is_killed_at_the_deadline() {
    let fx = fixture("chaos-hang");
    let clean = run_map(&fx.index, &fx.reads, &["--backend", "cpu"], &[]);
    let start = std::time::Instant::now();
    let out = run_map(
        &fx.index,
        &fx.reads,
        &[
            "--backend",
            "gpu-sim",
            "--inject-backend-fault",
            "hang:ms=30000:batches=0..1",
            "--batch-deadline-ms",
            "250",
        ],
        &[],
    );
    let wall = start.elapsed();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        wall < std::time::Duration::from_secs(20),
        "watchdog failed to cut the 30s hang short (wall={wall:?})"
    );
    assert_eq!(clean.stdout, out.stdout, "deadline reroute changed output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("deadline-kills") && !stderr.contains("0 deadline-kills"),
        "stderr: {stderr}"
    );
}

/// With a CPU primary there is no standby: a plan that fails every submit
/// exhausts the ladder and every read degrades to a PR-2-style unmapped
/// record (`tp:A:U`) instead of aborting the run.
#[test]
fn exhausted_ladder_quarantines_reads_as_unmapped() {
    let fx = fixture("chaos-quar");
    let out = run_map(
        &fx.index,
        &fx.reads,
        &[
            "--backend",
            "cpu",
            "--inject-backend-fault",
            "launch-fail",
            "--backend-retries",
            "1",
        ],
        &[],
    );
    assert!(
        out.status.success(),
        "quarantine must keep the run alive: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.is_empty());
    for line in stdout.lines() {
        assert!(
            line.contains("tp:A:U"),
            "quarantined read not degraded to unmapped: {line}"
        );
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("backend-quarantined"),
        "stderr must account for quarantined reads: {stderr}"
    );
}

/// `--fail-fast` turns the first backend quarantine into a fatal pipeline
/// error for debugging sessions.
#[test]
fn fail_fast_aborts_on_first_quarantine() {
    let fx = fixture("chaos-fatal");
    let out = run_map(
        &fx.index,
        &fx.reads,
        &[
            "--backend",
            "cpu",
            "--inject-backend-fault",
            "launch-fail",
            "--fail-fast",
        ],
        &[],
    );
    assert!(!out.status.success(), "--fail-fast must abort the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("injected fault launch-fail"),
        "stderr: {stderr}"
    );
}

/// A malformed fault plan is a usage error, reported before any mapping.
#[test]
fn malformed_fault_plan_is_a_usage_error() {
    let fx = fixture("chaos-usage");
    let out = run_map(
        &fx.index,
        &fx.reads,
        &["--inject-backend-fault", "segfault:when=never"],
        &[],
    );
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fault"), "stderr: {stderr}");
}
