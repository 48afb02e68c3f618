//! End-to-end fault behavior of the `manymap` binary.
//!
//! Fatal faults (corrupt index, truncated read file) must exit nonzero with
//! a diagnostic on stderr — regression cover for the old reader closure that
//! converted mid-file errors into silent EOF (truncated output, exit 0).
//! Per-read faults (`--inject-panic`, oversized reads) must degrade to
//! unmapped records, exit 0, and be counted on stderr.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use mmm_index::{save_index, IdxOpts, MinimizerIndex};
use mmm_seq::{nt4_decode, write_fasta, SeqRecord};
use mmm_simreads::{generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts};

struct Fixture {
    dir: PathBuf,
    index: PathBuf,
    reads: PathBuf,
    read_names: Vec<String>,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Build a genome, an index file, and a FASTA of simulated reads.
fn fixture(tag: &str) -> Fixture {
    let dir = std::env::temp_dir().join(format!("manymap-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let g = generate_genome(&GenomeOpts {
        len: 60_000,
        repeat_frac: 0.0,
        seed: 7,
        ..Default::default()
    });
    let idx = MinimizerIndex::build(&[SeqRecord::new("chr1", nt4_decode(&g))], &IdxOpts::MAP_ONT)
        .unwrap();
    let index = dir.join("ref.mmx");
    save_index(&idx, &index).unwrap();

    let sims = simulate_reads(
        &g,
        &SimOpts {
            platform: Platform::Nanopore,
            num_reads: 6,
            seed: 11,
        },
    );
    let recs: Vec<SeqRecord> = sims
        .iter()
        .map(|r| SeqRecord::new(r.name.clone(), nt4_decode(&r.seq)))
        .collect();
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &recs, 0).unwrap();
    let reads = dir.join("reads.fa");
    std::fs::write(&reads, &fasta).unwrap();

    Fixture {
        dir,
        index,
        reads,
        read_names: sims.iter().map(|r| r.name.clone()).collect(),
    }
}

fn run_map(index: &Path, reads: &Path, extra: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_manymap"));
    cmd.arg("map").arg(index).arg(reads);
    // A repeated flag is a usage error, so the default yields to `extra`.
    if !extra.contains(&"--threads") {
        cmd.args(["--threads", "2"]);
    }
    cmd.args(extra);
    cmd.output().expect("spawn manymap")
}

#[test]
fn healthy_run_exits_zero_and_maps() {
    let fx = fixture("healthy");
    let out = run_map(&fx.index, &fx.reads, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.is_empty(), "no PAF produced");
    assert!(stderr.contains("mapped 6 reads"), "stderr: {stderr}");
    assert!(!stderr.contains("degraded"), "stderr: {stderr}");
}

#[test]
fn truncated_index_exits_nonzero_with_message() {
    let fx = fixture("truncidx");
    let bytes = std::fs::read(&fx.index).unwrap();
    let bad = fx.dir.join("bad.mmx");
    std::fs::write(&bad, &bytes[..bytes.len() / 2]).unwrap();

    let out = run_map(&bad, &fx.reads, &[]);
    assert!(!out.status.success(), "truncated index must be fatal");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("manymap:") && stderr.contains("bad.mmx"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("corrupt"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no output on a fatal index error");
}

#[test]
fn garbage_index_exits_nonzero_with_message() {
    let fx = fixture("badmagic");
    let bad = fx.dir.join("garbage.mmx");
    std::fs::write(&bad, b"this is not an index file at all").unwrap();

    let out = run_map(&bad, &fx.reads, &[]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("garbage.mmx"), "stderr: {stderr}");
}

/// Regression: the old reader closure used `.ok()?`, so a read file dying
/// mid-stream looked like EOF — truncated output, exit 0. A FASTQ record cut
/// off mid-way must now be a fatal, named error.
#[test]
fn truncated_reads_file_exits_nonzero() {
    let fx = fixture("truncreads");
    let bad = fx.dir.join("cut.fq");
    std::fs::write(&bad, b"@r1\nACGTACGTACGT\n+\n").unwrap(); // quality line missing

    let out = run_map(&fx.index, &bad, &[]);
    assert!(!out.status.success(), "mid-record truncation must be fatal");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("manymap:") && stderr.contains("cut.fq"),
        "stderr: {stderr}"
    );
}

#[test]
fn missing_files_exit_nonzero() {
    let fx = fixture("missing");
    let out = run_map(Path::new("/nonexistent/ref.mmx"), &fx.reads, &[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("/nonexistent/ref.mmx"));

    let out = run_map(&fx.index, Path::new("/nonexistent/reads.fa"), &[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("/nonexistent/reads.fa"));
}

/// A worker panic on one read degrades that read and completes the run.
#[test]
fn injected_panic_degrades_single_read() {
    let fx = fixture("panic");
    let victim = fx.read_names[2].clone();
    let out = run_map(&fx.index, &fx.reads, &["--inject-panic", &victim]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "degradation must not be fatal: {stderr}"
    );

    let stdout = String::from_utf8_lossy(&out.stdout);
    let unmapped: Vec<&str> = stdout.lines().filter(|l| l.contains("\ttp:A:U")).collect();
    assert_eq!(unmapped.len(), 1, "stdout: {stdout}");
    assert!(unmapped[0].starts_with(&victim), "line: {}", unmapped[0]);

    assert!(
        stderr.contains(&format!("worker panicked on read '{victim}'")),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("1 read(s) degraded to unmapped") && stderr.contains("1 worker panic"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("mapped 6 reads"), "stderr: {stderr}");
}

/// Reads over `--max-read-len` are rejected per-read, not fatally.
#[test]
fn oversized_reads_degrade_with_count() {
    let fx = fixture("toolong");
    let out = run_map(&fx.index, &fx.reads, &["--max-read-len", "50"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");

    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.lines().filter(|l| l.contains("\ttp:A:U")).count(),
        6,
        "every read exceeds 50 bp and must degrade: {stdout}"
    );
    assert!(
        stderr.contains("6 read(s) degraded to unmapped")
            && stderr.contains("6 over the length limit"),
        "stderr: {stderr}"
    );
}

/// Malformed flag values, unknown flags and repeated flags are usage errors
/// (exit 1, flag named, nothing on stdout) in both binaries — regression:
/// `manymap map` used to fall back to the default on `--threads abc`, to
/// read a mistyped `--thread 4` as a boolean plus a stray positional, to
/// keep the last of `--threads 2 --threads 1` silently, and to run
/// `--batch-deadline-ms 0` with every submit abandoned at once.
#[test]
fn malformed_and_unknown_flags_are_usage_errors_in_both_binaries() {
    let fx = fixture("flags");
    let sock = fx.dir.join("never-bound.sock");
    let map = |extra: &[&str]| run_map(&fx.index, &fx.reads, extra);
    let daemon = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_mmm-serve"))
            .arg("daemon")
            .arg(&fx.index)
            .arg("--socket")
            .arg(&sock)
            .args(extra)
            .output()
            .expect("spawn mmm-serve")
    };
    let expect_usage = |out: Output, prog: &str, why: &str| {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{prog} {why}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{prog}: ")) && stderr.contains(why),
            "{prog} must say {why:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{prog} {why} wrote to stdout");
    };
    for (bad, why) in [
        (&["--threads", "abc"][..], "--threads \"abc\": not a number"),
        (&["--threads", "0"], "--threads 0: expected an integer >= 1"),
        (
            &["--batch-deadline-ms", "0"],
            "--batch-deadline-ms 0: expected an integer >= 1",
        ),
        (&["--max-read-len", "1e6"], "--max-read-len"),
        (&["--backend-retries", "-1"], "--backend-retries"),
        (&["--preset", "pacbio"], "--preset"),
        (&["--thread", "4"], "unknown flag --thread"),
        (&["--mem-budget"], "--mem-budget: missing value"),
        (
            &["--mem-budget", "99999999999G"],
            "--mem-budget \"99999999999G\": expected a positive byte count",
        ),
        (
            &["--threads", "2", "--threads", "1"],
            "--threads: given more than once",
        ),
        (
            &["--no-cigar", "--no-cigar"],
            "--no-cigar: given more than once",
        ),
    ] {
        expect_usage(map(bad), "manymap", why);
        expect_usage(daemon(bad), "mmm-serve", why);
    }
    // The retired forks' flags are gone from the table, not deprecated.
    for gone in [&["--prefilter", "safe"][..], &["--index-format", "legacy"]] {
        let unknown = format!("unknown flag {}", gone[0]);
        expect_usage(map(gone), "manymap", &unknown);
        expect_usage(daemon(gone), "mmm-serve", &unknown);
    }
    // Each binary takes the shared table plus its own flags only.
    expect_usage(map(&["--socket", "x"]), "manymap", "--socket");
    expect_usage(daemon(&["--sam"]), "mmm-serve", "--sam");
    expect_usage(daemon(&["--fail-fast"]), "mmm-serve", "--fail-fast");
    assert!(!sock.exists(), "a usage error must come before the bind");
}

/// `manymap index` builds from a FASTA reference; an existing `.mmx` is a
/// usage error with and without `--shards` (re-saving a loaded image was a
/// file copy).
#[test]
fn index_rejects_an_mmx_input_in_both_branches() {
    let fx = fixture("index-mmx");
    for extra in [&[][..], &["--shards", "2"]] {
        let out_path = fx.dir.join("again.mmx");
        let out = Command::new(env!("CARGO_BIN_EXE_manymap"))
            .arg("index")
            .arg(&fx.index)
            .arg(&out_path)
            .args(extra)
            .output()
            .expect("spawn manymap");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(stderr.contains("needs a FASTA reference"), "{stderr}");
        assert!(!out_path.exists(), "{extra:?} wrote an index");
    }
}
