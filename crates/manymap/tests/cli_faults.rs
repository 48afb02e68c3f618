//! End-to-end fault behavior of the `manymap` binary.
//!
//! Fatal faults (corrupt index, truncated read file) must exit nonzero with
//! a diagnostic on stderr — regression cover for the old reader closure that
//! converted mid-file errors into silent EOF (truncated output, exit 0).
//! Per-read faults (`--inject-panic`, oversized reads) must degrade to
//! unmapped records, exit 0, and be counted on stderr.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use manymap::session::{Flag, DAEMON_FLAGS, INDEX_FLAGS, MAP_FLAGS, SHARED_FLAGS};
use mmm_index::{
    container_section_ranges, save_index, write_index_image, IdxOpts, MinimizerIndex,
    CONTAINER_SECTIONS,
};
use mmm_seq::{nt4_decode, write_fasta, SeqRecord};
use mmm_simreads::{generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts};

struct Fixture {
    dir: PathBuf,
    ref_fa: PathBuf,
    index: PathBuf,
    /// The index's embedded image with no container around it: what the
    /// parent build wrote as a single-file `.mmx`.
    bare_image: Vec<u8>,
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
    let refs = [SeqRecord::new("chr1", nt4_decode(&g))];
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &refs, 0).unwrap();
    let ref_fa = dir.join("ref.fa");
    std::fs::write(&ref_fa, &fasta).unwrap();
    let idx = MinimizerIndex::build(&refs, &IdxOpts::MAP_ONT, 1).unwrap();
    let index = dir.join("ref.mmx");
    save_index(&idx, &index).unwrap();
    let mut bare_image = Vec::new();
    write_index_image(&idx, &mut bare_image);

    let sims = simulate_reads(
        &g,
        &SimOpts {
            platform: Platform::Nanopore,
            num_reads: 6,
            seed: 11,
        },
    );
    // Named as `simreads` names reads, so `mapeval` can judge the output.
    let recs: Vec<SeqRecord> = sims
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let o = &r.origin;
            let strand = if o.rev { '-' } else { '+' };
            let name = format!("read{i}!chr1!{}!{}!{strand}", o.start, o.end);
            SeqRecord::new(name, nt4_decode(&r.seq))
        })
        .collect();
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &recs, 0).unwrap();
    let reads = dir.join("reads.fa");
    std::fs::write(&reads, &fasta).unwrap();

    Fixture {
        dir,
        ref_fa,
        index,
        bare_image,
        reads,
        read_names: recs.into_iter().map(|r| r.name).collect(),
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
fn garbage_index_exits_nonzero_with_message() {
    let fx = fixture("badmagic");
    let bad = fx.dir.join("garbage.mmx");
    std::fs::write(&bad, b"this is not an index file at all").unwrap();

    let out = run_map(&bad, &fx.reads, &[]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("garbage.mmx"), "stderr: {stderr}");
}

/// A fatal index error: exit 1, a message from `manymap:` that names the
/// file, nothing on stdout.
fn assert_fatal(out: &Output, file: &str, what: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
    assert!(stderr.starts_with("manymap: "), "{what}: {stderr}");
    assert!(stderr.contains(file), "{what}: {stderr}");
    assert!(out.stdout.is_empty(), "{what}: wrote to stdout");
    stderr
}

/// No single-byte change to a single-file index is accepted, no truncation
/// or extension, and no file without checksums: every byte sits behind one
/// that is verified before any of it is parsed, and the error names the
/// damaged section. Regression: the parent's single-file `.mmx` was a bare image,
/// so a flipped bit that stayed in range loaded, exited 0 and changed the
/// output.
#[test]
fn single_file_index_corruption_sweep_is_fatal_and_names_the_section() {
    let fx = fixture("sweep");
    let pristine = std::fs::read(&fx.index).unwrap();
    let sections = container_section_ranges(&pristine).unwrap();
    let len = pristine.len();
    // What an error at byte `at` must name: the directory, or the section
    // holding the byte. The four magic bytes decide what kind of file this
    // is at all, so damage there is some other typed refusal.
    let mut regions = vec![(4..120, "directory")];
    regions.extend(
        (sections.iter().zip(CONTAINER_SECTIONS))
            .map(|(&(s, e), name)| (s as usize..e as usize, name)),
    );
    let owner = |at: usize| {
        regions
            .iter()
            .find(|(r, _)| r.contains(&at))
            .map(|&(_, n)| n)
    };
    let bad = fx.dir.join("bad.mmx");
    let check = |bytes: &[u8], names: Option<&str>, what: String| {
        std::fs::write(&bad, bytes).unwrap();
        let stderr = assert_fatal(&run_map(&bad, &fx.reads, &[]), "bad.mmx", &what);
        if let Some(name) = names {
            assert!(stderr.contains(name), "{what} must name {name}: {stderr}");
        }
    };

    // Seeded offsets: the whole directory region at a stride, both ends of
    // every section plus a spread inside it, and the last byte.
    let mut state = 0x5EED_u64;
    let mut next = |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % n
    };
    let mut offsets: Vec<usize> = (0..120)
        .step_by(5)
        .chain([4, 7, 8, 111, 112, 119])
        .collect();
    for &(s, e) in &sections {
        let (s, e) = (s as usize, e as usize);
        offsets.extend([s, e - 1]);
        offsets.extend((0..45).map(|_| s + next(e - s)));
    }
    offsets.push(len - 1);
    assert!(offsets.len() >= 200, "{} offsets", offsets.len());
    for at in offsets {
        let mut bytes = pristine.clone();
        bytes[at] ^= 1 << next(8);
        check(&bytes, owner(at), format!("flip at {at}"));
    }

    // Truncation at every class of cut, and bytes past the end.
    let mut cuts = vec![0, 3, 4, 5, 21, 100, 119, 120, len / 2, len - 9, len - 1];
    cuts.extend(sections.iter().map(|&(_, e)| e as usize - 1));
    for cut in cuts {
        check(&pristine[..cut], owner(cut), format!("cut at {cut}"));
    }
    for pad in [1usize, 8, 4096] {
        let mut bytes = pristine.clone();
        bytes.resize(len + pad, 0);
        check(&bytes, Some("pool"), format!("{pad} trailing byte(s)"));
    }

    // A bare v2 image — the parent's single-file format — has no checksum
    // to verify: a rebuild hint, as for a retired version, never "corrupt".
    check(
        &fx.bare_image,
        Some("no checksum container: rebuild the index with `manymap index`"),
        "bare image".into(),
    );

    // The pristine bytes still map.
    std::fs::write(&bad, &pristine).unwrap();
    assert!(run_map(&bad, &fx.reads, &[]).status.success());
}

/// A reference is an index iff it starts with `MMX`, whatever it is
/// called. Regression: the name decided, so a copied `ref.idx` was parsed
/// as FASTA ("expected '>' or '@' header") and a FASTA named `x.mmx` was
/// refused as a corrupt index ("bad index magic").
#[test]
fn reference_kind_is_sniffed_from_content_not_name() {
    let fx = fixture("sniff");
    let gold = run_map(&fx.index, &fx.reads, &[]);
    assert!(gold.status.success() && !gold.stdout.is_empty());

    let renamed_index = fx.dir.join("ref.idx");
    std::fs::copy(&fx.index, &renamed_index).unwrap();
    let fasta_named_mmx = fx.dir.join("x.mmx");
    std::fs::copy(&fx.ref_fa, &fasta_named_mmx).unwrap();
    for reference in [&renamed_index, &fasta_named_mmx] {
        let out = run_map(reference, &fx.reads, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{}: {stderr}", reference.display());
        assert_eq!(out.stdout, gold.stdout, "{}", reference.display());
    }
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

/// How long any one flag-table run may take, daemon drain included.
const RUN_LIMIT: Duration = Duration::from_secs(20);

/// Run `cmd` from inside `dir` to its exit, stdout and stderr captured
/// through files (a pipe nobody drains would block a chatty child). It must
/// exit by itself within [`RUN_LIMIT`] — a signal or a hang fails the test.
/// A daemon is told to drain as soon as `socket` is bound.
fn run_to_exit(mut cmd: Command, dir: &Path, socket: Option<&Path>) -> Output {
    let (out_path, err_path) = (dir.join("run.stdout"), dir.join("run.stderr"));
    let mut child = cmd
        .current_dir(dir)
        .stdout(File::create(&out_path).unwrap())
        .stderr(File::create(&err_path).unwrap())
        .spawn()
        .expect("spawn");
    let deadline = Instant::now() + RUN_LIMIT;
    let mut drained = false;
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if let Some(sock) = socket.filter(|s| !drained && s.exists()) {
            drained = Command::new(env!("CARGO_BIN_EXE_mmm-serve"))
                .arg("drain")
                .arg(sock)
                .output()
                .is_ok_and(|o| o.status.success());
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{cmd:?}: still running after {RUN_LIMIT:?}");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    if let Some(sock) = socket {
        let _ = std::fs::remove_file(sock);
    }
    Output {
        status,
        stdout: std::fs::read(out_path).unwrap(),
        stderr: std::fs::read(err_path).unwrap(),
    }
}

/// One subcommand of one binary and the flag tables it parses.
struct Sub {
    /// Binary name: the prefix of every message it prints on failure.
    prog: &'static str,
    exe: &'static str,
    positional: Vec<PathBuf>,
    /// Flags every run carries unless the case sets the same flag itself
    /// (a repeated flag is a usage error).
    base: Vec<(&'static str, String)>,
    tables: Vec<&'static [Flag]>,
}

impl Sub {
    fn describe(&self, extra: &[&str]) -> String {
        format!("{} {:?} {extra:?}", self.prog, self.positional[0])
    }

    /// Run with `extra` appended; the outcome must be a clean exit 0, or
    /// exit 1 with nothing on stdout and a message that starts with the
    /// binary's name.
    fn run(&self, dir: &Path, extra: &[&str]) -> (Output, String) {
        let mut args: Vec<&str> = Vec::new();
        for (flag, value) in &self.base {
            if !extra.contains(flag) {
                args.extend([flag, value.as_str()]);
            }
        }
        args.extend(extra);
        // A daemon that boots is drained through the socket it was given.
        let socket = args
            .iter()
            .position(|a| *a == "--socket")
            .and_then(|i| args.get(i + 1))
            .map(|path| dir.join(path));
        let mut cmd = Command::new(self.exe);
        cmd.args(&self.positional).args(&args);
        let out = run_to_exit(cmd, dir, socket.as_deref());
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        let what = self.describe(extra);
        match out.status.code() {
            Some(0) => {}
            Some(1) => {
                assert!(
                    stderr.starts_with(&format!("{}: ", self.prog)),
                    "{what}: {stderr}"
                );
                assert!(out.stdout.is_empty(), "{what}: wrote to stdout: {stderr}");
            }
            other => panic!("{what}: exit {other:?} ({}): {stderr}", out.status),
        }
        (out, stderr)
    }

    /// [`Sub::run`] where the only acceptable outcome is a usage error whose
    /// message contains `why`.
    fn expect_usage(&self, dir: &Path, extra: &[&str], why: &str) {
        let (out, stderr) = self.run(dir, extra);
        let what = self.describe(extra);
        assert_eq!(out.status.code(), Some(1), "{what}: accepted");
        assert!(stderr.contains(why), "{what} must say {why:?}: {stderr}");
    }
}

/// Every value flag of every subcommand's own table × {missing value,
/// `abc`, `-1`, `0`, `1000000`, a 21-digit number, given twice}, and every
/// boolean flag given twice: the run exits 0 or 1 within [`RUN_LIMIT`],
/// never by signal, and an exit 1 names the flag. Only a free-text flag may
/// accept `abc`, `-1` or the 21-digit number. Regression: `--threads abc`
/// once fell back to the default, `--threads 2 --threads 1` kept the last,
/// `--batch-deadline-ms 0` abandoned every submit at once, `--threads
/// 1000000` died by SIGABRT in `thread::spawn`, `index --sam` and `map
/// --shards 3` were accepted and ignored.
#[test]
fn malformed_and_unknown_flags_are_usage_errors_in_both_binaries() {
    let fx = fixture("flags");
    let manymap = env!("CARGO_BIN_EXE_manymap");
    let threads = ("--threads", "2".to_string());
    let map = Sub {
        prog: "manymap",
        exe: manymap,
        positional: vec!["map".into(), fx.index.clone(), fx.reads.clone()],
        base: vec![threads.clone()],
        tables: vec![SHARED_FLAGS, MAP_FLAGS],
    };
    let index = Sub {
        prog: "manymap",
        exe: manymap,
        positional: vec!["index".into(), fx.ref_fa.clone(), "out.mmx".into()],
        base: vec![],
        tables: vec![INDEX_FLAGS],
    };
    let daemon = Sub {
        prog: "mmm-serve",
        exe: env!("CARGO_BIN_EXE_mmm-serve"),
        positional: vec!["daemon".into(), fx.index.clone()],
        base: vec![("--socket", "daemon.sock".to_string()), threads],
        tables: vec![SHARED_FLAGS, DAEMON_FLAGS],
    };

    // Any string is a read name or a socket path.
    const FREE_TEXT: [&str; 2] = ["inject-panic", "socket"];
    const NEVER_VALID: [&str; 3] = ["abc", "-1", "100000000000000000000"];
    for sub in [&map, &index, &daemon] {
        for &(name, takes_value) in sub.tables.iter().copied().flatten() {
            let flag = format!("--{name}");
            if !takes_value {
                sub.expect_usage(&fx.dir, &[&flag, &flag], &flag);
                continue;
            }
            sub.expect_usage(&fx.dir, &[&flag], &format!("{flag}: missing value"));
            sub.expect_usage(&fx.dir, &[&flag, "1", &flag, "1"], &flag);
            for value in NEVER_VALID {
                if FREE_TEXT.contains(&name) {
                    sub.run(&fx.dir, &[&flag, value]);
                } else {
                    sub.expect_usage(&fx.dir, &[&flag, value], &flag);
                }
            }
            for value in ["0", "1000000"] {
                let (out, stderr) = sub.run(&fx.dir, &[&flag, value]);
                assert!(
                    out.status.success() || stderr.contains(&flag),
                    "{} {flag} {value} must name the flag: {stderr}",
                    sub.prog
                );
            }
        }
    }

    // Values the generator lets through either way but that must be refused,
    // the near-miss spellings, and the flags of retired forks (gone from the
    // table, not deprecated).
    for sub in [&map, &daemon] {
        for (bad, why) in [
            (&["--threads", "0"][..], "--threads 0: expected an integer"),
            (&["--threads", "1000000"], "--threads 1000000: expected"),
            (
                &["--batch-deadline-ms", "0"],
                "--batch-deadline-ms 0: expected an integer >= 1",
            ),
            (&["--max-read-len", "1e6"], "--max-read-len"),
            (&["--preset", "pacbio"], "--preset"),
            (&["--thread", "4"], "unknown flag --thread"),
            (&["--mem-budget", "64K"], "unknown flag --mem-budget"),
            (&["--prefilter", "safe"], "unknown flag --prefilter"),
            (&["--index-format", "legacy"], "unknown flag --index-format"),
            (&["--no-mmap"], "unknown flag --no-mmap"),
            (&["--sched", "bins"], "unknown flag --sched"),
            (&["--quantum-bases", "1000"], "unknown flag --quantum-bases"),
        ] {
            sub.expect_usage(&fx.dir, bad, why);
        }
    }
    // Each subcommand takes its own table only.
    map.expect_usage(&fx.dir, &["--socket", "x"], "unknown flag --socket");
    map.expect_usage(&fx.dir, &["--shards", "3"], "unknown flag --shards");
    index.expect_usage(&fx.dir, &["--sam"], "unknown flag --sam");
    // `index` parses `--threads` as `map` does.
    index.expect_usage(
        &fx.dir,
        &["--threads", "0"],
        "--threads 0: expected an integer in 1..=",
    );
    index.expect_usage(&fx.dir, &["--shards", "0"], "--shards 0: expected");
    daemon.expect_usage(&fx.dir, &["--sam"], "unknown flag --sam");
    daemon.expect_usage(&fx.dir, &["--fail-fast"], "unknown flag --fail-fast");
    assert!(
        !fx.dir.join("daemon.sock").exists(),
        "a usage error must come before the bind"
    );
}

/// The six variables that used to twin a flag are not read: a run with
/// them set is the bare run.
#[test]
fn retired_environment_twins_are_ignored() {
    let fx = fixture("env-twins");
    let bare = run_map(&fx.index, &fx.reads, &[]);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_manymap"));
    cmd.arg("map").arg(&fx.index).arg(&fx.reads);
    cmd.args(["--threads", "2"])
        .env("MMM_BACKEND", "gpu-sim")
        .env("MMM_SCHED", "bins")
        .env("MMM_FAULT_PLAN", "launch-fail")
        .env("MMM_BACKEND_RETRIES", "0")
        .env("MMM_SCHED_BATCH_CELLS", "1")
        .env("MMM_SCHED_BATCH_JOBS", "1");
    let out = cmd.output().expect("spawn manymap");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("backend cpu:"), "stderr: {stderr}");
    assert!(!stderr.contains("binned batch(es)"), "stderr: {stderr}");
    assert!(!bare.stdout.is_empty());
    assert_eq!(out.stdout, bare.stdout);
}

/// `manymap index` builds from a FASTA reference; an existing index —
/// under any name: the content is sniffed — is a usage error with and
/// without `--shards` (re-saving a loaded image was a file copy, and
/// `index ref.idx out.mmx` used to parse the index as FASTA).
#[test]
fn index_rejects_an_index_input_in_both_branches() {
    let fx = fixture("index-mmx");
    let renamed = fx.dir.join("ref.idx");
    std::fs::copy(&fx.index, &renamed).unwrap();
    for input in [&fx.index, &renamed] {
        for extra in [&[][..], &["--shards", "2"]] {
            let out_path = fx.dir.join("again.mmx");
            let out = Command::new(env!("CARGO_BIN_EXE_manymap"))
                .arg("index")
                .arg(input)
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
}

/// `mapeval` judges something or fails. A `manymap map` that exits 0 and
/// maps nothing (every read over `--max-read-len`), or an empty PAF, used
/// to print zero wrong primaries and pass ci.sh's selection ratchet; a
/// second path was silently ignored and `--help` was opened as a file.
#[test]
fn mapeval_refuses_nothing_to_judge_and_stray_arguments() {
    let fx = fixture("mapeval");
    let mapeval = |args: &[&Path]| {
        Command::new(env!("CARGO_BIN_EXE_mapeval"))
            .args(args)
            .output()
            .expect("spawn mapeval")
    };
    let paf = |name: &str, out: Output| {
        assert!(out.status.success());
        let path = fx.dir.join(name);
        std::fs::write(&path, out.stdout).unwrap();
        path
    };
    let mapped = paf("mapped.paf", run_map(&fx.index, &fx.reads, &[]));
    let out = mapeval(&[&mapped]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrong primaries at MAPQ >= 40:"));

    let unmapped = paf(
        "unmapped.paf",
        run_map(&fx.index, &fx.reads, &["--max-read-len", "50"]),
    );
    let empty = fx.dir.join("empty.paf");
    std::fs::write(&empty, "").unwrap();
    for path in [unmapped.as_path(), &empty] {
        let out = mapeval(&[path]);
        assert_eq!(out.status.code(), Some(1), "{path:?}");
        assert!(out.stdout.is_empty(), "{path:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!(
                "mapeval: {}: no primary record carries simreads truth\n",
                path.display()
            )
        );
    }

    for (args, why) in [
        (&[mapped.as_path(), &empty][..], "unexpected argument"),
        (&[Path::new("--help")][..], "unknown flag --help"),
    ] {
        let out = mapeval(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(
            stderr.contains(why) && stderr.contains("usage: mapeval"),
            "{stderr}"
        );
    }
}

/// A reader that closes stdout early (`manymap map … | head`) has all it
/// wanted: the run stops, exits 0 and reports no error. The SAM here is
/// several times a pipe buffer, so writes are still pending at the close.
#[test]
fn closed_stdout_is_a_quiet_exit_zero() {
    let fx = fixture("closedpipe");
    let fasta = std::fs::read(&fx.reads).unwrap();
    let many = fx.dir.join("many.fa");
    let copies: Vec<String> = (0..8)
        .map(|c| String::from_utf8_lossy(&fasta).replace(">read", &format!(">c{c}_read")))
        .collect();
    std::fs::write(&many, copies.concat()).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_manymap"))
        .arg("map")
        .arg(&fx.index)
        .arg(&many)
        .args(["--sam", "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn manymap");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert!(first.starts_with("@HD"), "{first}");
    drop(stdout);

    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("Broken pipe"), "{stderr}");
    assert!(!stderr.contains("manymap:"), "{stderr}");
}
