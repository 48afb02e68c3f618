//! `cargo run -p xtask -- verify` — the repo's own static-analysis and
//! soundness gate (see DESIGN.md §8).
//!
//! Sub-passes, each also runnable on its own:
//!
//! 1. `lint` — custom source lints over `crates/` and `shims/` enforcing the
//!    invariants clippy can't: justified `// SAFETY:` comments on every
//!    `unsafe` site, `#[target_feature]` confined behind the dispatch gate,
//!    raw-pointer arithmetic only in `simd/`, `unpack.rs` and `mmap.rs`,
//!    SIMD intrinsics in `mmm-index` confined to `unpack.rs`, every
//!    mmap-derived byte behind `verify_checksums`, and a `*_with_scratch`
//!    variant for every public kernel. (What clippy can express is
//!    clippy's: `unwrap`/`expect` outside tests in the root `Cargo.toml`,
//!    `transmute` in `clippy.toml`, process-stream prints in the daemon on
//!    `manymap::serve`.)
//! 2. `oracle` — the differential kernel oracle: every available SIMD tier
//!    against the scalar manymap gold, plus the zero-allocation
//!    scratch-arena steady-state check, the backend execution seam, and
//!    the packed-vs-flat posting/decode/mapping crosscheck.
//! 3. `fuzz` — the seeded structure-aware fuzzer of every byte format the
//!    binaries read: hostile length-prefixed frames against `serve::proto`,
//!    hostile FASTA/FASTQ against `mmm_seq::FastxReader`, and damaged index
//!    containers (bit flips, truncations, forged section lengths) through
//!    `AnyIndex::open_mmap`, asserting typed errors, no panics, no damaged
//!    index accepted, and round-trip identity on valid inputs.
//! 4. `miri` — the Miri-clean subset (`cargo +nightly miri test` on
//!    `mmm-align`'s scalar/layout tests, `mmm-pipeline`'s queue tests, and
//!    the `serve::proto` codec; SIMD intrinsics are cfg-gated out under
//!    Miri). Skipped with a notice when the toolchain has no Miri — this
//!    build environment is offline and cannot install components.
//! 5. `interleave` — the loom-lite interleaving checker (with the
//!    happens-before race detector and lock-order detector on) over the
//!    pipeline condvar hand-off, the `BoundedQueue` protocol, the DRR
//!    credit gate, the signal-drain flush, and the watchdog rendezvous.

mod fuzz;
mod lex;
mod lints;
mod oracle;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent().and_then(Path::parent) {
        Some(root) => root.to_path_buf(),
        None => PathBuf::from("."),
    }
}

fn run_lints(root: &Path) -> Result<(), String> {
    let violations = lints::run(root)?;
    if violations.is_empty() {
        println!(
            "xtask lint: {} rules clean over crates/ and shims/",
            lints::RULES.len()
        );
        return Ok(());
    }
    for v in &violations {
        eprintln!("{v}");
    }
    Err(format!(
        "{} lint violation(s); suppress a justified exception with \
         `// xtask-allow: <rule> — <why>` (DESIGN.md §8)",
        violations.len()
    ))
}

fn run_oracle(args: &[String]) -> Result<(), String> {
    let mut cases = 48usize;
    let mut seed = 0xC0FFEE_u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<'_, String>| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--cases" => {
                cases = value(&mut it)?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?
            }
            "--seed" => {
                seed = value(&mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            other => return Err(format!("unknown oracle flag {other:?}")),
        }
    }
    let summary = oracle::run(cases, seed)?;
    println!("xtask oracle: {summary}");
    Ok(())
}

fn run_fuzz(args: &[String]) -> Result<(), String> {
    let mut cases = 256u64;
    let mut seed = 0xF2A7_u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<'_, String>| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--cases" => {
                cases = value(&mut it)?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?
            }
            "--seed" => {
                seed = value(&mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            other => return Err(format!("unknown fuzz flag {other:?}")),
        }
    }
    let summary = fuzz::run(cases, seed)?;
    println!("xtask fuzz: {summary}");
    Ok(())
}

/// Run a cargo subcommand, streaming its output; Err on non-zero exit.
fn cargo(root: &Path, args: &[&str], what: &str) -> Result<(), String> {
    cargo_env(root, args, &[], what)
}

/// Like [`cargo`], with extra environment variables (e.g. `MIRIFLAGS`).
fn cargo_env(root: &Path, args: &[&str], envs: &[(&str, &str)], what: &str) -> Result<(), String> {
    let status = Command::new("cargo")
        .args(args)
        .envs(envs.iter().copied())
        .current_dir(root)
        .status()
        .map_err(|e| format!("spawning cargo for {what}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{what} failed (cargo {})", args.join(" ")))
    }
}

fn miri_available() -> bool {
    Command::new("cargo")
        .args(["+nightly", "miri", "--version"])
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

fn run_miri(root: &Path) -> Result<(), String> {
    if !miri_available() {
        println!(
            "xtask miri: `cargo +nightly miri` unavailable (offline toolchain, \
             component not installed) — skipping the Miri subset. The subset \
             still runs wherever Miri exists; nothing else is skipped."
        );
        return Ok(());
    }
    println!(
        "xtask miri: running the Miri-clean subset (mmm-align with SIMD \
         cfg-gated out, mmm-pipeline queue, serve::proto codec)"
    );
    cargo(
        root,
        &["+nightly", "miri", "test", "-p", "mmm-align", "--lib", "-q"],
        "miri subset (mmm-align)",
    )?;
    // The queue tests take real timeouts through `Instant`, which Miri only
    // provides outside isolation.
    cargo_env(
        root,
        &[
            "+nightly",
            "miri",
            "test",
            "-p",
            "mmm-pipeline",
            "--lib",
            "-q",
            "queue",
        ],
        &[("MIRIFLAGS", "-Zmiri-disable-isolation")],
        "miri subset (mmm-pipeline queue)",
    )?;
    cargo(
        root,
        &[
            "+nightly",
            "miri",
            "test",
            "-p",
            "manymap",
            "--lib",
            "-q",
            "serve::proto",
        ],
        "miri subset (serve::proto)",
    )
}

fn run_interleave(root: &Path) -> Result<(), String> {
    println!(
        "xtask interleave: enumerating schedules with loom-lite (race + \
         lock-order detectors on)"
    );
    cargo(
        root,
        &[
            "test",
            "-q",
            "-p",
            "mmm-pipeline",
            "--test",
            "interleavings",
        ],
        "interleaving checker (pipeline hand-off)",
    )?;
    cargo(
        root,
        &[
            "test",
            "-q",
            "-p",
            "mmm-pipeline",
            "--test",
            "queue_interleavings",
        ],
        "interleaving checker (BoundedQueue)",
    )?;
    cargo(
        root,
        &[
            "test",
            "-q",
            "-p",
            "manymap",
            "--test",
            "serve_interleavings",
        ],
        "interleaving checker (DRR credit + signal drain)",
    )?;
    cargo(
        root,
        &[
            "test",
            "-q",
            "-p",
            "mmm-exec",
            "--test",
            "watchdog_interleavings",
        ],
        "interleaving checker (watchdog rendezvous)",
    )?;
    cargo(
        root,
        &["test", "-q", "-p", "loom-lite"],
        "loom-lite self-tests",
    )
}

fn verify(root: &Path) -> Result<(), String> {
    println!("xtask verify: [1/5] source lints");
    run_lints(root)?;
    println!("xtask verify: [2/5] differential kernel oracle");
    run_oracle(&[])?;
    println!("xtask verify: [3/5] protocol and file-format fuzzer");
    run_fuzz(&[])?;
    println!("xtask verify: [4/5] Miri subset");
    run_miri(root)?;
    println!("xtask verify: [5/5] interleaving checker");
    run_interleave(root)?;
    println!("xtask verify: all passes clean");
    Ok(())
}

fn print_help() {
    println!(
        "xtask — repo-native verification\n\n\
         USAGE: cargo run -p xtask -- <command>\n\n\
         COMMANDS:\n  \
         verify               run every pass (lint, oracle, fuzz, miri, interleave)\n  \
         lint                 custom source lints (SAFETY comments, unsafe hygiene,\n                       lock order, condvar-wait loops)\n  \
         oracle [--cases N] [--seed S]\n                       differential SIMD oracle vs scalar gold\n  \
         fuzz [--cases N] [--seed S]\n                       hostile-input fuzzer: serve wire protocol, FASTA/FASTQ\n                       reader, index container loader\n  \
         miri                 Miri-clean subset (skipped if Miri is unavailable)\n  \
         interleave           loom-lite schedule enumeration (pipeline, queue,\n                       DRR credit, signal drain, watchdog)\n  \
         help                 this text"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("verify");
    let root = workspace_root();
    let result = match cmd {
        "verify" => verify(&root),
        "lint" => run_lints(&root),
        "oracle" => run_oracle(&args[1..]),
        "fuzz" => run_fuzz(&args[1..]),
        "miri" => run_miri(&root),
        "interleave" => run_interleave(&root),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?} (try `help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xtask: {e}");
            ExitCode::FAILURE
        }
    }
}
