//! `cargo run -p xtask -- verify` — the repo's own soundness gate, the
//! checks no compiler lint can make (see DESIGN.md §8).
//!
//! The static invariants are the build's: `unsafe_code` is denied in the
//! root `Cargo.toml` except in the nine modules that `#![expect]` it, clippy
//! requires `// SAFETY:` on every unsafe block and `# Safety` on every
//! `unsafe fn`, and `clippy.toml` disallows `transmute` and the bare
//! `Condvar::wait`/`wait_timeout` (DESIGN.md §8.1). What is left here
//! runs code. Sub-passes, each also runnable on its own:
//!
//! 1. `oracle` — the differential kernel oracle: every available SIMD tier
//!    against the scalar manymap gold, plus the zero-allocation
//!    scratch-arena steady-state check, the backend execution seam, the
//!    packed-vs-flat posting/decode/mapping crosscheck, the minimizer
//!    sketcher against its brute-force model, and the chaining DP against
//!    its reference loop.
//! 2. `fuzz` — the seeded structure-aware fuzzer of every byte format the
//!    binaries read: hostile length-prefixed frames against `serve::proto`,
//!    hostile FASTA/FASTQ against `mmm_seq::FastxReader`, and damaged index
//!    containers (bit flips, truncations, forged section lengths) through
//!    `ShardedIndex::open`, asserting typed errors, no panics, no damaged
//!    index accepted, and round-trip identity on valid inputs.
//! 3. `miri` — the Miri-clean subset (`cargo +nightly miri test` on
//!    `mmm-align`'s scalar/layout tests, `mmm-pipeline`'s queue tests, and
//!    the `serve::proto` codec; SIMD intrinsics are cfg-gated out under
//!    Miri). Skipped with a notice when the toolchain has no Miri — this
//!    build environment is offline and cannot install components.
//! 4. `interleave` — the loom-lite interleaving checker (with the
//!    happens-before race detector and lock-order detector on) over the
//!    pipeline condvar hand-off, the `BoundedQueue` protocol, the DRR
//!    credit gate, the signal-drain flush, and the watchdog rendezvous
//!    with the supervisor's one nested lock.

mod fuzz;
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
    println!("xtask verify: [1/4] differential kernel oracle");
    run_oracle(&[])?;
    println!("xtask verify: [2/4] protocol and file-format fuzzer");
    run_fuzz(&[])?;
    println!("xtask verify: [3/4] Miri subset");
    run_miri(root)?;
    println!("xtask verify: [4/4] interleaving checker");
    run_interleave(root)?;
    println!("xtask verify: all passes clean");
    Ok(())
}

fn print_help() {
    println!(
        "xtask — repo-native verification (static invariants are the build's:\n\
         workspace lint levels and clippy.toml, DESIGN.md §8.1)\n\n\
         USAGE: cargo run -p xtask -- <command>\n\n\
         COMMANDS:\n  \
         verify               run every pass (oracle, fuzz, miri, interleave)\n  \
         oracle [--cases N] [--seed S]\n                       differential SIMD oracle vs scalar gold\n  \
         fuzz [--cases N] [--seed S]\n                       hostile-input fuzzer: serve wire protocol, FASTA/FASTQ\n                       reader, index container loader\n  \
         miri                 Miri-clean subset (skipped if Miri is unavailable)\n  \
         interleave           loom-lite schedule enumeration (pipeline, queue,\n                       DRR credit, signal drain, watchdog + nested lock)\n  \
         help                 this text"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("verify");
    let root = workspace_root();
    let result = match cmd {
        "verify" => verify(&root),
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

#[cfg(test)]
mod tests {
    use super::workspace_root;
    use std::path::PathBuf;

    /// The manifest of every workspace member: the root package plus each
    /// directory the root `members` list names (`dir/*` globs expanded).
    fn member_manifests() -> Vec<PathBuf> {
        let root = workspace_root();
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        let members = manifest
            .lines()
            .find_map(|l| l.trim().strip_prefix("members"))
            .expect("the root Cargo.toml lists its members");
        let mut out = vec![root.join("Cargo.toml")];
        for pattern in members.split('"').skip(1).step_by(2) {
            match pattern.strip_suffix("/*") {
                Some(dir) => {
                    for entry in std::fs::read_dir(root.join(dir)).unwrap() {
                        let m = entry.unwrap().path().join("Cargo.toml");
                        if m.is_file() {
                            out.push(m);
                        }
                    }
                }
                None => out.push(root.join(pattern).join("Cargo.toml")),
            }
        }
        out
    }

    /// Whether a manifest sets `workspace = true` in its `[lints]` table.
    fn inherits_workspace_lints(manifest: &str) -> bool {
        let mut in_lints = false;
        manifest.lines().map(str::trim).any(|line| {
            if line.starts_with('[') {
                in_lints = line == "[lints]";
                return false;
            }
            in_lints && line.replace(' ', "") == "workspace=true"
        })
    }

    #[test]
    fn lints_table_is_read_by_section() {
        assert!(inherits_workspace_lints(
            "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"
        ));
        assert!(!inherits_workspace_lints("[package]\nname = \"x\"\n"));
        // `workspace = true` in another table is a dependency, not the lints.
        assert!(!inherits_workspace_lints(
            "[lints.clippy]\nunwrap_used = \"allow\"\n[dependencies.rand]\nworkspace = true\n"
        ));
    }

    /// The lint levels in the root `Cargo.toml` (`unsafe_code`, the SAFETY
    /// documentation lints, `unwrap_used`/`expect_used`) bind only the
    /// members that opt in; a new crate that forgets is unchecked.
    #[test]
    fn every_member_inherits_the_workspace_lints() {
        let manifests = member_manifests();
        assert!(manifests.len() > 10, "members not found: {manifests:?}");
        let missing: Vec<&PathBuf> = manifests
            .iter()
            .filter(|m| !inherits_workspace_lints(&std::fs::read_to_string(m).unwrap()))
            .collect();
        assert!(
            missing.is_empty(),
            "add `[lints]\\nworkspace = true` to {missing:?}"
        );
    }
}
