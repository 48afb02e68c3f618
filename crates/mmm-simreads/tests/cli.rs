//! The `simreads` command line, at the process level: ci.sh's shard gate
//! and selection ratchet stand on this binary, so a typo must stop it —
//! `simreads: …` on stderr, exit 1, nothing written — instead of silently
//! generating the default dataset into the working directory.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh working directory: whatever `simreads` writes by default lands
/// here.
fn workdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mmm-simreads-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn simreads(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simreads"))
        .current_dir(dir)
        .args(args)
        .output()
        .unwrap()
}

fn is_empty(dir: &PathBuf) -> bool {
    std::fs::read_dir(dir).unwrap().next().is_none()
}

#[test]
fn help_prints_usage_and_writes_nothing() {
    let d = workdir("help");
    let out = simreads(&d, &["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: simreads"));
    assert!(is_empty(&d), "--help wrote into the working directory");
    std::fs::remove_dir_all(&d).unwrap();
}

#[test]
fn every_malformed_command_line_is_refused_before_anything_is_written() {
    let d = workdir("refused");
    for (args, why) in [
        (
            &["--reads", "abc"][..],
            "--reads \"abc\": expected an integer >= 1",
        ),
        (
            &["--genome", "1e6"],
            "--genome \"1e6\": expected an integer >= 1",
        ),
        (&["--seed", "-1"], "--seed \"-1\": not a number"),
        (
            &["--platform", "pacbo"],
            "--platform \"pacbo\": expected pacbio, ont or nanopore",
        ),
        (&["--genomee", "5"], "unknown flag --genomee"),
        (&["--genome"], "--genome: missing value"),
        (&["--reads", "10", "--out-ref"], "--out-ref: missing value"),
        (&["--reads", "0"], "--reads \"0\": expected an integer >= 1"),
        (
            &["--genome", "0"],
            "--genome \"0\": expected an integer >= 1",
        ),
        (
            &["--chroms", "0"],
            "--chroms \"0\": expected an integer >= 1",
        ),
        (
            &["--reads", "5", "--reads", "6"],
            "--reads: given more than once",
        ),
        (&["ref.fa"], "unexpected argument \"ref.fa\""),
    ] {
        let out = simreads(&d, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("simreads: {why}\n")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(is_empty(&d), "{args:?} wrote into the working directory");
    }
    std::fs::remove_dir_all(&d).unwrap();
}

#[test]
fn a_valid_run_writes_the_named_files_reproducibly() {
    let d = workdir("valid");
    let run = |tag: &str| {
        let (r, q) = (format!("ref-{tag}.fa"), format!("reads-{tag}.fa"));
        let out = simreads(
            &d,
            &[
                "--genome",
                "30000",
                "--chroms",
                "2",
                "--reads",
                "6",
                "--platform",
                "ont",
                "--seed",
                "0",
                "--out-ref",
                &r,
                "--out-reads",
                &q,
            ],
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            std::fs::read(d.join(r)).unwrap(),
            std::fs::read(d.join(q)).unwrap(),
        )
    };
    let (a, b) = (run("a"), run("b"));
    assert_eq!(a, b, "one seed, one dataset");
    let reference = String::from_utf8(a.0).unwrap();
    assert_eq!(reference.matches('>').count(), 2);
    assert_eq!(String::from_utf8(a.1).unwrap().matches(">read").count(), 6);
    assert!(!d.join("ref.fa").exists() && !d.join("reads.fa").exists());
    std::fs::remove_dir_all(&d).unwrap();
}
