//! The repository's benchmark: seeded inputs, the release binaries
//! (`manymap index`, `manymap map`, `mmm-serve`) on four named workloads,
//! output checks, and every metric of `BENCHMARK.json` by name and unit.
//! See README.md.

mod check;
mod e2e;
mod gen;
mod proc;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The binaries under test.
pub struct Bins {
    pub manymap: PathBuf,
    pub serve: PathBuf,
}

/// One metric as printed: `None` is a layer metric withheld because the
/// replay it rests on did not reproduce the program's output.
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub unit: &'static str,
    pub samples: usize,
}

/// The result of one `(workload, trace)` run.
#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// Output-check failures; any makes the run incorrect.
    pub errors: Vec<String>,
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value: Some(value),
            unit,
            samples,
        });
    }

    pub fn withheld(&mut self, name: &'static str, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value: None,
            unit,
            samples: 0,
        });
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Record a failed check: `reads` of the attempted reads are failed.
    pub fn fail(&mut self, reads: usize, why: String) {
        self.failed += reads;
        self.errors.push(why);
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name)?.value
    }

    /// The driver's result line.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = match m.value {
                    Some(v) if v.is_finite() => format!("{v}"),
                    _ => "null".into(),
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn print(&self, workload: &str, trace: bool) {
        println!("## {workload} (trace {})", trace as u8);
        for n in &self.notes {
            println!("# {n}");
        }
        for e in &self.errors {
            println!("# CHECK FAILED: {e}");
        }
        for m in &self.metrics {
            match m.value {
                Some(v) => println!("{:<28} {v:>16.4} {:<8} n={}", m.name, m.unit, m.samples),
                None => println!(
                    "{:<28} {:>16} {:<8} (replay disagreed)",
                    m.name, "null", m.unit
                ),
            }
        }
        println!(
            "failed_share {} of {} reads attempted",
            self.failed, self.attempted
        );
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 11,
        seconds: 20.0,
        trace: None,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag} {v:?}: not a valid value");
        match flag.as_str() {
            "--workload" => a.workload = Some(val()?),
            "--seed" => a.seed = val().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => a.seconds = val().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--repeat" => {
                a.repeat = match val()?.as_str() {
                    "1" => 1,
                    "2" => 2,
                    v => return Err(bad(v)),
                }
            }
            "--trace" => {
                a.trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                })
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?}; usage: [--workload {}] [--seed N] \
                     [--seconds S] [--trace 0|1] [--repeat 2]",
                    gen::WORKLOADS.join("|")
                ))
            }
        }
    }
    if let Some(w) = &a.workload {
        if !gen::WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; expected one of {:?}",
                gen::WORKLOADS
            ));
        }
    }
    Ok(a)
}

/// Build the binaries under test from the checkout this runs in, with the
/// repository's own release profile and no other flags. Cargo makes this a
/// no-op when they are fresh.
fn build_bins() -> Result<Bins, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "-p", "manymap", "--bins"])
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err("cargo build --release -p manymap --bins failed".into());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let bins = Bins {
        manymap: target.join("release/manymap"),
        serve: target.join("release/mmm-serve"),
    };
    for b in [&bins.manymap, &bins.serve] {
        if !b.is_file() {
            return Err(format!("{} is missing after the build", b.display()));
        }
    }
    Ok(bins)
}

/// `nproc`, the kernels the linked crates select on this CPU (the binaries
/// link the same crates and select the same), and the binaries' mtimes.
fn host_line(bins: &Bins) -> String {
    let age = |p: &Path| {
        std::fs::metadata(p)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or("?".into(), |d| d.as_secs().to_string())
    };
    format!(
        "host: nproc {}, align engine {}, index decode tier {}, manymap mtime {}, mmm-serve mtime {}",
        nproc(),
        mmm_align::best_engine().label(),
        mmm_index::unpack::best_tier_label(),
        age(&bins.manymap),
        age(&bins.serve),
    )
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_one(
    bins: &Bins,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    // Every workload drives two threads or two connections at most.
    if nproc() < 2 {
        return Err("the workloads use 2 threads / 2 connections; this host has fewer CPUs".into());
    }
    let dir = PathBuf::from(format!("benchmark/out/{workload}-s{seed}"));
    let inp = gen::generate(workload, seed, &dir).map_err(|e| format!("generating inputs: {e}"))?;
    let log = dir.join("stderr.log");
    let _ = std::fs::remove_file(&log);
    let mut rep = Report::default();
    for (set, tenant) in inp.sets.iter().zip(serve::TENANTS) {
        let who = if inp.sets.len() > 1 { tenant } else { "reads" };
        rep.note(format!("{who}: {}", set.describe()));
    }
    match (workload, trace) {
        ("serve_mix", false) => e2e::run_serve(bins, &inp, &dir, seconds, &log, &mut rep)?,
        (_, false) => {
            let redraw = |pass| {
                gen::generate_pass(workload, seed, pass, &dir)
                    .map_err(|e| format!("generating inputs: {e}"))
            };
            e2e::run_map(bins, &inp, &redraw, seconds, &log, &mut rep)?
        }
        (_, true) => trace::run(bins, workload, &inp, &dir, seconds, &log, &mut rep)?,
    }
    // A run's inputs and index take up to 60 MB; they are kept only when a
    // check failed and somebody has to look at them.
    if rep.errors.is_empty() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(rep)
}

fn main() -> ExitCode {
    let run = || -> Result<bool, String> {
        let args = parse_args()?;
        let bins = build_bins()?;
        println!("# {}", host_line(&bins));
        let workloads: Vec<&str> = match &args.workload {
            Some(w) => vec![w.as_str()],
            None => gen::WORKLOADS.to_vec(),
        };
        let traces: Vec<bool> = match args.trace {
            Some(t) => vec![t],
            None => vec![false, true],
        };
        let mut all_ok = true;
        let mut sets: Vec<Vec<(String, Report)>> = Vec::new();
        for _ in 0..args.repeat {
            let mut set = Vec::new();
            for w in &workloads {
                for &t in &traces {
                    let rep = run_one(&bins, w, args.seed, args.seconds, t)?;
                    rep.print(w, t);
                    all_ok &= rep.errors.is_empty();
                    // The driver reads the last line of a single run.
                    println!("{}", rep.json());
                    if !t {
                        set.push((w.to_string(), rep));
                    }
                }
            }
            sets.push(set);
        }
        if sets.len() == 2 && !print_repeat(&sets[0], &sets[1]) {
            return Err("the two sets differ by more than the bounds (see OUTSIDE lines)".into());
        }
        Ok(all_ok)
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("mmm-benchmark: an output check failed (see CHECK FAILED lines)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("mmm-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The end-to-end bounds of `../BENCHMARK.json`. `None` marks the accuracy
/// metric, which on one seed and one build must repeat to the digit.
const BOUNDS: [(&str, Option<f64>); 6] = [
    ("setup_s", Some(0.25)),
    ("bases_per_s", Some(0.25)),
    ("peak_rss_mb", Some(0.15)),
    ("correct_pct", None),
    ("lat_p50_ms", Some(0.25)),
    ("lat_p90_ms", Some(0.25)),
];

/// `--repeat 2`: both values of every workload x end-to-end metric, their
/// relative difference and the bound. Returns whether all agree.
fn print_repeat(a: &[(String, Report)], b: &[(String, Report)]) -> bool {
    println!("## repeatability: two sets of runs of the same code on the same seed");
    let mut ok = true;
    for ((w, ra), (_, rb)) in a.iter().zip(b) {
        for (name, bound) in BOUNDS {
            let (Some(x), Some(y)) = (ra.value(name), rb.value(name)) else {
                continue;
            };
            let diff = (y - x).abs() / x.abs();
            let within = diff <= bound.unwrap_or(0.0);
            ok &= within;
            println!(
                "{w:<12} {name:<12} {x:>16.4} {y:>16.4}  diff {:>7.3} %  bound {:<7} {}",
                100.0 * diff,
                bound.map_or("exact".into(), |b| format!("{} %", 100.0 * b)),
                if within { "ok" } else { "OUTSIDE" }
            );
        }
        // failed/attempted, compared without rounding.
        let same = ra.failed * rb.attempted == rb.failed * ra.attempted;
        ok &= same;
        println!(
            "{w:<12} failed_share {:>12}/{:<8} {:>8}/{:<8} bound exact   {}",
            ra.failed,
            ra.attempted,
            rb.failed,
            rb.attempted,
            if same { "ok" } else { "OUTSIDE" }
        );
    }
    ok
}
