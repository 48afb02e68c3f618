//! The end-to-end run of one workload: set-up, timed passes of the release
//! binaries with tracing off, output checks, and the metrics a user of
//! `manymap map` / `mmm-serve` would see.

use std::path::Path;
use std::time::Instant;

use crate::check::{check_output, Checked};
use crate::gen::{Inputs, ReadSet};
use crate::proc::{self, median, percentile, Finished};
use crate::serve::{self, Lifetime};
use crate::{Bins, Report};

/// Index builds timed for `setup_s`.
const SETUP_REPS: usize = 5;
/// Fewest timed passes (daemon lifetimes) whatever `--seconds` says.
const MIN_PASSES: usize = 3;
const MAX_PASSES: usize = 40;

fn path(p: &Path) -> &str {
    p.to_str().expect("the benchmark writes utf-8 paths")
}

/// `manymap index` on the workload's reference; returns the wall time.
pub fn build_index(bins: &Bins, inp: &Inputs, log: &Path) -> Result<f64, String> {
    let mut args = vec!["index", path(&inp.ref_fa), path(&inp.index)];
    args.extend(&inp.index_args);
    let f = proc::run(&bins.manymap, &args, log).map_err(|e| format!("manymap index: {e}"))?;
    if !f.ok {
        return Err(format!("manymap index failed; see {}", log.display()));
    }
    Ok(f.wall_s)
}

/// The walls of `n` index builds in a row.
pub fn index_walls(bins: &Bins, inp: &Inputs, n: usize, log: &Path) -> Result<Vec<f64>, String> {
    (0..n).map(|_| build_index(bins, inp, log)).collect()
}

/// One whole-file pass of `manymap map` over `set`.
pub fn map_pass(
    bins: &Bins,
    inp: &Inputs,
    set: &ReadSet,
    extra: &[&str],
    log: &Path,
) -> Result<Finished, String> {
    let mut args = vec!["map", path(&inp.index), path(&set.path)];
    args.extend(extra);
    proc::run(&bins.manymap, &args, log).map_err(|e| format!("manymap map: {e}"))
}

/// Seconds after launch at which each answered read's last record had
/// reached the harness.
fn arrival_latencies(f: &Finished, checked: &Checked) -> Vec<f64> {
    let mut chunk = 0usize;
    checked
        .last_line_end
        .iter()
        .map(|&(_, end)| {
            while f.arrivals[chunk].0 < end {
                chunk += 1;
            }
            f.arrivals[chunk].1
        })
        .collect()
}

/// `lo-hi x reference`, for the note that says how far the clock moved.
pub fn clock_range(clocks: &[f64]) -> String {
    let lo = clocks.iter().copied().fold(f64::MAX, f64::min);
    let hi = clocks.iter().copied().fold(0.0, f64::max);
    format!("{lo:.2}-{hi:.2} x reference")
}

/// Failures of one checked output, by the issue's `failed_share` rule.
pub fn failures(c: &Checked, sam: bool) -> usize {
    c.degraded + if sam { c.absent } else { 0 }
}

/// The timed passes of a map workload.
///
/// A workload whose inputs say `fresh_each_pass` gets a newly drawn data set
/// (and index) for every pass after the first, so its medians over passes
/// are medians over data sets too; the first data set is then mapped twice
/// to check that the output repeats. Every other workload maps one data set
/// over and over, and every pass must equal the first byte for byte.
pub fn run_map(
    bins: &Bins,
    first: &Inputs,
    redraw: &dyn Fn(usize) -> Result<Inputs, String>,
    seconds: f64,
    log: &Path,
    rep: &mut Report,
) -> Result<(), String> {
    // A redrawn data set brings its own index build.
    let reps = if first.fresh_each_pass { 0 } else { SETUP_REPS };
    let mut setup = index_walls(bins, first, reps, log)?;

    let t0 = Instant::now();
    let (mut walls, mut clocks, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lat50, mut lat90) = (Vec::new(), Vec::new());
    let mut rss = Vec::new();
    let (mut reads, mut right, mut wrong, mut records, mut answered) = (0, 0, 0, 0, 0);
    // The current data set's output and what its records said.
    let mut gold: Option<(Vec<u8>, Checked)> = None;
    let mut drawn;
    for pass in 0..MAX_PASSES {
        if pass >= MIN_PASSES && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let inp = if first.fresh_each_pass {
            drawn = redraw(pass)?;
            setup.push(build_index(bins, &drawn, log)?);
            &drawn
        } else {
            first
        };
        let set = &inp.sets[0];
        let n = set.recs.len();
        let mut f = map_pass(bins, inp, set, &inp.map_args, log)?;
        rep.attempted += n;
        if !f.ok {
            rep.fail(n, format!("pass {}: manymap map exited non-zero", pass + 1));
            continue;
        }
        // A repeated data set must repeat its output; a new one is checked
        // record by record and becomes the one to repeat.
        match &gold {
            Some((out, _)) if !inp.fresh_each_pass => {
                if f.stdout != *out {
                    rep.fail(n, format!("pass {} differs from pass 1", pass + 1));
                    continue;
                }
            }
            _ => match check_output(&f.stdout, set, inp) {
                Ok(c) => gold = Some((std::mem::take(&mut f.stdout), c)),
                Err(e) => {
                    rep.fail(n, format!("pass {} output: {e}", pass + 1));
                    continue;
                }
            },
        }
        let Some((out, c)) = &gold else { continue };
        if inp.fresh_each_pass && pass == 0 {
            let again = map_pass(bins, inp, set, &inp.map_args, log)?;
            if again.stdout != *out {
                rep.fail(
                    n,
                    "the first data set mapped twice gives two outputs".into(),
                );
            }
        }
        rep.failed += failures(c, inp.sam());
        // Accuracy is judged on the first `MIN_PASSES` data sets, which every
        // run of a seed has, so that it repeats exactly.
        if pass < MIN_PASSES {
            reads += n;
            right += c.right;
            wrong += c.wrong;
            records += c.records;
        }
        answered += c.last_line_end.len();
        walls.push(f.wall_s);
        clocks.push(f.clock);
        rates.push(set.bases() as f64 / f.wall_s);
        rss.push(f.peak_rss_mb);
        let lats = arrival_latencies(&f, c);
        lat50.push(1e3 * percentile(&lats, 0.5));
        lat90.push(1e3 * percentile(&lats, 0.9));
    }
    if walls.is_empty() {
        return Err("no pass produced a checkable output".into());
    }
    let n = walls.len();
    rep.metric("setup_s", median(&setup), "s", setup.len());
    rep.metric("bases_per_s", median(&rates), "bases/s", n);
    rep.metric("peak_rss_mb", median(&rss), "MB", n);
    rep.metric(
        "correct_pct",
        100.0 * right as f64 / reads as f64,
        "%",
        reads,
    );
    rep.metric("lat_p50_ms", median(&lat50), "ms", answered);
    rep.metric("lat_p90_ms", median(&lat90), "ms", answered);
    rep.note(format!(
        "{n} passes; {records} records for the {reads} reads of the first {MIN_PASSES}; wrong_pct {:.3}",
        100.0 * wrong as f64 / reads as f64
    ));
    rep.note(format!(
        "pass wall at the reference clock: median {:.3}s, fastest {:.3}s; CPU clock {}",
        median(&walls),
        walls.iter().copied().fold(f64::MAX, f64::min),
        clock_range(&clocks)
    ));
    Ok(())
}

/// The solo `manymap map` output of each tenant's reads: what its REC
/// stream must equal byte for byte.
fn solo_outputs(bins: &Bins, inp: &Inputs, log: &Path) -> Result<Vec<Vec<u8>>, String> {
    let mut outs = Vec::new();
    for set in &inp.sets {
        let f = map_pass(bins, inp, set, &inp.map_args, log)?;
        if !f.ok {
            return Err("solo manymap map exited non-zero".into());
        }
        outs.push(f.stdout);
    }
    Ok(outs)
}

/// Run daemon lifetimes for `seconds` (at least `MIN_PASSES`), checking
/// every tenant's REC stream against `solo`.
pub fn serve_lifetimes(
    bins: &Bins,
    inp: &Inputs,
    dir: &Path,
    seconds: f64,
    solo: &[Vec<u8>],
    log: &Path,
    rep: &mut Report,
) -> Result<Vec<Lifetime>, String> {
    let t0 = Instant::now();
    let mut lives = Vec::new();
    while lives.len() < MAX_PASSES
        && (lives.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds)
    {
        let mut life =
            serve::lifetime(&bins.serve, inp, dir, log).map_err(|e| format!("mmm-serve: {e}"))?;
        for (i, t) in life.tenants.iter_mut().enumerate() {
            let reads = inp.sets[i].recs.len();
            rep.attempted += reads;
            if !life.daemon_ok {
                rep.fail(reads, "daemon exited non-zero or refused DRAIN".into());
            } else if t.recs != solo[i] {
                rep.fail(
                    reads,
                    format!(
                        "tenant {}'s REC stream differs from manymap map",
                        serve::TENANTS[i]
                    ),
                );
            } else {
                rep.failed += reads - t.answered;
            }
            // Checked, and not kept: a child's `ru_maxrss` starts at what this
            // process holds when it forks, so this process has to stay small
            // or later daemons would report its memory as theirs.
            t.recs = Vec::new();
        }
        lives.push(life);
    }
    Ok(lives)
}

pub fn run_serve(
    bins: &Bins,
    inp: &Inputs,
    dir: &Path,
    seconds: f64,
    log: &Path,
    rep: &mut Report,
) -> Result<(), String> {
    let index_s = median(&index_walls(bins, inp, SETUP_REPS, log)?);
    let solo = solo_outputs(bins, inp, log)?;
    let (mut right, mut reads, mut degraded) = (0, 0, 0);
    for (set, out) in inp.sets.iter().zip(&solo) {
        let c = check_output(out, set, inp).map_err(|e| format!("solo output: {e}"))?;
        right += c.right;
        degraded += c.degraded;
        reads += set.recs.len();
    }
    let lives = serve_lifetimes(bins, inp, dir, seconds, &solo, log, rep)?;
    // A degraded read is degraded in every lifetime that streamed it.
    rep.failed += degraded * lives.len();
    let n = lives.len();
    let boots: Vec<f64> = lives.iter().map(|l| l.boot_s).collect();
    let rates: Vec<f64> = lives.iter().map(Lifetime::bases_per_s).collect();
    let short: Vec<f64> = lives
        .iter()
        .flat_map(|l| &l.tenants[1].latencies)
        .copied()
        .collect();
    rep.metric("setup_s", index_s + median(&boots), "s", SETUP_REPS.min(n));
    rep.metric("bases_per_s", median(&rates), "bases/s", n);
    let rss: Vec<f64> = lives.iter().map(|l| l.peak_rss_mb).collect();
    rep.metric("peak_rss_mb", median(&rss), "MB", n);
    rep.metric(
        "correct_pct",
        100.0 * right as f64 / reads as f64,
        "%",
        reads,
    );
    rep.metric(
        "lat_p50_ms",
        1e3 * percentile(&short, 0.5),
        "ms",
        short.len(),
    );
    rep.metric(
        "lat_p90_ms",
        1e3 * percentile(&short, 0.9),
        "ms",
        short.len(),
    );
    let clocks: Vec<f64> = lives.iter().map(|l| l.clock).collect();
    rep.note(format!(
        "{n} daemon lifetimes; CPU clock {}",
        clock_range(&clocks)
    ));
    Ok(())
}
