//! What a gap-fill job costs outside its DP cells (DESIGN.md §4.1c).
//!
//! Builds an `ont_unique`-shaped set in memory — a repeat-free 2 Mbp
//! genome and 500 simulated ONT reads, about 2 Mbases (`--quick`: 500 kbp
//! and 120 reads) — and times public entry points only, one thread:
//!
//! * `Mapper::plan_read` over every read (seeding, chaining and building
//!   the jobs);
//! * `HostBackend::submit` of the planned jobs, cut into the CLI's read
//!   batches, with paths and score-only, in alternating pairs;
//! * the engine's widest lane-group tier via
//!   `Engine::align_group_with_scratch` over the jobs that tier groups,
//!   with paths and score-only, in alternating pairs;
//! * SAM and PAF formatting of every record the set maps to.
//!
//! Every timing is a median and quartiles over ten passes; the counts
//! (jobs, cells, lane groups, records, output bytes) repeat exactly.
//! [`run_with_json`] serializes the result for `BENCH_job_path.json`.

use std::hint::black_box;
use std::time::Instant;

use manymap::sam::push_sam_line;
use manymap::{push_paf_line, MapOpts, Mapper};
use mmm_align::{best_engine, AlignMode, AlignResult, AlignScratch, Engine, GroupJob, Scoring};
use mmm_exec::{prepare, AlignJob, BackendKind, BackendOptions};
use mmm_index::{IdxOpts, ShardedIndex};
use mmm_seq::{nt4_decode, SeqRecord};
use mmm_simreads::{generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts};

use crate::experiments::chain_dp::Spread;
use crate::format_table;

/// Passes (or alternating pairs) per timing.
const PAIRS: usize = 10;

/// The CLI's read batch (`manymap::session::MAP_BATCH_BASES`): one
/// backend submission per batch.
const BATCH_BASES: usize = 256_000;

/// Padded cells a lane group may span, as the host executor caps them.
const GROUP_CELLS: usize = 1 << 20;

/// Seconds `f` takes.
fn timed<E>(f: impl FnOnce() -> Result<(), E>) -> Result<f64, E> {
    let t = Instant::now();
    f()?;
    Ok(t.elapsed().as_secs_f64())
}

/// `f`'s seconds over `PAIRS` passes, after one untimed pass.
fn passes(mut f: impl FnMut() -> Result<f64, String>) -> Result<Spread, String> {
    f()?;
    let runs = (0..PAIRS).map(|_| f()).collect::<Result<_, _>>()?;
    Ok(Spread::of(runs))
}

/// `a`'s and `b`'s seconds in `PAIRS` alternating pairs, after one
/// untimed pair.
fn pairs(
    mut a: impl FnMut() -> Result<f64, String>,
    mut b: impl FnMut() -> Result<f64, String>,
) -> Result<(Spread, Spread), String> {
    a()?;
    b()?;
    let (mut sa, mut sb) = (Vec::new(), Vec::new());
    for p in 0..PAIRS {
        if p % 2 == 0 {
            sa.push(a()?);
            sb.push(b()?);
        } else {
            sb.push(b()?);
            sa.push(a()?);
        }
    }
    Ok((Spread::of(sa), Spread::of(sb)))
}

/// Every group through `engine`'s lane-group kernel, CIGARs recycled.
fn run_groups(
    engine: Engine,
    groups: &[Vec<GroupJob<'_>>],
    sc: &Scoring,
    scratch: &mut AlignScratch,
) -> Result<(), String> {
    let mut out = Vec::new();
    for g in groups {
        engine.align_group_with_scratch(g, sc, scratch, &mut out);
        for r in out.drain(..) {
            if let Some(c) = r.cigar {
                scratch.recycle(c);
            }
        }
    }
    Ok(())
}

fn row(name: &str, s: &Spread) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{:.4}", s.median),
        format!("{:.4}–{:.4}", s.q1, s.q3),
    ]
}

/// Run the measurement; returns the table and the JSON document.
pub fn run_with_json(quick: bool) -> Result<(String, String), String> {
    let (genome_len, num_reads) = if quick {
        (500_000, 120)
    } else {
        (2_000_000, 500)
    };
    let g = generate_genome(&GenomeOpts {
        len: genome_len,
        repeat_frac: 0.0,
        seed: 11,
        ..Default::default()
    });
    let sim = SimOpts {
        platform: Platform::Nanopore,
        num_reads,
        seed: 11,
    };
    let reads: Vec<Vec<u8>> = simulate_reads(&g, &sim)
        .into_iter()
        .map(|r| r.seq)
        .collect();
    let tnames = ["chr1".to_string()];
    let tlen = g.len();
    let index = ShardedIndex::build(
        &[SeqRecord::new("chr1", nt4_decode(&g))],
        &IdxOpts::MAP_ONT,
        1,
    )
    .map_err(|e| format!("index build failed: {e}"))?;
    let opts = MapOpts::map_ont();
    let mapper = Mapper::new(&index, opts);

    // Plan: every read.
    let plan_all = || {
        reads
            .iter()
            .map(|r| mapper.plan_read(black_box(r)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("plan_read: {e}"))
    };
    let plans = plan_all()?;
    let plan = passes(|| timed(|| plan_all().map(drop)))?;

    // The CLI's batches: reads until their bases reach the budget.
    let mut batches: Vec<Vec<AlignJob>> = Vec::new();
    let (mut batch, mut bases) = (Vec::new(), 0);
    for (read, p) in reads.iter().zip(&plans) {
        batch.extend(p.jobs.iter().cloned());
        bases += read.len();
        if bases >= BATCH_BASES {
            batches.push(std::mem::take(&mut batch));
            bases = 0;
        }
    }
    batches.push(batch);
    let score_only: Vec<Vec<AlignJob>> = batches
        .iter()
        .map(|b| {
            b.iter()
                .map(|j| AlignJob {
                    with_path: false,
                    ..j.clone()
                })
                .collect()
        })
        .collect();
    let jobs: usize = batches.iter().map(Vec::len).sum();
    let cells: u64 = batches.iter().flatten().map(AlignJob::cells).sum();

    // Submit: one worker, the planned batches; each pass submits copies
    // made before its clock starts.
    let mut bopts = BackendOptions::new(opts.scoring);
    bopts.engine = opts.engine;
    bopts.threads = 1;
    let backend = prepare(BackendKind::Cpu, &bopts).map_err(|e| e.to_string())?;
    let submit = |set: &[Vec<AlignJob>]| -> Result<(f64, Vec<Vec<AlignResult>>, u64), String> {
        let copies = set.to_vec();
        // Plan writes a batch's job bytes just before dispatch reads them:
        // touch them, so they are as warm here as there.
        let bytes = copies
            .iter()
            .flatten()
            .flat_map(|j| j.target.iter().chain(j.query.iter()));
        black_box(bytes.fold(0u8, |a, &b| a ^ b));
        let (mut out, mut groups) = (Vec::with_capacity(copies.len()), 0);
        let s = timed(|| {
            for b in copies {
                let (r, stats) = backend.submit(b).map_err(|e| e.to_string())?;
                groups += stats.lane_groups;
                out.push(r);
            }
            Ok::<_, String>(())
        })?;
        Ok((s, out, groups))
    };
    let (submit_path, submit_score) =
        pairs(|| Ok(submit(&batches)?.0), || Ok(submit(&score_only)?.0))?;
    let (_, results, lane_groups) = submit(&batches)?;

    // The widest tier's lane groups, cut as the host executor cuts them:
    // global jobs whose longer side fits the tier's cap, by (longer,
    // shorter) side, `lanes` at a time, each group at least half full.
    let engine = best_engine();
    let lanes = engine.group_lanes().unwrap_or(0);
    let mut tier: Vec<&AlignJob> = Vec::new();
    if let Some(per_lane) = GROUP_CELLS.checked_div(lanes) {
        let cap = per_lane.isqrt();
        tier = batches
            .iter()
            .flatten()
            .filter(|j| {
                j.mode == AlignMode::Global
                    && j.target.len().max(j.query.len()) <= cap
                    && j.target.len().min(j.query.len()) > 0
            })
            .collect();
        tier.sort_by_key(|j| {
            let (t, q) = (j.target.len(), j.query.len());
            (t.max(q), t.min(q))
        });
    }
    let groups: Vec<&[&AlignJob]> = tier
        .chunks(lanes.max(1))
        .filter(|c| {
            let tmax = c.iter().map(|j| j.target.len()).max().unwrap_or(0);
            let qmax = c.iter().map(|j| j.query.len()).max().unwrap_or(0);
            let live: u64 = c.iter().map(|j| j.cells()).sum();
            2 * live >= (lanes * tmax * qmax) as u64
        })
        .collect();
    let members = |with_path: bool| -> Vec<Vec<GroupJob<'_>>> {
        groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(|j| GroupJob {
                        target: &j.target[..],
                        query: &j.query[..],
                        with_path,
                    })
                    .collect()
            })
            .collect()
    };
    let (gpath, gscore) = (members(true), members(false));
    let (mut s1, mut s2) = (AlignScratch::new(), AlignScratch::new());
    let (group_path, group_score) = pairs(
        || timed(|| run_groups(engine, &gpath, &opts.scoring, &mut s1)),
        || timed(|| run_groups(engine, &gscore, &opts.scoring, &mut s2)),
    )?;
    let grouped: usize = groups.iter().map(|g| g.len()).sum();

    // Records: finalize every read once, then format them all.
    let mut fin = AlignScratch::new();
    let mut per_read = Vec::with_capacity(reads.len());
    let mut flat = results.into_iter().flatten();
    for (read, p) in reads.iter().zip(&plans) {
        let fills: Vec<AlignResult> = flat.by_ref().take(p.jobs.len()).collect();
        per_read.push(mapper.finalize_read_with_scratch(read, p, &fills, &mut fin));
    }
    let records: usize = per_read.iter().map(Vec::len).sum();
    let names: Vec<String> = (0..reads.len()).map(|i| format!("read{i:06}")).collect();
    // As `session::finalize` does: one string per read.
    let mut sam_bytes = 0;
    let format_sam = passes(|| {
        timed(|| {
            sam_bytes = 0;
            for ((name, read), ms) in names.iter().zip(&reads).zip(&per_read) {
                let mut lines = String::new();
                for m in ms {
                    push_sam_line(&mut lines, name, read, &tnames, m);
                    lines.push('\n');
                }
                sam_bytes += black_box(lines).len();
            }
            Ok(())
        })
    })?;
    let mut paf_bytes = 0;
    let format_paf = passes(|| {
        timed(|| {
            paf_bytes = 0;
            for ((name, read), ms) in names.iter().zip(&reads).zip(&per_read) {
                let mut lines = String::new();
                for m in ms {
                    push_paf_line(&mut lines, name, read.len(), &tnames[0], tlen, m);
                    lines.push('\n');
                }
                paf_bytes += black_box(lines).len();
            }
            Ok(())
        })
    })?;

    let ratio = |a: &Spread, b: &Spread| a.median / b.median;
    let table = format_table(
        &format!(
            "job path, one thread: {} reads, {jobs} jobs, {:.1} Mcells, {} lane groups \
             ({} of {} lanes, {grouped} jobs), {records} records (seconds: median, quartiles)",
            reads.len(),
            cells as f64 / 1e6,
            groups.len(),
            engine.label(),
            lanes,
        ),
        &["step", "median s", "quartiles"],
        &[
            row("plan_read, every read", &plan),
            row("submit, with paths", &submit_path),
            row("submit, score-only", &submit_score),
            row("widest-tier groups, with paths", &group_path),
            row("widest-tier groups, score-only", &group_score),
            row("SAM records", &format_sam),
            row("PAF records", &format_paf),
            vec![
                "with-path / score-only submit".into(),
                format!("×{:.2}", ratio(&submit_path, &submit_score)),
                String::new(),
            ],
            vec![
                "widest-tier traceback (with − score-only)".into(),
                format!("{:.4}", group_path.median - group_score.median),
                String::new(),
            ],
        ],
    );
    let json = format!(
        "{{\n  \"experiment\": \"job_path\",\n  \"quick\": {quick},\n  \"pairs\": {PAIRS},\n  \
         \"engine\": \"{}\",\n  \"counts\": {{\"reads\": {}, \"jobs\": {jobs}, \"cells\": {cells}, \
         \"lane_groups_submit\": {lane_groups}, \"tier_groups\": {}, \"tier_lanes\": {lanes}, \
         \"tier_jobs\": {grouped}, \"records\": {records}, \"sam_bytes\": {sam_bytes}, \
         \"paf_bytes\": {paf_bytes}}},\n  \"plan_read_s\": {},\n  \"submit_path_s\": {},\n  \
         \"submit_score_s\": {},\n  \"submit_path_over_score\": {:.4},\n  \
         \"tier_groups_path_s\": {},\n  \"tier_groups_score_s\": {},\n  \
         \"tier_traceback_s\": {:.6},\n  \"format_sam_s\": {},\n  \"format_paf_s\": {}\n}}\n",
        engine.label(),
        reads.len(),
        groups.len(),
        plan.json(),
        submit_path.json(),
        submit_score.json(),
        ratio(&submit_path, &submit_score),
        group_path.json(),
        group_score.json(),
        group_path.median - group_score.median,
        format_sam.json(),
        format_paf.json(),
    );
    Ok((table, json))
}
