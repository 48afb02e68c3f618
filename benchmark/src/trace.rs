//! The traced run: per-layer metrics, measured from outside each layer by
//! timing calls into its public functions.
//!
//! One single-threaded pass inside this process walks the production path
//! (`plan_read` → supervised submit → `finalize_read_with_scratch` →
//! `write_paf` / SAM lines) with a span around every call, and must
//! reproduce the CLI's stdout byte for byte. The calls a production span is
//! made of (`collect_anchors`, `chain_anchors`, `select_chains`, the fill
//! kernels, the z-drop extensions, window decode) are replayed on the same
//! inputs and recorded as that span's children; a span's self time is its
//! duration minus its children's. Spans inside the program are a later
//! change (ROADMAP item 3).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use manymap::sam::{sam_line, sam_unmapped, write_sam_header};
use manymap::{paf_unmapped, write_paf, MapOpts, Mapper, Mapping};
use mmm_align::{extend_zdrop_with_scratch, AlignScratch};
use mmm_chain::{chain_anchors, select_chains, SelectedChain};
use mmm_exec::{
    prepare, prepare_supervised, BackendKind, BackendOptions, JobOutcome, SchedConfig, SchedMode,
    SupervisorConfig,
};
use mmm_index::{AnyIndex, IndexRef, ShardOpenOpts};
use mmm_seq::{revcomp4, FastxReader};

use crate::check::check_output;
use crate::e2e::{failures, index_walls, map_pass, serve_lifetimes};
use crate::gen::{Inputs, ReadSet};
use crate::proc::{clock, median, percentile};
use crate::serve::Lifetime;
use crate::{Bins, Report};

/// Bases per pipeline batch in `manymap map` (its `next_batch` argument):
/// the traced pass submits the same batches the CLI does.
const CLI_BATCH_BASES: usize = 4_000_000;
/// CLI passes per thread count, for the untraced reference walls.
const REFERENCE_PASSES: usize = 3;

struct Span {
    name: &'static str,
    /// Read ordinal in the pass, or -1 for a span of the whole batch/run.
    read: i64,
    /// Index of the production span this one decomposes, or -1.
    parent: i64,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    /// The CPU clock over the traced pass (see `proc::clock`). Spans are
    /// written as the wall clock read them; busy times are reported at
    /// the reference clock, like the CLI walls they are compared with.
    clock: f64,
}

impl Tracer {
    /// Time `f` as a span; returns its result and the span's index.
    fn span<T>(
        &mut self,
        name: &'static str,
        read: i64,
        parent: i64,
        f: impl FnOnce() -> T,
    ) -> (T, i64) {
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            read,
            parent,
            start_ns,
            end_ns,
        });
        (out, self.spans.len() as i64 - 1)
    }

    /// Total seconds inside spans called `name`.
    fn busy(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9 * self.clock)
            .sum()
    }

    /// `name`'s busy time minus its children's.
    fn self_time(&self, name: &str) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent >= 0 && self.spans[s.parent as usize].name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9 * self.clock)
            .sum();
        self.busy(name) - children
    }

    fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\": \"{}\", \"read\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.name, s.read, s.parent, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// Counts taken at the span boundaries.
#[derive(Default)]
struct Counts {
    reads: usize,
    bases: u64,
    anchors: usize,
    chains: usize,
    selected: usize,
    primary: usize,
    records: usize,
    jobs: usize,
    cells: u64,
    window_bases: u64,
    zdrop_calls: usize,
    zdrop_cells: u64,
    out_bytes: usize,
    shards_loaded: u64,
    /// First way the replays disagreed with the production path, if any.
    zdrop_mismatch: Option<String>,
}

/// The mapping options `manymap map` derives from the workload's flags.
fn map_opts(inp: &Inputs) -> MapOpts {
    let opts = if inp.map_args.contains(&"map-pb") {
        MapOpts::map_pb()
    } else {
        MapOpts::map_ont()
    };
    opts.cigar(!inp.map_args.contains(&"--no-cigar"))
}

/// Replay the two end extensions of one selected chain exactly as
/// `Mapper::align_chain` sets them up, timing only the extension calls.
/// Returns the reference interval the extensions land on.
#[allow(clippy::too_many_arguments)]
fn replay_extensions(
    index: IndexRef<'_>,
    opts: &MapOpts,
    sel: &SelectedChain,
    qseq: &[u8],
    scratch: &mut AlignScratch,
    tr: &mut Tracer,
    read: i64,
    parent: i64,
    counts: &mut Counts,
) -> Option<(u32, u32)> {
    let chain = &sel.chain;
    let (first, last) = (chain.anchors[0], chain.anchors[chain.anchors.len() - 1]);
    let qlen = qseq.len();
    let with_path = opts.with_cigar;
    let mut extend = |t: &[u8], q: &[u8], scratch: &mut AlignScratch| -> usize {
        counts.zdrop_calls += 1;
        counts.zdrop_cells += t.len() as u64 * q.len() as u64;
        let (e, _) = tr.span("align.zdrop", read, parent, || {
            extend_zdrop_with_scratch(t, q, &opts.scoring, opts.zdrop, with_path, scratch)
        });
        scratch.recycle(e.cigar);
        e.t_consumed
    };
    let mut rbuf = Vec::new();

    let mut ref_end = last.rpos as usize + 1;
    let q_end = last.qpos as usize + 1;
    if q_end < qlen {
        let win = ((qlen - q_end) as f64 * opts.ext_factor) as usize + 32;
        index
            .ref_window_into(chain.rid, ref_end, ref_end + win, &mut rbuf)
            .ok()?;
        ref_end += extend(
            &rbuf,
            &qseq[q_end..qlen.min(q_end + opts.max_fill)],
            scratch,
        );
    }

    let mut ref_start = first.rpos as usize;
    let q_start = first.qpos as usize;
    if q_start > 0 {
        let win = ((q_start as f64 * opts.ext_factor) as usize + 32).min(ref_start);
        index
            .ref_window_into(chain.rid, ref_start - win, ref_start, &mut rbuf)
            .ok()?;
        rbuf.reverse();
        let take = q_start.min(opts.max_fill);
        let qbuf: Vec<u8> = qseq[q_start - take..q_start]
            .iter()
            .rev()
            .copied()
            .collect();
        ref_start -= extend(&rbuf, &qbuf, scratch);
    }
    Some((ref_start as u32, ref_end as u32))
}

/// The traced pass over `sets`. Returns the bytes the production path
/// formatted, per set.
fn traced_pass(
    inp: &Inputs,
    sets: &[ReadSet],
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<Vec<Vec<u8>>, String> {
    let opts = map_opts(inp);
    let (index, _) = tr.span("index.load", -1, -1, || {
        AnyIndex::open_mmap(&inp.index, ShardOpenOpts::default())
    });
    let index = index.map_err(|e| format!("opening {}: {e}", inp.index.display()))?;
    let iref = index.as_index_ref();
    let mapper = Mapper::new(iref, opts);
    let tnames: Vec<String> = (0..iref.num_seqs())
        .map(|r| iref.seq_name(r as u32).to_string())
        .collect();
    let tlens: Vec<usize> = (0..iref.num_seqs())
        .map(|r| iref.seq_len(r as u32))
        .collect();

    // The three ways a plan's jobs can be submitted (ROADMAP 4(e)); the
    // supervised fifo session is what `manymap map` uses.
    let mut bopts = BackendOptions::new(opts.scoring);
    bopts.engine = opts.engine;
    let backend_err = |e| format!("preparing the cpu backend: {e}");
    let plain = prepare(BackendKind::Cpu, &bopts).map_err(backend_err)?;
    let supervised = prepare_supervised(BackendKind::Cpu, &bopts, SupervisorConfig::default())
        .map_err(backend_err)?;
    let fifo = SchedConfig::default();
    let bins = SchedConfig {
        mode: SchedMode::Bins,
        ..SchedConfig::default()
    };

    let mut scratch = AlignScratch::new();
    let mut outputs = Vec::new();
    let mut ordinal = 0i64;
    for set in sets {
        let mut out: Vec<u8> = Vec::new();
        if inp.sam() {
            write_sam_header(&mut out, &tnames, &tlens).map_err(|e| e.to_string())?;
        }
        let (parsed, _) = tr.span("seq.parse", -1, -1, || -> Result<_, String> {
            let f = std::fs::File::open(&set.path).map_err(|e| e.to_string())?;
            let recs = FastxReader::new(std::io::BufReader::new(f))
                .read_all()
                .map_err(|e| e.to_string())?;
            let nt4: Vec<Vec<u8>> = recs.iter().map(|r| r.nt4()).collect();
            Ok((recs, nt4))
        });
        let (recs, nt4s) = parsed.map_err(|e| format!("{}: {e}", set.path.display()))?;

        let mut lo = 0usize;
        while lo < recs.len() {
            // `FastxReader::next_batch`'s rule: records until the bases
            // reach the budget.
            let (mut hi, mut bases) = (lo, 0usize);
            while hi < recs.len() && bases < CLI_BATCH_BASES {
                bases += recs[hi].len();
                hi += 1;
            }
            let first_read = ordinal;

            let mut plans = Vec::with_capacity(hi - lo);
            let mut plan_spans = Vec::with_capacity(hi - lo);
            let mut jobs = Vec::new();
            let mut job_counts = Vec::with_capacity(hi - lo);
            for q in &nt4s[lo..hi] {
                let (plan, sp) = tr.span("mapper.plan", ordinal, -1, || mapper.plan_read(q));
                ordinal += 1;
                let mut plan = plan.map_err(|e| format!("plan_read: {e}"));
                let n = plan.as_mut().map_or(0, |p| {
                    let taken = std::mem::take(&mut p.jobs);
                    let n = taken.len();
                    jobs.extend(taken);
                    n
                });
                job_counts.push(n);
                plans.push(plan);
                plan_spans.push(sp);
            }
            counts.jobs += jobs.len();
            counts.cells += jobs.iter().map(|j| j.cells()).sum::<u64>();

            let (for_plain, for_bins, for_fill) = (jobs.clone(), jobs.clone(), jobs.clone());
            let (submitted, submit_span) = tr.span("exec.submit_supervised", -1, -1, || {
                supervised.submit_scheduled(jobs, &fifo)
            });
            let (outcomes, _) = submitted.map_err(|e| format!("supervised submit: {e}"))?;
            tr.span("exec.submit_plain", -1, submit_span, || {
                plain.submit(for_plain)
            })
            .0
            .map_err(|e| format!("plain submit: {e}"))?;
            tr.span("exec.submit_bins", -1, submit_span, || {
                supervised.submit_scheduled(for_bins, &bins)
            })
            .0
            .map_err(|e| format!("binned submit: {e}"))?;
            tr.span("align.fill", -1, submit_span, || {
                for j in &for_fill {
                    let r = opts.engine.align_with_scratch(
                        &j.target,
                        &j.query,
                        &opts.scoring,
                        j.mode,
                        j.with_path,
                        &mut scratch,
                    );
                    if let Some(c) = r.cigar {
                        scratch.recycle(c);
                    }
                }
            });

            let mut outcomes = outcomes.into_iter();
            for (i, plan) in plans.iter().enumerate() {
                let read = first_read + i as i64;
                let (rec, q) = (&recs[lo + i], &nt4s[lo + i]);
                let results: Result<Vec<_>, String> = outcomes
                    .by_ref()
                    .take(job_counts[i])
                    .map(|o| match o {
                        JobOutcome::Done(r) => Ok(r),
                        JobOutcome::Quarantined { reason } => Err(reason),
                    })
                    .collect();
                let (plan, results) = match (plan, results) {
                    (Ok(p), Ok(r)) => (p, r),
                    // The CLI degrades such a read to an unmapped record.
                    _ => {
                        let line = if inp.sam() {
                            sam_unmapped(&rec.name, q)
                        } else {
                            paf_unmapped(&rec.name, rec.len())
                        };
                        out.extend_from_slice(line.as_bytes());
                        out.push(b'\n');
                        continue;
                    }
                };
                let (ms, fin_span): (Vec<Mapping>, i64) =
                    tr.span("mapper.finalize", read, -1, || {
                        mapper.finalize_read_with_scratch(q, plan, &results, &mut scratch)
                    });
                counts.records += ms.len();
                let before = out.len();
                tr.span("out.format", read, -1, || -> std::io::Result<()> {
                    if inp.sam() {
                        for m in &ms {
                            writeln!(out, "{}", sam_line(&rec.name, q, &tnames, m))?;
                        }
                    } else {
                        write_paf(&mut out, &rec.name, q.len(), &tnames, &tlens, &ms)?;
                    }
                    Ok(())
                })
                .0
                .map_err(|e| e.to_string())?;
                counts.out_bytes += out.len() - before;

                // Children of the plan span: seeding, chaining, selection.
                let parent = plan_spans[i];
                let (anchors, _) =
                    tr.span("index.anchors", read, parent, || iref.collect_anchors(q));
                let anchors = anchors.map_err(|e| format!("collect_anchors: {e}"))?;
                counts.anchors += anchors.len();
                let (chains, _) = tr.span("chain.dp", read, parent, || {
                    chain_anchors(anchors, &opts.chain)
                });
                counts.chains += chains.len();
                let (selected, _) = tr.span("chain.select", read, parent, || {
                    select_chains(chains, &opts.select)
                });
                counts.selected += selected.len();
                counts.primary += selected.iter().filter(|s| s.primary).count();

                // Children of the finalize span: end extensions and the
                // decode of each record's reference span.
                let q_rc = selected.iter().any(|s| s.chain.rev).then(|| revcomp4(q));
                let mut landed: Vec<(u32, bool, u32, u32)> = Vec::with_capacity(selected.len());
                for sel in &selected {
                    let qseq = if sel.chain.rev {
                        q_rc.as_deref().unwrap_or(q)
                    } else {
                        q
                    };
                    if let Some((s, e)) = replay_extensions(
                        iref,
                        &opts,
                        sel,
                        qseq,
                        &mut scratch,
                        tr,
                        read,
                        fin_span,
                        counts,
                    ) {
                        landed.push((sel.chain.rid, sel.chain.rev, s, e));
                    }
                }
                let mut reported: Vec<_> = ms
                    .iter()
                    .map(|m| (m.rid, m.rev, m.ref_start, m.ref_end))
                    .collect();
                landed.sort_unstable();
                reported.sort_unstable();
                if landed != reported && counts.zdrop_mismatch.is_none() {
                    counts.zdrop_mismatch = Some(format!(
                        "read {}: replayed extensions land on {landed:?}, records report {reported:?}",
                        rec.name
                    ));
                }
                let mut wbuf = Vec::new();
                for m in &ms {
                    counts.window_bases += (m.ref_end - m.ref_start) as u64;
                    tr.span("index.window", read, fin_span, || {
                        iref.ref_window_into(
                            m.rid,
                            m.ref_start as usize,
                            m.ref_end as usize,
                            &mut wbuf,
                        )
                    })
                    .0
                    .map_err(|e| format!("ref_window_into: {e}"))?;
                }
            }
            lo = hi;
        }
        counts.reads += recs.len();
        counts.bases += set.bases();
        outputs.push(out);
    }
    counts.shards_loaded = match &index {
        AnyIndex::Flat(_) => 1,
        AnyIndex::Sharded(s) => s.health().iter().map(|h| h.loads).sum(),
    };
    Ok(outputs)
}

/// Median summed wall of `REFERENCE_PASSES` untraced CLI passes over every
/// set at `threads`, and the outputs of the last pass.
fn reference_walls(
    bins: &Bins,
    inp: &Inputs,
    threads: &'static str,
    log: &Path,
) -> Result<(f64, Vec<Vec<u8>>), String> {
    // The workload's own flags with its thread count replaced.
    let mut args: Vec<&str> = inp.map_args.clone();
    let at = args
        .iter()
        .position(|a| *a == "--threads")
        .expect("every workload sets --threads");
    args[at + 1] = threads;
    let mut walls = Vec::new();
    let mut outs = Vec::new();
    for _ in 0..REFERENCE_PASSES {
        outs.clear();
        let mut wall = 0.0;
        for set in &inp.sets {
            let f = map_pass(bins, inp, set, &args, log)?;
            if !f.ok {
                return Err(format!("manymap map --threads {threads} exited non-zero"));
            }
            wall += f.wall_s;
            outs.push(f.stdout);
        }
        walls.push(wall);
    }
    Ok((median(&walls), outs))
}

fn dir_size_mb(index: &Path) -> f64 {
    let name = index
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or_default();
    let bytes: u64 = index
        .parent()
        .and_then(|d| std::fs::read_dir(d).ok())
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_str().is_some_and(|f| f.starts_with(name)))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    bytes as f64 / 1e6
}

pub fn run(
    bins: &Bins,
    workload: &str,
    inp: &Inputs,
    dir: &Path,
    seconds: f64,
    log: &Path,
    rep: &mut Report,
) -> Result<(), String> {
    let builds = index_walls(bins, inp, REFERENCE_PASSES, log)?;

    let (t1_wall, gold) = reference_walls(bins, inp, "1", log)?;
    let (t2_wall, gold2) = reference_walls(bins, inp, "2", log)?;
    let reads: usize = inp.sets.iter().map(|s| s.recs.len()).sum();
    rep.attempted += reads;
    if gold != gold2 {
        rep.fail(reads, "--threads 1 and --threads 2 outputs differ".into());
    }
    let mut wrong = 0;
    for (set, out) in inp.sets.iter().zip(&gold) {
        match check_output(out, set, inp) {
            Ok(c) => {
                rep.failed += failures(&c, inp.sam());
                wrong += c.wrong;
            }
            Err(e) => rep.fail(set.recs.len(), format!("CLI output: {e}")),
        }
    }

    let clock_before = clock();
    let mut tr = Tracer {
        t0: Instant::now(),
        spans: Vec::new(),
        clock: 1.0,
    };
    let mut c = Counts::default();
    let traced = traced_pass(inp, &inp.sets, &mut tr, &mut c)?;
    tr.clock = 0.5 * (clock_before + clock());
    tr.write_json(Path::new(&format!("benchmark/out/trace-{workload}.json")))
        .map_err(|e| format!("writing the trace: {e}"))?;

    // Replay fidelity: a traced pass that does not reproduce the CLI's
    // bytes measures some other program, and its numbers are withheld.
    let pass_ok = traced == gold;
    if !pass_ok {
        rep.fail(
            reads,
            "the traced pass does not reproduce manymap map's stdout".into(),
        );
    }
    if let Some(why) = &c.zdrop_mismatch {
        rep.fail(0, format!("z-drop replay: {why}"));
    }
    let zdrop_ok = pass_ok && c.zdrop_mismatch.is_none();

    let serve_lives: Vec<Lifetime> = if workload == "serve_mix" {
        // Every tenant's REC stream must equal the CLI's output.
        serve_lifetimes(bins, inp, dir, seconds / 3.0, &gold, log, rep)?
    } else {
        Vec::new()
    };

    let production = [
        "seq.parse",
        "index.load",
        "mapper.plan",
        "exec.submit_supervised",
        "mapper.finalize",
        "out.format",
    ];
    let layers: f64 = production.iter().map(|n| tr.busy(n)).sum();
    let align = tr.busy("exec.submit_supervised") + tr.busy("mapper.finalize");
    let (bases, nreads) = (c.bases as f64, c.reads as f64);
    let mut put = |name: &'static str, value: f64, unit: &'static str, samples: usize, ok: bool| {
        if ok {
            rep.metric(name, value, unit, samples);
        } else {
            rep.withheld(name, unit);
        }
    };
    let per_s = |n: f64, s: f64| if s > 0.0 { n / s } else { 0.0 };

    put("seq.parse_s", tr.busy("seq.parse"), "s", c.reads, pass_ok);
    put(
        "seq.parse_mbases_per_s",
        per_s(bases / 1e6, tr.busy("seq.parse")),
        "Mbases/s",
        c.reads,
        pass_ok,
    );
    put("index.build_s", median(&builds), "s", builds.len(), true);
    put("index.file_mb", dir_size_mb(&inp.index), "MB", 1, true);
    put("index.load_s", tr.busy("index.load"), "s", 1, pass_ok);
    put(
        "index.shards_loaded",
        c.shards_loaded as f64,
        "count",
        1,
        pass_ok,
    );
    put(
        "index.anchors_s",
        tr.busy("index.anchors"),
        "s",
        c.reads,
        pass_ok,
    );
    put("index.anchors", c.anchors as f64, "count", c.reads, pass_ok);
    put(
        "index.anchors_per_kbase",
        c.anchors as f64 / (bases / 1e3),
        "1/kbase",
        c.reads,
        pass_ok,
    );
    put(
        "index.window_s",
        tr.busy("index.window"),
        "s",
        c.records,
        pass_ok,
    );
    put(
        "index.window_mbases_per_s",
        per_s(c.window_bases as f64 / 1e6, tr.busy("index.window")),
        "Mbases/s",
        c.records,
        pass_ok,
    );
    put("chain.dp_s", tr.busy("chain.dp"), "s", c.reads, pass_ok);
    put("chain.chains", c.chains as f64, "count", c.reads, pass_ok);
    put(
        "chain.select_s",
        tr.busy("chain.select"),
        "s",
        c.reads,
        pass_ok,
    );
    put(
        "chain.selected_per_read",
        c.selected as f64 / nreads,
        "1/read",
        c.reads,
        pass_ok,
    );
    put(
        "chain.primary_per_read",
        c.primary as f64 / nreads,
        "1/read",
        c.reads,
        pass_ok,
    );
    put(
        "mapper.plan_s",
        tr.busy("mapper.plan"),
        "s",
        c.reads,
        pass_ok,
    );
    put(
        "mapper.plan_self_s",
        tr.self_time("mapper.plan"),
        "s",
        c.reads,
        pass_ok,
    );
    put(
        "mapper.finalize_s",
        tr.busy("mapper.finalize"),
        "s",
        c.reads,
        pass_ok,
    );
    put(
        "mapper.finalize_self_s",
        tr.self_time("mapper.finalize"),
        "s",
        c.reads,
        zdrop_ok,
    );
    put(
        "mapper.records_per_read",
        c.records as f64 / nreads,
        "1/read",
        c.reads,
        pass_ok,
    );
    put("exec.jobs", c.jobs as f64, "count", c.jobs, pass_ok);
    put("exec.cells", c.cells as f64, "count", c.jobs, pass_ok);
    put(
        "exec.gcups",
        per_s(c.cells as f64 / 1e9, tr.busy("exec.submit_supervised")),
        "Gcells/s",
        c.jobs,
        pass_ok,
    );
    put(
        "exec.submit_plain_s",
        tr.busy("exec.submit_plain"),
        "s",
        c.jobs,
        pass_ok,
    );
    put(
        "exec.submit_supervised_s",
        tr.busy("exec.submit_supervised"),
        "s",
        c.jobs,
        pass_ok,
    );
    put(
        "exec.submit_bins_s",
        tr.busy("exec.submit_bins"),
        "s",
        c.jobs,
        pass_ok,
    );
    put("align.fill_s", tr.busy("align.fill"), "s", c.jobs, pass_ok);
    put(
        "align.fill_gcups",
        per_s(c.cells as f64 / 1e9, tr.busy("align.fill")),
        "Gcells/s",
        c.jobs,
        pass_ok,
    );
    put(
        "align.zdrop_calls",
        c.zdrop_calls as f64,
        "count",
        c.zdrop_calls,
        zdrop_ok,
    );
    put(
        "align.zdrop_cells",
        c.zdrop_cells as f64,
        "count",
        c.zdrop_calls,
        zdrop_ok,
    );
    put(
        "align.zdrop_s",
        tr.busy("align.zdrop"),
        "s",
        c.zdrop_calls,
        zdrop_ok,
    );
    put(
        "align.zdrop_mcups",
        per_s(c.zdrop_cells as f64 / 1e6, tr.busy("align.zdrop")),
        "Mcells/s",
        c.zdrop_calls,
        zdrop_ok,
    );
    put(
        "align.zdrop_replay_ok",
        zdrop_ok as u8 as f64,
        "count",
        c.zdrop_calls,
        true,
    );
    put(
        "out.format_s",
        tr.busy("out.format"),
        "s",
        c.records,
        pass_ok,
    );
    put(
        "out.mbytes",
        c.out_bytes as f64 / 1e6,
        "MB",
        c.records,
        pass_ok,
    );
    put(
        "pipeline.t2_speedup",
        t1_wall / t2_wall,
        "ratio",
        2 * REFERENCE_PASSES,
        true,
    );
    put(
        "pipeline.residual_s",
        t1_wall - layers,
        "s",
        REFERENCE_PASSES,
        pass_ok,
    );
    put(
        "layers.align_share_pct",
        100.0 * align / layers,
        "%",
        c.reads,
        pass_ok,
    );
    put(
        "trace.overhead_pct",
        100.0 * (layers / t1_wall - 1.0),
        "%",
        REFERENCE_PASSES,
        pass_ok,
    );
    put(
        "acc.wrong_pct",
        100.0 * wrong as f64 / reads as f64,
        "%",
        reads,
        true,
    );

    // `manymap::serve`, on `serve_mix` only; elsewhere the layer is not in
    // the path and its metrics read 0.
    let n = serve_lives.len();
    let med = |f: &dyn Fn(&Lifetime) -> f64| {
        if n == 0 {
            0.0
        } else {
            median(&serve_lives.iter().map(f).collect::<Vec<_>>())
        }
    };
    let long_lat: Vec<f64> = serve_lives
        .iter()
        .flat_map(|l| &l.tenants[0].latencies)
        .copied()
        .collect();
    put("serve.boot_s", med(&|l| l.boot_s), "s", n, true);
    put(
        "serve.solo_ratio",
        med(&Lifetime::bases_per_s) / (bases / t2_wall),
        "ratio",
        n,
        true,
    );
    put(
        "serve.long_lat_p50_ms",
        if long_lat.is_empty() {
            0.0
        } else {
            1e3 * percentile(&long_lat, 0.5)
        },
        "ms",
        long_lat.len(),
        true,
    );
    put(
        "serve.short_share",
        med(&Lifetime::short_share),
        "ratio",
        n,
        true,
    );
    rep.note(format!(
        "untraced manymap map wall: {t1_wall:.3}s at --threads 1, {t2_wall:.3}s at --threads 2 \
         (median of {REFERENCE_PASSES}); traced layers sum {layers:.3}s; {} spans in benchmark/out/trace-{workload}.json",
        tr.spans.len()
    ));
    Ok(())
}
