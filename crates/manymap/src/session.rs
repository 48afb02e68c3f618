//! One map session, two front ends (DESIGN.md §12).
//!
//! `manymap map` and the `mmm-serve` daemon run the same production path:
//! parse one flag table into [`MapOpts`] + [`ExecConfig`], open the
//! run's one backend session with [`ExecConfig::open`] (an [`ExecSession`]:
//! one device, one circuit breaker, for the life of the process), open the
//! reference with [`load_index_any`] into a [`MapSession`] (one index
//! generation: index + target tables), and map reads with [`run`].
//!
//! [`run`] is the one wiring of the batched pipeline: it owns the plan,
//! dispatch and finalize stages and turns every read that cannot be mapped
//! into its [`unmapped_record`] plus a typed [`Degraded`] reason. A front
//! end supplies only its batch pull, its [`Item`] type (the read's record,
//! and the tag its sink routes by), a tally for degraded reads, and the
//! record sink: [`map_reads`] pulls from a FASTA/FASTQ read-ahead thread
//! and writes one output stream (`manymap map`, the example, the benches);
//! the daemon pulls fair batches from its tenants' queues and routes
//! records to tenants. The CLI plans every read on one `Arc<MapSession>`;
//! the daemon swaps the `Arc` on `RELOAD` and keeps the [`ExecSession`].
//! An alignment job owns its bytes, so dispatch sends a whole batch as one
//! submission whatever generations planned it; every planned read carries
//! the generation it was planned against only so finalize splices against
//! the same index.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::Path;
use std::str::FromStr;
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mmm_align::{best_mm2_engine, AlignResult, AlignScratch};
use mmm_exec::{
    prepare_supervised, AlignJob, BackendKind, BackendOptions, BackendStats, FaultPlan, JobOutcome,
    StatsReport, SupervisedBackend, SupervisorConfig,
};
use mmm_index::{IndexError, ShardOpenOpts, ShardedIndex, MAGIC_PREFIX};
use mmm_pipeline::{lock_unpoisoned, DynError, ItemFailure, PipelineError, PipelineStats};
use mmm_seq::{FastxReader, SeqError, SeqRecord};

use crate::mapper::{MapReadError, ReadPlan};
use crate::sam::{sam_line, sam_unmapped, write_sam_header};
use crate::{paf_line, paf_unmapped, MapError, MapOpts, Mapper, PlanShardFaults};

/// Bases per read batch in [`map_reads`] and (by default) the daemon: one
/// plan → dispatch → finalize round, hence one backend submission. Small
/// enough that records leave batch by batch and memory follows the batch,
/// not the input; large enough that a submission still fills its lane
/// groups (DESIGN.md §9.2 has the measured trade-off).
pub const MAP_BATCH_BASES: usize = 256_000;

/// A command-line flag: its name (without `--`) and whether it takes a
/// value.
pub type Flag = (&'static str, bool);

/// The flags `manymap map` and `mmm-serve daemon` both accept;
/// [`map_config`] reads all of them.
pub const SHARED_FLAGS: &[Flag] = &[
    ("preset", true),
    ("engine", true),
    ("no-cigar", false),
    ("max-read-len", true),
    ("threads", true),
    ("backend", true),
    ("inject-backend-fault", true),
    ("backend-retries", true),
    ("batch-deadline-ms", true),
];

/// What `manymap map` accepts on top of [`SHARED_FLAGS`].
pub const MAP_FLAGS: &[Flag] = &[("sam", false), ("fail-fast", false), ("inject-panic", true)];

/// Everything `manymap index` accepts.
pub const INDEX_FLAGS: &[Flag] = &[("preset", true), ("shards", true), ("threads", true)];

/// What `mmm-serve daemon` accepts on top of [`SHARED_FLAGS`].
pub const DAEMON_FLAGS: &[Flag] = &[
    ("socket", true),
    ("max-tenants", true),
    ("inq-reads", true),
    ("outq-records", true),
    ("batch-bases", true),
];

/// Most workers a run may ask for (`--threads`). The session's pool spawns
/// that many OS threads, and a spawn the OS refuses aborts the process; the
/// paper's widest machine, the KNL, has 272 hardware threads.
pub const MAX_THREADS: usize = 1024;

/// A parsed command line: positionals in order, flags by name.
pub struct Args {
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Split `argv` (program name already skipped) into positionals and
    /// flags. A `--flag` must be in one of the subcommand's `tables`;
    /// anything else, a value flag with no value, or a flag given twice is
    /// a usage error naming the flag.
    pub fn parse(
        argv: impl IntoIterator<Item = String>,
        tables: &[&[Flag]],
    ) -> Result<Args, MapError> {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                positional.push(a);
                continue;
            };
            let Some(&(_, takes_value)) = tables.iter().copied().flatten().find(|f| f.0 == name)
            else {
                return Err(MapError::Usage(format!("unknown flag --{name}")));
            };
            let val = if takes_value {
                it.next()
                    .ok_or_else(|| MapError::Usage(format!("--{name}: missing value")))?
            } else {
                String::new()
            };
            if flags.insert(name.to_string(), val).is_some() {
                return Err(MapError::Usage(format!("--{name}: given more than once")));
            }
        }
        Ok(Args { positional, flags })
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A numeric flag: `None` when absent, a usage error when malformed.
    pub fn num<T: FromStr>(&self, name: &str) -> Result<Option<T>, MapError> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| MapError::Usage(format!("--{name} {v:?}: not a number")))
            })
            .transpose()
    }
}

fn env_num<T: FromStr>(name: &str) -> Result<Option<T>, MapError> {
    std::env::var(name)
        .ok()
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|_| MapError::Usage(format!("{name}={v:?} is not a number")))
        })
        .transpose()
}

/// How a run executes its alignment jobs: which backend, under which
/// supervisor settings. The fault plan inside `backend` drives both the
/// backend submit rules and, through [`ExecConfig::shard_open_opts`], the
/// shard-load rules.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    pub kind: BackendKind,
    /// `backend.threads` is the session's worker count, [`run`]'s too.
    pub backend: BackendOptions,
    pub supervisor: SupervisorConfig,
}

impl ExecConfig {
    /// The defaults: CPU backend with `map`'s scoring and engine on
    /// `threads` workers, default supervisor.
    pub fn new(map: &MapOpts, threads: usize) -> Self {
        let mut backend = BackendOptions::new(map.scoring);
        backend.engine = map.engine;
        backend.threads = threads;
        ExecConfig {
            kind: BackendKind::Cpu,
            backend,
            supervisor: SupervisorConfig::default(),
        }
    }

    /// Options for opening a sharded index under this configuration: the
    /// fault plan's shard rules bridged into the shard loader.
    pub fn shard_open_opts(&self) -> ShardOpenOpts {
        ShardOpenOpts {
            hook: self
                .backend
                .fault
                .as_ref()
                .and_then(PlanShardFaults::from_plan),
        }
    }

    /// Open the run's backend session. A backend that cannot be prepared
    /// (e.g. scoring that overflows the 8-bit kernels) fails here, before
    /// an index is opened or a socket bound.
    pub fn open(&self) -> Result<ExecSession, MapError> {
        let backend = prepare_supervised(self.kind, &self.backend, self.supervisor.clone())
            .map_err(|e| MapError::Usage(e.to_string()))?;
        Ok(ExecSession {
            backend,
            stats: Mutex::default(),
        })
    }
}

/// The run's one backend session (DESIGN.md §12.0, §15.3): the supervised
/// backend — one device, one circuit breaker, one watchdog — and the
/// counters every dispatch merges into. It belongs to the process, not to
/// an index: the daemon keeps it across every `RELOAD`, so a demoted device
/// stays demoted.
pub struct ExecSession {
    pub backend: SupervisedBackend,
    pub stats: Mutex<BackendStats>,
}

/// The mapping parameters named by [`SHARED_FLAGS`]; all `manymap index`
/// needs of the table.
pub fn map_opts(args: &Args) -> Result<MapOpts, MapError> {
    let usage = MapError::Usage;
    let mut map = match args.get("preset") {
        None | Some("map-ont") => MapOpts::map_ont(),
        Some("map-pb") => MapOpts::map_pb(),
        Some(v) => return Err(usage(format!("--preset {v:?}: expected map-pb or map-ont"))),
    };
    match args.get("engine") {
        None | Some("manymap") => {}
        Some("mm2") => map = map.with_engine(best_mm2_engine()),
        Some(v) => return Err(usage(format!("--engine {v:?}: expected mm2 or manymap"))),
    }
    if args.has("no-cigar") {
        map = map.cigar(false);
    }
    if let Some(n) = args.num("max-read-len")? {
        map.max_read_len = n;
    }
    Ok(map)
}

/// The worker count `--threads` names (`manymap map`, `manymap index`,
/// `mmm-serve daemon`): 1 to [`MAX_THREADS`], by default what
/// `available_parallelism` reports.
pub fn threads(args: &Args) -> Result<usize, MapError> {
    match args.num("threads")? {
        Some(n) if !(1..=MAX_THREADS).contains(&n) => Err(MapError::Usage(format!(
            "--threads {n}: expected an integer in 1..={MAX_THREADS}"
        ))),
        Some(n) => Ok(n),
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
    }
}

/// Build the mapping and execution configuration from [`SHARED_FLAGS`].
/// Flags are the only channel, bar the simulated device's size, which has
/// no flag: `MMM_GPU_MEM` and `MMM_GPU_STREAMS`.
pub fn map_config(args: &Args) -> Result<(MapOpts, ExecConfig), MapError> {
    let usage = MapError::Usage;
    let map = map_opts(args)?;
    let mut exec = ExecConfig::new(&map, threads(args)?);
    if let Some(v) = args.get("backend") {
        exec.kind = BackendKind::parse(v).map_err(|e| usage(format!("--backend: {e}")))?;
    }
    exec.backend.device_mem = env_num("MMM_GPU_MEM")?;
    exec.backend.streams = env_num("MMM_GPU_STREAMS")?;
    if let Some(text) = args.get("inject-backend-fault") {
        let plan = FaultPlan::parse(text)
            .map_err(|e| usage(format!("--inject-backend-fault {text:?}: {e}")))?;
        exec.backend.fault = Some(plan);
    }
    if let Some(n) = args.num("backend-retries")? {
        exec.supervisor.max_retries = n;
    }
    // A zero deadline would abandon every submit the moment it is made.
    match args.num("batch-deadline-ms")? {
        Some(0) => {
            return Err(usage(
                "--batch-deadline-ms 0: expected an integer >= 1".into(),
            ))
        }
        Some(ms) => exec.supervisor.batch_deadline = Some(Duration::from_millis(ms)),
        None => {}
    }
    Ok((map, exec))
}

/// Read and validate a FASTA/FASTQ reference file.
pub fn read_refs(path: &Path) -> Result<Vec<SeqRecord>, MapError> {
    let name = path.display().to_string();
    let f = File::open(path).map_err(|e| MapError::Io {
        path: name.clone(),
        source: e,
    })?;
    let refs = FastxReader::new(BufReader::new(f))
        .read_all()
        .map_err(|e| MapError::Seq {
            path: name.clone(),
            source: e,
        })?;
    if refs.is_empty() {
        return Err(MapError::Usage(format!("{name}: no sequences")));
    }
    Ok(refs)
}

/// Whether the file at `path` is an index (it starts with `MMX`) rather
/// than a FASTA/FASTQ. The content decides, never the file name.
pub fn is_index_file(path: &Path) -> Result<bool, MapError> {
    let mut magic = Vec::with_capacity(MAGIC_PREFIX.len());
    File::open(path)
        .and_then(|f| f.take(MAGIC_PREFIX.len() as u64).read_to_end(&mut magic))
        .map_err(|e| MapError::Io {
            path: path.display().to_string(),
            source: e,
        })?;
    Ok(magic == MAGIC_PREFIX)
}

/// Open a reference, whatever it is, as the one index type: an index file
/// ([`ShardedIndex::open`]: a single-file container, or a shard manifest
/// whose shards load lazily with `shard_opts`), memory-mapped,
/// checksum-verified and queried where it is mapped — or a FASTA indexed
/// in memory with `map`'s seeding parameters on `threads` workers, as one
/// shard.
pub fn load_index_any(
    path: &Path,
    map: &MapOpts,
    shard_opts: ShardOpenOpts,
    threads: usize,
) -> Result<ShardedIndex, MapError> {
    let index_err = |e: IndexError| MapError::Index {
        path: path.display().to_string(),
        source: e,
    };
    if is_index_file(path)? {
        return ShardedIndex::open(path, shard_opts).map_err(index_err);
    }
    let refs = read_refs(path)?;
    ShardedIndex::build(&refs, &map.idx, threads).map_err(index_err)
}

/// An open reference ready to map against — one index generation: the
/// index (whose catalog names the targets) and the target lengths.
/// Immutable once built; the daemon's live reload builds a new one and
/// swaps the `Arc`.
pub struct MapSession {
    id: u64,
    index: ShardedIndex,
    map: MapOpts,
    tlens: Vec<usize>,
}

impl MapSession {
    /// `id` numbers the daemon's index generations (0 for a CLI run).
    pub fn new(id: u64, index: ShardedIndex, map: MapOpts) -> MapSession {
        let tlens = (0..index.num_seqs() as u32)
            .map(|r| index.seq_len(r))
            .collect();
        MapSession {
            id,
            index,
            map,
            tlens,
        }
    }

    pub fn index(&self) -> &ShardedIndex {
        &self.index
    }

    /// Target names and lengths, by reference id (the SAM header's input).
    pub fn targets(&self) -> (&[String], &[usize]) {
        (&self.index.manifest().seq_names, &self.tlens)
    }

    /// The shard fault-domain report, for an index opened from a manifest
    /// (nothing for a single-file index or a FASTA): one summary line,
    /// plus a line for each shard that did anything interesting, so a
    /// clean run stays compact.
    pub fn shard_report(&self, report: &mut StatsReport) {
        if !self.index.has_manifest() {
            return;
        }
        let health = self.index.health();
        let count = |state| health.iter().filter(|h| h.state == state).count();
        report.line(format!(
            "shards: {} total, {} quarantined, {} loaded",
            health.len(),
            count("quarantined"),
            count("loaded")
        ));
        for h in &health {
            if h.state == "quarantined" || h.retries > 0 {
                report.line(format!(
                    "shard {}: {}{}; loads={}, retries={}, io_faults={}",
                    h.shard,
                    h.state,
                    h.reason
                        .as_deref()
                        .map(|r| format!(" ({r})"))
                        .unwrap_or_default(),
                    h.loads,
                    h.retries,
                    h.io_faults
                ));
            }
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "generation {}: {} sequence(s), {} shard(s)",
            self.id,
            self.index.num_seqs(),
            self.index.num_shards()
        )
    }

    fn mapper(&self) -> Mapper<'_> {
        Mapper::new(&self.index, self.map)
    }

    /// The plan stage: seed, chain, and describe the read's DP jobs.
    fn plan(self: Arc<Self>, rec: &SeqRecord) -> Planned {
        let nt4 = rec.nt4();
        let plan = self.mapper().plan_read(&nt4);
        Planned {
            nt4,
            session: self,
            plan,
        }
    }
}

/// One read between the plan and finalize stages: the encoded query, the
/// session it was planned against (finalize must splice reference windows
/// and target names from the *same* index the plan used, even if a reload
/// swapped sessions in between), and the plan itself.
struct Planned {
    nt4: Vec<u8>,
    session: Arc<MapSession>,
    plan: Result<ReadPlan, MapReadError>,
}

/// The dispatch stage: move every read's jobs into one submission to the
/// run's backend session, then deal the per-job outcomes back out per read,
/// in job order. A job owns its target and query bytes, so reads planned on
/// two index generations (a reload landed mid-batch) share the submission.
/// A read with any quarantined job comes back `Err` with the first
/// quarantine reason, which the pipeline hands back to [`run`] as that
/// read's dispatch failure; a fail-fast supervisor surfaces the first
/// unrecovered error as a fatal whole-batch `Err`. Backend counters are
/// merged into `exec.stats`; a batch with no jobs submits nothing.
#[allow(clippy::type_complexity)]
fn dispatch(
    mut plans: Vec<Planned>,
    exec: &ExecSession,
) -> Result<Vec<(Planned, Result<Vec<AlignResult>, String>)>, DynError> {
    let mut jobs: Vec<AlignJob> = Vec::new();
    let counts: Vec<usize> = plans
        .iter_mut()
        .map(|p| {
            // Taken, not drained in place: the plan must not pin an empty
            // job buffer until its read is finalized.
            let taken = p
                .plan
                .as_mut()
                .map(|plan| std::mem::take(&mut plan.jobs))
                .unwrap_or_default();
            let n = taken.len();
            jobs.extend(taken);
            n
        })
        .collect();
    let mut outcomes = Vec::new().into_iter();
    if !jobs.is_empty() {
        let (os, bstats) = exec
            .backend
            .submit_supervised(jobs)
            .map_err(|e| -> DynError { Box::new(e) })?;
        lock_unpoisoned(&exec.stats).merge(&bstats);
        outcomes = os.into_iter();
    }
    Ok(plans
        .into_iter()
        .zip(counts)
        .map(|(p, n)| {
            let mut results = Vec::with_capacity(n);
            let mut quarantine = None;
            for o in outcomes.by_ref().take(n) {
                match o {
                    JobOutcome::Done(r) => results.push(r),
                    JobOutcome::Quarantined { reason } => {
                        quarantine.get_or_insert(reason);
                    }
                }
            }
            match quarantine {
                None => (p, Ok(results)),
                Some(reason) => (p, Err(reason)),
            }
        })
        .collect())
}

/// The finalize stage: splice the backend's results into the read's chain
/// walks, against the session the read was planned on, and format one
/// newline-terminated PAF or SAM line per mapping (nothing for a read that
/// maps nowhere). A read whose plan was rejected comes back as that error;
/// [`run`] degrades it to its [`unmapped_record`].
fn finalize<'p>(
    planned: &'p Planned,
    rec: &SeqRecord,
    results: &[AlignResult],
    scratch: &mut AlignScratch,
    sam: bool,
) -> Result<String, &'p MapReadError> {
    let plan = planned.plan.as_ref()?;
    let s = &planned.session;
    let nt4 = &planned.nt4;
    let ms = s
        .mapper()
        .finalize_read_with_scratch(nt4, plan, results, scratch);
    let (tnames, tlens) = s.targets();
    let mut lines = String::new();
    for m in &ms {
        if sam {
            lines.push_str(&sam_line(&rec.name, nt4, tnames, m));
        } else {
            let rid = m.rid as usize;
            lines.push_str(&paf_line(&rec.name, nt4.len(), &tnames[rid], tlens[rid], m));
        }
        lines.push('\n');
    }
    Ok(lines)
}

/// A read as a front end queues it for [`run`]: its record, and the tag
/// the front end's sink routes the read's records by.
pub trait Item: Send + Sync {
    type Tag: Send;
    fn record(&self) -> &SeqRecord;
    fn tag(&self) -> Self::Tag;
}

/// `manymap map`'s item: the record alone, written to one stream.
impl Item for SeqRecord {
    type Tag = ();
    fn record(&self) -> &SeqRecord {
        self
    }
    fn tag(&self) {}
}

/// Why a read left [`run`] as its [`unmapped_record`] instead of its
/// mappings.
#[derive(Debug)]
pub enum Degraded<'a> {
    /// The mapper rejected the read: over `MapOpts::max_read_len`, refused
    /// by the alignment kernels, or left without seeds by a quarantined
    /// index shard.
    Rejected(&'a MapReadError),
    /// The read's plan or finalize panicked, with this message.
    Panicked(&'a str),
    /// The backend supervisor quarantined one of the read's jobs, for this
    /// reason.
    BackendQuarantined(&'a str),
}

/// Map reads through the batched pipeline — the one wiring of plan →
/// dispatch → finalize, for both front ends. Each batch `next_batch` pulls
/// is planned on `exec`'s worker pool (one scratch arena per worker, the
/// pool its backend computes on) against the index generation `generation`
/// returns, dispatched as one submission through `exec`, finalized as PAF
/// (SAM when `sam`) on the same pool, and handed to `sink` in input order
/// with each read's tag; [`PipelineStats`] times each stage.
///
/// A read the mapper rejects, whose job the supervisor quarantines, or
/// whose plan or finalize panics (`inject_panic` names a read to panic on)
/// reaches `tally` with its [`Degraded`] reason, and `sink` gets its
/// [`unmapped_record`], so output accounts for every read. A pull error, a
/// fail-fast backend failure or a sink error ends the run.
#[allow(clippy::too_many_arguments)]
pub fn run<I: Item>(
    generation: impl Fn() -> Arc<MapSession> + Sync,
    exec: &ExecSession,
    sam: bool,
    inject_panic: Option<&str>,
    next_batch: impl FnMut() -> Result<Option<Vec<I>>, DynError>,
    tally: impl Fn(&I, Degraded<'_>) + Sync,
    sink: impl FnMut(Vec<(I::Tag, String)>) -> Result<(), DynError> + Send,
) -> Result<PipelineStats, PipelineError> {
    let degrade = |item: &I, why: Degraded<'_>| -> (I::Tag, String) {
        tally(item, why);
        (item.tag(), unmapped_record(item.record(), sam))
    };
    let on_failure = |item: &I, failure: ItemFailure| match failure {
        ItemFailure::Panicked(msg) => degrade(item, Degraded::Panicked(&msg)),
        ItemFailure::Dispatch(reason) => degrade(item, Degraded::BackendQuarantined(&reason)),
    };
    mmm_pipeline::run(
        next_batch,
        exec.backend.pool(),
        // Panics here degrade exactly the one read they hit, and its jobs
        // never reach the backend.
        |_scratch: &mut AlignScratch, item: &I| -> Planned {
            let rec = item.record();
            if inject_panic == Some(rec.name.as_str()) {
                panic!("injected panic for read '{}'", rec.name);
            }
            generation().plan(rec)
        },
        |plans| dispatch(plans, exec),
        |scratch: &mut AlignScratch, item: &I, planned: &Planned, results: &Vec<AlignResult>| {
            match finalize(planned, item.record(), results, scratch, sam) {
                Ok(lines) => (item.tag(), lines),
                Err(e) => degrade(item, Degraded::Rejected(e)),
            }
        },
        |item| item.record().len(),
        sink,
        &on_failure,
    )
}

/// What one [`map_reads`] run did: the pipeline's counts and per-phase
/// seconds, and the reads it degraded to an unmapped record, by reason.
#[derive(Clone, Copy, Debug, Default)]
pub struct MapReport {
    pub stats: PipelineStats,
    /// Reads over `MapOpts::max_read_len`.
    pub too_long: usize,
    /// Reads the alignment kernels refused.
    pub align_rejected: usize,
    /// Reads whose plan or finalize panicked.
    pub panicked: usize,
    /// Reads with a job the backend supervisor quarantined.
    pub backend_quarantined: usize,
    /// Reads left without any seeds by a quarantined index shard.
    pub shard_degraded: usize,
}

impl MapReport {
    /// Reads degraded to an unmapped record, whatever the reason.
    pub fn degraded(&self) -> usize {
        self.too_long
            + self.align_rejected
            + self.panicked
            + self.backend_quarantined
            + self.shard_degraded
    }
}

/// `manymap map` once the index is open: [`run`] every FASTA/FASTQ record
/// of `reads` against `session` and write PAF — SAM with its header when
/// `sam` — to `out`. A reader thread parses batches of
/// [`MAP_BATCH_BASES`], at most two ahead of the pipeline, which pulls
/// them; [`MapReport::stats`] times the stages (`in_seconds` is the
/// reader's parse time). Each batch's records are flushed to `out` when the
/// batch is written, so output streams, and at most seven batches are in
/// memory whatever the length of `reads`: 2 in the read-ahead channel, 1
/// being parsed, and the pipeline's 4 (see `mmm_pipeline::batched`).
///
/// Each degraded read is reported on stderr and counted in the
/// [`MapReport`] by its reason. A read error or a fail-fast backend
/// failure ends the run; so does a closed output, as
/// [`MapError::OutputClosed`].
pub fn map_reads(
    reads: impl BufRead + Send,
    out: impl Write + Send,
    session: &Arc<MapSession>,
    exec: &ExecSession,
    sam: bool,
    inject_panic: Option<&str>,
) -> Result<MapReport, MapError> {
    let output_error = |e: std::io::Error| match e.kind() {
        ErrorKind::BrokenPipe => MapError::OutputClosed,
        _ => MapError::Io {
            path: "output".into(),
            source: e,
        },
    };
    let mut out = BufWriter::new(out);
    if sam {
        let (tnames, tlens) = session.targets();
        write_sam_header(&mut out, tnames, tlens).map_err(output_error)?;
    }
    let report = Mutex::new(MapReport::default());
    let tally = |rec: &SeqRecord, why: Degraded<'_>| {
        let mut r = lock_unpoisoned(&report);
        let name = &rec.name;
        match why {
            Degraded::Rejected(e) => {
                *match e {
                    MapReadError::ReadTooLong { .. } => &mut r.too_long,
                    MapReadError::Align(_) => &mut r.align_rejected,
                    MapReadError::ShardUnavailable(_) => &mut r.shard_degraded,
                } += 1;
                eprintln!("manymap: read '{name}' degraded to unmapped: {e}");
            }
            Degraded::Panicked(msg) => {
                r.panicked += 1;
                eprintln!(
                    "manymap: worker panicked on read '{name}' ({msg}); emitting unmapped record"
                );
            }
            Degraded::BackendQuarantined(reason) => {
                r.backend_quarantined += 1;
                eprintln!(
                    "manymap: read '{name}' degraded to unmapped: backend quarantined its jobs \
                     ({reason})"
                );
            }
        }
    };

    // Read-ahead: the parser runs on its own thread, at most two batches
    // ahead of the compute stage that pulls them.
    let (batch_tx, batch_rx) = sync_channel::<Result<Vec<SeqRecord>, SeqError>>(2);
    let read_ahead = move || -> f64 {
        let mut reader = FastxReader::new(reads);
        let mut parse_seconds = 0.0;
        loop {
            let t0 = Instant::now();
            let batch = reader.next_batch(MAP_BATCH_BASES);
            parse_seconds += t0.elapsed().as_secs_f64();
            let failed = batch.is_err();
            match batch {
                // End of input: dropping the sender tells the pipeline.
                Ok(b) if b.is_empty() => return parse_seconds,
                // A parse error is the last batch sent; a failed send means
                // the pipeline stopped pulling.
                batch => {
                    if batch_tx.send(batch).is_err() || failed {
                        return parse_seconds;
                    }
                }
            }
        }
    };
    let next_batch = move || match batch_rx.recv() {
        Ok(batch) => Ok(Some(batch?)),
        Err(_) => Ok(None), // the reader reached end of input
    };
    let sink = |records: Vec<((), String)>| {
        for ((), lines) in records {
            out.write_all(lines.as_bytes())?;
        }
        out.flush()?;
        Ok(())
    };

    let (stats, parse_seconds) = std::thread::scope(|scope| {
        let reader = scope.spawn(read_ahead);
        let stats = run(
            || Arc::clone(session),
            exec,
            sam,
            inject_panic,
            next_batch,
            tally,
            sink,
        );
        // The pipeline dropped its end of the channel, so the reader stops.
        let parse_seconds = reader
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        (stats, parse_seconds)
    });
    let mut stats = stats.map_err(|e| match e {
        // The writer fails only with the output's own I/O errors.
        PipelineError::Write(e) => match e.downcast::<std::io::Error>() {
            Ok(e) => output_error(*e),
            Err(e) => MapError::Pipeline(PipelineError::Write(e)),
        },
        e => MapError::Pipeline(e),
    })?;
    stats.in_seconds = parse_seconds;
    out.flush().map_err(output_error)?;

    let mut report = report
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    report.stats = stats;
    Ok(report)
}

/// The record emitted for a degraded read: SAM or PAF unmapped placeholder.
pub fn unmapped_record(rec: &SeqRecord, sam: bool) -> String {
    let mut s = if sam {
        sam_unmapped(&rec.name, &rec.nt4())
    } else {
        paf_unmapped(&rec.name, rec.len())
    };
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_seq::nt4_decode;
    use mmm_simreads::{generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts};

    #[test]
    fn flags_land_in_map_opts_and_exec_config() {
        let argv = "--preset map-pb --no-cigar --threads 3 \
                    --backend gpu-sim --backend-retries 0 \
                    --batch-deadline-ms 250 \
                    --inject-backend-fault missing-shard:shards=1";
        let args = Args::parse(argv.split_whitespace().map(String::from), &[SHARED_FLAGS]).unwrap();
        let (map, exec) = map_config(&args).unwrap();
        assert_eq!(map.idx.k, 19);
        assert!(!map.with_cigar);
        assert_eq!(exec.backend.threads, 3);
        assert_eq!(exec.kind, BackendKind::GpuSim);
        assert_eq!(exec.supervisor.max_retries, 0);
        assert_eq!(
            exec.supervisor.batch_deadline,
            Some(Duration::from_millis(250))
        );
        // The one fault plan reaches the shard loader too.
        assert!(exec.shard_open_opts().hook.is_some());
    }

    /// One dispatch batch holding reads planned on two index generations
    /// (a reload landed mid-batch) is one backend submission; every read
    /// gets its own results back and finalizes against the generation that
    /// planned it. Under a failing backend exactly the reads that had jobs
    /// degrade.
    #[test]
    fn dispatch_sends_one_submission_across_generations() {
        let genome = generate_genome(&GenomeOpts {
            len: 60_000,
            repeat_frac: 0.0,
            seed: 5,
            ..Default::default()
        });
        let map = MapOpts::map_ont();
        let open = |id: u64, tname: &str| {
            let idx =
                ShardedIndex::build(&[SeqRecord::new(tname, nt4_decode(&genome))], &map.idx, 1)
                    .unwrap();
            Arc::new(MapSession::new(id, idx, map))
        };
        let (old, new) = (open(0, "old_chr"), open(1, "chr1"));

        let mut reads: Vec<SeqRecord> = simulate_reads(
            &genome,
            &SimOpts {
                platform: Platform::Nanopore,
                num_reads: 4,
                seed: 9,
            },
        )
        .into_iter()
        .map(|r| SeqRecord::new(r.name, nt4_decode(&r.seq)))
        .collect();
        // A read that seeds nowhere plans no jobs.
        reads.push(SeqRecord::new("junk", vec![b'A'; 400]));
        let bases: usize = reads.iter().map(SeqRecord::len).sum();
        assert!(
            bases < MAP_BATCH_BASES,
            "the hand-built batch ({bases} bases) must be one `map_reads` could cut"
        );
        // Read 1 was planned before the reload.
        let plan_all = || -> Vec<Planned> {
            let gen = |i| if i == 1 { &old } else { &new };
            reads
                .iter()
                .enumerate()
                .map(|(i, r)| Arc::clone(gen(i)).plan(r))
                .collect()
        };

        // What each read maps to alone, on the generation that plans it.
        let clean = ExecConfig::new(&map, 2);
        let exec = clean.open().unwrap();
        let mut scratch = AlignScratch::new();
        let expect: Vec<String> = plan_all()
            .into_iter()
            .zip(&reads)
            .map(|(planned, rec)| {
                let (p, r) = dispatch(vec![planned], &exec).unwrap().remove(0);
                finalize(&p, rec, &r.unwrap(), &mut scratch, false).unwrap()
            })
            .collect();
        assert!(expect[0].contains("\tchr1\t"), "{}", expect[0]);
        assert!(expect[1].contains("\told_chr\t"), "{}", expect[1]);
        assert!(expect[4].is_empty(), "{}", expect[4]);

        let exec = clean.open().unwrap();
        let dealt = dispatch(plan_all(), &exec).unwrap();
        assert_eq!(lock_unpoisoned(&exec.stats).batches, 1);
        assert_eq!(dealt.len(), reads.len());
        for (i, ((p, r), rec)) in dealt.iter().zip(&reads).enumerate() {
            let lines = finalize(p, rec, r.as_ref().unwrap(), &mut scratch, false).unwrap();
            assert_eq!(lines, expect[i], "read {i} got another read's results");
        }

        let mut failing = clean;
        failing.backend.fault = Some(FaultPlan::parse("launch-fail").unwrap());
        failing.supervisor.max_retries = 0;
        let exec = failing.open().unwrap();
        let plans = plan_all();
        let njobs: Vec<usize> = plans
            .iter()
            .map(|p| p.plan.as_ref().unwrap().jobs.len())
            .collect();
        assert!(njobs[1] > 0 && njobs[4] == 0, "{njobs:?}");
        for ((_, r), &n) in dispatch(plans, &exec).unwrap().iter().zip(&njobs) {
            match r {
                Ok(results) => assert!(n == 0 && results.is_empty()),
                Err(reason) => assert!(n > 0, "{reason}"),
            }
        }
        let stats = *lock_unpoisoned(&exec.stats);
        assert_eq!(stats.quarantined, njobs.iter().sum::<usize>() as u64);
        assert_eq!(stats.batches, 1);
    }

    /// A backend that cannot be prepared fails when the run's session is
    /// opened — before any index is.
    #[test]
    fn scoring_that_overflows_i8_fails_at_backend_open() {
        let mut map = MapOpts::map_ont();
        map.scoring.q = 100;
        assert!(!map.scoring.fits_i8());
        let Err(MapError::Usage(msg)) = ExecConfig::new(&map, 1).open() else {
            panic!("an overflowing scoring must not open a backend");
        };
        assert!(msg.contains("overflow"), "{msg}");
    }

    /// A session over a 120 kbp genome and ten simulated ONT reads as FASTA.
    fn ten_reads(opts: MapOpts) -> (Arc<MapSession>, Vec<SeqRecord>, Vec<u8>) {
        let g = generate_genome(&GenomeOpts {
            len: 120_000,
            repeat_frac: 0.0,
            seed: 21,
            ..Default::default()
        });
        let idx =
            ShardedIndex::build(&[SeqRecord::new("chr1", nt4_decode(&g))], &opts.idx, 1).unwrap();
        let recs: Vec<SeqRecord> = simulate_reads(
            &g,
            &SimOpts {
                platform: Platform::Nanopore,
                num_reads: 10,
                seed: 2,
            },
        )
        .into_iter()
        .map(|r| SeqRecord::new(r.name, nt4_decode(&r.seq)))
        .collect();
        let mut fasta = Vec::new();
        mmm_seq::write_fasta(&mut fasta, &recs, 0).unwrap();
        let session = Arc::new(MapSession::new(0, idx, opts));
        (session, recs, fasta)
    }

    /// Every execution configuration a user can pick writes the same
    /// records, runs jobs, needs no supervisor intervention, and times the
    /// phases it ran.
    #[test]
    fn every_exec_config_maps_reads_identically() {
        let opts = MapOpts::map_ont();
        let (session, _, fasta) = ten_reads(opts);
        let cpu = ExecConfig::new(&opts, 1);
        let mut gpu = cpu.clone();
        gpu.kind = BackendKind::GpuSim;
        let mut gold: Option<Vec<u8>> = None;
        for (tag, cfg) in [("cpu", cpu), ("gpu-sim", gpu)] {
            let exec = cfg.open().unwrap();
            let mut out = Vec::new();
            let run = map_reads(&fasta[..], &mut out, &session, &exec, false, None).unwrap();
            assert_eq!((run.stats.items, run.degraded()), (10, 0), "{tag}");
            assert!(run.stats.plan_seconds > 0.0, "{tag}: {run:?}");
            assert!(run.stats.dispatch_seconds > 0.0, "{tag}: {run:?}");
            assert!(run.stats.finalize_seconds > 0.0, "{tag}: {run:?}");
            let bstats = *lock_unpoisoned(&exec.stats);
            assert!(bstats.jobs > 0, "{tag} must execute jobs");
            assert!(!bstats.supervised_activity(), "{tag}: {bstats:?}");
            let gold = gold.get_or_insert_with(|| out.clone());
            assert_eq!(&out, gold, "{tag}");
        }
        let gold = String::from_utf8(gold.unwrap()).unwrap();
        assert!(gold.lines().count() >= 8, "{gold}");
    }

    /// One batch through [`run`] with a read over the length limit, an
    /// injected panic, and — under `launch-fail` with no retries — every
    /// read with a job quarantined: each degraded read leaves exactly its
    /// unmapped record and reaches the tally once, with its own reason.
    /// Every other read maps as `map_read` does, on that backend and on a
    /// healthy one.
    #[test]
    fn run_degrades_each_read_with_its_own_reason() {
        let (_, recs, _) = ten_reads(MapOpts::map_ont());
        let longest = recs.iter().map(SeqRecord::len).max().unwrap();
        let mut opts = MapOpts::map_ont();
        opts.max_read_len = longest - 1;
        let (session, mut recs, _) = ten_reads(opts);
        // A read that seeds nowhere plans no jobs.
        recs.push(SeqRecord::new("junk", vec![b'A'; 400]));
        let too_long = recs.iter().position(|r| r.len() == longest).unwrap();
        let panicked = (too_long + 1) % 10;

        let mapper = Mapper::new(session.index(), opts);
        let (tnames, tlens) = session.targets();
        let map_read = |rec: &SeqRecord| {
            let mut out = Vec::new();
            let nt4 = rec.nt4();
            let ms = mapper.map_read(&nt4);
            crate::write_paf(&mut out, &rec.name, nt4.len(), tnames, tlens, &ms).unwrap();
            String::from_utf8(out).unwrap()
        };

        // Each read's records, and the reason each degraded read was
        // tallied with.
        let run_batch = |exec: &ExecSession| {
            let tallied = Mutex::new(vec![None; recs.len()]);
            let mut records = Vec::new();
            let mut batch = Some(recs.clone());
            let stats = run(
                || Arc::clone(&session),
                exec,
                false,
                Some(recs[panicked].name.as_str()),
                || Ok(batch.take()),
                |rec: &SeqRecord, why: Degraded<'_>| {
                    let reason = match why {
                        Degraded::Rejected(MapReadError::ReadTooLong { .. }) => "too long",
                        Degraded::Panicked(msg) => {
                            assert!(msg.contains("injected panic"), "{msg}");
                            "panicked"
                        }
                        Degraded::BackendQuarantined(reason) => {
                            assert!(!reason.is_empty());
                            "quarantined"
                        }
                        other => panic!("{}: unexpected {other:?}", rec.name),
                    };
                    let i = recs.iter().position(|r| r.name == rec.name).unwrap();
                    let mut t = lock_unpoisoned(&tallied);
                    assert!(t[i].is_none(), "{} tallied twice", rec.name);
                    t[i] = Some(reason);
                },
                |rs: Vec<((), String)>| {
                    records.extend(rs.into_iter().map(|((), lines)| lines));
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!((stats.batches, records.len()), (1, recs.len()));
            (records, tallied.into_inner().unwrap())
        };

        let mut failing = ExecConfig::new(&opts, 2);
        failing.backend.fault = Some(FaultPlan::parse("launch-fail").unwrap());
        failing.supervisor.max_retries = 0;
        let (records, tallied) = run_batch(&failing.open().unwrap());
        assert_eq!(tallied[too_long], Some("too long"));
        assert_eq!(tallied[panicked], Some("panicked"));
        let quarantined = tallied
            .iter()
            .filter(|t| **t == Some("quarantined"))
            .count();
        assert!(quarantined >= 6, "{tallied:?}");
        assert_eq!(tallied[10], None, "a read with no jobs is clean");
        for (i, rec) in recs.iter().enumerate() {
            let expect = match tallied[i] {
                Some(_) => unmapped_record(rec, false),
                None => map_read(rec),
            };
            assert_eq!(records[i], expect, "{}", rec.name);
        }

        let (records, tallied) = run_batch(&ExecConfig::new(&opts, 2).open().unwrap());
        for (i, rec) in recs.iter().enumerate() {
            if i == too_long || i == panicked {
                assert_eq!(records[i], unmapped_record(rec, false));
                continue;
            }
            assert_eq!(tallied[i], None, "{}", rec.name);
            assert_eq!(records[i], map_read(rec), "{}", rec.name);
        }
        assert!(records.iter().filter(|r| r.contains("\ttp:A:P")).count() >= 6);
    }

    /// A read the plan stage rejects still leaves its one record, and the
    /// report counts it as too long.
    #[test]
    fn read_over_the_length_limit_is_written_unmapped_and_counted() {
        let (_, recs, _) = ten_reads(MapOpts::map_ont());
        let mut lens: Vec<usize> = recs.iter().map(SeqRecord::len).collect();
        lens.sort_unstable();
        assert!(lens[8] < lens[9], "fixture needs one strictly longest read");
        let mut opts = MapOpts::map_ont();
        opts.max_read_len = lens[9] - 1;
        let (session, _, fasta) = ten_reads(opts);
        let exec = ExecConfig::new(&opts, 1).open().unwrap();
        let mut out = Vec::new();
        let run = map_reads(&fasta[..], &mut out, &session, &exec, false, None).unwrap();
        assert_eq!((run.too_long, run.degraded()), (1, 1), "{run:?}");

        let out = String::from_utf8(out).unwrap();
        let names: std::collections::HashSet<&str> =
            out.lines().map(|l| l.split('\t').next().unwrap()).collect();
        assert_eq!(names.len(), 10, "every read leaves a record");
        let longest = recs.iter().max_by_key(|r| r.len()).unwrap();
        let unmapped: Vec<&str> = out.lines().filter(|l| l.ends_with("tp:A:U")).collect();
        assert_eq!(unmapped.len(), 1, "{out}");
        assert!(unmapped[0].starts_with(&format!("{}\t", longest.name)));
    }
}
