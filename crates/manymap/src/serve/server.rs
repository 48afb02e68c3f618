//! The `mmm-serve` daemon: many tenants, one shared pipeline, one shared
//! backend session (DESIGN.md §12).
//!
//! Thread topology (all scoped; [`serve`] returns only after every thread
//! has exited):
//!
//! ```text
//! accept loop ──spawns──▶ session reader ──push──▶ tenant.inq ──┐
//!                         (per connection)                      │ DRR pull
//!                                                               ▼
//!                         session writer ◀── tenant.outq ◀── pipeline: plan →
//!                         (per tenant)                       dispatch → finalize
//!                                                            → pipeline writer
//! ```
//!
//! * **session reader** — speaks the frame protocol, pushes accepted reads
//!   into its tenant's bounded input queue (blocking = per-tenant
//!   backpressure to the client's socket);
//! * **pipeline** — the CLI's own runner, [`session::run`], running every
//!   tenant's reads through ONE supervised backend session. Its compute
//!   stage pulls each batch when it is free for one: [`DrrScheduler::pull`]
//!   takes a fair, credit-gated batch from the tenants' input queues (see
//!   [`super::sched`]). Its sink routes each record to the owning tenant's
//!   output queue and stamps the latency histogram, and its tally counts
//!   each degraded read against its tenant;
//! * **session writer** — drains its tenant's output queue to the socket
//!   as `REC` frames (submission order), then reports `DONE`.
//!
//! A pull with nothing schedulable sleeps on the registry's wake signal
//! (an epoch and a condvar). A session reader signals when it queues a read
//! and when it ends, a session writer when it frees output credit, and
//! `DRAIN` when it starts a drain; a SIGTERM raises no signal, so the wait
//! is bounded by `POLL` (50 ms). Every hop is bounded: the tenant queues by
//! `--inq-reads` and `--outq-records`, the pipeline by its one batch in
//! compute and two result batches before its writer.
//!
//! Output is byte-identical to a solo `manymap map` run of the same reads:
//! mapping is per-read deterministic, the scheduler only reorders *between*
//! reads, and each read's records are formatted by the same code paths.
//!
//! Draining: SIGTERM/SIGINT (via [`super::signal`]) or the `DRAIN` opcode
//! stops the accept loop and session readers; the pipeline keeps pulling
//! until no reader is active and every input queue is empty, then ends,
//! and session writers deliver everything before `DONE` — no accepted read
//! is ever dropped.
//!
//! Live reload: the index and its target tables live together in one
//! immutable [`MapSession`] — one index generation — behind an `Arc`-swap.
//! The `RELOAD` opcode opens a fresh generation (flat or sharded manifest)
//! and swaps it in for new accepts, while every read already in the
//! pipeline carries the `Arc` of the generation it was planned against
//! through to finalize — so a mid-run reload loses zero accepted reads and
//! never mixes indexes within one read. The backend session
//! ([`ExecSession`]) is the daemon's, not the generation's: a reload never
//! touches it, so a demoted device stays demoted.

use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

use mmm_exec::{StatsReport, StatsSink};
use mmm_index::ShardedIndex;
use mmm_pipeline::{lock_unpoisoned, PipelineError};
use mmm_seq::SeqRecord;

use crate::session::{self, load_index_any, Degraded, ExecConfig, ExecSession, MapSession};
use crate::{MapError, MapOpts};

use super::proto::{decode_read, read_frame_poll, write_frame, FramePoll, Op};
use super::sched::{DrrConfig, DrrScheduler};
use super::signal;
use super::tenant::{ServeItem, TenantRegistry, TenantState};

/// How long a session reader or writer, or a pull with nothing to
/// schedule, parks before re-checking the drain flag and shutdown state.
const POLL: Duration = Duration::from_millis(50);

/// Daemon configuration. [`ServeOpts::new`] matches the CLI's geometry
/// (batches of [`session::MAP_BATCH_BASES`]) with queue bounds sized for
/// interactive tenants.
pub struct ServeOpts {
    /// Path of the unix socket to bind (removed and re-created).
    pub socket: PathBuf,
    /// Live tenant sessions admitted at once.
    pub max_tenants: usize,
    /// Per-tenant input queue bound, in reads.
    pub inq_reads: usize,
    /// Per-tenant output queue bound, in records (also the per-tenant
    /// in-flight cap — the scheduler's credit gate).
    pub outq_records: usize,
    /// Fair-scheduler tuning.
    pub drr: DrrConfig,
    /// Mapping parameters (shared by every tenant).
    pub map: MapOpts,
    /// The settings the daemon's backend session was opened with; a
    /// reload reads only the fault plan's shard rules.
    pub exec: ExecConfig,
    /// Where the daemon's index was loaded from. Enables the `RELOAD`
    /// opcode with an empty payload (re-open the same path); `None` means
    /// a reload must name a path explicitly.
    pub index_path: Option<PathBuf>,
}

impl ServeOpts {
    /// Pipeline workers are `exec.backend.threads`, as in `manymap map`.
    pub fn new(socket: PathBuf, map: MapOpts, exec: ExecConfig) -> Self {
        ServeOpts {
            socket,
            max_tenants: 16,
            inq_reads: 512,
            outq_records: 512,
            drr: DrrConfig::default(),
            map,
            exec,
            index_path: None,
        }
    }
}

/// Shared daemon state, borrowed by every thread in the scope.
struct Ctx {
    registry: TenantRegistry,
    /// Set by the `DRAIN` opcode (signal-initiated drains use the global
    /// flag in [`super::signal`]).
    local_drain: AtomicBool,
    /// The pipeline thread exited (normally or fatally); nothing will pull
    /// from `inq`s or fill `outq`s anymore.
    pipeline_done: AtomicBool,
    /// Session readers currently serving a tenant (post-HELLO, pre-END).
    active_readers: AtomicUsize,
    /// The one backend session every dispatch goes through, whatever
    /// generation planned the reads.
    exec: ExecSession,
    /// The generation new accepts plan against. `RELOAD` replaces the
    /// `Arc`; reads already planned keep the clone they took.
    generation: Mutex<Arc<MapSession>>,
    /// Completed `RELOAD`s (also the id of the newest generation).
    reloads: AtomicU64,
    /// First fatal error (pipeline death), surfaced from `serve`.
    fatal: Mutex<Option<MapError>>,
    started: Instant,
}

impl Ctx {
    fn draining(&self) -> bool {
        self.local_drain.load(Ordering::Acquire) || signal::drain_requested()
    }

    /// The generation current accepts should plan against.
    fn generation(&self) -> Arc<MapSession> {
        lock_unpoisoned(&self.generation).clone()
    }

    /// Assemble the stats report served on the `STATS` endpoint and
    /// emitted through the [`StatsSink`] at shutdown.
    fn stats_report(&self) -> StatsReport {
        let tenants = self.registry.snapshot();
        let live = tenants
            .iter()
            .filter(|t| !t.ended.load(Ordering::Acquire))
            .count();
        let accepted: u64 = tenants
            .iter()
            .map(|t| t.accepted.load(Ordering::Relaxed))
            .sum();
        let sent: u64 = tenants.iter().map(|t| t.sent.load(Ordering::Relaxed)).sum();
        let mut r = StatsReport::new("[mmm-serve] ");
        r.line(format!(
            "up {:.1}s: {live} live / {} admitted tenant(s), {accepted} read(s) accepted, \
             {sent} record(s) sent",
            self.started.elapsed().as_secs_f64(),
            tenants.len()
        ));
        for t in &tenants {
            r.line(t.summary());
        }
        let gen = self.generation();
        r.line(format!(
            "index {}; {} reload(s)",
            gen.describe(),
            self.reloads.load(Ordering::Acquire)
        ));
        gen.shard_report(&mut r);
        let stats = lock_unpoisoned(&self.exec.stats);
        r.backend_block(&stats, self.exec.backend.label());
        r
    }
}

/// Bind the socket, run the daemon over `exec` (opened by the caller, so a
/// misconfigured backend fails before the index is loaded), and block until
/// a drain completes. The final stats report goes through `sink` (the
/// daemon binary passes a stderr sink; tests pass a buffer).
pub fn serve(
    index: ShardedIndex,
    exec: ExecSession,
    opts: &ServeOpts,
    sink: &dyn StatsSink,
) -> Result<(), MapError> {
    // A stale socket file from a dead daemon would make bind fail.
    let _ = std::fs::remove_file(&opts.socket);
    let listener = UnixListener::bind(&opts.socket).map_err(|e| MapError::Io {
        path: opts.socket.display().to_string(),
        source: e,
    })?;
    listener.set_nonblocking(true).map_err(|e| MapError::Io {
        path: opts.socket.display().to_string(),
        source: e,
    })?;

    let ctx = Ctx {
        registry: TenantRegistry::new(opts.max_tenants, opts.inq_reads, opts.outq_records),
        local_drain: AtomicBool::new(false),
        pipeline_done: AtomicBool::new(false),
        active_readers: AtomicUsize::new(0),
        exec,
        generation: Mutex::new(Arc::new(MapSession::new(0, index, opts.map))),
        reloads: AtomicU64::new(0),
        fatal: Mutex::new(None),
        started: Instant::now(),
    };
    let ctx = &ctx;

    std::thread::scope(|s| {
        // The shared pipeline.
        s.spawn(move || {
            let result = run_pipeline(ctx, opts);
            ctx.pipeline_done.store(true, Ordering::Release);
            if let Err(e) = result {
                record_fatal(ctx, MapError::Pipeline(e));
                // Nothing will consume queues anymore: force a drain and
                // unblock every parked session thread.
                ctx.local_drain.store(true, Ordering::Release);
            }
            for t in ctx.registry.snapshot() {
                t.inq.close();
                t.outq.close();
            }
        });

        // The accept loop, on this thread.
        loop {
            if ctx.draining() {
                break;
            }
            match listener.accept() {
                Ok((stream, _addr)) => {
                    s.spawn(move || session_reader(ctx, opts, s, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => {
                    record_fatal(
                        ctx,
                        MapError::Io {
                            path: opts.socket.display().to_string(),
                            source: e,
                        },
                    );
                    ctx.local_drain.store(true, Ordering::Release);
                    break;
                }
            }
        }
        // Scope join: sessions and pipeline all wind down via the drain
        // flag and queue closures.
    });

    let _ = std::fs::remove_file(&opts.socket);
    ctx.stats_report().emit(sink);
    let fatal = lock_unpoisoned(&ctx.fatal).take();
    match fatal {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn record_fatal(ctx: &Ctx, e: MapError) {
    let mut g = lock_unpoisoned(&ctx.fatal);
    if g.is_none() {
        *g = Some(e);
    }
}

/// Run the shared pipeline, pulling batches from the tenants' input queues,
/// until a drain has emptied them: [`session::run`], as the CLI runs it,
/// with a sink that routes records to tenant output queues instead of
/// stdout (serve output is PAF).
fn run_pipeline(ctx: &Ctx, opts: &ServeOpts) -> Result<(), PipelineError> {
    let mut drr = DrrScheduler::new(opts.drr);
    let drained = || ctx.draining() && ctx.active_readers.load(Ordering::Acquire) == 0;
    session::run(
        || ctx.generation(),
        &ctx.exec,
        false, // PAF
        None,  // no injected panic
        || Ok(drr.pull(&ctx.registry, drained, POLL)),
        // A degraded read is counted against its tenant — never fatal,
        // never cross-tenant.
        |item: &ServeItem, why: Degraded<'_>| {
            if let Some(t) = ctx.registry.get(item.tenant) {
                let counter = match why {
                    Degraded::BackendQuarantined(_) => &t.quarantined,
                    _ => &t.degraded,
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
        },
        // Route each record to its tenant's output queue. The scheduler's
        // credit gate guarantees a free slot, so this push cannot block on
        // a slow consumer.
        |records: Vec<((usize, Instant), String)>| {
            for ((tid, accepted_at), lines) in records {
                let Some(t) = ctx.registry.get(tid) else {
                    continue;
                };
                t.latency
                    .record_micros(accepted_at.elapsed().as_micros() as u64);
                let _ = t.outq.push(lines);
            }
            Ok(())
        },
    )
    .map(|_stats| ())
}

/// Push a read into the tenant's input queue, backing off while full. The
/// blocking is the point (backpressure to this tenant's socket), but it
/// must stay escapable: a dead pipeline closes the queue, which surfaces
/// here as `false`.
fn push_with_backoff(ctx: &Ctx, t: &TenantState, mut item: ServeItem) -> bool {
    loop {
        match t.inq.try_push(item) {
            Ok(()) => return true,
            Err(e) if e.is_closed() => return false,
            Err(e) => {
                item = e.into_inner();
                if ctx.pipeline_done.load(Ordering::Acquire) {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// Open the requested (or original) index, build a new generation — index
/// and target tables — and swap it in. In-flight reads keep the `Arc` of
/// the generation they were planned against, so nothing accepted is ever
/// lost or mixed across generations; a failed reload leaves the current
/// generation serving.
fn reload_generation(ctx: &Ctx, opts: &ServeOpts, requested: &str) -> Result<String, String> {
    let path: PathBuf = if requested.is_empty() {
        opts.index_path.clone().ok_or_else(|| {
            "no index path on record: the daemon was started from an in-memory index; \
             name a path in the RELOAD payload"
                .to_string()
        })?
    } else {
        PathBuf::from(requested)
    };
    let index = load_index_any(
        &path,
        &opts.map,
        opts.exec.shard_open_opts(),
        opts.exec.backend.threads,
    )
    .map_err(|e| e.to_string())?;
    let id = ctx.reloads.fetch_add(1, Ordering::AcqRel) + 1;
    let gen = MapSession::new(id, index, opts.map);
    let desc = gen.describe();
    *lock_unpoisoned(&ctx.generation) = Arc::new(gen);
    Ok(format!("reloaded {desc} from {}", path.display()))
}

/// The per-connection protocol thread. Admin frames (`STATS`, `DRAIN`,
/// `RELOAD`) are served pre-HELLO and close the connection; a `HELLO`
/// turns the connection into a tenant session and spawns its writer.
fn session_reader<'scope>(
    ctx: &'scope Ctx,
    opts: &'scope ServeOpts,
    scope: &'scope Scope<'scope, '_>,
    mut stream: UnixStream,
) {
    // A read timeout lets the loop observe the drain flag between frames.
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut tenant: Option<Arc<TenantState>> = None;
    loop {
        match read_frame_poll(&mut stream) {
            Ok(FramePoll::TimedOut) => {
                // Drain ends the session as if the client had sent END:
                // reads accepted so far are flushed, no more are taken.
                if ctx.draining() {
                    break;
                }
            }
            Ok(FramePoll::Eof) | Err(_) => break,
            Ok(FramePoll::Frame(f)) => match (f.op, &tenant) {
                (Op::Hello, None) => {
                    if ctx.draining() {
                        let _ = write_frame(&mut stream, Op::Err, b"daemon is draining");
                        return;
                    }
                    match ctx.registry.admit(&f.text()) {
                        Ok(t) => {
                            ctx.active_readers.fetch_add(1, Ordering::AcqRel);
                            let writer_stream = match stream.try_clone() {
                                Ok(ws) => ws,
                                Err(_) => {
                                    t.ended.store(true, Ordering::Release);
                                    ctx.active_readers.fetch_sub(1, Ordering::AcqRel);
                                    return;
                                }
                            };
                            // The HELLO ack is the reader's last write on
                            // this socket: from here on only the writer
                            // thread sends, so frames never interleave.
                            if write_frame(&mut stream, Op::Ok, b"").is_err() {
                                t.ended.store(true, Ordering::Release);
                                ctx.active_readers.fetch_sub(1, Ordering::AcqRel);
                                return;
                            }
                            let tw = t.clone();
                            scope.spawn(move || session_writer(ctx, &tw, writer_stream));
                            tenant = Some(t);
                        }
                        Err(why) => {
                            let _ = write_frame(&mut stream, Op::Err, why.as_bytes());
                            return;
                        }
                    }
                }
                (Op::Read, Some(t)) => {
                    if ctx.draining() {
                        break;
                    }
                    let (name, seq, qual) = match decode_read(&f.payload) {
                        Ok(parts) => parts,
                        Err(_why) => break, // malformed read: end the session
                    };
                    let mut rec = SeqRecord::new(name, seq);
                    if !qual.is_empty() {
                        rec.qual = Some(qual);
                    }
                    let item = ServeItem {
                        tenant: t.id,
                        rec,
                        accepted_at: Instant::now(),
                    };
                    if !push_with_backoff(ctx, t, item) {
                        break; // pipeline gone; writer reports the failure
                    }
                    t.accepted.fetch_add(1, Ordering::AcqRel);
                    ctx.registry.wake();
                }
                (Op::End, Some(_)) => break,
                (Op::Stats, None) => {
                    let report = ctx.stats_report().render();
                    let _ = write_frame(&mut stream, Op::StatsReply, report.as_bytes());
                    return;
                }
                (Op::Drain, None) => {
                    ctx.local_drain.store(true, Ordering::Release);
                    ctx.registry.wake();
                    let _ = write_frame(&mut stream, Op::Ok, b"draining");
                    return;
                }
                (Op::Reload, None) => {
                    match reload_generation(ctx, opts, f.text().trim()) {
                        Ok(msg) => {
                            let _ = write_frame(&mut stream, Op::Ok, msg.as_bytes());
                        }
                        Err(why) => {
                            let _ = write_frame(&mut stream, Op::Err, why.as_bytes());
                        }
                    }
                    return;
                }
                (op, _) => {
                    // Protocol violation. Pre-HELLO the reader still owns
                    // the socket and may say why; mid-session the writer
                    // owns it, so just end the session.
                    if tenant.is_none() {
                        let msg = format!("unexpected {op:?} frame");
                        let _ = write_frame(&mut stream, Op::Err, msg.as_bytes());
                        return;
                    }
                    break;
                }
            },
        }
    }
    if let Some(t) = tenant {
        t.ended.store(true, Ordering::Release);
        ctx.active_readers.fetch_sub(1, Ordering::AcqRel);
        // A draining pull may be waiting for the last reader to end.
        ctx.registry.wake();
    }
}

/// The per-tenant output thread: drain `outq` to the socket in order, then
/// send `DONE` with the tenant's summary.
fn session_writer(ctx: &Ctx, t: &TenantState, mut stream: UnixStream) {
    loop {
        match t.outq.pop_timeout(POLL) {
            Ok(lines) => {
                let written = write_frame(&mut stream, Op::Rec, lines.as_bytes()).is_ok();
                // Sent or not, the record's output credit is free again.
                t.sent.fetch_add(1, Ordering::AcqRel);
                ctx.registry.wake();
                if !written {
                    // Client gone: stop sending, but keep accounting so the
                    // scheduler's credit math stays consistent.
                    drain_silently(ctx, t);
                    return;
                }
            }
            Err(mmm_pipeline::PopError::TimedOut) => {
                if t.ended.load(Ordering::Acquire)
                    && t.sent.load(Ordering::Acquire) == t.accepted.load(Ordering::Acquire)
                {
                    break;
                }
            }
            Err(mmm_pipeline::PopError::Closed) => {
                // Pipeline terminated. Anything unsent is lost; tell the
                // client rather than leaving it waiting for DONE.
                if t.sent.load(Ordering::Acquire) < t.accepted.load(Ordering::Acquire) {
                    let _ = write_frame(
                        &mut stream,
                        Op::Err,
                        b"pipeline terminated before all reads were served",
                    );
                    return;
                }
                break;
            }
        }
    }
    let summary = t.summary();
    let _ = write_frame(&mut stream, Op::Done, summary.as_bytes());
    let _ = stream.flush();
}

/// Keep consuming a dead client's records so its in-flight count still
/// drains and the pipeline writer's slot-reservation invariant holds.
fn drain_silently(ctx: &Ctx, t: &TenantState) {
    loop {
        match t.outq.pop_timeout(POLL) {
            Ok(_) => {
                t.sent.fetch_add(1, Ordering::AcqRel);
                ctx.registry.wake();
            }
            Err(mmm_pipeline::PopError::Closed) => return,
            Err(mmm_pipeline::PopError::TimedOut) => {
                if t.ended.load(Ordering::Acquire)
                    && t.sent.load(Ordering::Acquire) == t.accepted.load(Ordering::Acquire)
                {
                    return;
                }
                if ctx.pipeline_done.load(Ordering::Acquire) && t.outq.is_empty() {
                    return;
                }
            }
        }
    }
}
