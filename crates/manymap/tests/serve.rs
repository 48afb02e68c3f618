//! End-to-end acceptance for the `mmm-serve` daemon (DESIGN.md §12).
//!
//! The bar: N tenants interleaved through one daemon must each receive
//! output byte-identical to a solo `manymap map` run of the same reads —
//! including under an injected backend fault plan — a slow consumer must
//! not wedge the other tenants, and a drain must flush every accepted
//! read before the daemon exits.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use manymap::serve::{encode_read, read_frame, serve, write_frame, Frame, Op, ServeOpts};
use manymap::{load_index_any, ExecConfig, MapOpts};
use mmm_exec::{BackendKind, BufferSink, FaultPlan};
use mmm_index::{
    build_sharded, save_index, write_index_image, IdxOpts, MinimizerIndex, ShardedIndex,
};
use mmm_seq::{nt4_decode, write_fasta, SeqRecord};
use mmm_simreads::{
    generate_chromosomes, generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts,
};

struct Fixture {
    dir: PathBuf,
    index: PathBuf,
    reads: PathBuf,
    records: Vec<SeqRecord>,
    genome: Vec<u8>,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Fixture {
    fn socket(&self) -> PathBuf {
        self.dir.join("daemon.sock")
    }
}

/// Same genome/read recipe as the backend CLI suite: noisy nanopore reads
/// so the mapper emits real gap-fill jobs for the backend.
fn fixture(tag: &str, num_reads: usize) -> Fixture {
    let dir = std::env::temp_dir().join(format!("mmm-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let genome = generate_genome(&GenomeOpts {
        len: 80_000,
        repeat_frac: 0.0,
        seed: 17,
        ..Default::default()
    });
    let idx = MinimizerIndex::build(
        &[SeqRecord::new("chr1", nt4_decode(&genome))],
        &IdxOpts::MAP_ONT,
        1,
    )
    .unwrap();
    let index = dir.join("ref.mmx");
    save_index(&idx, &index).unwrap();

    let sims = simulate_reads(
        &genome,
        &SimOpts {
            platform: Platform::Nanopore,
            num_reads,
            seed: 23,
        },
    );
    let records: Vec<SeqRecord> = sims
        .iter()
        .map(|r| SeqRecord::new(r.name.clone(), nt4_decode(&r.seq)))
        .collect();
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &records, 0).unwrap();
    let reads = dir.join("reads.fa");
    std::fs::write(&reads, &fasta).unwrap();

    Fixture {
        dir,
        index,
        reads,
        records,
        genome,
    }
}

/// Four distinct chromosomes behind a 4-shard manifest (one chromosome per
/// shard), with reads drawn from every chromosome — so a dead shard
/// degrades a known, partial set of reads.
fn sharded_fixture(tag: &str) -> Fixture {
    let dir = std::env::temp_dir().join(format!("mmm-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let chroms = generate_chromosomes(
        &GenomeOpts {
            len: 240_000,
            repeat_frac: 0.0,
            seed: 17,
            ..Default::default()
        },
        4,
    );
    let refs: Vec<SeqRecord> = chroms
        .iter()
        .enumerate()
        .map(|(i, g)| SeqRecord::new(format!("chr{}", i + 1), nt4_decode(g)))
        .collect();
    let index = dir.join("sharded.mmx");
    build_sharded(&refs, &IdxOpts::MAP_ONT, 4, 1, &index).unwrap();

    let mut records = Vec::new();
    for (ci, g) in chroms.iter().enumerate() {
        let sims = simulate_reads(
            g,
            &SimOpts {
                platform: Platform::Nanopore,
                num_reads: 3,
                seed: 100 + ci as u64,
            },
        );
        for r in sims {
            records.push(SeqRecord::new(
                format!("c{}{}", ci + 1, r.name),
                nt4_decode(&r.seq),
            ));
        }
    }
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &records, 0).unwrap();
    let reads = dir.join("reads.fa");
    std::fs::write(&reads, &fasta).unwrap();

    Fixture {
        dir,
        index,
        reads,
        records,
        genome: Vec::new(),
    }
}

/// Solo CLI run — the byte-identity reference.
fn run_cli(index: &Path, reads: &Path, extra: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_manymap"));
    cmd.arg("map")
        .arg(index)
        .arg(reads)
        .args(["--threads", "2", "--backend", "cpu"])
        .args(extra);
    let out = cmd.output().expect("spawn manymap");
    assert!(
        out.status.success(),
        "solo CLI failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn serve_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mmm-serve"))
}

/// Spawn the daemon and wait until its socket accepts connections.
fn spawn_daemon(fx: &Fixture, extra: &[&str]) -> Child {
    let child = serve_bin()
        .arg("daemon")
        .arg(&fx.index)
        .arg("--socket")
        .arg(fx.socket())
        .args(["--threads", "2", "--backend", "cpu"])
        .args(extra)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mmm-serve daemon");
    wait_for_socket(&fx.socket());
    child
}

fn wait_for_socket(path: &Path) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if UnixStream::connect(path).is_ok() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon socket {path:?} never came up"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn run_client(socket: &Path, tenant: &str, reads: &Path) -> Output {
    serve_bin()
        .arg("client")
        .arg(socket)
        .arg(tenant)
        .arg(reads)
        .output()
        .expect("spawn mmm-serve client")
}

/// Issue `mmm-serve drain` and wait for the daemon to exit cleanly,
/// returning its stderr.
fn drain_and_join(fx: &Fixture, daemon: Child) -> String {
    let out = serve_bin()
        .arg("drain")
        .arg(fx.socket())
        .output()
        .expect("spawn mmm-serve drain");
    assert!(
        out.status.success(),
        "drain failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = daemon.wait_with_output().expect("join daemon");
    assert!(
        out.status.success(),
        "daemon exited non-zero: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

// --- raw-protocol helpers (in-process tests) ----------------------------

fn hello(stream: &mut UnixStream, tenant: &str) {
    write_frame(stream, Op::Hello, tenant.as_bytes()).unwrap();
    let f = read_frame(stream).unwrap().expect("HELLO reply");
    assert_eq!(f.op, Op::Ok, "HELLO rejected: {}", f.text());
}

fn send_read(stream: &mut UnixStream, rec: &SeqRecord) {
    let payload = encode_read(&rec.name, &rec.seq, b"");
    write_frame(stream, Op::Read, &payload).unwrap();
}

/// Read frames until DONE, returning the REC payloads and the DONE text.
fn collect_records(stream: &mut UnixStream) -> (Vec<Vec<u8>>, String) {
    let mut recs = Vec::new();
    loop {
        match read_frame(stream).unwrap().expect("stream closed pre-DONE") {
            Frame {
                op: Op::Rec,
                payload,
            } => recs.push(payload),
            Frame {
                op: Op::Done,
                payload,
            } => return (recs, String::from_utf8_lossy(&payload).into_owned()),
            f => panic!("unexpected frame {:?}: {}", f.op, f.text()),
        }
    }
}

fn admin(socket: &Path, op: Op) -> Frame {
    let mut s = UnixStream::connect(socket).unwrap();
    write_frame(&mut s, op, b"").unwrap();
    read_frame(&mut s).unwrap().expect("admin reply")
}

/// In-process daemon handle: `serve` runs on a scoped thread against a
/// `BufferSink`, so tests can drive raw sockets and then inspect the
/// final report.
fn serve_opts(fx: &Fixture) -> ServeOpts {
    let map = MapOpts::map_ont();
    ServeOpts::new(fx.socket(), map, ExecConfig::new(&map, 2))
}

// --- tests --------------------------------------------------------------

/// Four tenants interleaved through one daemon: every tenant's stdout is
/// byte-identical to the solo CLI, the stats endpoint accounts for all of
/// them, and the drain leaves a full report on stderr.
#[test]
fn four_tenants_are_byte_identical_to_solo_cli() {
    let fx = fixture("parity", 8);
    let solo = run_cli(&fx.index, &fx.reads, &[]);
    assert!(!solo.stdout.is_empty(), "solo CLI produced no records");

    let daemon = spawn_daemon(&fx, &[]);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let (socket, reads) = (fx.socket(), fx.reads.clone());
                s.spawn(move || (i, run_client(&socket, &format!("t{i}"), &reads)))
            })
            .collect();
        for h in handles {
            let (i, out) = h.join().unwrap();
            assert!(
                out.status.success(),
                "client t{i} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(
                out.stdout, solo.stdout,
                "tenant t{i} diverged from the solo CLI"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("tenant t{i}: 8 accepted, 8 sent")),
                "t{i} DONE summary wrong: {stderr}"
            );
        }
    });

    let stats = serve_bin()
        .arg("stats")
        .arg(fx.socket())
        .output()
        .expect("spawn mmm-serve stats");
    assert!(stats.status.success());
    let report = String::from_utf8_lossy(&stats.stdout);
    for i in 0..4 {
        assert!(
            report.contains(&format!("tenant t{i}:")),
            "stats endpoint missing t{i}: {report}"
        );
    }
    assert!(
        report.contains("32 read(s) accepted"),
        "stats totals wrong: {report}"
    );

    let stderr = drain_and_join(&fx, daemon);
    assert!(
        stderr.contains("[mmm-serve] up ") && stderr.contains("tenant t0:"),
        "final report missing from daemon stderr: {stderr}"
    );
    // The drain report times the shared pipeline: every read went through
    // it, in at least one batch, and each stage has a figure.
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("[mmm-serve] pipeline: "))
        .unwrap_or_else(|| panic!("no pipeline line in the drain report: {stderr}"));
    let (batches, rest) = line
        .split_once(" batches, 32 reads; pull ")
        .unwrap_or_else(|| {
            panic!("pipeline line does not count 32 reads: {line}");
        });
    assert!(batches.parse::<usize>().unwrap() >= 1, "{line}");
    for stage in [
        "s, compute ",
        "s (plan ",
        "s, dispatch ",
        "s, finalize ",
        "s), out ",
    ] {
        assert!(
            rest.contains(stage),
            "pipeline line lacks {stage:?}: {line}"
        );
    }
}

/// The chaos bar: a fault plan that quarantines every job must produce the
/// same bytes through the daemon as through the solo CLI, with per-tenant
/// quarantine accounting and no cross-tenant corruption.
#[test]
fn injected_faults_stay_byte_identical_and_accounted() {
    let fx = fixture("chaos", 8);
    let plan = [
        "--inject-backend-fault",
        "launch-fail",
        "--backend-retries",
        "1",
    ];
    let solo = run_cli(&fx.index, &fx.reads, &plan);
    let solo_text = String::from_utf8_lossy(&solo.stdout);
    assert!(
        solo_text.lines().all(|l| l.contains("tp:A:U")),
        "fault plan did not quarantine the solo run: {solo_text}"
    );

    let daemon = spawn_daemon(&fx, &plan);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let (socket, reads) = (fx.socket(), fx.reads.clone());
                s.spawn(move || (i, run_client(&socket, &format!("c{i}"), &reads)))
            })
            .collect();
        for h in handles {
            let (i, out) = h.join().unwrap();
            assert!(
                out.status.success(),
                "client c{i} failed under faults: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(
                out.stdout, solo.stdout,
                "tenant c{i} diverged from the solo CLI under faults"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("8 quarantined"),
                "c{i} summary must account for quarantined reads: {stderr}"
            );
        }
    });
    let stderr = drain_and_join(&fx, daemon);
    assert!(stderr.contains("8 quarantined"), "daemon report: {stderr}");
}

/// Backpressure: a tenant that stops reading its socket is throttled by
/// its own bounded queues (in-flight never exceeds the output-queue cap)
/// while another tenant runs to completion — then the stalled tenant
/// resumes and still receives every record, in submission order.
#[test]
fn slow_consumer_is_throttled_without_wedging_others() {
    let fx = fixture("slow", 8);
    let mut opts = serve_opts(&fx);
    opts.inq_reads = 8;
    opts.outq_records = 4;
    let idx = ShardedIndex::build(
        &[SeqRecord::new("chr1", nt4_decode(&fx.genome))],
        &IdxOpts::MAP_ONT,
        1,
    )
    .unwrap();
    let sink = BufferSink::default();

    std::thread::scope(|s| {
        let daemon = s.spawn(|| serve(idx, opts.exec.open().unwrap(), &opts, &sink));
        wait_for_socket(&fx.socket());

        // Tenant "slow" ships every read but never reads a reply.
        let mut slow = UnixStream::connect(fx.socket()).unwrap();
        hello(&mut slow, "slow");
        for rec in &fx.records {
            send_read(&mut slow, rec);
        }

        // Tenant "live" runs a complete session while "slow" is stalled.
        let mut live = UnixStream::connect(fx.socket()).unwrap();
        hello(&mut live, "live");
        for rec in &fx.records {
            send_read(&mut live, rec);
        }
        write_frame(&mut live, Op::End, b"").unwrap();
        live.flush().unwrap();
        let (recs, done) = collect_records(&mut live);
        assert_eq!(recs.len(), fx.records.len(), "live tenant lost records");
        assert!(done.contains("8 accepted, 8 sent"), "live DONE: {done}");

        // The credit gate: "slow" may never hold more than outq_records
        // in flight, no matter how far behind its reader is.
        let f = admin(&fx.socket(), Op::Stats);
        assert_eq!(f.op, Op::StatsReply);
        let report = f.text();
        let in_flight = report
            .lines()
            .find(|l| l.contains("tenant slow:"))
            .and_then(|l| l.split(" sent, ").nth(1))
            .and_then(|rest| rest.split(" in flight").next())
            .and_then(|n| n.trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no in-flight figure for slow tenant: {report}"));
        assert!(
            in_flight <= opts.outq_records as u64,
            "slow tenant in-flight {in_flight} exceeds the outq cap: {report}"
        );

        // The stalled tenant resumes: every record arrives, in order.
        write_frame(&mut slow, Op::End, b"").unwrap();
        slow.flush().unwrap();
        let (recs, done) = collect_records(&mut slow);
        assert_eq!(recs.len(), fx.records.len(), "slow tenant lost records");
        assert!(done.contains("8 accepted, 8 sent"), "slow DONE: {done}");
        for (rec, payload) in fx.records.iter().zip(&recs) {
            let text = String::from_utf8_lossy(payload);
            assert!(
                text.starts_with(&format!("{}\t", rec.name)),
                "records out of submission order: expected {}, got {}",
                rec.name,
                text.lines().next().unwrap_or("")
            );
        }

        let f = admin(&fx.socket(), Op::Drain);
        assert_eq!(f.op, Op::Ok);
        daemon.join().unwrap().unwrap();
    });

    let reports = sink.reports();
    assert_eq!(reports.len(), 1, "exactly one final report");
    assert!(
        reports[0].contains("tenant slow:") && reports[0].contains("tenant live:"),
        "final report incomplete: {}",
        reports[0]
    );
}

/// The drain contract: reads accepted before the drain are all flushed —
/// the session ends as if the client had sent END, every record is
/// delivered, and the daemon exits cleanly.
#[test]
fn drain_flushes_accepted_reads_before_exit() {
    let fx = fixture("drain", 6);
    let opts = serve_opts(&fx);
    let idx = ShardedIndex::build(
        &[SeqRecord::new("chr1", nt4_decode(&fx.genome))],
        &IdxOpts::MAP_ONT,
        1,
    )
    .unwrap();
    let sink = BufferSink::default();

    std::thread::scope(|s| {
        let daemon = s.spawn(|| serve(idx, opts.exec.open().unwrap(), &opts, &sink));
        wait_for_socket(&fx.socket());

        // An open-ended session: reads in flight, END never sent.
        let mut client = UnixStream::connect(fx.socket()).unwrap();
        hello(&mut client, "mid-stream");
        for rec in &fx.records {
            send_read(&mut client, rec);
        }
        client.flush().unwrap();

        let f = admin(&fx.socket(), Op::Drain);
        assert_eq!(f.op, Op::Ok);

        // The drain must deliver all six reads' records, then DONE.
        let (recs, done) = collect_records(&mut client);
        assert_eq!(
            recs.len(),
            fx.records.len(),
            "drain dropped accepted reads: {done}"
        );
        assert!(done.contains("6 accepted, 6 sent"), "DONE: {done}");

        daemon.join().unwrap().unwrap();
    });
    assert!(
        !fx.socket().exists(),
        "drained daemon left its socket behind"
    );
    assert!(sink.reports()[0].contains("tenant mid-stream:"));
}

/// SIGTERM is a live drain, not a kill: reads accepted before the signal
/// are flushed to their client (RECs then DONE), the daemon exits 0, and
/// the final report lands on stderr.
#[test]
fn sigterm_drains_like_the_drain_opcode() {
    let fx = fixture("sigterm", 5);
    let daemon = spawn_daemon(&fx, &[]);
    let pid = daemon.id();

    let mut client = UnixStream::connect(fx.socket()).unwrap();
    hello(&mut client, "sig");
    for rec in &fx.records {
        send_read(&mut client, rec);
    }
    client.flush().unwrap();

    // Wait until every read is *accepted* (reads still in the socket
    // buffer when the drain flag flips are dropped by design).
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let f = admin(&fx.socket(), Op::Stats);
        if f.text().contains("tenant sig: 5 accepted") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reads never accepted: {}",
            f.text()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let kill = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("spawn kill");
    assert!(kill.success());

    let (recs, done) = collect_records(&mut client);
    assert_eq!(recs.len(), 5, "SIGTERM dropped accepted reads: {done}");
    assert!(done.contains("5 accepted, 5 sent"), "DONE: {done}");

    let out = daemon.wait_with_output().expect("join daemon");
    assert!(
        out.status.success(),
        "SIGTERM drain must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tenant sig:"), "final report: {stderr}");
}

/// SIGTERM while the input queue is admission-capped: with a one-slot
/// input queue and a two-record output queue, the session reader spends
/// the whole run blocked pushing into a full queue (output credit only
/// recovers at mapping pace, ~2 reads per pipeline cycle). A drain signal
/// landed in that state must still flush every *accepted* read — RECs then
/// a balanced DONE — while reads still queued in the socket buffer are
/// dropped by design, never half-processed.
#[test]
fn sigterm_while_admission_capped_flushes_accepted_reads() {
    let fx = fixture("sigfull", 32);
    let daemon = spawn_daemon(&fx, &["--inq-reads", "1", "--outq-records", "2"]);
    let pid = daemon.id();

    let mut client = UnixStream::connect(fx.socket()).unwrap();
    hello(&mut client, "capped");
    for rec in &fx.records {
        send_read(&mut client, rec);
    }
    client.flush().unwrap();

    // Wait for the mid-acceptance window: some reads accepted, the rest
    // wedged behind the one-slot queue. Killing here exercises the
    // reader-blocked-in-push drain path.
    let deadline = Instant::now() + Duration::from_secs(30);
    let accepted_at_kill = loop {
        let f = admin(&fx.socket(), Op::Stats);
        let report = f.text();
        let accepted = report
            .lines()
            .find(|l| l.contains("tenant capped:"))
            .and_then(|l| l.split("capped: ").nth(1))
            .and_then(|rest| rest.split(" accepted").next())
            .and_then(|n| n.trim().parse::<u64>().ok())
            .unwrap_or(0);
        if (1..=24).contains(&accepted) {
            break accepted;
        }
        assert!(
            accepted <= 24,
            "acceptance outran the poll loop (observed {accepted}/32): {report}"
        );
        assert!(Instant::now() < deadline, "no read ever accepted: {report}");
        std::thread::sleep(Duration::from_millis(2));
    };

    let kill = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("spawn kill");
    assert!(kill.success());

    // The reader may legitimately finish the push it was blocked in (and a
    // few more already racing through the queue), but whatever was
    // accepted must come back in full, and nothing beyond it.
    let (recs, done) = collect_records(&mut client);
    let accepted = recs.len() as u64;
    assert!(
        accepted >= accepted_at_kill,
        "flushed {accepted} < the {accepted_at_kill} reads accepted before \
         the signal: {done}"
    );
    assert!(
        accepted < 32,
        "signal was supposed to land mid-acceptance, but all 32 reads got \
         in: {done}"
    );
    assert!(
        done.contains(&format!("{accepted} accepted, {accepted} sent")),
        "accepted/sent must balance after a queue-full drain ({accepted} \
         REC frames): {done}"
    );

    let out = daemon.wait_with_output().expect("join daemon");
    assert!(
        out.status.success(),
        "queue-full SIGTERM drain must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tenant capped:"), "final report: {stderr}");
}

/// Live reload: a RELOAD swaps the daemon to a fresh index generation
/// without dropping any accepted read — a tenant whose reads straddle the
/// swap receives every record, output before and after the swap is
/// byte-identical (same index content), a reload of a bad path is refused
/// while the current generation keeps serving, and the stats report
/// accounts for the generations. The backend session is the daemon's, not
/// the generation's: a device whose every launch fails is demoted by the
/// circuit breaker once, and the new generation does not un-demote it.
#[test]
fn live_reload_swaps_generations_without_dropping_reads() {
    let fx = fixture("reload", 8);
    let mut opts = serve_opts(&fx);
    opts.index_path = Some(fx.index.clone());
    opts.exec.kind = BackendKind::GpuSim;
    opts.exec.backend.fault = Some(FaultPlan::parse("launch-fail").unwrap());
    let index = load_index_any(&fx.index, &opts.map, opts.exec.shard_open_opts(), 1).unwrap();
    let sink = BufferSink::default();

    std::thread::scope(|s| {
        let daemon = s.spawn(|| serve(index, opts.exec.open().unwrap(), &opts, &sink));
        wait_for_socket(&fx.socket());

        // Tenant "straddle" ships all its reads, then the daemon reloads
        // *before* the tenant ends its session — its in-flight reads must
        // all come back.
        let mut straddle = UnixStream::connect(fx.socket()).unwrap();
        hello(&mut straddle, "straddle");
        for rec in &fx.records {
            send_read(&mut straddle, rec);
        }
        straddle.flush().unwrap();

        // A reload of a missing path is refused and changes nothing.
        let mut bad = UnixStream::connect(fx.socket()).unwrap();
        write_frame(&mut bad, Op::Reload, b"/does/not/exist.mmx").unwrap();
        let f = read_frame(&mut bad).unwrap().expect("RELOAD reply");
        assert_eq!(f.op, Op::Err, "bad reload must be refused: {}", f.text());

        // An empty payload re-opens the path the daemon was started with.
        let mut ok = UnixStream::connect(fx.socket()).unwrap();
        write_frame(&mut ok, Op::Reload, b"").unwrap();
        let f = read_frame(&mut ok).unwrap().expect("RELOAD reply");
        assert_eq!(f.op, Op::Ok, "reload failed: {}", f.text());
        assert!(
            f.text().contains("generation 1"),
            "reload summary: {}",
            f.text()
        );

        // The straddling tenant ends now: every accepted read is flushed.
        write_frame(&mut straddle, Op::End, b"").unwrap();
        straddle.flush().unwrap();
        let (before, done) = collect_records(&mut straddle);
        assert_eq!(before.len(), fx.records.len(), "reload dropped reads");
        assert!(done.contains("8 accepted, 8 sent"), "DONE: {done}");

        // A post-reload tenant maps the same reads byte-identically (the
        // new generation opened the same index content).
        let mut after = UnixStream::connect(fx.socket()).unwrap();
        hello(&mut after, "after");
        for rec in &fx.records {
            send_read(&mut after, rec);
        }
        write_frame(&mut after, Op::End, b"").unwrap();
        after.flush().unwrap();
        let (after_recs, _) = collect_records(&mut after);
        assert_eq!(
            before, after_recs,
            "post-reload generation diverged from pre-reload output"
        );

        let f = admin(&fx.socket(), Op::Stats);
        let report = f.text();
        assert!(
            report.contains("generation 1") && report.contains("1 reload(s)"),
            "stats must account for the reload: {report}"
        );
        assert!(
            report.contains(" 1 breaker-trips"),
            "the breaker's verdict must survive the reload: {report}"
        );

        let f = admin(&fx.socket(), Op::Drain);
        assert_eq!(f.op, Op::Ok);
        daemon.join().unwrap().unwrap();
    });
}

/// The daemon opens an index exactly as `manymap map` does — through the
/// one checksummed loader — at boot and on every `RELOAD`. A bare v2 image
/// (the parent's single-file format) is the typed rebuild error in both
/// places; a `RELOAD` of a damaged container is refused naming the section;
/// and after each refusal the old generation still answers, byte for byte.
#[test]
fn unverifiable_index_is_refused_at_boot_and_reload_keeps_the_old_generation() {
    let fx = fixture("badreload", 4);
    let bare = fx.dir.join("bare.mmx");
    let genome = SeqRecord::new("chr1", nt4_decode(&fx.genome));
    let idx = MinimizerIndex::build(&[genome], &IdxOpts::MAP_ONT, 1).unwrap();
    let mut image = Vec::new();
    write_index_image(&idx, &mut image);
    std::fs::write(&bare, &image).unwrap();
    let damaged = fx.dir.join("damaged.mmx");
    let mut bytes = std::fs::read(&fx.index).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x04;
    std::fs::write(&damaged, &bytes).unwrap();

    // Boot: refused before the socket is bound.
    let boot = serve_bin()
        .arg("daemon")
        .arg(&bare)
        .arg("--socket")
        .arg(fx.socket())
        .output()
        .expect("spawn mmm-serve daemon");
    let stderr = String::from_utf8_lossy(&boot.stderr);
    assert_eq!(boot.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("mmm-serve: "), "{stderr}");
    assert!(
        stderr.contains("no checksum container")
            && stderr.contains("rebuild the index with `manymap index`"),
        "{stderr}"
    );
    assert!(!fx.socket().exists(), "refused boot must not bind");

    let daemon = spawn_daemon(&fx, &[]);
    let before = run_client(&fx.socket(), "before", &fx.reads);
    assert!(before.status.success() && !before.stdout.is_empty());
    for (path, why) in [
        (&bare, "no checksum container"),
        (&damaged, "checksum mismatch in"),
    ] {
        let reload = serve_bin()
            .arg("reload")
            .arg(fx.socket())
            .arg(path)
            .output()
            .expect("spawn mmm-serve reload");
        let stderr = String::from_utf8_lossy(&reload.stderr);
        assert_eq!(reload.status.code(), Some(1), "{path:?}: {stderr}");
        assert!(stderr.contains(why), "{path:?}: {stderr}");
        let after = run_client(&fx.socket(), "after", &fx.reads);
        assert!(after.status.success());
        assert_eq!(after.stdout, before.stdout, "after refusing {path:?}");
    }
    let stderr = drain_and_join(&fx, daemon);
    assert!(stderr.contains("0 reload(s)"), "daemon report: {stderr}");
}

/// A generation reads its index where the file is mapped, which is only
/// sound because index files are *replaced* (temp + rename: a new inode),
/// never rewritten in place (DESIGN.md §15). `manymap index` over the very
/// path a running daemon serves from must therefore leave the old
/// generation answering byte-identically — it still maps the old inode —
/// until `RELOAD`, and the new one after.
#[test]
fn reindexing_the_served_path_changes_nothing_until_reload() {
    let fx = fixture("reindex", 6);
    let daemon = spawn_daemon(&fx, &[]);
    let before = run_client(&fx.socket(), "before", &fx.reads);
    assert!(before.status.success() && !before.stdout.is_empty());

    // The same bases under another name: every mapped record changes.
    let renamed = fx.dir.join("renamed.fa");
    let mut fasta = Vec::new();
    let rec = SeqRecord::new("chrRenamed", nt4_decode(&fx.genome));
    write_fasta(&mut fasta, &[rec], 80).unwrap();
    std::fs::write(&renamed, &fasta).unwrap();
    let reindex = Command::new(env!("CARGO_BIN_EXE_manymap"))
        .arg("index")
        .arg(&renamed)
        .arg(&fx.index)
        .output()
        .expect("spawn manymap index");
    assert!(
        reindex.status.success(),
        "{}",
        String::from_utf8_lossy(&reindex.stderr)
    );
    let solo = run_cli(&fx.index, &fx.reads, &[]);
    assert_ne!(solo.stdout, before.stdout, "the new index must differ");

    let during = run_client(&fx.socket(), "during", &fx.reads);
    assert!(during.status.success());
    assert_eq!(
        during.stdout, before.stdout,
        "the served generation changed under a re-index of its path"
    );

    let reload = serve_bin()
        .arg("reload")
        .arg(fx.socket())
        .output()
        .expect("spawn mmm-serve reload");
    assert!(
        reload.status.success(),
        "{}",
        String::from_utf8_lossy(&reload.stderr)
    );
    let after = run_client(&fx.socket(), "after", &fx.reads);
    assert!(after.status.success());
    assert_eq!(after.stdout, solo.stdout, "the reloaded generation");

    let stderr = drain_and_join(&fx, daemon);
    assert!(stderr.contains("1 reload(s)"), "daemon report: {stderr}");
}

/// Shard-class fault rules reach the daemon's index loader, at boot and on
/// every `RELOAD` (regression: the daemon used to open with default shard
/// options, so `missing-shard:shards=1` was a silent no-op). Over a 4-shard
/// manifest with shard 1 dead, a tenant's stream equals `manymap map` under
/// the same plan — the same reads degrade — before and after a reload.
#[test]
fn shard_fault_rules_apply_at_boot_and_across_reload() {
    let fx = sharded_fixture("shardfault");
    let plan = ["--inject-backend-fault", "missing-shard:shards=1"];
    let solo = run_cli(&fx.index, &fx.reads, &plan);
    let healthy = run_cli(&fx.index, &fx.reads, &[]);
    let degraded = |out: &[u8]| {
        String::from_utf8_lossy(out)
            .lines()
            .filter(|l| l.contains("tp:A:U"))
            .count()
    };
    assert_eq!(degraded(&healthy.stdout), 0);
    assert!(
        (1..fx.records.len()).contains(&degraded(&solo.stdout)),
        "the plan must degrade some reads, not all: {}",
        String::from_utf8_lossy(&solo.stdout)
    );

    let daemon = spawn_daemon(&fx, &plan);
    for tenant in ["before", "after"] {
        let out = run_client(&fx.socket(), tenant, &fx.reads);
        assert!(
            out.status.success(),
            "client {tenant} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&solo.stdout),
            "tenant {tenant} diverged from the solo CLI under the shard plan"
        );
        if tenant == "before" {
            let reload = serve_bin()
                .arg("reload")
                .arg(fx.socket())
                .output()
                .expect("spawn mmm-serve reload");
            assert!(
                reload.status.success(),
                "reload failed: {}",
                String::from_utf8_lossy(&reload.stderr)
            );
        }
    }
    let stderr = drain_and_join(&fx, daemon);
    assert!(stderr.contains("1 reload(s)"), "daemon report: {stderr}");
}

/// Admission control: the tenant cap refuses the N+1th live session with a
/// protocol-level ERR, and a finished session frees its slot.
#[test]
fn admission_cap_refuses_then_recovers() {
    let fx = fixture("admit", 2);
    let mut opts = serve_opts(&fx);
    opts.max_tenants = 1;
    let idx = ShardedIndex::build(
        &[SeqRecord::new("chr1", nt4_decode(&fx.genome))],
        &IdxOpts::MAP_ONT,
        1,
    )
    .unwrap();
    let sink = BufferSink::default();

    std::thread::scope(|s| {
        let daemon = s.spawn(|| serve(idx, opts.exec.open().unwrap(), &opts, &sink));
        wait_for_socket(&fx.socket());

        let mut first = UnixStream::connect(fx.socket()).unwrap();
        hello(&mut first, "only");

        let mut second = UnixStream::connect(fx.socket()).unwrap();
        write_frame(&mut second, Op::Hello, b"crowded").unwrap();
        let f = read_frame(&mut second).unwrap().expect("HELLO reply");
        assert_eq!(f.op, Op::Err, "cap must refuse the second tenant");
        assert!(f.text().contains("admission denied"), "{}", f.text());

        // End the first session; its slot frees up.
        write_frame(&mut first, Op::End, b"").unwrap();
        let (_, done) = collect_records(&mut first);
        assert!(done.contains("0 accepted"), "DONE: {done}");

        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut third = UnixStream::connect(fx.socket()).unwrap();
            write_frame(&mut third, Op::Hello, b"next").unwrap();
            let f = read_frame(&mut third).unwrap().expect("HELLO reply");
            if f.op == Op::Ok {
                write_frame(&mut third, Op::End, b"").unwrap();
                let _ = collect_records(&mut third);
                break;
            }
            assert!(
                Instant::now() < deadline,
                "slot never freed after the first session ended"
            );
            std::thread::sleep(Duration::from_millis(20));
        }

        let f = admin(&fx.socket(), Op::Drain);
        assert_eq!(f.op, Op::Ok);
        daemon.join().unwrap().unwrap();
    });
}
