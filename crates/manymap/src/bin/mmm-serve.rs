//! `mmm-serve` — the multi-tenant alignment daemon and its client.
//!
//! ```sh
//! mmm-serve daemon <ref.mmx|ref.fa> --socket /path/daemon.sock
//!           [shared flags] [--max-tenants N] [--inq-reads N]
//!           [--outq-records N] [--quantum-bases N] [--batch-bases N]
//! mmm-serve client <socket> <tenant-name> <reads.fq>   # PAF on stdout
//! mmm-serve stats  <socket>                            # report on stdout
//! mmm-serve drain  <socket>                            # begin drain
//! mmm-serve reload <socket> [index-path]               # swap generations
//! ```
//!
//! The shared flags are `manymap::session::SHARED_FLAGS`, the one table
//! `manymap map` parses too (`--threads`, `--backend`, `--preset`,
//! `--engine`, `--no-cigar`, `--max-read-len`,
//! `--inject-backend-fault`, `--backend-retries`, `--batch-deadline-ms`);
//! any other `--flag`, a flag given twice, a malformed value, `--threads`
//! outside 1 to `session::MAX_THREADS` or `--batch-deadline-ms 0` is a
//! usage error naming the flag (exit 1). Only `daemon` takes flags
//! (`session::DAEMON_FLAGS` on top of the shared table).
//!
//! `<ref.mmx>` may be a single-file index or a sharded manifest (DESIGN.md
//! §15), opened exactly as `manymap map` opens it — memory-mapped, every
//! byte checksum-verified, queried where it is mapped, the content and not
//! the name deciding what it is. `reload` swaps the daemon to a freshly
//! opened index generation without dropping any in-flight read: omit the
//! path to re-open the path the daemon was started with. Index files are
//! replaced (temp + rename), never rewritten, so `manymap index` over the
//! served path changes nothing until `reload`. A
//! reload the loader refuses (damaged file, bare image, missing path)
//! answers `ERR` and leaves the current generation serving.
//!
//! The daemon accepts many concurrent tenant streams over the unix socket
//! and runs them through one shared pipeline and one backend session —
//! opened before the index is read or the socket bound, and kept for the
//! daemon's whole lifetime, across every `reload`; each
//! tenant's output is byte-identical to a solo `manymap map` run of the
//! same reads. SIGTERM/SIGINT (or `mmm-serve drain`) flushes every
//! accepted read, emits a final stats report on stderr, and exits.
//!
//! Environment variables are the `manymap` CLI's, read by the same code:
//! `MMM_GPU_MEM` and `MMM_GPU_STREAMS`, which size the simulated device.

use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use manymap::serve::{self, encode_read, read_frame, write_frame, Frame, Op, ServeOpts};
use manymap::session::{self, Args, Flag, DAEMON_FLAGS, SHARED_FLAGS};
use manymap::{load_index_any, MapError};
use mmm_exec::StderrSink;
use mmm_seq::FastxReader;

fn cmd_daemon(args: &Args) -> Result<(), MapError> {
    let [ref_path] = &args.positional[1..] else {
        return Err(MapError::Usage(
            "usage: mmm-serve daemon <ref.mmx|ref.fa> --socket <path>".into(),
        ));
    };
    let socket = args
        .get("socket")
        .filter(|s| !s.is_empty())
        .ok_or_else(|| MapError::Usage("mmm-serve daemon: --socket <path> is required".into()))?;
    let (map, exec) = session::map_config(args)?;

    let mut opts = ServeOpts::new(PathBuf::from(socket), map, exec);
    if let Some(n) = args.num("max-tenants")? {
        opts.max_tenants = n;
    }
    if let Some(n) = args.num("inq-reads")? {
        opts.inq_reads = n;
    }
    if let Some(n) = args.num("outq-records")? {
        opts.outq_records = n;
    }
    if let Some(n) = args.num("quantum-bases")? {
        opts.drr.quantum_bases = n;
    }
    if let Some(n) = args.num("batch-bases")? {
        opts.drr.batch_bases = n;
    }
    opts.index_path = Some(PathBuf::from(ref_path));

    // The daemon's one backend session, for its whole lifetime: opened
    // before the index is read or the socket bound, kept across `reload`.
    let exec = opts.exec.open()?;
    let index = load_index_any(Path::new(ref_path), &opts.map, opts.exec.shard_open_opts())?;
    serve::signal::install_drain_handler();
    serve::serve(index, exec, &opts, &StderrSink)
}

fn connect(socket: &str) -> Result<UnixStream, MapError> {
    UnixStream::connect(socket).map_err(|e| MapError::Io {
        path: socket.to_string(),
        source: e,
    })
}

fn io_err(socket: &str, e: std::io::Error) -> MapError {
    MapError::Io {
        path: socket.to_string(),
        source: e,
    }
}

/// Stream a read file through a tenant session: reads out, records to
/// stdout. A dedicated sender thread keeps the socket's two directions
/// independent, so a large read set cannot deadlock against a full output
/// buffer.
fn cmd_client(args: &Args) -> Result<(), MapError> {
    let [socket, tenant, reads_path] = &args.positional[1..] else {
        return Err(MapError::Usage(
            "usage: mmm-serve client <socket> <tenant-name> <reads.fq>".into(),
        ));
    };
    let stream = connect(socket)?;
    let mut rx = stream.try_clone().map_err(|e| io_err(socket, e))?;
    let mut tx = stream;

    write_frame(&mut tx, Op::Hello, tenant.as_bytes()).map_err(|e| io_err(socket, e))?;
    match read_frame(&mut rx).map_err(|e| io_err(socket, e))? {
        Some(Frame { op: Op::Ok, .. }) => {}
        Some(Frame {
            op: Op::Err,
            payload,
        }) => {
            return Err(MapError::Usage(format!(
                "{socket}: {}",
                String::from_utf8_lossy(&payload)
            )));
        }
        other => {
            return Err(MapError::Usage(format!(
                "{socket}: unexpected HELLO response: {other:?}"
            )));
        }
    }

    let f = std::fs::File::open(reads_path).map_err(|e| MapError::Io {
        path: reads_path.to_string(),
        source: e,
    })?;
    let reads_path_owned = reads_path.to_string();

    std::thread::scope(|s| -> Result<(), MapError> {
        // Sender: stream every read, then END.
        let sender = s.spawn(move || -> Result<(), MapError> {
            let mut reader = FastxReader::new(BufReader::new(f));
            loop {
                let batch = reader.next_batch(1_000_000).map_err(|e| MapError::Seq {
                    path: reads_path_owned.clone(),
                    source: e,
                })?;
                if batch.is_empty() {
                    break;
                }
                for rec in &batch {
                    let qual = rec.qual.as_deref().unwrap_or(b"");
                    let payload = encode_read(&rec.name, &rec.seq, qual);
                    write_frame(&mut tx, Op::Read, &payload)
                        .map_err(|e| io_err(&reads_path_owned, e))?;
                }
            }
            write_frame(&mut tx, Op::End, b"").map_err(|e| io_err(&reads_path_owned, e))?;
            tx.flush().map_err(|e| io_err(&reads_path_owned, e))?;
            Ok(())
        });

        // Receiver: RECs to stdout, DONE summary to stderr.
        let mut out = BufWriter::new(std::io::stdout());
        let receive = (|| -> Result<(), MapError> {
            loop {
                match read_frame(&mut rx).map_err(|e| io_err(socket, e))? {
                    Some(Frame {
                        op: Op::Rec,
                        payload,
                    }) => {
                        out.write_all(&payload).map_err(|e| io_err("stdout", e))?;
                    }
                    Some(Frame {
                        op: Op::Done,
                        payload,
                    }) => {
                        out.flush().map_err(|e| io_err("stdout", e))?;
                        eprintln!("[mmm-serve] {}", String::from_utf8_lossy(&payload));
                        return Ok(());
                    }
                    Some(Frame {
                        op: Op::Err,
                        payload,
                    }) => {
                        return Err(MapError::Usage(format!(
                            "{socket}: server error: {}",
                            String::from_utf8_lossy(&payload)
                        )));
                    }
                    Some(other) => {
                        return Err(MapError::Usage(format!(
                            "{socket}: unexpected frame {:?}",
                            other.op
                        )));
                    }
                    None => {
                        return Err(MapError::Usage(format!(
                            "{socket}: connection closed before DONE"
                        )));
                    }
                }
            }
        })();

        match sender.join() {
            Ok(sent) => receive.and(sent),
            Err(p) => std::panic::resume_unwind(p),
        }
    })
}

/// One-frame admin exchanges: STATS, DRAIN, and RELOAD (which may carry an
/// index path as its payload).
fn cmd_admin(args: &Args, op: Op, expect: Op) -> Result<(), MapError> {
    let (socket, payload): (&String, &str) = match (&args.positional[1..], op) {
        ([socket], _) => (socket, ""),
        ([socket, path], Op::Reload) => (socket, path.as_str()),
        _ => {
            let extra = if op == Op::Reload {
                " [index-path]"
            } else {
                ""
            };
            return Err(MapError::Usage(format!(
                "usage: mmm-serve {} <socket>{extra}",
                args.positional[0]
            )));
        }
    };
    let mut stream = connect(socket)?;
    write_frame(&mut stream, op, payload.as_bytes()).map_err(|e| io_err(socket, e))?;
    match read_frame(&mut stream).map_err(|e| io_err(socket, e))? {
        Some(f) if f.op == expect => {
            let text = f.text();
            if !text.is_empty() {
                let mut out = std::io::stdout();
                out.write_all(text.as_bytes())
                    .and_then(|()| {
                        if text.ends_with('\n') {
                            Ok(())
                        } else {
                            out.write_all(b"\n")
                        }
                    })
                    .map_err(|e| io_err("stdout", e))?;
            }
            Ok(())
        }
        Some(Frame {
            op: Op::Err,
            payload,
        }) => Err(MapError::Usage(format!(
            "{socket}: {}",
            String::from_utf8_lossy(&payload)
        ))),
        other => Err(MapError::Usage(format!(
            "{socket}: unexpected response: {other:?}"
        ))),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Only `daemon` takes flags; the client and admin subcommands take none.
    let tables: &[&[Flag]] = match argv.first().map(String::as_str) {
        Some("daemon") => &[SHARED_FLAGS, DAEMON_FLAGS],
        _ => &[],
    };
    let result = Args::parse(argv, tables).and_then(|args| {
        match args.positional.first().map(|s| s.as_str()) {
            Some("daemon") => cmd_daemon(&args),
            Some("client") => cmd_client(&args),
            Some("stats") => cmd_admin(&args, Op::Stats, Op::StatsReply),
            Some("drain") => cmd_admin(&args, Op::Drain, Op::Ok),
            Some("reload") => cmd_admin(&args, Op::Reload, Op::Ok),
            _ => Err(MapError::Usage(
                "usage: mmm-serve <daemon|client|stats|drain|reload> ... (see crate docs)".into(),
            )),
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mmm-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
