//! `serve_mix`: one `mmm-serve daemon` lifetime with this process as its
//! two closed-loop clients, driven through `manymap::serve::proto`.

use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::Stdio;
use std::time::{Duration, Instant};

use manymap::serve::{encode_read, read_frame, write_frame, Frame, Op};

use crate::gen::{Inputs, ReadSet};
use crate::proc;

/// READs each tenant keeps in flight (`long`, `short`).
pub const WINDOWS: [usize; 2] = [2, 8];
pub const TENANTS: [&str; 2] = ["long", "short"];

/// What one tenant's connection saw.
pub struct TenantRun {
    /// Concatenated REC payloads, in submission order.
    pub recs: Vec<u8>,
    /// Reads that got their REC.
    pub answered: usize,
    /// READ sent → REC received, per answered read, in seconds.
    pub latencies: Vec<f64>,
    /// `(seconds since the lifetime's start, bases)` of each REC.
    pub done_at: Vec<(f64, usize)>,
    pub first_sent: f64,
    pub last_rec: f64,
}

pub struct Lifetime {
    /// The CPU clock over the lifetime (see `proc::clock`); the times below
    /// are already at the reference clock.
    pub clock: f64,
    /// Daemon launch → socket accepting.
    pub boot_s: f64,
    pub peak_rss_mb: f64,
    pub daemon_ok: bool,
    pub tenants: Vec<TenantRun>,
}

impl Lifetime {
    /// Bases of every REC received ÷ first READ sent → last REC received.
    pub fn bases_per_s(&self) -> f64 {
        let bases: usize = self
            .tenants
            .iter()
            .flat_map(|t| &t.done_at)
            .map(|d| d.1)
            .sum();
        let first = self
            .tenants
            .iter()
            .map(|t| t.first_sent)
            .fold(f64::MAX, f64::min);
        let last = self.tenants.iter().map(|t| t.last_rec).fold(0.0, f64::max);
        bases as f64 / (last - first)
    }

    /// Tenant `short`'s share of the bases answered while both tenants
    /// still had reads outstanding.
    pub fn short_share(&self) -> f64 {
        let both_until = self
            .tenants
            .iter()
            .map(|t| t.last_rec)
            .fold(f64::MAX, f64::min);
        let during = |t: &TenantRun| -> usize {
            t.done_at
                .iter()
                .filter(|d| d.0 <= both_until)
                .map(|d| d.1)
                .sum()
        };
        let (long, short) = (during(&self.tenants[0]), during(&self.tenants[1]));
        short as f64 / (long + short).max(1) as f64
    }
}

fn proto_err(what: &str, got: Option<Frame>) -> std::io::Error {
    let detail = match got {
        Some(f) => format!("{:?} {}", f.op, f.text()),
        None => "connection closed".into(),
    };
    std::io::Error::other(format!("{what}: {detail}"))
}

/// One tenant's closed loop: keep `window` READs in flight, sending the
/// next when a REC returns; then END and read to DONE.
fn drive(
    socket: &Path,
    tenant: &str,
    set: &ReadSet,
    window: usize,
    t0: Instant,
) -> std::io::Result<TenantRun> {
    let mut tx = UnixStream::connect(socket)?;
    let mut rx = BufReader::new(tx.try_clone()?);
    write_frame(&mut tx, Op::Hello, tenant.as_bytes())?;
    match read_frame(&mut rx)? {
        Some(Frame { op: Op::Ok, .. }) => {}
        other => return Err(proto_err("HELLO refused", other)),
    }
    let n = set.recs.len();
    let mut run = TenantRun {
        recs: Vec::new(),
        answered: 0,
        latencies: Vec::with_capacity(n),
        done_at: Vec::with_capacity(n),
        first_sent: t0.elapsed().as_secs_f64(),
        last_rec: 0.0,
    };
    let mut sent_at = Vec::with_capacity(n);
    let send = |tx: &mut UnixStream, sent_at: &mut Vec<f64>| -> std::io::Result<()> {
        let rec = &set.recs[sent_at.len()];
        sent_at.push(t0.elapsed().as_secs_f64());
        write_frame(tx, Op::Read, &encode_read(&rec.name, &rec.seq, b""))
    };
    while sent_at.len() < window.min(n) {
        send(&mut tx, &mut sent_at)?;
    }
    let mut ended = false;
    loop {
        if sent_at.len() == n && !ended {
            write_frame(&mut tx, Op::End, b"")?;
            ended = true;
        }
        match read_frame(&mut rx)? {
            Some(Frame {
                op: Op::Rec,
                payload,
            }) if run.answered < sent_at.len() => {
                let now = t0.elapsed().as_secs_f64();
                run.latencies.push(now - sent_at[run.answered]);
                run.done_at.push((now, set.recs[run.answered].len()));
                run.last_rec = now;
                run.answered += 1;
                run.recs.extend_from_slice(&payload);
                if sent_at.len() < n {
                    send(&mut tx, &mut sent_at)?;
                }
            }
            Some(Frame { op: Op::Done, .. }) => return Ok(run),
            other => return Err(proto_err("mid-session", other)),
        }
    }
}

/// Launch the daemon, run both tenants against it, drain it and reap it.
pub fn lifetime(bin: &Path, inp: &Inputs, dir: &Path, log: &Path) -> std::io::Result<Lifetime> {
    let socket = dir.join("serve.sock");
    let _ = std::fs::remove_file(&socket);
    let mut args = vec![
        "daemon",
        inp.index.to_str().expect("utf-8 path"),
        "--socket",
    ];
    args.push(socket.to_str().expect("utf-8 path"));
    args.extend(&inp.map_args);
    let clock_before = proc::clock();
    let t0 = Instant::now();
    let mut daemon = proc::spawn(bin, &args, log, Stdio::null())?;
    // Accepting means a connection succeeds; the probe connection is
    // dropped before HELLO, which the daemon treats as a clean EOF.
    let boot_s = loop {
        if UnixStream::connect(&socket).is_ok() {
            break t0.elapsed().as_secs_f64();
        }
        if daemon.try_wait()?.is_some() || t0.elapsed() > Duration::from_secs(60) {
            let _ = daemon.kill();
            proc::reap(daemon);
            return Err(std::io::Error::other("daemon did not start accepting"));
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let t0 = Instant::now();
    let tenants: Vec<std::io::Result<TenantRun>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let socket = &socket;
                s.spawn(move || drive(socket, TENANTS[i], &inp.sets[i], WINDOWS[i], t0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(std::io::Error::other("client panicked")))
            })
            .collect()
    });
    // The daemon is still alive, so its own high-water mark can be read;
    // `ru_maxrss` after the reap is the fallback (see `proc::reap`).
    let hwm_mb = std::fs::read_to_string(format!("/proc/{}/status", daemon.id()))
        .ok()
        .and_then(|s| {
            let kb = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0);
    // Drain whether or not the clients succeeded, so the daemon never
    // outlives the run.
    let drained = UnixStream::connect(&socket).and_then(|mut s| {
        write_frame(&mut s, Op::Drain, b"")?;
        read_frame(&mut s).map(|_| ())
    });
    if drained.is_err() {
        let _ = daemon.kill();
    }
    let (daemon_ok, maxrss_mb) = proc::reap(daemon);
    let peak_rss_mb = hwm_mb.unwrap_or(maxrss_mb);
    let _ = std::fs::remove_file(&socket);
    let clock = 0.5 * (clock_before + proc::clock());
    let mut tenants = tenants.into_iter().collect::<Result<Vec<_>, _>>()?;
    for t in &mut tenants {
        t.latencies.iter_mut().for_each(|l| *l *= clock);
        t.done_at.iter_mut().for_each(|d| d.0 *= clock);
        t.first_sent *= clock;
        t.last_rec *= clock;
    }
    Ok(Lifetime {
        clock,
        boot_s: boot_s * clock,
        peak_rss_mb,
        daemon_ok: daemon_ok && drained.is_ok(),
        tenants,
    })
}
