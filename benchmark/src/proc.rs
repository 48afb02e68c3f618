//! Running the programs under test: wall time, peak RSS, and stdout with
//! the time each chunk of it arrived.

use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// What one finished child process cost and printed.
pub struct Finished {
    /// The CPU clock over the run, as a multiple of the reference clock:
    /// the mean of [`clock`] before launch and after exit. The times below
    /// are what the wall clock read times this, seconds at the reference
    /// clock.
    pub clock: f64,
    /// Launch to exit.
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub ok: bool,
    pub stdout: Vec<u8>,
    /// `(stdout bytes received so far, seconds since launch)` per read
    /// from the pipe: when each part of the output reached the user.
    pub arrivals: Vec<(usize, f64)>,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reap `child` and return `(exited with 0, peak RSS in MB)`. std's
/// `Child::wait` discards the rusage the kernel hands back, and the peak
/// RSS of a process can only be read reliably once it has ended. The figure
/// is never below this process's own high-water mark when it spawned the
/// child (the kernel carries the mark across `exec`), which is why
/// [`spawn`] resets the mark first and the harness keeps little in memory:
/// every program under test peaks above what is left.
pub fn reap(child: Child) -> (bool, f64) {
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `ru` are valid for writes of their types for the
    // duration of the call, `Rusage` matches the kernel's layout on 64-bit
    // Linux, and the pid is our own un-reaped child (`child` is consumed
    // here, so std never waits on it).
    let got = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
    let exited_ok = got == child.id() as i32 && status == 0;
    (exited_ok, ru.maxrss as f64 / 1024.0)
}

/// Spawn `bin args…` with stderr appended to `stderr_log`.
pub fn spawn(
    bin: &Path,
    args: &[&str],
    stderr_log: &Path,
    stdout: Stdio,
) -> std::io::Result<Child> {
    let log = File::options().create(true).append(true).open(stderr_log)?;
    // Reset this process's peak RSS to its current RSS; see `reap`.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(log)
        .spawn()
}

/// Steps of the probe's chain that make one second at the reference clock.
/// The constant only fixes the unit (this class of host runs at about the
/// reference clock most of the time); comparisons never depend on it.
const REF_STEPS_PER_S: f64 = 625e6;

/// The CPU's clock right now, as a multiple of the reference clock.
///
/// This sandbox's CPUs move between clock states (about 0.8x, 1x and 1.25x
/// of the usual one) every few seconds to minutes, and every timing moves
/// with them by the same factor: run-to-run medians of one command differ
/// by 20 % for no other reason. The clock cannot be pinned from inside the
/// sandbox, so it is measured next to every timed process, with a chain of
/// dependent integer operations whose cycle count is fixed, and times are
/// reported at a reference clock. The fastest of three 6 ms probes is
/// taken, so that a probe cut short by an interrupt does not count.
pub fn clock() -> f64 {
    const STEPS: u64 = 4_000_000;
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
        for i in 0..STEPS {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i) ^ (x >> 29);
        }
        std::hint::black_box(x);
        best = best.min(t.elapsed().as_secs_f64());
    }
    STEPS as f64 / best / REF_STEPS_PER_S
}

/// Run `bin args…` to completion, capturing stdout.
pub fn run(bin: &Path, args: &[&str], stderr_log: &Path) -> std::io::Result<Finished> {
    let clock_before = clock();
    let t0 = Instant::now();
    let mut child = spawn(bin, args, stderr_log, Stdio::piped())?;
    let mut pipe = child.stdout.take().expect("stdout was requested as a pipe");
    let mut stdout = Vec::new();
    let mut arrivals: Vec<(usize, f64)> = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let n = pipe.read(&mut buf)?;
        if n == 0 {
            break;
        }
        stdout.extend_from_slice(&buf[..n]);
        arrivals.push((stdout.len(), t0.elapsed().as_secs_f64()));
    }
    let (ok, peak_rss_mb) = reap(child);
    let wall_s = t0.elapsed().as_secs_f64();
    let clock = 0.5 * (clock_before + clock());
    arrivals.iter_mut().for_each(|a| a.1 *= clock);
    Ok(Finished {
        clock,
        wall_s: wall_s * clock,
        peak_rss_mb,
        ok,
        stdout,
        arrivals,
    })
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated percentile `p` in `[0, 1]` of a non-empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let x = p * (s.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
}
