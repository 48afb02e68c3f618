//! A session spawns at most `threads − 1` align workers, under any fault
//! plan: the submitting thread is worker 0, and a gpu-sim primary and its
//! standby share one host executor, so a breaker that trips after the
//! primary has computed a batch spawns no second worker pool.
//!
//! The count is the operating system's — the entries of `/proc/self/task`
//! — not one the session keeps. This test is alone in its binary, and the
//! sessions set no watchdog deadline (no runner thread), so every thread
//! that appears while a session runs is one of its align workers.
#![cfg(target_os = "linux")]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::{Duration, Instant};

use mmm_align::Scoring;
use mmm_exec::{
    prepare_supervised, AlignJob, BackendKind, BackendOptions, FaultPlan, JobOutcome,
    SupervisorConfig,
};

const THREADS: usize = 2;

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn gpu_sim_sessions_spawn_fewer_workers_than_threads_under_every_fault_plan() {
    let seq = |len: usize, step: usize| {
        (0..len)
            .map(|k| (k * step % 7 % 4) as u8)
            .collect::<Vec<u8>>()
    };
    let jobs: Vec<AlignJob> = (0..96)
        .map(|i| AlignJob::global(seq(20 + i % 7 * 10, 3), seq(25 + i % 5 * 10, 5), i % 2 == 0))
        .collect();
    let base = live_threads();
    // Each plan with whether its breaker trips, so that the standby serves
    // batches after the primary has computed some.
    for (plan, trips_breaker) in [
        ("launch-fail:batches=0..3", true),
        ("launch-fail:every=3", true),
        ("launch-fail:p=0.3:seed=7", true),
        ("wrong-len:batches=0..1", false),
    ] {
        // Joining a dropped session's workers may return a moment before
        // their entries leave `/proc/self/task`.
        let start = Instant::now();
        while live_threads() > base {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "workers outlived their session"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut opts = BackendOptions::new(Scoring::MAP_ONT);
        opts.threads = THREADS;
        opts.fault = Some(FaultPlan::parse(plan).unwrap());
        let cfg = SupervisorConfig {
            backoff_base: Duration::ZERO,
            ..Default::default()
        };
        assert_eq!(cfg.batch_deadline, None, "a watchdog would add a thread");
        let before = live_threads();
        let sup = prepare_supervised(BackendKind::GpuSim, &opts, cfg).unwrap();
        let mut trips = 0;
        for chunk in jobs.chunks(4) {
            let (outcomes, stats) = sup.submit_supervised(chunk.to_vec()).unwrap();
            trips += stats.breaker_trips;
            assert!(
                outcomes.iter().all(|o| matches!(o, JobOutcome::Done(_))),
                "{plan}"
            );
        }
        let workers = live_threads() - before;
        assert!(
            workers < THREADS,
            "{plan}: {workers} spawned align workers at --threads {THREADS} ({trips} breaker trips)"
        );
        assert_eq!(trips > 0, trips_breaker, "{plan}: {trips} breaker trips");
    }
}
