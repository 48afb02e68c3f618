//! Scheduler property suite (DESIGN.md §11).
//!
//! The length-binned scheduler is pure reordering, so three properties
//! must hold on top of the chaos suite's guarantees:
//!
//! 1. **order restoration** — whatever order batches are dispatched in
//!    (including adversarial seeded permutations of the bin order), the
//!    per-job outcomes come back scattered to their original indices and
//!    every `Done` result is bit-identical to the scalar gold;
//! 2. **routing accounting** — jobs the device statically cannot take are
//!    counted in `sched_host_jobs`, never in `rerouted` (host routing is a
//!    plan, not a recovery), and a clean scheduled run reports no
//!    supervisor interventions;
//! 3. **fault transparency** — with a fault plan injected under the
//!    scheduler, the counters still reconcile exactly: outcomes cover
//!    every job, `quarantined` equals the quarantined outcomes observed,
//!    and a standby-equipped gpu-sim session quarantines nothing.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmm_align::{Layout, Scoring, Width};
use mmm_exec::{
    prepare_supervised, AlignJob, BackendKind, BackendOptions, FaultClass, FaultPlan, JobOutcome,
    SchedConfig, SchedMode, SupervisedBackend, SupervisorConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SC: Scoring = Scoring::MAP_ONT;

/// Shrunken simulated device: straddles the job stream below, so every
/// scheduled run exercises both the device route and the host route.
const TINY_DEVICE_MEM: u64 = 16_384;

fn random_seq(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.random_range(0u32..4) as u8).collect()
}

fn job_stream(n: usize, seed: u64, max_len: usize) -> Vec<AlignJob> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let tlen = rng.random_range(1..max_len);
            let qlen = rng.random_range(1..max_len);
            let t = random_seq(&mut rng, tlen);
            let q = random_seq(&mut rng, qlen);
            AlignJob::global(t, q, i % 2 == 0)
        })
        .collect()
}

fn scalar_gold(job: &AlignJob) -> mmm_align::AlignResult {
    mmm_align::Engine::new(Layout::Manymap, Width::Scalar).align(
        &job.target,
        &job.query,
        &SC,
        job.with_path,
    )
}

fn supervised(kind: BackendKind, device_mem: Option<u64>, plan: Option<&str>) -> SupervisedBackend {
    let mut opts = BackendOptions::new(SC);
    opts.threads = 2;
    opts.device_mem = device_mem;
    opts.fault = plan.map(|p| FaultPlan::parse(p).expect("test plan must parse"));
    let cfg = SupervisorConfig {
        backoff_base: std::time::Duration::ZERO,
        ..Default::default()
    };
    prepare_supervised(kind, &opts, cfg).expect("prepare_supervised")
}

fn bins(permute_seed: Option<u64>) -> SchedConfig {
    SchedConfig {
        mode: SchedMode::Bins,
        // Small budgets force many batches, so permutations actually move
        // work around.
        max_batch_jobs: 5,
        max_batch_cells: 40_000,
        permute_seed,
    }
}

#[test]
fn permuted_bin_dispatch_restores_exact_output_order() {
    let jobs = job_stream(40, 0x5CED, 200);
    let golds: Vec<_> = jobs.iter().map(scalar_gold).collect();
    let sup = supervised(BackendKind::GpuSim, Some(TINY_DEVICE_MEM), None);

    let mut host_routed_seen = false;
    for seed in [None, Some(1), Some(42), Some(0xDEADBEEF), Some(u64::MAX)] {
        let (outcomes, stats) = sup
            .submit_scheduled(jobs.clone(), &bins(seed))
            .expect("scheduled submit");
        assert_eq!(outcomes.len(), jobs.len(), "seed {seed:?}");
        for (i, o) in outcomes.iter().enumerate() {
            match o {
                JobOutcome::Done(r) => assert_eq!(
                    *r, golds[i],
                    "seed {seed:?}: job {i} result out of place or corrupted"
                ),
                JobOutcome::Quarantined { reason } => {
                    panic!("seed {seed:?}: clean run quarantined job {i}: {reason}")
                }
            }
        }
        assert_eq!(stats.jobs, jobs.len() as u64, "seed {seed:?}");
        assert!(stats.sched_batches > 1, "seed {seed:?}: {stats:?}");
        assert_eq!(
            stats.rerouted, 0,
            "seed {seed:?}: host routing must not count as a supervisor reroute"
        );
        assert!(
            !stats.supervised_activity(),
            "seed {seed:?}: clean scheduled run reported interventions: {stats:?}"
        );
        host_routed_seen |= stats.sched_host_jobs > 0;
        // The tiny device must make routing real: some jobs host-routed,
        // but never all of them.
        assert!(
            stats.sched_host_jobs < stats.jobs,
            "seed {seed:?}: every job host-routed — the device saw nothing"
        );
    }
    assert!(
        host_routed_seen,
        "tiny device produced no host-routed jobs; the stream no longer straddles"
    );
}

#[test]
fn fifo_mode_is_an_exact_passthrough() {
    let jobs = job_stream(20, 0xF1F0, 150);
    let sup = supervised(BackendKind::GpuSim, None, None);
    let fifo = SchedConfig::default();
    assert_eq!(fifo.mode, SchedMode::Fifo);
    let (sched_out, sched_stats) = sup.submit_scheduled(jobs.clone(), &fifo).unwrap();
    let (direct_out, direct_stats) = sup.submit_supervised(jobs).unwrap();
    assert_eq!(sched_out, direct_out);
    assert_eq!(sched_stats.sched_batches, 0);
    assert_eq!(sched_stats.sched_host_jobs, 0);
    assert_eq!(sched_stats.jobs, direct_stats.jobs);
    assert_eq!(sched_stats.batches, direct_stats.batches);
}

#[test]
fn scheduling_on_a_cpu_primary_degenerates_gracefully() {
    // The CPU backend has no standby and declares every job eligible, so
    // a scheduled submit is just re-batched supervised execution.
    let jobs = job_stream(15, 0xCB0, 120);
    let golds: Vec<_> = jobs.iter().map(scalar_gold).collect();
    let sup = supervised(BackendKind::Cpu, None, None);
    let (outcomes, stats) = sup.submit_scheduled(jobs, &bins(Some(7))).unwrap();
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(*o, JobOutcome::Done(golds[i].clone()), "job {i}");
    }
    assert_eq!(stats.sched_host_jobs, 0);
    assert!(stats.sched_batches > 0);
}

#[test]
fn chaos_under_the_scheduler_reconciles_counters() {
    let jobs = job_stream(24, 0xC405, 200);
    let golds: Vec<_> = jobs.iter().map(scalar_gold).collect();

    for class in FaultClass::all() {
        // The hang class needs a deadline to be observable; the chaos suite
        // covers it. Here every non-hang class runs under the scheduler.
        if matches!(class, FaultClass::Hang(_)) {
            continue;
        }
        let plan = match class {
            FaultClass::LaunchFail => "launch-fail:every=2",
            FaultClass::MempoolFull => "mempool-full:every=2",
            FaultClass::WrongLen => "wrong-len:every=2",
            FaultClass::Hang(_) => unreachable!(),
        };
        let sup = supervised(BackendKind::GpuSim, Some(TINY_DEVICE_MEM), Some(plan));
        let (outcomes, stats) = sup
            .submit_scheduled(jobs.clone(), &bins(Some(3)))
            .expect("scheduled submit never errors without fail_fast");
        let tag = format!("scheduled gpu-sim under {plan}");

        assert_eq!(outcomes.len(), jobs.len(), "{tag}");
        let mut quarantined = 0u64;
        for (i, o) in outcomes.iter().enumerate() {
            match o {
                JobOutcome::Done(r) => {
                    assert_eq!(*r, golds[i], "{tag}: job {i} corrupted by recovery")
                }
                JobOutcome::Quarantined { .. } => quarantined += 1,
            }
        }
        assert_eq!(
            stats.quarantined, quarantined,
            "{tag}: stats disagree with observed outcomes"
        );
        // A standby-equipped session absorbs every fault class: the
        // scheduler must not open a quarantine hole the plain supervisor
        // does not have.
        assert_eq!(quarantined, 0, "{tag}: standby failed to absorb faults");
        assert_eq!(stats.jobs, jobs.len() as u64, "{tag}");
        assert!(
            stats.retries + stats.rerouted > 0,
            "{tag}: plan injected nothing — the chaos run was a no-op"
        );
    }
}

#[test]
fn scheduled_chaos_is_replayable() {
    let jobs = job_stream(18, 0xD1CE, 160);
    let run = || {
        let sup = supervised(
            BackendKind::GpuSim,
            Some(TINY_DEVICE_MEM),
            Some("launch-fail:p=0.5:seed=99"),
        );
        sup.submit_scheduled(jobs.clone(), &bins(Some(11))).unwrap()
    };
    let (out_a, stats_a) = run();
    let (out_b, stats_b) = run();
    assert_eq!(
        out_a, out_b,
        "seeded scheduled run produced different outcomes"
    );
    assert_eq!(
        stats_a, stats_b,
        "seeded scheduled run produced different counters"
    );
}
