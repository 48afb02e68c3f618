//! Deterministic chaos suite for the supervised backend (DESIGN.md §10).
//!
//! Every fault class the injection layer knows (`FaultClass::all()`) is
//! driven through both backend kinds under supervision, and three
//! properties must hold regardless of the fault:
//!
//! 1. **output integrity** — every job the supervisor reports as `Done`
//!    is bit-identical to the scalar manymap gold; recovery may reroute
//!    or retry, but it must never alter a result;
//! 2. **accounting** — the counters reconcile exactly: outcomes cover
//!    every job, `quarantined` in the stats equals the quarantined
//!    outcomes observed, and a standby-equipped session quarantines
//!    nothing;
//! 3. **determinism** — the same seeded plan over the same job stream
//!    produces the same outcomes and the same counters on a fresh
//!    session (chaos runs are replayable bug reports).
//!
//! A fourth bounds the cost of recovery: one job that fails every
//! submission holding it is isolated by splitting in halves, in at most
//! 2⌈log₂ n⌉ + 1 retries for a batch of n.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use mmm_align::{AlignResult, AlignScratch, Layout, Scoring, Width};
use mmm_exec::{
    prepare, prepare_supervised, AlignBackend, AlignJob, BackendError, BackendKind, BackendOptions,
    BackendStats, BreakerConfig, BreakerState, FaultClass, FaultPlan, JobOutcome,
    SupervisedBackend, SupervisorConfig,
};
use mmm_pipeline::WorkerPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SC: Scoring = Scoring::MAP_ONT;

fn random_seq(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.random_range(0u32..4) as u8).collect()
}

fn job_stream(n: usize, seed: u64, lens: Range<usize>) -> Vec<AlignJob> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let tlen = rng.random_range(lens.clone());
            let qlen = rng.random_range(lens.clone());
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

/// A supervised session whose *primary* runs under the given fault plan.
/// The standby (gpu-sim sessions only) is always clean, as in production.
fn supervised(kind: BackendKind, plan: &str, deadline_ms: Option<u64>) -> SupervisedBackend {
    let mut opts = BackendOptions::new(SC);
    opts.threads = 2;
    opts.fault = Some(FaultPlan::parse(plan).expect("test plan must parse"));
    let cfg = SupervisorConfig {
        // The backoff schedule is still computed (and deterministic); a
        // zero base keeps the chaos suite from actually sleeping.
        backoff_base: Duration::ZERO,
        batch_deadline: deadline_ms.map(Duration::from_millis),
        ..Default::default()
    };
    prepare_supervised(kind, &opts, cfg).expect("prepare_supervised")
}

/// A plan for each fault class that leaves some submits clean, so every
/// run exercises both the failure path and the recovery path. The hang
/// plan wedges only the first submit — each kill costs a full deadline.
fn plan_for(class: FaultClass) -> (&'static str, Option<u64>) {
    match class {
        FaultClass::LaunchFail => ("launch-fail:every=2", None),
        FaultClass::MempoolFull => ("mempool-full:every=2", None),
        FaultClass::Hang => ("hang:ms=2000:batches=0..1", Some(100)),
        FaultClass::WrongLen => ("wrong-len:every=2", None),
    }
}

/// Feed the stream through in fixed-size batches, collecting per-job
/// outcomes and merged stats.
fn run_batches(
    sup: &SupervisedBackend,
    jobs: &[AlignJob],
    batch: usize,
) -> (Vec<JobOutcome>, BackendStats) {
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut stats = BackendStats::default();
    for chunk in jobs.chunks(batch) {
        let (out, st) = sup
            .submit_supervised(chunk.to_vec())
            .expect("supervised submit never errors without fail_fast");
        assert_eq!(out.len(), chunk.len(), "every job must get an outcome");
        assert_eq!(st.jobs, chunk.len() as u64);
        assert_eq!(st.batches, 1, "the wrapper presents one batch per call");
        outcomes.extend(out);
        stats.merge(&st);
    }
    (outcomes, stats)
}

#[test]
fn every_fault_class_on_both_backends_preserves_done_results() {
    let jobs = job_stream(12, 0xC4A05, 1..120);
    let golds: Vec<_> = jobs.iter().map(scalar_gold).collect();

    for kind in [BackendKind::Cpu, BackendKind::GpuSim] {
        for class in FaultClass::all() {
            let (plan, deadline) = plan_for(class);
            let sup = supervised(kind, plan, deadline);
            let (outcomes, stats) = run_batches(&sup, &jobs, 4);
            let tag = format!("{} under {plan}", kind.label());

            let mut quarantined = 0u64;
            for (i, o) in outcomes.iter().enumerate() {
                match o {
                    JobOutcome::Done(r) => {
                        assert_eq!(*r, golds[i], "{tag}: job {i} result corrupted by recovery");
                    }
                    JobOutcome::Quarantined { reason } => {
                        assert!(!reason.is_empty(), "{tag}: empty quarantine reason");
                        quarantined += 1;
                    }
                }
            }
            assert_eq!(
                stats.quarantined, quarantined,
                "{tag}: stats disagree with observed outcomes"
            );
            assert_eq!(stats.jobs, jobs.len() as u64, "{tag}");
            if matches!(kind, BackendKind::GpuSim) {
                // A standby-equipped session must absorb every fault class
                // without losing a single job.
                assert_eq!(quarantined, 0, "{tag}: standby failed to absorb faults");
                assert!(
                    stats.retries + stats.rerouted > 0,
                    "{tag}: plan injected nothing — the chaos run was a no-op"
                );
            }
            if matches!(class, FaultClass::Hang) {
                assert!(
                    stats.deadline_kills >= 1,
                    "{tag}: the watchdog never fired on a wedged submit"
                );
            }
        }
    }
}

#[test]
fn seeded_chaos_runs_are_replayable() {
    let jobs = job_stream(10, 0xD1CE, 1..100);
    let plan = "launch-fail:p=0.5:seed=99";
    let run = || {
        let sup = supervised(BackendKind::GpuSim, plan, None);
        run_batches(&sup, &jobs, 3)
    };
    let (out_a, stats_a) = run();
    let (out_b, stats_b) = run();
    assert_eq!(out_a, out_b, "seeded plan produced different outcomes");
    assert_eq!(stats_a, stats_b, "seeded plan produced different counters");
}

#[test]
fn total_primary_failure_trips_the_breaker_and_loses_nothing() {
    let jobs = job_stream(16, 0xF00D, 1..100);
    let golds: Vec<_> = jobs.iter().map(scalar_gold).collect();
    let sup = supervised(BackendKind::GpuSim, "launch-fail", None);
    let (outcomes, stats) = run_batches(&sup, &jobs, 4);
    for (i, o) in outcomes.iter().enumerate() {
        match o {
            JobOutcome::Done(r) => assert_eq!(*r, golds[i], "job {i}"),
            JobOutcome::Quarantined { reason } => {
                panic!("job {i} quarantined despite a healthy standby: {reason}")
            }
        }
    }
    assert!(stats.breaker_trips >= 1, "breaker never tripped: {stats:?}");
    assert_eq!(
        sup.breaker_state(),
        BreakerState::Open,
        "a 100%-failing primary must be demoted"
    );
    assert_eq!(stats.rerouted, jobs.len() as u64, "{stats:?}");
}

#[test]
fn clean_plan_counts_nothing() {
    // `batches=1000..1001` never matches a real submit: the supervised
    // session must behave exactly like an unsupervised one.
    let jobs = job_stream(8, 0xCAFE, 1..100);
    let golds: Vec<_> = jobs.iter().map(scalar_gold).collect();
    for kind in [BackendKind::Cpu, BackendKind::GpuSim] {
        let sup = supervised(kind, "launch-fail:batches=1000..1001", Some(60_000));
        let (outcomes, stats) = run_batches(&sup, &jobs, 4);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(
                *o,
                JobOutcome::Done(golds[i].clone()),
                "{} job {i}",
                kind.label()
            );
        }
        assert!(
            !stats.supervised_activity(),
            "{}: clean run must report no interventions: {stats:?}",
            kind.label()
        );
    }
}

/// A primary that fails every submission holding one poisoned job, as a
/// kernel bug on one input would; everything else runs on the CPU.
struct Poisoned {
    inner: Box<dyn AlignBackend>,
    poison: AlignJob,
}

fn same_job(a: &AlignJob, b: &AlignJob) -> bool {
    a.target == b.target && a.query == b.query
}

impl AlignBackend for Poisoned {
    fn label(&self) -> &'static str {
        "poisoned"
    }

    fn submit(
        &self,
        jobs: Vec<AlignJob>,
    ) -> Result<(Vec<AlignResult>, BackendStats), BackendError> {
        self.submit_borrowed(&jobs)
    }

    fn submit_borrowed(
        &self,
        jobs: &[AlignJob],
    ) -> Result<(Vec<AlignResult>, BackendStats), BackendError> {
        match jobs.iter().position(|j| same_job(j, &self.poison)) {
            Some(index) => Err(BackendError::JobPanic {
                index,
                message: "poisoned job".into(),
            }),
            None => self.inner.submit_borrowed(jobs),
        }
    }

    fn pool(&self) -> &WorkerPool<AlignScratch> {
        self.inner.pool()
    }
}

#[test]
fn one_poisoned_job_costs_logarithmic_retries() {
    let mut opts = BackendOptions::new(SC);
    opts.threads = 2;
    let cpu = || prepare(BackendKind::Cpu, &opts).expect("cpu backend");
    // A breaker that cannot trip within the bound, so the primary keeps
    // every job but the poisoned one.
    let patient = BreakerConfig {
        window: 64,
        trip_failures: 64,
        cooldown: 8,
    };
    for n in [1usize, 2, 3, 64, 1000] {
        // 20 bases a side or more: no two jobs share their bytes, which the
        // wrapper relies on to find the poisoned one.
        let jobs = job_stream(n, 0xB15EC7 + n as u64, 20..80);
        let golds: Vec<_> = jobs.iter().map(scalar_gold).collect();
        let bound = 2 * u64::from(n.next_power_of_two().trailing_zeros()) + 1;
        for k in [0, n / 2, n - 1] {
            assert_eq!(jobs.iter().filter(|j| same_job(j, &jobs[k])).count(), 1);
            for (standby, breaker) in [
                (false, BreakerConfig::default()),
                (true, BreakerConfig::default()),
                (true, patient),
            ] {
                let tag = format!("n={n} k={k} standby={standby} breaker={breaker:?}");
                let cfg = SupervisorConfig {
                    backoff_base: Duration::ZERO,
                    breaker,
                    ..Default::default()
                };
                let primary = Arc::new(Poisoned {
                    inner: cpu(),
                    poison: jobs[k].clone(),
                });
                let sup = SupervisedBackend::new(
                    primary,
                    standby.then(|| Arc::from(cpu()) as Arc<dyn AlignBackend>),
                    cfg,
                );
                let (outcomes, stats) = sup.submit_supervised(jobs.clone()).expect("supervised");
                assert!(stats.retries <= bound, "{tag}: {} retries", stats.retries);
                for (i, o) in outcomes.iter().enumerate() {
                    match o {
                        JobOutcome::Done(r) => assert_eq!(*r, golds[i], "{tag}: job {i}"),
                        JobOutcome::Quarantined { reason } => {
                            assert!(!standby && i == k, "{tag}: job {i} quarantined: {reason}")
                        }
                    }
                }
                if standby {
                    assert_eq!(stats.quarantined, 0, "{tag}");
                    assert!(stats.rerouted >= 1, "{tag}");
                    if breaker == patient {
                        assert_eq!(stats.rerouted, 1, "{tag}");
                    }
                } else {
                    assert_eq!(stats.quarantined, 1, "{tag}");
                    assert!(
                        matches!(outcomes[k], JobOutcome::Quarantined { .. }),
                        "{tag}"
                    );
                }
            }
        }
    }
}
