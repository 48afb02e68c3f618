//! The backend supervisor: retries, deadlines, demotion, quarantine.
//!
//! [`SupervisedBackend`] wraps a primary [`AlignBackend`] session (and an
//! optional standby, normally the CPU) and turns whole-batch backend
//! failures into the same per-item degradation discipline the rest of the
//! pipeline uses (DESIGN.md §10):
//!
//! 1. a failed submission is split in halves and each half settled on the
//!    same backend, first the primary, then the standby; a single job is
//!    resubmitted alone a bounded number of times, with deterministic,
//!    seeded exponential backoff between attempts;
//! 2. an optional per-batch deadline is enforced by a watchdog runner
//!    thread — a hung submit is abandoned (its result slot poisoned, its
//!    jobs left to the standby, or with no standby resubmitted once)
//!    instead of wedging the compute thread;
//! 3. a [`CircuitBreaker`] demotes a repeatedly failing primary to the
//!    standby mid-run, with half-open probes to re-promote it (a session
//!    with no standby has no breaker: its failures cost only their jobs);
//! 4. jobs that fail on *every* backend are quarantined and surfaced as
//!    per-job outcomes, never a fatal error (unless `fail_fast` asks for
//!    the old behaviour).
//!
//! Everything the supervisor does is counted in [`BackendStats`] so the
//! CLI and profiler can report interventions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use mmm_align::{AlignResult, AlignScratch};
use mmm_pipeline::{lock_unpoisoned, WorkerPool};

use crate::backend::AlignBackend;
use crate::error::BackendError;
use crate::health::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::job::AlignJob;
use crate::sched::{plan_schedule, Route, SchedConfig, SchedMode};
use crate::stats::BackendStats;
use crate::{splitmix64_mix, SPLITMIX64_GAMMA};

/// Injectable time source so backoff-heavy paths are testable without
/// real sleeping. The watchdog deadline itself uses the real
/// `Condvar::wait_timeout` — it guards against *wall-clock* hangs.
pub trait Clock: Send + Sync {
    fn sleep(&self, d: Duration);
}

/// Production clock: actually sleeps.
#[derive(Debug, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn sleep(&self, d: Duration) {
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// Test clock: records requested sleeps and returns immediately.
#[derive(Debug, Default)]
pub struct TestClock {
    slept: Mutex<Vec<Duration>>,
}

impl TestClock {
    pub fn sleeps(&self) -> Vec<Duration> {
        lock_unpoisoned(&self.slept).clone()
    }
}

impl Clock for TestClock {
    fn sleep(&self, d: Duration) {
        lock_unpoisoned(&self.slept).push(d);
    }
}

/// Supervisor tuning. [`Default`] keeps retries cheap enough for tests;
/// the CLI maps `--backend-retries` and `--batch-deadline-ms` onto this.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Attempts a single job gets alone on the primary once a failed
    /// submission has been split down to it (0 = a failed batch goes to the
    /// standby unsplit).
    pub max_retries: usize,
    /// First backoff delay; attempt `k` waits `base * 2^k` plus seeded
    /// jitter in `[0, base)`.
    pub backoff_base: Duration,
    /// Seed for the deterministic backoff jitter.
    pub backoff_seed: u64,
    /// Watchdog deadline per backend call. `None` disables the watchdog.
    pub batch_deadline: Option<Duration>,
    /// Circuit-breaker tuning for the primary backend.
    pub breaker: BreakerConfig,
    /// Restore the pre-supervisor contract: the first unrecovered backend
    /// error aborts the batch instead of quarantining jobs.
    pub fail_fast: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_seed: 0x5EED_CAFE,
            batch_deadline: None,
            breaker: BreakerConfig::default(),
            fail_fast: false,
        }
    }
}

/// Per-job result of a supervised batch.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome {
    /// The job completed on some backend.
    Done(AlignResult),
    /// The job failed on every available backend and was dropped; `reason`
    /// is the last error seen, for the CLI's degradation accounting.
    Quarantined { reason: String },
}

/// Which backend of a session a submission goes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    Primary,
    Standby,
}

/// How a submission reached the runner thread.
type RunnerWork = (Arc<dyn AlignBackend>, Vec<AlignJob>, Arc<ResultSlot>);

/// One-shot rendezvous between the compute thread and the runner thread.
/// The watchdog poisons it (`Abandoned`) at the deadline; a result arriving
/// later is discarded and counted, never double-completed.
struct ResultSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

enum SlotState {
    Pending,
    Done(Box<Result<(Vec<AlignResult>, BackendStats), BackendError>>),
    Abandoned,
}

impl ResultSlot {
    fn new() -> Self {
        ResultSlot {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
        }
    }
}

/// The detached thread that actually calls `submit` when a deadline is
/// armed. Dropping the sender lets a wedged thread exit once its backend
/// call finally returns.
struct Runner {
    tx: mpsc::Sender<RunnerWork>,
}

fn spawn_runner(late: Arc<AtomicU64>) -> Option<Runner> {
    let (tx, rx) = mpsc::channel::<RunnerWork>();
    let spawned = std::thread::Builder::new()
        .name("mmm-supervisor-runner".into())
        .spawn(move || {
            while let Ok((backend, jobs, slot)) = rx.recv() {
                let res = backend.submit(jobs);
                let mut st = lock_unpoisoned(&slot.state);
                match *st {
                    SlotState::Pending => {
                        *st = SlotState::Done(Box::new(res));
                        slot.cv.notify_all();
                    }
                    // The watchdog already gave up on this call; the result
                    // must not be delivered twice, only counted.
                    SlotState::Abandoned => {
                        late.fetch_add(1, Ordering::Relaxed);
                    }
                    SlotState::Done(_) => {}
                }
            }
        });
    spawned.ok().map(|_| Runner { tx })
}

/// A supervised backend session (DESIGN.md §10).
pub struct SupervisedBackend {
    primary: Arc<dyn AlignBackend>,
    standby: Option<Arc<dyn AlignBackend>>,
    cfg: SupervisorConfig,
    clock: Arc<dyn Clock>,
    /// Present only with a standby: a breaker demotes the primary, and with
    /// nothing to demote to an open one could only quarantine.
    breaker: Option<Mutex<CircuitBreaker>>,
    runner: Mutex<Option<Runner>>,
    /// Results that arrived after their slot was poisoned.
    late: Arc<AtomicU64>,
    late_reported: AtomicU64,
}

impl SupervisedBackend {
    pub fn new(
        primary: Arc<dyn AlignBackend>,
        standby: Option<Arc<dyn AlignBackend>>,
        cfg: SupervisorConfig,
    ) -> Self {
        Self::with_clock(primary, standby, cfg, Arc::new(SystemClock))
    }

    /// Same, with an injected clock (tests).
    pub fn with_clock(
        primary: Arc<dyn AlignBackend>,
        standby: Option<Arc<dyn AlignBackend>>,
        cfg: SupervisorConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let breaker = standby
            .is_some()
            .then(|| Mutex::new(CircuitBreaker::new(cfg.breaker)));
        SupervisedBackend {
            primary,
            standby,
            cfg,
            clock,
            breaker,
            runner: Mutex::new(None),
            late: Arc::new(AtomicU64::new(0)),
            late_reported: AtomicU64::new(0),
        }
    }

    /// The primary backend's name, for run summaries.
    pub fn label(&self) -> &'static str {
        self.primary.label()
    }

    /// The primary's [`AlignBackend::pool`], which its standby shares.
    pub fn pool(&self) -> &WorkerPool<AlignScratch> {
        self.primary.pool()
    }

    /// Current breaker state (stats, tests); `Closed` with no standby.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker().map_or(BreakerState::Closed, |b| b.state())
    }

    /// The breaker, locked; `None` with no standby.
    fn breaker(&self) -> Option<MutexGuard<'_, CircuitBreaker>> {
        self.breaker.as_ref().map(lock_unpoisoned)
    }

    /// Deterministic backoff before retry `attempt` of job `salt`.
    fn backoff(&self, attempt: usize, salt: u64) -> Duration {
        let base = self.cfg.backoff_base;
        let exp = 1u32 << attempt.min(10) as u32;
        let jitter_ns = if base.is_zero() {
            0
        } else {
            let key = self.cfg.backoff_seed ^ salt.rotate_left(17) ^ attempt as u64;
            splitmix64_mix(key.wrapping_add(SPLITMIX64_GAMMA)) % base.as_nanos().max(1) as u64
        };
        base * exp + Duration::from_nanos(jitter_ns)
    }

    /// One backend call, watched. Without a deadline the backend borrows
    /// the jobs; with one, the call runs on the runner thread, which may
    /// outlive it and so gets its own copy, and is abandoned (slot
    /// poisoned, runner replaced) if it outlives the budget.
    fn guarded_submit(
        &self,
        backend: &Arc<dyn AlignBackend>,
        jobs: &[AlignJob],
        stats: &mut BackendStats,
    ) -> Result<Vec<AlignResult>, BackendError> {
        let expected = jobs.len();
        let outcome = match self.cfg.batch_deadline {
            None => backend.submit_borrowed(jobs),
            Some(deadline) => self.watched_submit(backend, jobs.to_vec(), deadline, stats),
        };
        let (results, inner) = outcome?;
        stats.merge(&inner);
        if results.len() != expected {
            return Err(BackendError::WrongResultCount {
                expected,
                got: results.len(),
            });
        }
        Ok(results)
    }

    fn watched_submit(
        &self,
        backend: &Arc<dyn AlignBackend>,
        jobs: Vec<AlignJob>,
        deadline: Duration,
        stats: &mut BackendStats,
    ) -> Result<(Vec<AlignResult>, BackendStats), BackendError> {
        let mut runner = lock_unpoisoned(&self.runner);
        if runner.is_none() {
            *runner = spawn_runner(Arc::clone(&self.late));
        }
        let Some(r) = runner.as_ref() else {
            // Could not spawn a watchdog thread: degrade to an unwatched
            // call rather than failing the batch.
            return backend.submit(jobs);
        };
        let slot = Arc::new(ResultSlot::new());
        if let Err(send_err) = r.tx.send((Arc::clone(backend), jobs, Arc::clone(&slot))) {
            // The runner thread died; recover the jobs, run unwatched, and
            // respawn next time.
            *runner = None;
            let (_, jobs, _) = send_err.0;
            return backend.submit(jobs);
        }

        let guard = lock_unpoisoned(&slot.state);
        let (mut st, timeout) = slot
            .cv
            .wait_timeout_while(guard, deadline, |s| matches!(s, SlotState::Pending))
            .unwrap_or_else(PoisonError::into_inner);
        if matches!(*st, SlotState::Pending) && timeout.timed_out() {
            *st = SlotState::Abandoned;
            stats.deadline_kills += 1;
            // Drop the wedged runner: its sender disconnects, so the thread
            // exits once the hung submit returns (and is counted late).
            *runner = None;
            return Err(BackendError::DeadlineExceeded);
        }
        match std::mem::replace(&mut *st, SlotState::Abandoned) {
            SlotState::Done(res) => *res,
            // Pending here would mean a spurious non-timeout wake with no
            // result; treat as a kill to stay safe.
            _ => {
                stats.deadline_kills += 1;
                *runner = None;
                Err(BackendError::DeadlineExceeded)
            }
        }
    }

    /// Execute a batch under supervision. Every job gets an outcome; the
    /// only `Err` paths are `fail_fast` aborts.
    pub fn submit_supervised(
        &self,
        jobs: Vec<AlignJob>,
    ) -> Result<(Vec<JobOutcome>, BackendStats), BackendError> {
        let n = jobs.len();
        let cells: u64 = jobs.iter().map(AlignJob::cells).sum();
        let mut inner = BackendStats::default();
        let mut outcomes: Vec<Option<JobOutcome>> = (0..n).map(|_| None).collect();
        let trips_before = self.breaker().map_or(0, |b| b.trips());

        if n > 0 {
            let all: Vec<usize> = (0..n).collect();
            self.settle(Side::Primary, &jobs, &all, false, &mut outcomes, &mut inner)?;
            let pending: Vec<usize> = (0..n).filter(|&i| outcomes[i].is_none()).collect();
            if self.standby.is_some() {
                inner.rerouted += pending.len() as u64;
                self.settle(
                    Side::Standby,
                    &jobs,
                    &pending,
                    false,
                    &mut outcomes,
                    &mut inner,
                )?;
            } else {
                for &i in &pending {
                    outcomes[i] = Some(JobOutcome::Quarantined {
                        reason: "primary failed and no standby backend".into(),
                    });
                }
            }
        }

        let mut stats = inner;
        // The wrapper presents one batch of n jobs regardless of how many
        // inner submissions the recovery needed.
        stats.batches = 1;
        stats.jobs = n as u64;
        stats.cells = cells;
        stats.breaker_trips = self.breaker().map_or(0, |b| b.trips()) - trips_before;
        let late_total = self.late.load(Ordering::Relaxed);
        stats.late_results = late_total - self.late_reported.swap(late_total, Ordering::Relaxed);
        let quarantined = outcomes
            .iter()
            .filter(|o| matches!(o, Some(JobOutcome::Quarantined { .. })))
            .count();
        stats.quarantined = quarantined as u64;
        let outcomes: Vec<JobOutcome> = outcomes
            .into_iter()
            .map(|o| {
                o.unwrap_or(JobOutcome::Quarantined {
                    reason: "job lost by supervisor (bug)".into(),
                })
            })
            .collect();
        Ok((outcomes, stats))
    }

    /// Execute a batch through the length-binned scheduler (DESIGN.md §11):
    /// jobs are binned by DP size, bins are chunked under the config's
    /// batch budgets, device-eligible batches run through the full
    /// supervision ladder on the primary, and statically ineligible jobs
    /// are routed to the standby host executor pre-batch. Per-job outcomes
    /// are scattered back to their original indices, so callers observe
    /// exactly the [`submit_supervised`](Self::submit_supervised) contract
    /// — in `Fifo` mode this *is* a passthrough to it.
    pub fn submit_scheduled(
        &self,
        jobs: Vec<AlignJob>,
        sched: &SchedConfig,
    ) -> Result<(Vec<JobOutcome>, BackendStats), BackendError> {
        if sched.mode == SchedMode::Fifo || jobs.is_empty() {
            return self.submit_supervised(jobs);
        }
        let plan = plan_schedule(&jobs, |j| self.primary.device_eligible(j), sched);
        let n = jobs.len();
        let mut outcomes: Vec<Option<JobOutcome>> = (0..n).map(|_| None).collect();
        let mut stats = BackendStats::default();
        for batch in &plan.batches {
            let batch_jobs: Vec<AlignJob> =
                batch.indices.iter().map(|&i| jobs[i].clone()).collect();
            let (os, st) = match batch.route {
                Route::Primary => self.submit_supervised(batch_jobs)?,
                Route::Host => self.submit_host(batch_jobs)?,
            };
            stats.merge(&st);
            if batch.route == Route::Host {
                stats.sched_host_jobs += batch.indices.len() as u64;
            }
            for (&i, o) in batch.indices.iter().zip(os) {
                outcomes[i] = Some(o);
            }
        }
        stats.sched_batches = plan.batches.len() as u64;
        let outcomes: Vec<JobOutcome> = outcomes
            .into_iter()
            .map(|o| {
                o.unwrap_or(JobOutcome::Quarantined {
                    reason: "job lost by scheduler (bug)".into(),
                })
            })
            .collect();
        Ok((outcomes, stats))
    }

    /// Execute a host-routed scheduled batch: the standby executor first
    /// (the jobs are statically ineligible for the primary's device, so
    /// attempting it would only force its internal fallback), with the full
    /// supervision ladder as the recovery path if the standby itself fails.
    fn submit_host(
        &self,
        jobs: Vec<AlignJob>,
    ) -> Result<(Vec<JobOutcome>, BackendStats), BackendError> {
        let Some(standby) = self.standby.as_ref() else {
            // No standby means the primary is already the host executor.
            return self.submit_supervised(jobs);
        };
        let standby = Arc::clone(standby);
        let cells: u64 = jobs.iter().map(AlignJob::cells).sum();
        let n = jobs.len();
        let mut stats = BackendStats::default();
        match self.guarded_submit(&standby, &jobs, &mut stats) {
            Ok(results) => {
                stats.batches = 1;
                stats.jobs = n as u64;
                stats.cells = cells;
                Ok((results.into_iter().map(JobOutcome::Done).collect(), stats))
            }
            Err(e) if self.cfg.fail_fast => Err(e),
            Err(_) => {
                // The host executor refused a whole batch (injected fault,
                // panic): degrade to the ordinary ladder, which settles the
                // batch by halves and quarantines what no backend serves.
                // The failed attempt's counters (e.g. a deadline kill) ride
                // along.
                let (outcomes, mut inner) = self.submit_supervised(jobs)?;
                inner.merge(&stats);
                Ok((outcomes, inner))
            }
        }
    }

    /// The breaker's gate before a submission on `side`; the standby is
    /// always open.
    fn may_submit(&self, side: Side) -> bool {
        side == Side::Standby || self.breaker().is_none_or(|b| b.allow_primary())
    }

    /// Settle `set` (ascending job indices) on one backend (DESIGN.md
    /// §10.1): submit it, and if that fails, sleep one backoff and settle
    /// its left half, then its right half. A single job is resubmitted
    /// alone until it has had its attempts alone: `max_retries` on the
    /// primary, one on the standby. A set that hit the watchdog deadline
    /// is not resubmitted to the same backend if a standby can take it; a
    /// session with no standby resubmits it once, whole, and only a second
    /// deadline on it quarantines it. Once the breaker refuses the primary
    /// the rest of the set is left to the standby. Jobs the primary leaves
    /// unresolved keep no outcome; jobs the standby cannot serve are
    /// quarantined. `resubmit` says whether the first submission of `set`
    /// is itself a retry.
    fn settle(
        &self,
        side: Side,
        jobs: &[AlignJob],
        set: &[usize],
        resubmit: bool,
        outcomes: &mut [Option<JobOutcome>],
        stats: &mut BackendStats,
    ) -> Result<(), BackendError> {
        let (backend, alone) = match (side, &self.standby) {
            (Side::Primary, _) => (&self.primary, self.cfg.max_retries),
            (Side::Standby, Some(standby)) => (standby, 1),
            (Side::Standby, None) => return Ok(()),
        };
        if set.is_empty() || !self.may_submit(side) {
            return Ok(());
        }
        let (mut failures, mut deadlines) = (0, 0);
        loop {
            let retry = resubmit || failures > 0;
            stats.retries += u64::from(retry);
            if side == Side::Standby {
                if let Some(mut b) = self.breaker() {
                    b.note_standby_submit();
                }
            }
            let submitted = self.submit_set(backend, jobs, set, stats);
            if side == Side::Primary {
                if let Some(mut b) = self.breaker() {
                    b.record(submitted.is_ok());
                }
            }
            let err = match submitted {
                Ok(results) => {
                    if retry || side == Side::Standby {
                        stats.retried_ok += set.len() as u64;
                    }
                    for (&i, r) in set.iter().zip(results) {
                        outcomes[i] = Some(JobOutcome::Done(r));
                    }
                    return Ok(());
                }
                Err(e) if self.cfg.fail_fast => return Err(e),
                Err(e) => e,
            };
            failures += 1;
            let single = set.len() == 1;
            let deadline = matches!(err, BackendError::DeadlineExceeded);
            deadlines += usize::from(deadline);
            // A wedged backend is not resubmitted: each try could burn
            // another full deadline. With no standby the alternative is to
            // quarantine the set, so it gets one whole try more first.
            let last_try = deadline && deadlines == 1 && alone > 0 && self.standby.is_none();
            if (deadline && !last_try) || alone == 0 || (single && failures >= alone) {
                if side == Side::Standby {
                    for &i in set {
                        outcomes[i] = Some(JobOutcome::Quarantined {
                            reason: format!("all backends failed, last: {err}"),
                        });
                    }
                }
                return Ok(());
            }
            if !self.may_submit(side) {
                return Ok(());
            }
            self.clock.sleep(self.backoff(failures - 1, set[0] as u64));
            if !single && !last_try {
                let (left, right) = set.split_at(set.len() / 2);
                self.settle(side, jobs, left, true, outcomes, stats)?;
                return self.settle(side, jobs, right, true, outcomes, stats);
            }
        }
    }

    /// One watched submission of the jobs at `set`: a contiguous run of
    /// indices (every primary set) is lent in place, any other set is
    /// gathered into one batch.
    fn submit_set(
        &self,
        backend: &Arc<dyn AlignBackend>,
        jobs: &[AlignJob],
        set: &[usize],
        stats: &mut BackendStats,
    ) -> Result<Vec<AlignResult>, BackendError> {
        let (first, last) = (set[0], set[set.len() - 1]);
        if last - first + 1 == set.len() {
            return self.guarded_submit(backend, &jobs[first..=last], stats);
        }
        let batch: Vec<AlignJob> = set.iter().map(|&i| jobs[i].clone()).collect();
        self.guarded_submit(backend, &batch, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{prepare, BackendKind, BackendOptions};
    use crate::fault::FaultPlan;
    use mmm_align::Scoring;

    fn test_jobs(n: usize) -> Vec<AlignJob> {
        (0..n)
            .map(|k| {
                AlignJob::global(
                    (0..60)
                        .map(|i| ((i * 3 + k) % 4) as u8)
                        .collect::<Vec<u8>>(),
                    (0..50)
                        .map(|i| ((i * 7 + k) % 4) as u8)
                        .collect::<Vec<u8>>(),
                    true,
                )
            })
            .collect()
    }

    fn cpu_with_plan(plan: Option<&str>) -> Arc<dyn AlignBackend> {
        let mut opts = BackendOptions::new(Scoring::MAP_ONT);
        opts.fault = plan.map(|p| FaultPlan::parse(p).expect("test plan"));
        Arc::from(prepare(BackendKind::Cpu, &opts).expect("cpu backend"))
    }

    fn expected_results(jobs: &[AlignJob]) -> Vec<AlignResult> {
        let (results, _) = cpu_with_plan(None)
            .submit(jobs.to_vec())
            .expect("clean run");
        results
    }

    #[test]
    fn clean_batch_passes_through_untouched() {
        let sup = SupervisedBackend::with_clock(
            cpu_with_plan(None),
            None,
            SupervisorConfig::default(),
            Arc::new(TestClock::default()),
        );
        let jobs = test_jobs(4);
        let (outcomes, stats) = sup.submit_supervised(jobs.clone()).expect("supervised");
        let gold = expected_results(&jobs);
        for (o, g) in outcomes.iter().zip(&gold) {
            assert_eq!(*o, JobOutcome::Done(g.clone()));
        }
        assert_eq!(stats.jobs, 4);
        assert_eq!(stats.batches, 1);
        assert!(!stats.supervised_activity(), "{stats:?}");
    }

    /// A primary that only lends its jobs: the owning `submit` panics.
    struct BorrowOnly(Arc<dyn AlignBackend>);

    impl AlignBackend for BorrowOnly {
        fn label(&self) -> &'static str {
            "borrow-only"
        }

        fn submit(
            &self,
            _jobs: Vec<AlignJob>,
        ) -> Result<(Vec<AlignResult>, BackendStats), BackendError> {
            panic!("a clean supervised batch copied its jobs into `submit`");
        }

        fn submit_borrowed(
            &self,
            jobs: &[AlignJob],
        ) -> Result<(Vec<AlignResult>, BackendStats), BackendError> {
            self.0.submit_borrowed(jobs)
        }

        fn pool(&self) -> &WorkerPool<AlignScratch> {
            self.0.pool()
        }
    }

    /// With no watchdog deadline armed, the primary attempt borrows the
    /// batch: neither a supervised nor a fifo-scheduled submission (what
    /// `manymap map` calls) reaches the owning `submit`.
    #[test]
    fn clean_batch_lends_its_jobs_to_the_primary() {
        let sup = SupervisedBackend::with_clock(
            Arc::new(BorrowOnly(cpu_with_plan(None))),
            None,
            SupervisorConfig::default(),
            Arc::new(TestClock::default()),
        );
        let jobs = test_jobs(4);
        let gold: Vec<JobOutcome> = expected_results(&jobs)
            .into_iter()
            .map(JobOutcome::Done)
            .collect();
        let (outcomes, stats) = sup.submit_supervised(jobs.clone()).expect("supervised");
        assert_eq!(outcomes, gold);
        assert!(!stats.supervised_activity(), "{stats:?}");
        let (outcomes, _) = sup
            .submit_scheduled(jobs, &SchedConfig::default())
            .expect("scheduled");
        assert_eq!(outcomes, gold);
    }

    #[test]
    fn failed_batch_recovers_by_halves() {
        // Submit 0 (the whole batch) fails; its halves (submits 1 and 2)
        // succeed on the same backend after one backoff.
        let clock = Arc::new(TestClock::default());
        let sup = SupervisedBackend::with_clock(
            cpu_with_plan(Some("launch-fail:batches=0..1")),
            None,
            SupervisorConfig::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let jobs = test_jobs(3);
        let (outcomes, stats) = sup.submit_supervised(jobs.clone()).expect("supervised");
        let gold = expected_results(&jobs);
        for (o, g) in outcomes.iter().zip(&gold) {
            assert_eq!(*o, JobOutcome::Done(g.clone()));
        }
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.retried_ok, 3);
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.jobs, 3);
        // One backoff sleep before the split, and the schedule replays
        // exactly.
        assert_eq!(clock.sleeps().len(), 1);
        let clock2 = Arc::new(TestClock::default());
        let sup2 = SupervisedBackend::with_clock(
            cpu_with_plan(Some("launch-fail:batches=0..1")),
            None,
            SupervisorConfig::default(),
            Arc::clone(&clock2) as Arc<dyn Clock>,
        );
        sup2.submit_supervised(jobs).expect("supervised");
        assert_eq!(clock.sleeps(), clock2.sleeps(), "backoff not deterministic");
    }

    /// A primary that fails every submission holding one poisoned job, as
    /// a kernel bug on one input would.
    struct Poisoned {
        inner: Arc<dyn AlignBackend>,
        poison: AlignJob,
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
            let poison = &self.poison;
            match jobs
                .iter()
                .position(|j| j.target == poison.target && j.query == poison.query)
            {
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

    /// A session with no standby (`--backend cpu`) has nothing to demote
    /// its primary to: a job every submission fails on costs that job
    /// alone, and the next batch runs on the primary.
    #[test]
    fn no_standby_failures_quarantine_only_their_job() {
        let jobs = test_jobs(4);
        let sup = SupervisedBackend::with_clock(
            Arc::new(Poisoned {
                inner: cpu_with_plan(None),
                poison: jobs[0].clone(),
            }),
            None,
            SupervisorConfig::default(),
            Arc::new(TestClock::default()),
        );
        let gold = expected_results(&jobs);
        let (outcomes, stats) = sup.submit_supervised(jobs.clone()).expect("supervised");
        assert!(
            matches!(outcomes[0], JobOutcome::Quarantined { .. }),
            "{:?}",
            outcomes[0]
        );
        for (o, g) in outcomes[1..].iter().zip(&gold[1..]) {
            assert_eq!(*o, JobOutcome::Done(g.clone()));
        }
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.breaker_trips, 0);
        let (outcomes, stats) = sup
            .submit_supervised(jobs[1..].to_vec())
            .expect("supervised");
        let done: Vec<JobOutcome> = gold[1..].iter().cloned().map(JobOutcome::Done).collect();
        assert_eq!(outcomes, done);
        assert!(!stats.supervised_activity(), "{stats:?}");
    }

    #[test]
    fn wrong_length_result_is_caught_and_retried() {
        let sup = SupervisedBackend::with_clock(
            cpu_with_plan(Some("wrong-len:batches=0..1")),
            None,
            SupervisorConfig::default(),
            Arc::new(TestClock::default()),
        );
        let jobs = test_jobs(3);
        let (outcomes, stats) = sup.submit_supervised(jobs.clone()).expect("supervised");
        let gold = expected_results(&jobs);
        for (o, g) in outcomes.iter().zip(&gold) {
            assert_eq!(*o, JobOutcome::Done(g.clone()));
        }
        assert_eq!(stats.quarantined, 0);
        assert!(stats.retried_ok >= 1);
    }

    #[test]
    fn total_primary_failure_demotes_to_standby_and_trips_breaker() {
        let cfg = SupervisorConfig {
            breaker: BreakerConfig {
                window: 4,
                trip_failures: 2,
                cooldown: 100,
            },
            ..Default::default()
        };
        let sup = SupervisedBackend::with_clock(
            cpu_with_plan(Some("launch-fail")),
            Some(cpu_with_plan(None)),
            cfg,
            Arc::new(TestClock::default()),
        );
        let jobs = test_jobs(3);
        let (outcomes, stats) = sup.submit_supervised(jobs.clone()).expect("supervised");
        let gold = expected_results(&jobs);
        for (o, g) in outcomes.iter().zip(&gold) {
            assert_eq!(*o, JobOutcome::Done(g.clone()));
        }
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.rerouted, 3);
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(sup.breaker_state(), BreakerState::Open);
        // Next batch goes straight to the standby, no primary attempts.
        let (_, stats2) = sup.submit_supervised(jobs).expect("supervised");
        assert_eq!(stats2.rerouted, 3);
        assert_eq!(stats2.retries, 0);
        assert_eq!(stats2.breaker_trips, 0);
    }

    #[test]
    fn half_open_probe_repromotes_recovered_primary() {
        let cfg = SupervisorConfig {
            max_retries: 0,
            breaker: BreakerConfig {
                window: 1,
                trip_failures: 1,
                cooldown: 1,
            },
            ..Default::default()
        };
        // Primary fails submits 0..2, healthy afterwards.
        let sup = SupervisedBackend::with_clock(
            cpu_with_plan(Some("launch-fail:batches=0..2")),
            Some(cpu_with_plan(None)),
            cfg,
            Arc::new(TestClock::default()),
        );
        let jobs = test_jobs(2);
        // Batch 1: trips open, reroutes; cooldown=1 moves it to half-open.
        let (_, s1) = sup.submit_supervised(jobs.clone()).expect("b1");
        assert_eq!(s1.breaker_trips, 1);
        assert_eq!(sup.breaker_state(), BreakerState::HalfOpen);
        // Batch 2: probe (submit 1) fails, reopen, reroute, half-open again.
        let (_, s2) = sup.submit_supervised(jobs.clone()).expect("b2");
        assert_eq!(s2.breaker_trips, 0, "failed probe is not a new trip");
        assert_eq!(sup.breaker_state(), BreakerState::HalfOpen);
        // Batch 3: probe (submit 2) succeeds → closed, served by primary.
        let (outcomes, s3) = sup.submit_supervised(jobs.clone()).expect("b3");
        assert_eq!(sup.breaker_state(), BreakerState::Closed);
        assert_eq!(s3.rerouted, 0);
        let gold = expected_results(&jobs);
        for (o, g) in outcomes.iter().zip(&gold) {
            assert_eq!(*o, JobOutcome::Done(g.clone()));
        }
    }

    #[test]
    fn exhausted_backends_quarantine_instead_of_erroring() {
        let clock = Arc::new(TestClock::default());
        let sup = SupervisedBackend::with_clock(
            cpu_with_plan(Some("launch-fail")),
            None,
            SupervisorConfig::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let n = 2;
        let (outcomes, stats) = sup.submit_supervised(test_jobs(n)).expect("supervised");
        assert_eq!(stats.quarantined, n as u64);
        for o in &outcomes {
            assert!(matches!(o, JobOutcome::Quarantined { .. }), "{o:?}");
        }
        // Splitting down to single jobs waits at most `max_retries`
        // backoffs per job.
        assert!(clock.sleeps().len() <= 2 * n, "{:?}", clock.sleeps());
    }

    #[test]
    fn fail_fast_restores_fatal_errors() {
        let cfg = SupervisorConfig {
            fail_fast: true,
            ..Default::default()
        };
        let sup = SupervisedBackend::with_clock(
            cpu_with_plan(Some("launch-fail")),
            None,
            cfg,
            Arc::new(TestClock::default()),
        );
        let err = sup.submit_supervised(test_jobs(2)).expect_err("fail fast");
        assert!(matches!(err, BackendError::Injected { .. }), "{err:?}");
    }

    #[test]
    fn hang_is_killed_by_deadline_and_rerouted() {
        let cfg = SupervisorConfig {
            batch_deadline: Some(Duration::from_millis(40)),
            ..Default::default()
        };
        let sup = SupervisedBackend::with_clock(
            cpu_with_plan(Some("hang:ms=400:batches=0..1")),
            Some(cpu_with_plan(None)),
            cfg,
            Arc::new(TestClock::default()),
        );
        let jobs = test_jobs(2);
        let start = std::time::Instant::now();
        let (outcomes, stats) = sup.submit_supervised(jobs.clone()).expect("supervised");
        assert!(
            start.elapsed() < Duration::from_millis(350),
            "watchdog did not cut the hang short"
        );
        assert_eq!(stats.deadline_kills, 1);
        assert_eq!(stats.rerouted, 2);
        assert_eq!(stats.quarantined, 0);
        let gold = expected_results(&jobs);
        for (o, g) in outcomes.iter().zip(&gold) {
            assert_eq!(*o, JobOutcome::Done(g.clone()));
        }
        // The abandoned submit eventually completes on the runner thread
        // and must be discarded, not delivered: wait for the late counter.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while sup.late.load(Ordering::Relaxed) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "late result never counted"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let (_, stats2) = sup.submit_supervised(jobs).expect("second batch");
        assert_eq!(stats2.late_results, 1);
        assert_eq!(stats2.deadline_kills, 0);
    }

    /// With no standby, a set the watchdog killed once is resubmitted
    /// whole to the primary, not quarantined (DESIGN.md §10.1).
    #[test]
    fn no_standby_resubmits_a_killed_set_once() {
        let cfg = SupervisorConfig {
            batch_deadline: Some(Duration::from_millis(40)),
            ..Default::default()
        };
        let sup = SupervisedBackend::with_clock(
            cpu_with_plan(Some("hang:ms=400:batches=0..1")),
            None,
            cfg,
            Arc::new(TestClock::default()),
        );
        let jobs = test_jobs(4);
        let (outcomes, stats) = sup.submit_supervised(jobs.clone()).expect("supervised");
        let gold = expected_results(&jobs);
        for (o, g) in outcomes.iter().zip(&gold) {
            assert_eq!(*o, JobOutcome::Done(g.clone()));
        }
        assert_eq!(stats.deadline_kills, 1);
        assert_eq!(stats.retries, 1, "one whole resubmission, no split");
        assert_eq!(stats.retried_ok, 4);
        assert_eq!(stats.quarantined, 0);
    }

    /// A second deadline on the resubmitted set quarantines it.
    #[test]
    fn no_standby_quarantines_a_set_killed_twice() {
        let cfg = SupervisorConfig {
            batch_deadline: Some(Duration::from_millis(40)),
            ..Default::default()
        };
        let sup = SupervisedBackend::with_clock(
            cpu_with_plan(Some("hang:ms=400:batches=0..2")),
            None,
            cfg,
            Arc::new(TestClock::default()),
        );
        let (outcomes, stats) = sup.submit_supervised(test_jobs(4)).expect("supervised");
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, JobOutcome::Quarantined { .. })));
        assert_eq!(stats.deadline_kills, 2);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.quarantined, 4);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let sup = SupervisedBackend::with_clock(
            cpu_with_plan(Some("launch-fail")),
            None,
            SupervisorConfig::default(),
            Arc::new(TestClock::default()),
        );
        let (outcomes, stats) = sup.submit_supervised(Vec::new()).expect("empty");
        assert!(outcomes.is_empty());
        assert_eq!(stats.jobs, 0);
        assert_eq!(stats.quarantined, 0);
    }
}
