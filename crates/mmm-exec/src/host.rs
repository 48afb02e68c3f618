//! The one production backend. A session's host executor owns `threads`
//! persistent workers ([`WorkerPool`]), each with one [`AlignScratch`]
//! arena, started by the first submit and joined when the last session
//! holding the executor is dropped — so a daemon or a streaming run that
//! submits once per read batch spawns its workers once, and a `gpu-sim`
//! session's standby spawns none of its own.
//!
//! Small jobs run in lane groups, one job per vector lane
//! ([`Engine::align_group_with_scratch`]) of the engine's tier or, for
//! larger ones, of a narrower tier; a group too empty for its tier moves on
//! to the next narrower one, and what no tier groups runs pair by pair. All
//! of them return the same bytes, so the split changes speed, never
//! results.

use std::ops::Range;
use std::sync::Arc;

use mmm_align::{AlignResult, AlignScratch, Engine, GroupJob, Scoring, Width};
use mmm_pipeline::WorkerPool;

use crate::backend::{AlignBackend, BackendKind, BackendOptions};
use crate::error::BackendError;
use crate::fault::FaultHook;
use crate::job::AlignJob;
use crate::meter::DeviceMeter;
use crate::stats::BackendStats;

/// Align a batch of jobs serially, reusing the caller's scratch arena: the
/// pair-by-pair path whose results every session's lane groups equal.
pub fn align_jobs_with_scratch(
    engine: Engine,
    jobs: &[AlignJob],
    sc: &Scoring,
    scratch: &mut AlignScratch,
) -> Vec<AlignResult> {
    jobs.iter()
        .map(|j| engine.align_with_scratch(&j.target, &j.query, sc, j.mode, j.with_path, scratch))
        .collect()
}

/// Padded cells a lane group may span (`lanes × max|T| × max|Q|`). Its
/// direction block, held by each worker's arena, takes half a byte per
/// cell — 512 KiB, by which every worker's peak RSS may grow (DESIGN
/// §4.1c). It caps a grouped job's longer side at `√(GROUP_CELLS / lanes)`:
/// 128, 181 and 256 at 64, 32 and 16 lanes.
const GROUP_CELLS: usize = 1 << 20;

/// A lane group whose live cells fall below this share of the cells it
/// computes is not run at its tier — in practice a batch's last,
/// part-filled group of a tier. Its jobs join the next narrower tier, whose
/// fewer lanes they may fill, or run pair by pair after the narrowest
/// (DESIGN §4.1c has the measurement).
const MIN_OCCUPANCY: f64 = 0.5;

/// One worker-pool item: a run of [`Plan::jobs`] aligned as one lane group
/// by `group`'s kernel, or (`group == None`) a single job aligned alone.
struct Unit {
    span: Range<usize>,
    group: Option<Engine>,
    /// Cells the item computes, padding included: its scheduling weight.
    cells: u64,
}

/// How a batch runs: job indices in unit order, the units (each a run of
/// them, in order), and the lane-group counters.
struct Plan {
    jobs: Vec<usize>,
    units: Vec<Unit>,
    stats: BackendStats,
}

impl Plan {
    /// Group what pays to group. A job is groupable when both its sides are
    /// non-empty; it goes to the widest group tier — `engine`'s
    /// own, or a narrower one still available — whose cap fits its longer
    /// side, or runs alone when none does. Each tier, widest first, sorts
    /// its jobs by (longer side, shorter side), cuts them into groups of its
    /// lanes and keeps each group that is full enough. A group that is not
    /// cascades its jobs to the next narrower tier (whose cap is larger, so
    /// they fit); after the narrowest they run alone. An engine without a
    /// group kernel runs every job alone.
    fn new(jobs: &[AlignJob], engine: Engine) -> Plan {
        let own = engine.group_lanes().unwrap_or(0);
        let tiers: Vec<(Engine, usize)> = [Width::Avx512, Width::Avx2, Width::Sse]
            .into_iter()
            .filter(|&w| w.lanes() <= own && (w == engine.width || w.is_available()))
            .map(|w| {
                (
                    Engine::new(engine.layout, w),
                    (GROUP_CELLS / w.lanes()).isqrt(),
                )
            })
            .collect();
        let mut plan = Plan {
            jobs: Vec::with_capacity(jobs.len()),
            units: Vec::new(),
            stats: BackendStats::default(),
        };
        let mut tiered: Vec<Vec<usize>> = vec![Vec::new(); tiers.len()];
        for (i, j) in jobs.iter().enumerate() {
            let side = j.target.len().max(j.query.len());
            let groupable = j.target.len().min(j.query.len()) > 0;
            match tiers.iter().position(|&(_, cap)| side <= cap) {
                Some(t) if groupable => tiered[t].push(i),
                _ => plan.push(&[i], None, j.cells()),
            }
        }
        for t in 0..tiers.len() {
            let group = tiers[t].0;
            let lanes = group.width.lanes();
            let mut small = std::mem::take(&mut tiered[t]);
            small.sort_by_key(|&i| {
                let (tl, ql) = (jobs[i].target.len(), jobs[i].query.len());
                (tl.max(ql), tl.min(ql))
            });
            for ids in small.chunks(lanes) {
                let tmax = ids.iter().map(|&i| jobs[i].target.len()).max();
                let qmax = ids.iter().map(|&i| jobs[i].query.len()).max();
                let padded = (lanes * tmax.unwrap_or(0) * qmax.unwrap_or(0)) as u64;
                let live: u64 = ids.iter().map(|&i| jobs[i].cells()).sum();
                if (live as f64) < MIN_OCCUPANCY * padded as f64 {
                    match tiered.get_mut(t + 1) {
                        Some(narrower) => narrower.extend_from_slice(ids),
                        None => {
                            for &i in ids {
                                plan.push(&[i], None, jobs[i].cells());
                            }
                        }
                    }
                    continue;
                }
                plan.push(ids, Some(group), padded);
                plan.stats.grouped_jobs += ids.len() as u64;
                plan.stats.lane_groups += 1;
                plan.stats.lane_cells += padded;
                plan.stats.grouped_cells += live;
            }
        }
        plan
    }

    fn push(&mut self, ids: &[usize], group: Option<Engine>, cells: u64) {
        let at = self.jobs.len();
        self.jobs.extend_from_slice(ids);
        self.units.push(Unit {
            span: at..self.jobs.len(),
            group,
            cells,
        });
    }
}

/// A session's lane groups over its worker pool.
struct HostExecutor {
    engine: Engine,
    scoring: Scoring,
    /// The session's workers, one scratch arena each. Submits from several
    /// threads (the watchdog runner, the standby) take turns on it.
    pool: WorkerPool<AlignScratch>,
}

impl HostExecutor {
    /// Run a batch and return the results in job order, with the batch's
    /// lane-group counters (the other fields are the caller's).
    fn execute(&self, jobs: &[AlignJob]) -> Result<(Vec<AlignResult>, BackendStats), BackendError> {
        let plan = Plan::new(jobs, self.engine);
        if plan.units.is_empty() {
            return Ok((Vec::new(), plan.stats));
        }
        // Longest first: big DP problems anchor the schedule, small ones
        // backfill (the same policy the per-read pipeline uses).
        let mut order: Vec<usize> = (0..plan.units.len()).collect();
        order.sort_by_key(|&u| std::cmp::Reverse(plan.units[u].cells));
        let engine = self.engine;
        let sc = self.scoring;
        // A kernel that panics may leave its arena mid-resize; the pool
        // rebuilds that worker's arena before its next unit.
        let outcome = self.pool.run_batch_catching(
            &plan.units,
            &order,
            |scratch: &mut AlignScratch, unit: &Unit| {
                let ids = &plan.jobs[unit.span.clone()];
                let mut out = Vec::with_capacity(ids.len());
                if let Some(group) = unit.group {
                    let members: Vec<GroupJob<'_>> = ids
                        .iter()
                        .map(|&i| GroupJob {
                            target: &jobs[i].target,
                            query: &jobs[i].query,
                            with_path: jobs[i].with_path,
                        })
                        .collect();
                    group.align_group_with_scratch(&members, &sc, scratch, &mut out);
                } else {
                    for &i in ids {
                        let j = &jobs[i];
                        out.push(engine.align_with_scratch(
                            &j.target,
                            &j.query,
                            &sc,
                            j.mode,
                            j.with_path,
                            scratch,
                        ));
                    }
                }
                out
            },
        );
        // A panicked unit reports its lowest job; the batch reports the
        // lowest of those.
        let panicked = outcome
            .panics
            .iter()
            .map(|p| {
                let lowest = plan.jobs[plan.units[p.index].span.clone()].iter().min();
                (lowest.copied().unwrap_or(p.index), &p.message)
            })
            .min_by_key(|&(index, _)| index);
        if let Some((index, message)) = panicked {
            return Err(BackendError::JobPanic {
                index,
                message: message.clone(),
            });
        }
        // Units are in `plan.jobs` order, so the flattened results are too:
        // `results[p]` belongs to job `at[p]`. Follow the permutation's
        // cycles to put every result at its job's index, in place.
        let mut results: Vec<AlignResult> =
            outcome.results.into_iter().flatten().flatten().collect();
        let mut at = plan.jobs;
        for p in 0..results.len() {
            while at[p] != p {
                let q = at[p];
                results.swap(p, q);
                at.swap(p, q);
            }
        }
        debug_assert_eq!(results.len(), jobs.len());
        Ok((results, plan.stats))
    }
}

/// A backend session: the host executor computes every job, and a `gpu-sim`
/// session's device meter then prices the ones that fit device memory.
/// A fault plan, if any, is injected once, at this session's `submit`.
pub struct HostBackend {
    executor: Arc<HostExecutor>,
    meter: Option<DeviceMeter>,
    fault: FaultHook,
}

impl HostBackend {
    /// A session of `kind` over a new executor, under `opts.fault`.
    pub fn new(kind: BackendKind, opts: &BackendOptions) -> Self {
        HostBackend {
            executor: Arc::new(HostExecutor {
                engine: opts.engine,
                scoring: opts.scoring,
                pool: WorkerPool::new(opts.threads, |_| AlignScratch::new()),
            }),
            meter: (kind == BackendKind::GpuSim).then(|| DeviceMeter::new(opts)),
            fault: FaultHook::new(opts.fault.clone()),
        }
    }

    /// The supervisor's standby: this session's executor, unmetered and
    /// with no fault plan — the clean target recovery falls back to.
    pub(crate) fn standby(&self) -> HostBackend {
        HostBackend {
            executor: Arc::clone(&self.executor),
            meter: None,
            fault: FaultHook::new(None),
        }
    }

    /// Worker threads this session's executor has spawned: none before its
    /// first submit, then its thread count however many batches it runs.
    pub fn threads_spawned(&self) -> usize {
        self.executor.pool.threads_spawned()
    }

    /// The device pool's high-water mark since the session was prepared
    /// (bytes); 0 for a session with no device.
    pub fn pool_peak_used(&self) -> u64 {
        self.meter.as_ref().map_or(0, DeviceMeter::pool_peak_used)
    }
}

impl AlignBackend for HostBackend {
    fn label(&self) -> &'static str {
        if self.meter.is_some() {
            "gpu-sim"
        } else {
            "cpu"
        }
    }

    fn device_eligible(&self, job: &AlignJob) -> bool {
        self.meter.as_ref().is_none_or(|m| m.fits(job))
    }

    fn submit(
        &self,
        jobs: Vec<AlignJob>,
    ) -> Result<(Vec<AlignResult>, BackendStats), BackendError> {
        self.submit_borrowed(&jobs)
    }

    /// Execution only reads the jobs, so a borrowed batch costs no copy.
    fn submit_borrowed(
        &self,
        jobs: &[AlignJob],
    ) -> Result<(Vec<AlignResult>, BackendStats), BackendError> {
        let drop_last = self.fault.begin_submit()?;
        let (mut results, lanes) = self.executor.execute(jobs)?;
        if drop_last {
            results.pop();
        }
        // Supervisor counters (retries, trips, quarantines…) belong to
        // SupervisedBackend; a raw session reports them as zero.
        let mut stats = BackendStats {
            batches: 1,
            jobs: jobs.len() as u64,
            cells: jobs.iter().map(AlignJob::cells).sum(),
            ..lanes
        };
        if let Some(meter) = &self.meter {
            meter.price(jobs, &mut stats)?;
        }
        Ok((results, stats))
    }
}
