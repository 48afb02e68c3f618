//! The CPU SIMD backend: batches over the persistent worker-pool machinery
//! with one recycled [`AlignScratch`] arena per worker.

use std::sync::Mutex;

use mmm_align::{AlignResult, AlignScratch, Engine, Scoring};
use mmm_pipeline::lock_unpoisoned;
use mmm_pipeline::pool::with_worker_pool;

use crate::backend::{AlignBackend, BackendOptions};
use crate::error::BackendError;
use crate::fault::FaultHook;
use crate::job::AlignJob;
use crate::stats::BackendStats;

/// Align a batch of jobs serially, reusing the caller's scratch arena —
/// the zero-allocation building block every backend executor reduces to.
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

/// Borrow a scratch arena from the backend's spare pool, returning it on
/// drop — so arenas stay warm across batches even though the worker threads
/// themselves are scoped to one batch.
struct ScratchLease<'a> {
    home: &'a Mutex<Vec<AlignScratch>>,
    scratch: Option<AlignScratch>,
}

impl<'a> ScratchLease<'a> {
    fn take(home: &'a Mutex<Vec<AlignScratch>>) -> Self {
        let scratch = lock_unpoisoned(home).pop().unwrap_or_default();
        ScratchLease {
            home,
            scratch: Some(scratch),
        }
    }
}

impl Drop for ScratchLease<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            lock_unpoisoned(self.home).push(s);
        }
    }
}

/// Host SIMD execution session.
pub struct CpuSimdBackend {
    engine: Engine,
    scoring: Scoring,
    threads: usize,
    /// Warm scratch arenas recycled across submits.
    spares: Mutex<Vec<AlignScratch>>,
    /// Chaos-testing schedule for this session's `submit` calls.
    fault: FaultHook,
}

impl CpuSimdBackend {
    pub fn new(opts: &BackendOptions) -> Self {
        CpuSimdBackend {
            engine: opts.engine,
            scoring: opts.scoring,
            threads: opts.threads.max(1),
            spares: Mutex::new(Vec::new()),
            fault: FaultHook::new(opts.fault.clone()),
        }
    }

    /// Run a batch and return the results in job order; used both by
    /// [`submit`](AlignBackend::submit) and as the device backends'
    /// fallback executor.
    pub(crate) fn execute(&self, jobs: &[AlignJob]) -> Result<Vec<AlignResult>, BackendError> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        // Longest first: big DP problems anchor the schedule, small ones
        // backfill (the same policy the per-read pipeline uses).
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(jobs[i].cells()));

        let engine = self.engine;
        let sc = self.scoring;
        let outcome = with_worker_pool(
            self.threads.min(jobs.len()),
            |_| ScratchLease::take(&self.spares),
            |lease: &mut ScratchLease<'_>, job: &AlignJob| {
                // The arena leaves the lease for the call and returns only
                // if the kernel does: one that panicked may be mid-resize,
                // so it is dropped, and the pool rebuilds the worker's lease.
                let mut scratch = lease.scratch.take().unwrap_or_default();
                let r = engine.align_with_scratch(
                    &job.target,
                    &job.query,
                    &sc,
                    job.mode,
                    job.with_path,
                    &mut scratch,
                );
                lease.scratch = Some(scratch);
                r
            },
            |pool| pool.run_batch_catching(jobs, &order),
        );
        // Panics come back sorted by job index.
        if let Some(p) = outcome.panics.first() {
            return Err(BackendError::JobPanic {
                index: p.index,
                message: p.message.clone(),
            });
        }
        let results: Vec<AlignResult> = outcome.results.into_iter().flatten().collect();
        debug_assert_eq!(results.len(), jobs.len());
        Ok(results)
    }
}

impl AlignBackend for CpuSimdBackend {
    fn label(&self) -> &'static str {
        "cpu"
    }

    fn submit(
        &self,
        jobs: Vec<AlignJob>,
    ) -> Result<(Vec<AlignResult>, BackendStats), BackendError> {
        let drop_last = self.fault.begin_submit()?;
        let cells: u64 = jobs.iter().map(AlignJob::cells).sum();
        let mut results = self.execute(&jobs)?;
        if drop_last {
            results.pop();
        }
        // The CPU backend owns no device or supervisor counters.
        let stats = BackendStats {
            batches: 1,
            jobs: jobs.len() as u64,
            cells,
            ..Default::default()
        };
        Ok((results, stats))
    }
}
