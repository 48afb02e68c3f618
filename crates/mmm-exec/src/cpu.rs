//! The CPU SIMD backend: batches over the persistent worker-pool machinery
//! with one recycled [`AlignScratch`] arena per worker.

use std::panic::{catch_unwind, AssertUnwindSafe};
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

        let threads = self.threads.min(jobs.len());
        if threads <= 1 {
            // No fan-out: run on the calling thread, catching kernel panics
            // so a backend bug surfaces as a typed error, not an unwind
            // through the pipeline.
            let mut lease = ScratchLease::take(&self.spares);
            let mut results: Vec<Option<AlignResult>> = (0..jobs.len()).map(|_| None).collect();
            for &i in &order {
                let j = &jobs[i];
                let scratch = match lease.scratch.as_mut() {
                    Some(s) => s,
                    None => {
                        return Err(BackendError::JobPanic {
                            index: i,
                            message: "scratch arena lost after a previous panic".into(),
                        })
                    }
                };
                let out = catch_unwind(AssertUnwindSafe(|| {
                    self.engine.align_with_scratch(
                        &j.target,
                        &j.query,
                        &self.scoring,
                        j.mode,
                        j.with_path,
                        scratch,
                    )
                }));
                match out {
                    Ok(r) => results[i] = Some(r),
                    Err(payload) => {
                        // The arena may be mid-resize; discard it.
                        lease.scratch = None;
                        return Err(BackendError::JobPanic {
                            index: i,
                            message: panic_text(payload),
                        });
                    }
                }
            }
            return Ok(results.into_iter().flatten().collect());
        }

        let engine = self.engine;
        let sc = self.scoring;
        let outcome = with_worker_pool(
            threads,
            |_| ScratchLease::take(&self.spares),
            |lease: &mut ScratchLease<'_>, job: &AlignJob| {
                // A worker whose arena was lost to a panic is rebuilt by the
                // pool (make_state reruns); the expect-free unwrap below is
                // the panic the pool catches per item.
                let scratch = match lease.scratch.as_mut() {
                    Some(s) => s,
                    None => panic!("scratch arena missing"),
                };
                engine.align_with_scratch(
                    &job.target,
                    &job.query,
                    &sc,
                    job.mode,
                    job.with_path,
                    scratch,
                )
            },
            |pool| pool.run_batch_catching(jobs, &order),
        );
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

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
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
