//! The simulated GPU/SIMT backend.
//!
//! The host executor computes every job, in lane groups on the session's
//! worker pool, exactly as the CPU backend does. The device model then
//! prices the jobs that fit device memory — concurrent streams, a resident
//! per-stream memory pool, the paper's §4.5 launch configuration — and
//! counts the rest as the §4.5.2 oversized-pair fallbacks. Output is the
//! CPU backend's by construction; only the device counters differ.

use std::sync::{Mutex, PoisonError};

use mmm_align::AlignResult;
use mmm_gpu::{price_jobs, schedule_runs, DeviceSpec, KernelJob, MemoryPool, StreamConfig};

use crate::backend::{AlignBackend, BackendOptions};
use crate::cpu::CpuSimdBackend;
use crate::error::BackendError;
use crate::fault::FaultHook;
use crate::job::AlignJob;
use crate::stats::BackendStats;

/// Simulated-device execution session.
pub struct GpuSimtBackend {
    device: DeviceSpec,
    config: StreamConfig,
    /// Per-stream slab pool, resident across batches (§4.5.2).
    pool: Mutex<MemoryPool>,
    /// The host executor that computes every job. Built without a fault
    /// plan: this session's `submit` is the seam a plan targets.
    cpu: CpuSimdBackend,
    /// Chaos-testing schedule for this session's `submit` calls.
    fault: FaultHook,
}

impl GpuSimtBackend {
    pub fn new(opts: &BackendOptions) -> Self {
        let mut device = DeviceSpec::V100;
        if let Some(mem) = opts.device_mem {
            device.global_mem = mem;
        }
        let mut config = StreamConfig::default();
        if let Some(streams) = opts.streams {
            config.streams = streams.max(1);
        }
        let host_opts = BackendOptions {
            fault: None,
            ..opts.clone()
        };
        GpuSimtBackend {
            device,
            config,
            pool: Mutex::new(MemoryPool::new(device.global_mem, config.streams)),
            cpu: CpuSimdBackend::new(&host_opts),
            fault: FaultHook::new(opts.fault.clone()),
        }
    }

    /// Pool high-water mark since the session was prepared (bytes).
    pub fn pool_peak_used(&self) -> u64 {
        self.lock_pool().peak_used()
    }

    fn lock_pool(&self) -> std::sync::MutexGuard<'_, MemoryPool> {
        // The pool is plain counters, and the scheduler frees a stream's
        // slab before reusing it, so a guard poisoned mid-batch is usable.
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn shape(job: &AlignJob) -> KernelJob {
    KernelJob {
        tlen: job.target.len(),
        qlen: job.query.len(),
        with_path: job.with_path,
    }
}

impl AlignBackend for GpuSimtBackend {
    fn label(&self) -> &'static str {
        "gpu-sim"
    }

    /// A job is device-eligible when its kernel fits device memory
    /// ([`DeviceSpec::fits`], the test the scheduler places by too).
    fn device_eligible(&self, job: &AlignJob) -> bool {
        self.device.fits(shape(job).footprint())
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
        let (mut results, lanes) = self.cpu.execute(jobs)?;
        if drop_last {
            results.pop();
        }

        // Price the jobs that fit on the device; the rest are fallbacks.
        let placed: Vec<KernelJob> = jobs
            .iter()
            .filter(|j| self.device_eligible(j))
            .map(shape)
            .collect();
        let runs = price_jobs(
            &placed,
            self.config.kind,
            self.config.threads_per_block,
            &self.device,
        )?;
        let report = schedule_runs(
            &placed,
            runs,
            &self.config,
            &self.device,
            &mut self.lock_pool(),
        );

        // Supervisor counters (retries, trips, quarantines…) belong to
        // SupervisedBackend; a raw device session reports them as zero.
        let stats = BackendStats {
            batches: 1,
            jobs: jobs.len() as u64,
            cells: jobs.iter().map(AlignJob::cells).sum(),
            fallbacks: (jobs.len() - placed.len()) as u64,
            max_stream_concurrency: report.max_concurrency,
            bytes_pooled: report.bytes_pooled,
            pool_rejections: report.pool_rejections,
            device_seconds: report.sim_seconds,
            // The host executor's lane-group counters.
            ..lanes
        };
        Ok((results, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::MAX_PLAN_SEGMENT;
    use mmm_align::Scoring;

    /// The plan-time segment cap and the device fit test must agree. A
    /// maximal planned job — both sides at [`MAX_PLAN_SEGMENT`], with path
    /// — must fit the default device, so nothing the mapper accepts can
    /// surprise-fallback at submit time on an unshrunken device.
    #[test]
    fn max_planned_job_is_device_eligible_on_the_default_device() {
        let backend = GpuSimtBackend::new(&BackendOptions::new(Scoring::MAP_ONT));
        let job = AlignJob::global(
            vec![0u8; MAX_PLAN_SEGMENT],
            vec![1u8; MAX_PLAN_SEGMENT],
            true,
        );
        assert!(
            backend.device_eligible(&job),
            "a maximal plan-time job ({MAX_PLAN_SEGMENT} bp square, with path) overflows \
             the default device — the shared limit no longer reconciles"
        );
    }

    /// At a device one byte under, exactly at and one byte over a with-path
    /// job's footprint, `submit` counts it as a fallback exactly when it
    /// does not fit, and returns the scalar gold either way.
    #[test]
    fn submit_falls_back_exactly_past_the_footprint() {
        let job = AlignJob::global(
            (0..40).map(|i| (i * 3 % 4) as u8).collect(),
            (0..30).map(|i| (i * 7 % 4) as u8).collect(),
            true,
        );
        let footprint = shape(&job).footprint();
        let gold =
            mmm_align::scalar::align_manymap(&job.target, &job.query, &Scoring::MAP_ONT, true);
        for (mem, fallbacks) in [(footprint - 1, 1), (footprint, 0), (footprint + 1, 0)] {
            let mut opts = BackendOptions::new(Scoring::MAP_ONT);
            opts.device_mem = Some(mem);
            let backend = GpuSimtBackend::new(&opts);
            let (results, stats) = backend.submit(vec![job.clone()]).unwrap();
            assert_eq!(stats.fallbacks, fallbacks, "device_mem {mem}");
            assert_eq!(results, std::slice::from_ref(&gold), "device_mem {mem}");
        }
    }
}
