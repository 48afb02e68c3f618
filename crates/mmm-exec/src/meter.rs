//! The simulated GPU/SIMT device, as a meter on the host executor.
//!
//! A `gpu-sim` session computes every job on its host executor, exactly as
//! a `cpu` session does. The meter then prices the jobs that fit device
//! memory — concurrent streams, a resident per-stream memory pool, the
//! paper's §4.5 launch configuration — and counts the rest as the §4.5.2
//! oversized-pair fallbacks. It touches no result, so output is the `cpu`
//! session's by construction; only the device counters differ.

use std::sync::{Mutex, PoisonError};

use mmm_gpu::{price_jobs, schedule_runs, DeviceSpec, KernelJob, MemoryPool, StreamConfig};

use crate::backend::BackendOptions;
use crate::error::BackendError;
use crate::job::AlignJob;
use crate::stats::BackendStats;

/// A session's device model: what it holds and what each batch costs.
pub(crate) struct DeviceMeter {
    device: DeviceSpec,
    config: StreamConfig,
    /// Per-stream slab pool, resident across batches (§4.5.2).
    pool: Mutex<MemoryPool>,
}

fn shape(job: &AlignJob) -> KernelJob {
    KernelJob {
        tlen: job.target.len(),
        qlen: job.query.len(),
        with_path: job.with_path,
    }
}

impl DeviceMeter {
    pub(crate) fn new(opts: &BackendOptions) -> Self {
        let mut device = DeviceSpec::V100;
        if let Some(mem) = opts.device_mem {
            device.global_mem = mem;
        }
        let mut config = StreamConfig::default();
        if let Some(streams) = opts.streams {
            config.streams = streams.max(1);
        }
        DeviceMeter {
            device,
            config,
            pool: Mutex::new(MemoryPool::new(device.global_mem, config.streams)),
        }
    }

    /// Whether `job`'s kernel fits device memory ([`DeviceSpec::fits`], the
    /// test the scheduler places by too).
    pub(crate) fn fits(&self, job: &AlignJob) -> bool {
        self.device.fits(shape(job).footprint())
    }

    /// Price a computed batch: the jobs that fit run on the modelled
    /// streams, the rest count as fallbacks. Fills `stats`' device counters.
    pub(crate) fn price(
        &self,
        jobs: &[AlignJob],
        stats: &mut BackendStats,
    ) -> Result<(), BackendError> {
        let placed: Vec<KernelJob> = jobs.iter().filter(|j| self.fits(j)).map(shape).collect();
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
        stats.fallbacks = (jobs.len() - placed.len()) as u64;
        stats.max_stream_concurrency = report.max_concurrency;
        stats.bytes_pooled = report.bytes_pooled;
        stats.pool_rejections = report.pool_rejections;
        stats.device_seconds = report.sim_seconds;
        Ok(())
    }

    /// Pool high-water mark since the session was prepared (bytes).
    pub(crate) fn pool_peak_used(&self) -> u64 {
        self.lock_pool().peak_used()
    }

    fn lock_pool(&self) -> std::sync::MutexGuard<'_, MemoryPool> {
        // The pool is plain counters, and the scheduler frees a stream's
        // slab before reusing it, so a guard poisoned mid-batch is usable.
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{AlignBackend, BackendKind};
    use crate::host::HostBackend;
    use crate::job::MAX_PLAN_SEGMENT;
    use mmm_align::Scoring;

    /// The plan-time segment cap and the device fit test must agree. A
    /// maximal planned job — both sides at [`MAX_PLAN_SEGMENT`], with path
    /// — must fit the default device, so nothing the mapper accepts can
    /// surprise-fallback at submit time on an unshrunken device.
    #[test]
    fn max_planned_job_is_device_eligible_on_the_default_device() {
        let backend = HostBackend::new(BackendKind::GpuSim, &BackendOptions::new(Scoring::MAP_ONT));
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
            let backend = HostBackend::new(BackendKind::GpuSim, &opts);
            let (results, stats) = backend.submit(vec![job.clone()]).unwrap();
            assert_eq!(stats.fallbacks, fallbacks, "device_mem {mem}");
            assert_eq!(results, std::slice::from_ref(&gold), "device_mem {mem}");
        }
    }
}
