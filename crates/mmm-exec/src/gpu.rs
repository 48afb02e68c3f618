//! The simulated GPU/SIMT backend.
//!
//! Wraps [`GpuAligner`] — concurrent streams, a resident per-stream memory
//! pool, the paper's §4.5 launch configuration — and routes jobs the device
//! model cannot take (with-path footprints past device memory, or boundary
//! modes the batch kernel does not implement) to the CPU executor, exactly
//! the oversized-pair fallback of §4.5.2. Functional results are
//! bit-identical to the CPU backend by construction: the simulated kernels
//! compute with the same difference-recurrence semantics the host SIMD
//! tiers are property-tested against.

use mmm_align::{AlignMode, AlignResult};
use mmm_gpu::kernel::kernel_footprint;
use mmm_gpu::{DeviceSpec, GpuAligner, KernelJob, StreamConfig};

use crate::backend::{AlignBackend, BackendOptions};
use crate::cpu::CpuSimdBackend;
use crate::error::BackendError;
use crate::fault::FaultHook;
use crate::job::AlignJob;
use crate::stats::BackendStats;

/// Why a job could not run on the device and was routed to the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FallbackReason {
    /// Device footprint exceeds global memory — the pair is too long.
    TooLong,
    /// Boundary mode the batch kernel does not implement.
    NonGlobal,
}

/// Simulated-device execution session.
pub struct GpuSimtBackend {
    aligner: GpuAligner,
    /// Host executor for routed fallbacks. Built without a fault plan: the
    /// fallback path is internal to one submit, not a separate seam.
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
            aligner: GpuAligner::with_config(device, config, opts.scoring),
            cpu: CpuSimdBackend::new(&host_opts),
            fault: FaultHook::new(opts.fault.clone()),
        }
    }

    /// Why the device model cannot execute a job, if it can't: the batch
    /// kernel implements global alignment only, and the job's device
    /// footprint must fit in global memory.
    fn fallback_reason(&self, job: &AlignJob) -> Option<FallbackReason> {
        if job.mode != AlignMode::Global {
            return Some(FallbackReason::NonGlobal);
        }
        if kernel_footprint(job.target.len(), job.query.len(), job.with_path)
            > self.aligner.device.global_mem
        {
            return Some(FallbackReason::TooLong);
        }
        None
    }

    /// Pool high-water mark since the session was prepared (bytes).
    pub fn pool_peak_used(&self) -> u64 {
        self.aligner.pool_peak_used()
    }
}

impl AlignBackend for GpuSimtBackend {
    fn label(&self) -> &'static str {
        "gpu-sim"
    }

    /// A job is device-eligible exactly when `submit` would not route it to
    /// the internal host fallback — the scheduler's pre-batch routing and
    /// the submit-time split can never disagree.
    fn device_eligible(&self, job: &AlignJob) -> bool {
        self.fallback_reason(job).is_none()
    }

    fn submit(
        &self,
        jobs: Vec<AlignJob>,
    ) -> Result<(Vec<AlignResult>, BackendStats), BackendError> {
        let drop_last = self.fault.begin_submit()?;
        let total = jobs.len();
        let cells: u64 = jobs.iter().map(AlignJob::cells).sum();

        // Split: device-eligible jobs go to the stream scheduler, the rest
        // to the host. Indices remember where each result belongs.
        let mut device_jobs: Vec<KernelJob> = Vec::new();
        let mut device_idx: Vec<usize> = Vec::new();
        let mut host_jobs: Vec<AlignJob> = Vec::new();
        let mut host_idx: Vec<usize> = Vec::new();
        let mut too_long = 0u64;
        let mut non_global = 0u64;
        for (i, job) in jobs.into_iter().enumerate() {
            match self.fallback_reason(&job) {
                None => {
                    device_idx.push(i);
                    device_jobs.push(KernelJob {
                        target: job.target,
                        query: job.query,
                        with_path: job.with_path,
                    });
                }
                Some(reason) => {
                    match reason {
                        FallbackReason::TooLong => too_long += 1,
                        FallbackReason::NonGlobal => non_global += 1,
                    }
                    host_idx.push(i);
                    host_jobs.push(job);
                }
            }
        }

        // Host fallbacks overlap the device batch instead of serializing in
        // front of it: a scoped thread runs the routed jobs while the
        // calling thread drives `align_batch`, so one oversized pair no
        // longer adds its full CPU time to the batch's critical path. The
        // honest cost of the fallbacks is only the host wall time NOT
        // hidden under the device batch.
        let routed = host_jobs.len();
        let (host_out, routed_seconds, device_results, gstats) = if host_jobs.is_empty() {
            let (device_results, gstats) = self.aligner.align_batch(device_jobs)?;
            (Default::default(), 0.0, device_results, gstats)
        } else {
            let start = std::time::Instant::now();
            let (host_out, device_out, device_wall) = std::thread::scope(|scope| {
                let host = scope.spawn(|| self.cpu.execute(&host_jobs));
                let dev_start = std::time::Instant::now();
                let device = self.aligner.align_batch(device_jobs);
                let device_wall = dev_start.elapsed().as_secs_f64();
                let host = host.join().unwrap_or_else(|payload| {
                    Err(BackendError::JobPanic {
                        index: 0,
                        message: format!("host fallback thread panicked: {payload:?}"),
                    })
                });
                (host, device, device_wall)
            });
            let total_wall = start.elapsed().as_secs_f64();
            let host_out = host_out?;
            let (device_results, gstats) = device_out?;
            // Wall time the fallbacks added beyond the device batch itself.
            let exposed = (total_wall - device_wall).max(0.0);
            (host_out, exposed, device_results, gstats)
        };
        let (host_results, host_lanes) = host_out;

        let mut results: Vec<Option<AlignResult>> = (0..total).map(|_| None).collect();
        for (i, r) in device_idx.into_iter().zip(device_results) {
            results[i] = Some(r);
        }
        for (i, r) in host_idx.into_iter().zip(host_results) {
            results[i] = Some(r);
        }
        let mut results: Vec<AlignResult> = results.into_iter().flatten().collect();
        debug_assert_eq!(results.len(), total);
        if drop_last {
            results.pop();
        }

        // Supervisor counters (retries, trips, quarantines…) belong to
        // SupervisedBackend; a raw device session reports them as zero.
        let stats = BackendStats {
            batches: 1,
            jobs: total as u64,
            cells,
            fallbacks: routed as u64,
            max_stream_concurrency: gstats.max_concurrency,
            bytes_pooled: gstats.bytes_pooled,
            pool_rejections: gstats.pool_rejections,
            device_seconds: gstats.device_seconds,
            // Routed fallbacks run concurrently with the device batch;
            // `routed_seconds` is only the host wall time that was NOT
            // hidden under it — the fallbacks' honest critical-path cost.
            fallback_seconds: routed_seconds,
            fallback_too_long: too_long,
            fallback_non_global: non_global,
            // The host route's lane-group counters.
            ..host_lanes
        };
        Ok((results, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::MAX_PLAN_SEGMENT;
    use mmm_align::Scoring;

    /// The satellite reconciliation test: the plan-time segment cap and the
    /// submit-time too-long test must agree. A maximal planned job — both
    /// sides at [`MAX_PLAN_SEGMENT`], with path — must fit the default
    /// device, so nothing the mapper accepts can surprise-fallback at
    /// submit time on an unshrunken device.
    #[test]
    fn max_planned_job_is_device_eligible_on_the_default_device() {
        assert!(
            kernel_footprint(MAX_PLAN_SEGMENT, MAX_PLAN_SEGMENT, true)
                <= DeviceSpec::V100.global_mem,
            "a maximal plan-time job ({} bp square, with path) overflows the \
             default device — the shared limit no longer reconciles",
            MAX_PLAN_SEGMENT
        );
        let backend = GpuSimtBackend::new(&BackendOptions::new(Scoring::MAP_ONT));
        let job = AlignJob::global(
            vec![0u8; MAX_PLAN_SEGMENT],
            vec![1u8; MAX_PLAN_SEGMENT],
            true,
        );
        assert!(backend.device_eligible(&job));
    }

    /// Eligibility mirrors `fallback_reason` exactly: shrinking the device
    /// makes the same job ineligible, and non-global modes never qualify.
    #[test]
    fn eligibility_tracks_fallback_reason() {
        let mut opts = BackendOptions::new(Scoring::MAP_ONT);
        opts.device_mem = Some(16_384);
        let tiny = GpuSimtBackend::new(&opts);
        let big = AlignJob::global(vec![0u8; 200], vec![1u8; 200], true);
        assert!(!tiny.device_eligible(&big));
        let small = AlignJob::global(vec![0u8; 8], vec![1u8; 8], true);
        assert!(tiny.device_eligible(&small));
        let mut semi = small.clone();
        semi.mode = AlignMode::SemiGlobal;
        assert!(!tiny.device_eligible(&semi));
    }

    /// The overlap bugfix: with both routed host fallbacks and device work
    /// in one submit, results stay bit-identical in job order and the
    /// fallback accounting still reports every routed job.
    #[test]
    fn mixed_batch_overlaps_host_and_device_and_stays_ordered() {
        let mut opts = BackendOptions::new(Scoring::MAP_ONT);
        opts.device_mem = Some(16_384);
        let backend = GpuSimtBackend::new(&opts);
        let jobs: Vec<AlignJob> = (0..10)
            .map(|k| {
                let len = if k % 3 == 0 { 300 } else { 20 };
                AlignJob::global(
                    (0..len).map(|i| ((i * 3 + k) % 4) as u8).collect(),
                    (0..len).map(|i| ((i * 7 + k) % 4) as u8).collect(),
                    true,
                )
            })
            .collect();
        let (results, stats) = backend.submit(jobs.clone()).expect("submit");
        assert_eq!(results.len(), jobs.len());
        assert!(stats.fallback_too_long >= 1, "{stats:?}");
        assert!(stats.fallbacks < stats.jobs, "{stats:?}");
        for (r, j) in results.iter().zip(&jobs) {
            let gold = mmm_align::scalar::align_manymap(
                &j.target,
                &j.query,
                &Scoring::MAP_ONT,
                AlignMode::Global,
                true,
            );
            assert_eq!(*r, gold);
        }
    }
}
