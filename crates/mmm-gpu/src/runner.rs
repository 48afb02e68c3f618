//! The GPU-backed batch aligner the device backend calls.
//!
//! Wraps [`crate::stream::simulate_batch`] behind the same result types the
//! CPU path returns. It takes only jobs the device can hold: §4.5.2's CPU
//! fallback for the rest is the caller's (`mmm-exec`'s `GpuSimtBackend`
//! routes them to its host executor), and a batch with a job whose
//! footprint exceeds device memory is refused whole. The aligner is
//! resident: one per-stream [`MemoryPool`] survives across batches, so the
//! warm-up allocations of the first batch are the only ones ever made.

use std::sync::{Mutex, PoisonError};

use mmm_align::types::AlignResult;
use mmm_align::Scoring;

use crate::device::DeviceSpec;
use crate::error::GpuError;
use crate::kernel::kernel_footprint;
use crate::mempool::MemoryPool;
use crate::stream::{schedule_runs_with_pool, try_execute_jobs, KernelJob, StreamConfig};

/// Statistics from one batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct GpuBatchStats {
    /// Jobs submitted in the batch.
    pub jobs: usize,
    /// Simulated device wall time.
    pub device_seconds: f64,
    /// Peak kernel concurrency.
    pub max_concurrency: usize,
    /// Aggregate device GCUPS.
    pub gcups: f64,
    /// Bytes served from the resident memory pool this batch.
    pub bytes_pooled: u64,
    /// Pool requests too large for a slab (paid direct-alloc latency).
    pub pool_rejections: u64,
    /// Pool high-water mark since the aligner was built.
    pub pool_peak_used: u64,
}

/// A batch aligner over the simulated device.
pub struct GpuAligner {
    pub device: DeviceSpec,
    pub config: StreamConfig,
    pub scoring: Scoring,
    /// Per-stream slab pool, resident across batches (§4.5.2).
    pool: Mutex<MemoryPool>,
}

impl GpuAligner {
    /// Aligner with the paper's launch configuration (128 streams × 512
    /// threads).
    pub fn new(scoring: Scoring) -> Self {
        Self::with_config(DeviceSpec::V100, StreamConfig::default(), scoring)
    }

    /// Aligner over an explicit device and launch configuration.
    pub fn with_config(device: DeviceSpec, config: StreamConfig, scoring: Scoring) -> Self {
        let pool = MemoryPool::new(device.global_mem, config.streams.max(1));
        GpuAligner {
            device,
            config,
            scoring,
            pool: Mutex::new(pool),
        }
    }

    /// Pool high-water mark since construction (bytes).
    pub fn pool_peak_used(&self) -> u64 {
        self.lock_pool().peak_used()
    }

    /// Bytes currently held in the pool (zero between batches — every batch
    /// returns all slabs on every exit path).
    pub fn pool_used(&self) -> u64 {
        self.lock_pool().used()
    }

    fn lock_pool(&self) -> std::sync::MutexGuard<'_, MemoryPool> {
        // A panic while holding the lock cannot leave slots stranded: the
        // scheduler releases every slab before returning, and the pool is
        // plain counters — recover the guard rather than propagate poison.
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Align a batch of pairs on the device.
    ///
    /// An invalid launch configuration, overflowing scoring, or a job whose
    /// footprint exceeds device memory is a typed [`GpuError`] — never a
    /// panic, never a silently dropped job — and leaves the pool empty.
    pub fn align_batch(
        &self,
        jobs: Vec<KernelJob>,
    ) -> Result<(Vec<AlignResult>, GpuBatchStats), GpuError> {
        if self.config.streams == 0 {
            return Err(GpuError::NoStreams);
        }
        let global_mem = self.device.global_mem;
        for (index, j) in jobs.iter().enumerate() {
            let footprint = kernel_footprint(j.target.len(), j.query.len(), j.with_path);
            if footprint > global_mem {
                return Err(GpuError::DoesNotFit {
                    index,
                    footprint,
                    global_mem,
                });
            }
        }
        let runs = try_execute_jobs(
            &jobs,
            &self.scoring,
            self.config.kind,
            self.config.threads_per_block,
            &self.device,
        )?;
        let report = {
            let mut pool = self.lock_pool();
            schedule_runs_with_pool(&jobs, runs, &self.config, &self.device, &mut pool)
        };
        let results: Vec<AlignResult> = report.runs.iter().map(|r| r.result.clone()).collect();
        let stats = GpuBatchStats {
            jobs: jobs.len(),
            device_seconds: report.sim_seconds,
            max_concurrency: report.max_concurrency,
            gcups: report.gcups(),
            bytes_pooled: report.bytes_pooled,
            pool_rejections: report.pool_rejections,
            pool_peak_used: report.pool_peak_used,
        };
        debug_assert_eq!(
            results.len(),
            jobs.len(),
            "scheduler must keep 1:1 job/run order"
        );
        Ok((results, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_results_match_cpu() {
        let aligner = GpuAligner::new(Scoring::MAP_ONT);
        let jobs: Vec<KernelJob> = (0..6)
            .map(|k| KernelJob {
                target: (0..400).map(|i| ((i * 3 + k) % 4) as u8).collect(),
                query: (0..380).map(|i| ((i * 11 + k) % 4) as u8).collect(),
                with_path: true,
            })
            .collect();
        let (results, stats) = aligner.align_batch(jobs.clone()).unwrap();
        assert_eq!(results.len(), 6);
        assert_eq!(stats.jobs, 6);
        assert!(stats.device_seconds > 0.0);
        assert!(stats.bytes_pooled > 0);
        for (r, j) in results.iter().zip(&jobs) {
            let gold =
                mmm_align::scalar::align_manymap(&j.target, &j.query, &Scoring::MAP_ONT, true);
            assert_eq!(*r, gold);
        }
    }

    /// A 64 MB device cannot hold a 6 kbp with-path kernel (~72 MB): the
    /// whole batch is refused with a typed error naming the job, and
    /// nothing is left in the pool.
    #[test]
    fn oversize_job_is_refused() {
        let dev = DeviceSpec {
            global_mem: 64 << 20,
            ..DeviceSpec::V100
        };
        let aligner = GpuAligner::with_config(dev, StreamConfig::default(), Scoring::MAP_ONT);
        let small = KernelJob {
            target: vec![0, 1, 2, 3],
            query: vec![0, 1, 2, 3],
            with_path: true,
        };
        let big = KernelJob {
            target: (0..6_000).map(|i| ((i * 7 + 1) % 4) as u8).collect(),
            query: (0..6_000).map(|i| ((i * 5 + 2) % 4) as u8).collect(),
            with_path: true,
        };
        let err = aligner.align_batch(vec![small, big]).unwrap_err();
        assert_eq!(
            err,
            GpuError::DoesNotFit {
                index: 1,
                footprint: kernel_footprint(6_000, 6_000, true),
                global_mem: 64 << 20,
            }
        );
        assert_eq!(aligner.pool_used(), 0);
    }

    #[test]
    fn bad_block_size_is_typed_error() {
        let cfg = StreamConfig {
            threads_per_block: 4,
            ..Default::default()
        };
        let aligner = GpuAligner::with_config(DeviceSpec::V100, cfg, Scoring::MAP_ONT);
        let job = KernelJob {
            target: vec![0, 1],
            query: vec![0, 1],
            with_path: false,
        };
        let err = aligner.align_batch(vec![job]).unwrap_err();
        assert_eq!(err, GpuError::BlockSize { threads: 4 });
        // The failed batch left nothing resident in the pool.
        assert_eq!(aligner.pool_used(), 0);
    }

    #[test]
    fn pool_is_resident_across_batches() {
        let aligner = GpuAligner::new(Scoring::MAP_ONT);
        let jobs: Vec<KernelJob> = (0..8)
            .map(|k| KernelJob {
                target: (0..300).map(|i| ((i * 3 + k) % 4) as u8).collect(),
                query: (0..300).map(|i| ((i * 11 + k) % 4) as u8).collect(),
                with_path: false,
            })
            .collect();
        let (_, first) = aligner.align_batch(jobs.clone()).unwrap();
        let peak = aligner.pool_peak_used();
        for _ in 0..3 {
            let (_, stats) = aligner.align_batch(jobs.clone()).unwrap();
            assert_eq!(stats.bytes_pooled, first.bytes_pooled);
        }
        assert_eq!(aligner.pool_peak_used(), peak, "pool grew after warm-up");
        assert_eq!(aligner.pool_used(), 0);
    }
}
