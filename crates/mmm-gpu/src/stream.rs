//! Concurrent kernel execution over CUDA streams (§4.5.1, Figure 7).
//!
//! Kernels within one stream serialize; kernels of different streams run
//! concurrently up to three limits: the number of streams, the device's
//! resident-grid limit (128 on Volta), the SM count (one block per SM slot)
//! and free device memory. The event loop advances simulated time over
//! kernel completions, which reproduces Figure 7's linear-then-saturating
//! stream scaling and Figure 8b's concurrency collapse for long with-path
//! problems.

use crate::device::DeviceSpec;
use crate::error::GpuError;
use crate::kernel::{price_kernel, GpuKernelKind, KernelJob, KernelRun};
use crate::mempool::MemoryPool;

/// Stream/launch configuration.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    pub streams: usize,
    pub threads_per_block: usize,
    pub kind: GpuKernelKind,
    /// Use the per-stream memory pool (§4.5.2); without it every launch
    /// pays the allocation latency.
    pub use_pool: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            streams: 128,
            threads_per_block: 512,
            kind: GpuKernelKind::Manymap,
            use_pool: true,
        }
    }
}

/// Batch outcome.
#[derive(Debug)]
pub struct BatchReport {
    pub runs: Vec<KernelRun>,
    /// Simulated wall time for the whole batch.
    pub sim_seconds: f64,
    /// Highest number of concurrently executing kernels observed.
    pub max_concurrency: usize,
    /// Jobs that exceeded device memory and must fall back to the CPU.
    pub fallbacks: Vec<usize>,
    /// Total DP cells of the jobs placed on the device.
    pub device_cells: u64,
    /// Bytes served from the per-stream memory pool this batch.
    pub bytes_pooled: u64,
    /// Pool allocations served this batch (each one a `cudaMalloc` avoided).
    pub pool_allocs: u64,
    /// Requests too large for a slab this batch (paid direct-alloc latency).
    pub pool_rejections: u64,
    /// Pool high-water mark over its lifetime (persists across batches when
    /// the caller reuses a pool).
    pub pool_peak_used: u64,
}

impl BatchReport {
    /// Aggregate device GCUPS over the batch.
    pub fn gcups(&self) -> f64 {
        if self.sim_seconds <= 0.0 {
            return 0.0;
        }
        self.device_cells as f64 / self.sim_seconds / 1e9
    }
}

/// Price every job's kernel once. The prices can be scheduled repeatedly
/// under different stream configurations (the Figure 7 sweep). An invalid
/// launch configuration is a typed error, never a panic.
pub fn price_jobs(
    jobs: &[KernelJob],
    kind: GpuKernelKind,
    threads_per_block: usize,
    dev: &DeviceSpec,
) -> Result<Vec<KernelRun>, GpuError> {
    jobs.iter()
        .map(|&j| price_kernel(j, kind, threads_per_block, dev))
        .collect()
}

/// Schedule priced kernels over the streams and device limits, using a
/// caller-owned memory pool (so a resident backend reuses one pool across
/// batches, §4.5.2). Every slab is returned to the pool before this
/// function returns — lifetime counters (`allocs_served`, `peak_used`)
/// keep accumulating across batches.
pub fn schedule_runs(
    jobs: &[KernelJob],
    runs: Vec<KernelRun>,
    cfg: &StreamConfig,
    dev: &DeviceSpec,
    pool: &mut MemoryPool,
) -> BatchReport {
    let nstreams = cfg.streams.max(1);
    let allocs0 = pool.allocs_served;
    let rejections0 = pool.rejections;
    let bytes0 = pool.bytes_served;
    let mut fallbacks = Vec::new();
    let mut durations = Vec::with_capacity(jobs.len());
    let mut device_cells = 0u64;
    for (i, (j, run)) in jobs.iter().zip(&runs).enumerate() {
        // Transfers: sequences down, result (and path matrix) up, over
        // pinned host memory.
        let bytes = (j.tlen + j.qlen) as f64;
        let transfer = bytes / (dev.pcie_gbps * 1e9) + 2.0 * dev.transfer_latency;
        if !dev.fits(run.footprint) {
            // Impossible to place on the device: CPU fallback (§4.5.2).
            fallbacks.push(i);
            durations.push(None);
            continue;
        }
        // Device buffers: kernels within a stream serialize, so by the time
        // job `i` launches on stream `i % nstreams` the previous kernel on
        // that stream has retired and its slab is reusable. A request too
        // large for the slab falls through to a direct allocation and pays
        // the per-launch latency the pool exists to avoid.
        let alloc = if cfg.use_pool {
            let s = i % nstreams;
            pool.release_stream(s);
            match pool.acquire(s, run.footprint) {
                Some(_) => 0.0,
                None => dev.alloc_latency,
            }
        } else {
            dev.alloc_latency
        };
        device_cells += j.cells();
        durations.push(Some(run.exec_seconds + transfer + alloc));
    }
    // Nothing may stay resident after the batch, whatever path got here.
    pool.release_all();

    // Event loop: assign jobs round-robin to streams, respect concurrency
    // limits (streams, resident grids, SMs) and device memory.
    let max_conc = nstreams.min(dev.max_resident_grids);
    let mut stream_free = vec![0.0f64; nstreams];
    let mut running: Vec<(f64, u64)> = Vec::new(); // (end_time, footprint)
    let mut mem_used = 0u64;
    let mut clock = 0.0f64;
    let mut max_seen = 0usize;
    let mut makespan = 0.0f64;

    for (i, (d, run)) in durations.iter().zip(&runs).enumerate() {
        let Some(dur) = d else { continue };
        let s = i % nstreams;
        let fp = run.footprint;
        // Earliest start: stream free, and capacity available.
        let mut start = stream_free[s].max(clock);
        loop {
            running.retain(|&(end, f)| {
                if end <= start {
                    mem_used -= f;
                    false
                } else {
                    true
                }
            });
            // One block occupies one SM; grids past the SM count stay
            // resident but wait for an execution slot.
            let sm_ok = running.len() < max_conc.min(dev.sms);
            let mem_ok = mem_used + fp <= dev.global_mem;
            if sm_ok && mem_ok {
                break;
            }
            // Wait for the next completion.
            let next = running
                .iter()
                .map(|&(e, _)| e)
                .fold(f64::INFINITY, f64::min);
            start = start.max(next);
        }
        let end = start + dur;
        running.push((end, fp));
        mem_used += fp;
        stream_free[s] = end;
        clock = start;
        max_seen = max_seen.max(running.len());
        makespan = makespan.max(end);
    }

    BatchReport {
        runs,
        sim_seconds: makespan,
        max_concurrency: max_seen,
        fallbacks,
        device_cells,
        bytes_pooled: pool.bytes_served - bytes0,
        pool_allocs: pool.allocs_served - allocs0,
        pool_rejections: pool.rejections - rejections0,
        pool_peak_used: pool.peak_used(),
    }
}

/// Price and schedule a batch with a fresh single-batch pool, in one call:
/// the harnesses' form. Their launch configurations are static, so an
/// invalid one panics.
pub fn simulate_batch(jobs: &[KernelJob], cfg: &StreamConfig, dev: &DeviceSpec) -> BatchReport {
    let runs = match price_jobs(jobs, cfg.kind, cfg.threads_per_block, dev) {
        Ok(runs) => runs,
        Err(e) => panic!("simulate_batch: {e}"),
    };
    let mut pool = MemoryPool::new(dev.global_mem, cfg.streams.max(1));
    schedule_runs(jobs, runs, cfg, dev, &mut pool)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(n: usize, len: usize, with_path: bool) -> Vec<KernelJob> {
        vec![
            KernelJob {
                tlen: len,
                qlen: len,
                with_path,
            };
            n
        ]
    }

    fn run_streams(streams: usize, n_jobs: usize, len: usize, with_path: bool) -> BatchReport {
        let cfg = StreamConfig {
            streams,
            ..Default::default()
        };
        simulate_batch(&jobs(n_jobs, len, with_path), &cfg, &DeviceSpec::V100)
    }

    #[test]
    fn stream_scaling_is_linear_to_64() {
        // Figure 7: linear speedup from 1 to 64 streams.
        let t1 = run_streams(1, 64, 1000, false).sim_seconds;
        let t16 = run_streams(16, 64, 1000, false).sim_seconds;
        let t64 = run_streams(64, 64, 1000, false).sim_seconds;
        assert!(t1 / t16 > 12.0, "16-stream speedup {}", t1 / t16);
        assert!(t1 / t64 > 40.0, "64-stream speedup {}", t1 / t64);
    }

    #[test]
    fn stream_scaling_saturates_at_128() {
        // Figure 7: "With 128 streams ... the performance slightly
        // increases" — well short of 2× over 64.
        let t64 = run_streams(64, 256, 1000, false).sim_seconds;
        let t128 = run_streams(128, 256, 1000, false).sim_seconds;
        let gain = t64 / t128;
        assert!((1.0..1.6).contains(&gain), "gain={gain}");
    }

    #[test]
    fn long_with_path_jobs_lose_concurrency() {
        // Figure 8b's memory-capacity collapse, scaled down: a device with
        // 64 MB can hold only a few 2 kbp with-path kernels (8 MB each),
        // while 300 bp kernels (0.18 MB) run at full concurrency.
        let dev = DeviceSpec {
            global_mem: 64 << 20,
            ..DeviceSpec::V100
        };
        let cfg = StreamConfig::default();
        let rep = simulate_batch(&jobs(32, 2_000, true), &cfg, &dev);
        assert!(
            rep.max_concurrency <= 8,
            "concurrency={}",
            rep.max_concurrency
        );
        let short = simulate_batch(&jobs(32, 300, true), &cfg, &dev);
        assert!(
            short.max_concurrency > 8,
            "concurrency={}",
            short.max_concurrency
        );
    }

    #[test]
    fn oversized_jobs_fall_back_to_cpu() {
        // A job whose with-path footprint exceeds device memory must be
        // flagged for CPU fallback (scaled: 6 kbp pair on a 64 MB device).
        let dev = DeviceSpec {
            global_mem: 64 << 20,
            ..DeviceSpec::V100
        };
        let j = jobs(1, 6_000, true); // 72 MB footprint
        let cfg = StreamConfig::default();
        let rep = simulate_batch(&j, &cfg, &dev);
        assert_eq!(rep.fallbacks, vec![0]);
        // The job is still priced, and none of its cells ran on the device.
        assert_eq!(rep.runs.len(), 1);
        assert_eq!(rep.device_cells, 0);
    }

    #[test]
    fn memory_pool_saves_alloc_latency() {
        let with_pool = StreamConfig {
            streams: 4,
            use_pool: true,
            ..Default::default()
        };
        let no_pool = StreamConfig {
            streams: 4,
            use_pool: false,
            ..Default::default()
        };
        let a = simulate_batch(&jobs(64, 300, false), &with_pool, &DeviceSpec::V100);
        let b = simulate_batch(&jobs(64, 300, false), &no_pool, &DeviceSpec::V100);
        assert!(a.sim_seconds < b.sim_seconds);
    }

    #[test]
    fn pool_accounting_reported_per_batch() {
        let cfg = StreamConfig {
            streams: 4,
            ..Default::default()
        };
        let js = jobs(16, 400, false);
        let rep = simulate_batch(&js, &cfg, &DeviceSpec::V100);
        // Every on-device job was served from the pool, none rejected.
        assert_eq!(rep.pool_allocs, 16);
        assert_eq!(rep.pool_rejections, 0);
        assert!(rep.bytes_pooled > 0);
        assert!(rep.pool_peak_used > 0);
    }

    #[test]
    fn slab_overflow_pays_direct_alloc_not_fallback() {
        // Footprint fits the device but not a single slab: the job still
        // runs on-device via the direct-allocation path (no CPU fallback),
        // and the rejection is counted.
        let dev = DeviceSpec {
            global_mem: 64 << 20,
            ..DeviceSpec::V100
        };
        let cfg = StreamConfig {
            streams: 8, // slab = 8 MB
            ..Default::default()
        };
        let js = jobs(2, 2_200, true); // ~9.7 MB with-path footprint
        let rep = simulate_batch(&js, &cfg, &dev);
        assert!(rep.fallbacks.is_empty());
        assert_eq!(rep.pool_rejections, 2);
        assert_eq!(rep.pool_allocs, 0);
    }

    #[test]
    fn reused_pool_reaches_steady_state() {
        // A resident pool serves identical batches without growing: the
        // high-water mark is set by the first batch and never moves.
        let cfg = StreamConfig {
            streams: 4,
            ..Default::default()
        };
        let dev = DeviceSpec::V100;
        let js = jobs(16, 400, false);
        let runs = price_jobs(&js, cfg.kind, cfg.threads_per_block, &dev).unwrap();
        let mut pool = MemoryPool::new(dev.global_mem, cfg.streams);
        let first = schedule_runs(&js, runs.clone(), &cfg, &dev, &mut pool);
        let peak_after_warmup = pool.peak_used();
        for _ in 0..3 {
            let rep = schedule_runs(&js, runs.clone(), &cfg, &dev, &mut pool);
            assert_eq!(rep.bytes_pooled, first.bytes_pooled);
        }
        assert_eq!(pool.peak_used(), peak_after_warmup);
        assert_eq!(pool.used(), 0, "slabs must all be returned between batches");
    }

    #[test]
    fn invalid_block_size_is_a_typed_error() {
        let js = jobs(1, 100, false);
        let err = price_jobs(&js, GpuKernelKind::Manymap, 7, &DeviceSpec::V100);
        assert_eq!(err.unwrap_err(), GpuError::BlockSize { threads: 7 });
    }

    #[test]
    fn gcups_metric_sane() {
        let rep = run_streams(128, 128, 4_000, false);
        let g = rep.gcups();
        // V100-class aggregate throughput: tens of GCUPS.
        assert!(g > 5.0 && g < 500.0, "gcups={g}");
    }
}
