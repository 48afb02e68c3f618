//! Backend behaviour tests: CPU/GPU parity against the scalar gold,
//! oversized-pair fallback accounting, mempool steady state across batches,
//! stream round-robin occupancy, and the lane groups both backends run.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmm_align::{AlignScratch, Engine, Layout, Scoring, Width};
use mmm_exec::{
    align_jobs_with_scratch, prepare, AlignBackend, AlignJob, BackendError, BackendKind,
    BackendOptions, BackendStats, HostBackend,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SC: Scoring = Scoring::MAP_ONT;

fn random_seq(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.random_range(0u32..4) as u8).collect()
}

fn job_stream(n: usize, seed: u64, max_len: usize) -> Vec<AlignJob> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let tlen = rng.random_range(1..max_len);
            let qlen = rng.random_range(1..max_len);
            let t = random_seq(&mut rng, tlen);
            let q = random_seq(&mut rng, qlen);
            AlignJob::global(t, q, i % 2 == 0)
        })
        .collect()
}

/// Gap-fill-shaped jobs: a target of 20 to `max_len` bases and a query
/// that copies it with a substitution or indel every 16 bases on average.
fn fill_stream(n: usize, seed: u64, max_len: usize) -> Vec<AlignJob> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let tlen = rng.random_range(20..max_len);
            let t = random_seq(&mut rng, tlen);
            let mut q = Vec::with_capacity(tlen + tlen / 8);
            for &b in &t {
                match rng.random_range(0u32..48) {
                    0 => q.push(rng.random_range(0u32..4) as u8),
                    1 => q.extend([b, rng.random_range(0u32..4) as u8]),
                    2 => {}
                    _ => q.push(b),
                }
            }
            AlignJob::global(t, q, i % 4 != 0)
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

#[test]
fn both_backends_match_scalar_gold() {
    let jobs = job_stream(24, 0xBEEF, 200);
    let mut opts = BackendOptions::new(SC);
    opts.threads = 3;
    for kind in [BackendKind::Cpu, BackendKind::GpuSim] {
        let backend = prepare(kind, &opts).unwrap();
        let (results, stats) = backend.submit(jobs.clone()).unwrap();
        assert_eq!(results.len(), jobs.len());
        assert_eq!(stats.jobs, jobs.len() as u64);
        for (i, (r, j)) in results.iter().zip(&jobs).enumerate() {
            assert_eq!(*r, scalar_gold(j), "{} job {i}", backend.label());
        }
    }
}

#[test]
fn gpu_routes_oversized_pairs_to_cpu_and_counts_them() {
    // A 32 MB simulated device cannot hold a 5 kbp with-path pair
    // (~50 MB footprint); the answer must still come back, via the CPU,
    // and be identical to what the CPU backend produces.
    let mut opts = BackendOptions::new(SC);
    opts.device_mem = Some(32 << 20);
    let gpu = prepare(BackendKind::GpuSim, &opts).unwrap();
    let cpu = prepare(BackendKind::Cpu, &opts).unwrap();

    let mut rng = StdRng::seed_from_u64(7);
    let small = AlignJob::global(random_seq(&mut rng, 300), random_seq(&mut rng, 310), true);
    let big = AlignJob::global(
        random_seq(&mut rng, 5_000),
        random_seq(&mut rng, 5_000),
        true,
    );
    let jobs = vec![small, big];

    let (gpu_results, gpu_stats) = gpu.submit(jobs.clone()).unwrap();
    let (cpu_results, cpu_stats) = cpu.submit(jobs).unwrap();
    assert_eq!(gpu_results, cpu_results);
    assert_eq!(gpu_stats.fallbacks, 1, "exactly the big pair fell back");
    assert_eq!(cpu_stats.fallbacks, 0);
}

/// gpu-sim computes every job on the host executor the CPU backend uses,
/// fallback or not: on a 16 KiB device, one batch of small and large jobs
/// comes back as the scalar gold from both backends with the same lane
/// groups, and `fallbacks` counts exactly the jobs past device memory.
#[test]
fn gpu_sim_runs_every_job_in_the_cpu_lane_groups() {
    const MEM: u64 = 16_384;
    let mut jobs = fill_stream(150, 0x6A0, 60);
    jobs.extend(fill_stream(12, 0x6A1, 300));
    let mut opts = BackendOptions::new(SC);
    opts.threads = 2;
    opts.device_mem = Some(MEM);
    let (cpu_results, cpu) = prepare(BackendKind::Cpu, &opts)
        .unwrap()
        .submit(jobs.clone())
        .unwrap();
    let (gpu_results, gpu) = prepare(BackendKind::GpuSim, &opts)
        .unwrap()
        .submit(jobs.clone())
        .unwrap();
    for (i, j) in jobs.iter().enumerate() {
        assert_eq!(cpu_results[i], scalar_gold(j), "cpu job {i}");
        assert_eq!(gpu_results[i], scalar_gold(j), "gpu-sim job {i}");
    }
    let lanes = |s: &BackendStats| (s.grouped_jobs, s.lane_groups, s.lane_cells, s.grouped_cells);
    assert!(cpu.grouped_jobs > 0, "{cpu:?}");
    assert_eq!(lanes(&gpu), lanes(&cpu));
    let past_memory = jobs
        .iter()
        .filter(|j| {
            let shape = mmm_gpu::KernelJob {
                tlen: j.target.len(),
                qlen: j.query.len(),
                with_path: j.with_path,
            };
            shape.footprint() > MEM
        })
        .count() as u64;
    assert!(past_memory > 0 && past_memory < jobs.len() as u64);
    assert_eq!(gpu.fallbacks, past_memory, "{gpu:?}");
    assert_eq!(cpu.fallbacks, 0);
}

#[test]
fn mempool_reaches_steady_state_across_batches() {
    let opts = BackendOptions::new(SC);
    let gpu = HostBackend::new(BackendKind::GpuSim, &opts);
    let jobs = job_stream(16, 0xABCD, 300);
    let (_, first) = gpu.submit(jobs.clone()).unwrap();
    let peak = gpu.pool_peak_used();
    assert!(peak > 0, "warm-up must touch the pool");
    for _ in 0..3 {
        let (_, stats) = gpu.submit(jobs.clone()).unwrap();
        assert_eq!(stats.bytes_pooled, first.bytes_pooled);
    }
    assert_eq!(
        gpu.pool_peak_used(),
        peak,
        "resident pool grew after warm-up"
    );
}

#[test]
fn streams_fill_round_robin() {
    // N equal-footprint jobs on the default streams (N below the stream
    // count): round-robin assignment puts each kernel in its own slab, so
    // the pool's high-water mark is N slabs' worth, not one. A
    // single-stream pile-up would peak at one footprint.
    let gpu = HostBackend::new(BackendKind::GpuSim, &BackendOptions::new(SC));
    let jobs: Vec<AlignJob> = (0..8)
        .map(|k| {
            let t: Vec<u8> = (0..400).map(|i| ((i * 3 + k) % 4) as u8).collect();
            let q: Vec<u8> = (0..400).map(|i| ((i * 7 + k) % 4) as u8).collect();
            AlignJob::global(t, q, false)
        })
        .collect();
    let (_, stats) = gpu.submit(jobs).unwrap();
    assert_eq!(stats.fallbacks, 0);
    let per_job = stats.bytes_pooled / 8;
    assert_eq!(
        gpu.pool_peak_used(),
        8 * per_job,
        "peak occupancy must span one stream slab per job"
    );
}

/// Every kernel asserts on a scoring that overflows 8-bit arithmetic. The
/// backend reports the lowest panicking job index at any thread count, not
/// the first job it happened to run (the longest, here job 2), and the
/// panicked batch leaves the session's workers serving the next one.
#[test]
fn kernel_panics_report_the_lowest_job_index_at_any_thread_count() {
    let mut sc = SC;
    sc.q = 100;
    assert!(!sc.fits_i8());
    let mut rng = StdRng::seed_from_u64(3);
    let jobs: Vec<AlignJob> = [40, 60, 300, 80]
        .into_iter()
        .map(|len| AlignJob::global(random_seq(&mut rng, len), random_seq(&mut rng, len), true))
        .collect();
    for threads in [1, 2] {
        let mut opts = BackendOptions::new(sc);
        opts.threads = threads;
        let backend = HostBackend::new(BackendKind::Cpu, &opts);
        for submit in 0..2 {
            match backend.submit(jobs.clone()) {
                Err(BackendError::JobPanic { index: 0, .. }) => {}
                other => panic!("threads={threads}, submit {submit}: {other:?}"),
            }
        }
        assert_eq!(backend.pool().threads_spawned(), threads - 1);
    }
}

/// One session spawns its workers on the first submit and keeps them: 24
/// submits of every size, at 1 and 2 threads, spawn exactly `threads − 1`
/// (the submitting thread is worker 0), with or without a device meter.
#[test]
fn a_cpu_session_spawns_its_workers_once() {
    use BackendKind::{Cpu, GpuSim};
    for (kind, threads) in [(Cpu, 1), (Cpu, 2), (GpuSim, 1), (GpuSim, 2)] {
        let mut opts = BackendOptions::new(SC);
        opts.threads = threads;
        let backend = HostBackend::new(kind, &opts);
        assert_eq!(backend.pool().threads_spawned(), 0, "no submit, no threads");
        for seed in 0..24u64 {
            let jobs = fill_stream(1 + seed as usize % 5 * 20, seed, 90);
            let (results, _) = backend.submit(jobs.clone()).unwrap();
            for (i, (r, j)) in results.iter().zip(&jobs).enumerate() {
                assert_eq!(
                    *r,
                    scalar_gold(j),
                    "{kind:?} threads={threads} submit {seed} job {i}"
                );
            }
        }
        assert_eq!(backend.pool().threads_spawned(), threads - 1);
    }
}

#[test]
fn stats_merge_accumulates_across_batches() {
    let opts = BackendOptions::new(SC);
    let cpu = prepare(BackendKind::Cpu, &opts).unwrap();
    let mut acc = BackendStats::default();
    for seed in 0..3u64 {
        let (_, stats) = cpu.submit(job_stream(5, seed, 100)).unwrap();
        acc.merge(&stats);
    }
    assert_eq!(acc.batches, 3);
    assert_eq!(acc.jobs, 15);
    assert!(acc.cells > 0);
}

/// `BackendStats.cells` counts what the kernels count: `|T|·|Q|` per job,
/// the sum of the results' `cells` (empty sides included).
#[test]
fn submit_cells_equal_the_results_cells() {
    let mut jobs = job_stream(20, 0xCE11, 90);
    jobs.push(AlignJob::global(Vec::new(), vec![1, 2, 3], true));
    jobs.push(AlignJob::global(vec![0, 1], Vec::new(), false));
    for kind in [BackendKind::Cpu, BackendKind::GpuSim] {
        let (results, stats) = prepare(kind, &BackendOptions::new(SC))
            .unwrap()
            .submit(jobs.clone())
            .unwrap();
        let cells: u64 = results.iter().map(|r| r.cells).sum();
        assert_eq!(stats.cells, cells, "{kind:?}");
    }
}

/// The engines that align small global jobs in lane groups.
fn group_engines() -> Vec<Engine> {
    [Width::Sse, Width::Avx2, Width::Avx512]
        .into_iter()
        .map(|w| Engine::new(Layout::Manymap, w))
        .filter(Engine::is_available)
        .collect()
}

/// Three lane groups' worth of small global jobs all run grouped, at any
/// thread count, and equal the scalar gold.
#[test]
fn small_global_batches_run_in_lane_groups() {
    for engine in group_engines() {
        let lanes = engine.group_lanes().unwrap();
        let jobs = fill_stream(3 * lanes, 0x1A4E, 60);
        for threads in [1, 2] {
            let mut opts = BackendOptions::new(SC);
            opts.engine = engine;
            opts.threads = threads;
            let (results, stats) = HostBackend::new(BackendKind::Cpu, &opts)
                .submit(jobs.clone())
                .unwrap();
            assert_eq!(stats.grouped_jobs, 3 * lanes as u64, "{}", engine.label());
            assert_eq!(stats.lane_groups, 3, "{}", engine.label());
            for (i, (r, j)) in results.iter().zip(&jobs).enumerate() {
                assert_eq!(*r, scalar_gold(j), "{} job {i}", engine.label());
            }
        }
    }
}

/// 20 small jobs fill under half of an AVX-512 lane group (64 lanes) but
/// most of an AVX2 one (32): the part-filled group cascades to the
/// narrower tier instead of running pair by pair. Skipped where the engine
/// has no narrower group tier.
#[test]
fn a_part_filled_group_cascades_to_a_narrower_tier() {
    let engine = Engine::new(Layout::Manymap, Width::Avx512);
    if !engine.is_available() || !Width::Avx2.is_available() {
        eprintln!("skipped: no AVX-512 engine with an AVX2 tier below it");
        return;
    }
    let jobs: Vec<AlignJob> = fill_stream(20, 0xCA5C, 60)
        .into_iter()
        .map(|j| AlignJob::global(j.target[..20].to_vec(), j.query[..20].to_vec(), j.with_path))
        .collect();
    for threads in [1, 2] {
        let mut opts = BackendOptions::new(SC);
        opts.engine = engine;
        opts.threads = threads;
        let (results, stats) = HostBackend::new(BackendKind::Cpu, &opts)
            .submit(jobs.clone())
            .unwrap();
        assert_eq!(stats.grouped_jobs, 20, "{stats:?}");
        assert_eq!(stats.lane_groups, 1, "{stats:?}");
        for (i, (r, j)) in results.iter().zip(&jobs).enumerate() {
            assert_eq!(*r, scalar_gold(j), "job {i}");
        }
    }
}

/// One batch mixing every routing case — empty sides, jobs above every
/// tier's cap, small jobs, and a part-filled leftover — returns per job what
/// the inline per-pair path returns.
#[test]
fn mixed_batches_equal_the_per_pair_path() {
    let mut rng = StdRng::seed_from_u64(0x3117);
    let mut jobs = fill_stream(150, 0x3118, 240);
    jobs.extend(job_stream(20, 0x3119, 120));
    jobs.push(AlignJob::global(Vec::new(), random_seq(&mut rng, 30), true));
    jobs.push(AlignJob::global(random_seq(&mut rng, 30), Vec::new(), true));
    jobs.push(AlignJob::global(
        random_seq(&mut rng, 300),
        random_seq(&mut rng, 280),
        true,
    ));
    jobs.push(AlignJob::global(
        random_seq(&mut rng, 20),
        random_seq(&mut rng, 500),
        false,
    ));
    for engine in group_engines() {
        let mut opts = BackendOptions::new(SC);
        opts.engine = engine;
        opts.threads = 2;
        let (results, stats) = HostBackend::new(BackendKind::Cpu, &opts)
            .submit(jobs.clone())
            .unwrap();
        let inline = align_jobs_with_scratch(engine, &jobs, &SC, &mut AlignScratch::new());
        assert_eq!(results, inline, "{}", engine.label());
        assert!(stats.grouped_jobs > 0, "{}: {stats:?}", engine.label());
        assert!(
            stats.grouped_jobs <= jobs.len() as u64 - 4,
            "{}: {stats:?}",
            engine.label()
        );
    }
}

#[test]
fn backend_kind_parsing() {
    assert_eq!(BackendKind::parse("cpu").unwrap(), BackendKind::Cpu);
    assert_eq!(BackendKind::parse("gpu-sim").unwrap(), BackendKind::GpuSim);
    assert_eq!(BackendKind::parse("gpu").unwrap(), BackendKind::GpuSim);
    assert!(BackendKind::parse("tpu").is_err());
}
