//! Backend behaviour tests: CPU/GPU parity against the scalar gold,
//! oversized-pair fallback accounting, mempool steady state across batches,
//! and stream round-robin occupancy.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmm_align::{AlignMode, Layout, Scoring, Width};
use mmm_exec::{
    prepare, AlignBackend, AlignJob, BackendError, BackendKind, BackendOptions, BackendStats,
    CpuSimdBackend, GpuSimtBackend,
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

fn scalar_gold(job: &AlignJob) -> mmm_align::AlignResult {
    mmm_align::Engine::new(Layout::Manymap, Width::Scalar).align(
        &job.target,
        &job.query,
        &SC,
        job.mode,
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
    assert!(gpu_stats.fallback_seconds > 0.0);
}

#[test]
fn non_global_modes_fall_back() {
    // The device batch kernel only implements global alignment; a
    // semi-global job must route to the CPU executor, not crash or return
    // a wrong-mode answer.
    let opts = BackendOptions::new(SC);
    let gpu = prepare(BackendKind::GpuSim, &opts).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let job = AlignJob {
        target: random_seq(&mut rng, 120),
        query: random_seq(&mut rng, 100),
        mode: AlignMode::SemiGlobal,
        with_path: true,
    };
    let (results, stats) = gpu.submit(vec![job.clone()]).unwrap();
    assert_eq!(results[0], scalar_gold(&job));
    assert_eq!(stats.fallbacks, 1);
}

#[test]
fn mempool_reaches_steady_state_across_batches() {
    let opts = BackendOptions::new(SC);
    let gpu = GpuSimtBackend::new(&opts);
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
    // 4 streams × equal-footprint jobs: round-robin assignment puts one
    // kernel in every slab, so the pool's high-water mark is ~4 slabs'
    // worth, not one. A single-stream pile-up would peak at one footprint.
    let mut opts = BackendOptions::new(SC);
    opts.streams = Some(4);
    let gpu = GpuSimtBackend::new(&opts);
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
        4 * per_job,
        "peak occupancy must span all four stream slabs"
    );
}

/// Every kernel asserts on a scoring that overflows 8-bit arithmetic. The
/// backend reports the lowest panicking job index at any thread count, not
/// the first job it happened to run (the longest, here job 2).
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
        match CpuSimdBackend::new(&opts).submit(jobs.clone()) {
            Err(BackendError::JobPanic { index: 0, .. }) => {}
            other => panic!("threads={threads}: {other:?}"),
        }
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

#[test]
fn backend_kind_parsing() {
    assert_eq!(BackendKind::parse("cpu").unwrap(), BackendKind::Cpu);
    assert_eq!(BackendKind::parse("gpu-sim").unwrap(), BackendKind::GpuSim);
    assert_eq!(BackendKind::parse("gpu").unwrap(), BackendKind::GpuSim);
    assert!(BackendKind::parse("tpu").is_err());
}
