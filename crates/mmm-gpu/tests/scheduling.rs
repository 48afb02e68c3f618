//! Scheduling-level invariants of the stream simulator that unit tests
//! don't cover: conservation, monotonicity and work-equivalence properties
//! that must hold for any cost model.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmm_gpu::{
    price_jobs, schedule_runs, simulate_batch, DeviceSpec, GpuKernelKind, KernelJob, MemoryPool,
    StreamConfig,
};

fn jobs(n: usize, len: usize) -> Vec<KernelJob> {
    vec![
        KernelJob {
            tlen: len,
            qlen: len + 7,
            with_path: false,
        };
        n
    ]
}

#[test]
fn makespan_never_improves_with_fewer_streams() {
    let js = jobs(48, 800);
    let dev = DeviceSpec::V100;
    let runs = price_jobs(&js, GpuKernelKind::Manymap, 512, &dev).unwrap();
    let mut prev = f64::INFINITY;
    for s in [1usize, 2, 4, 16, 48] {
        let cfg = StreamConfig {
            streams: s,
            ..Default::default()
        };
        let mut pool = MemoryPool::new(dev.global_mem, s);
        let t = schedule_runs(&js, runs.clone(), &cfg, &dev, &mut pool).sim_seconds;
        assert!(t <= prev * 1.0001, "streams={s}: {t} > {prev}");
        prev = t;
    }
}

#[test]
fn single_stream_time_is_the_sum_of_kernels() {
    let js = jobs(10, 600);
    let dev = DeviceSpec::V100;
    let cfg = StreamConfig {
        streams: 1,
        ..Default::default()
    };
    let rep = simulate_batch(&js, &cfg, &dev);
    let serial: f64 = rep.runs.iter().map(|r| r.exec_seconds).sum();
    // Makespan must be at least the pure kernel time and not much more
    // (transfers add a bounded overhead).
    assert!(rep.sim_seconds >= serial);
    assert!(
        rep.sim_seconds < serial * 1.5,
        "{} vs {}",
        rep.sim_seconds,
        serial
    );
}

#[test]
fn total_device_cells_are_conserved() {
    let js = jobs(20, 500);
    let cfg = StreamConfig::default();
    let rep = simulate_batch(&js, &cfg, &DeviceSpec::V100);
    let expect: u64 = js.iter().map(|j| (j.tlen * j.qlen) as u64).sum();
    assert_eq!(rep.device_cells, expect);
    assert!(rep.fallbacks.is_empty());
}

#[test]
fn heterogeneous_jobs_schedule_without_loss() {
    // Mixed lengths: every job is priced and placed.
    let mut js = jobs(6, 300);
    js.extend(jobs(6, 1_500));
    let cfg = StreamConfig {
        streams: 4,
        ..Default::default()
    };
    let rep = simulate_batch(&js, &cfg, &DeviceSpec::V100);
    assert_eq!(rep.runs.len(), 12);
    assert!(rep.fallbacks.is_empty());
}

#[test]
fn the_mm2_kernel_kind_takes_longer() {
    let js = jobs(8, 700);
    let dev = DeviceSpec::V100;
    let report = |kind| {
        let cfg = StreamConfig {
            kind,
            ..Default::default()
        };
        simulate_batch(&js, &cfg, &dev)
    };
    let a = report(GpuKernelKind::Mm2);
    let b = report(GpuKernelKind::Manymap);
    assert!(a.sim_seconds > b.sim_seconds);
}
