//! Scheduling-level invariants of the stream simulator that unit tests
//! don't cover: conservation, monotonicity and work-equivalence properties
//! that must hold for any cost model.

use mmm_align::Scoring;
use mmm_gpu::stream::{execute_jobs, schedule_runs};
use mmm_gpu::{simulate_batch, DeviceSpec, GpuKernelKind, KernelJob, StreamConfig};

const SC: Scoring = Scoring::MAP_ONT;

fn jobs(n: usize, len: usize) -> Vec<KernelJob> {
    (0..n)
        .map(|k| KernelJob {
            target: (0..len).map(|i| ((i * 3 + k) % 4) as u8).collect(),
            query: (0..len + 7).map(|i| ((i * 11 + k) % 4) as u8).collect(),
            with_path: false,
        })
        .collect()
}

#[test]
fn makespan_never_improves_with_fewer_streams() {
    let js = jobs(48, 800);
    let dev = DeviceSpec::V100;
    let runs = execute_jobs(&js, &SC, GpuKernelKind::Manymap, 512, &dev);
    let mut prev = f64::INFINITY;
    for s in [1usize, 2, 4, 16, 48] {
        let cfg = StreamConfig {
            streams: s,
            ..Default::default()
        };
        let t = schedule_runs(&js, runs.clone(), &cfg, &dev).sim_seconds;
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
    let rep = simulate_batch(&js, &SC, &cfg, &dev);
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
    let rep = simulate_batch(&js, &SC, &cfg, &DeviceSpec::V100);
    let expect: u64 = js
        .iter()
        .map(|j| (j.target.len() * j.query.len()) as u64)
        .sum();
    assert_eq!(rep.device_cells, expect);
    assert!(rep.fallbacks.is_empty());
}

#[test]
fn heterogeneous_jobs_schedule_without_loss() {
    // Mixed lengths: every job's result must still be present and correct.
    let mut js = jobs(6, 300);
    js.extend(jobs(6, 1_500));
    let cfg = StreamConfig {
        streams: 4,
        ..Default::default()
    };
    let rep = simulate_batch(&js, &SC, &cfg, &DeviceSpec::V100);
    assert_eq!(rep.runs.len(), 12);
    for (run, job) in rep.runs.iter().zip(&js) {
        let gold = mmm_align::best_engine().align(&job.target, &job.query, &SC, false);
        assert_eq!(run.result.score, gold.score);
    }
}

#[test]
fn kernel_kind_does_not_change_results_only_time() {
    let js = jobs(8, 700);
    let dev = DeviceSpec::V100;
    let a = simulate_batch(
        &js,
        &SC,
        &StreamConfig {
            kind: GpuKernelKind::Mm2,
            ..Default::default()
        },
        &dev,
    );
    let b = simulate_batch(
        &js,
        &SC,
        &StreamConfig {
            kind: GpuKernelKind::Manymap,
            ..Default::default()
        },
        &dev,
    );
    for (x, y) in a.runs.iter().zip(&b.runs) {
        assert_eq!(x.result, y.result);
    }
    assert!(a.sim_seconds > b.sim_seconds);
}
