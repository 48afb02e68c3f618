//! "Accelerating long read alignment on three processors" in one program:
//! run the same base-level alignment workload on the real CPU, the
//! simulated Tesla V100 and the simulated Xeon Phi, and print a Figure
//! 11-style comparison.
//!
//! ```sh
//! cargo run --release --example three_processors
//! ```

use std::time::Instant;

use mmm_align::{best_engine, Scoring};
use mmm_gpu::{simulate_batch, DeviceSpec, GpuKernelKind, KernelJob, StreamConfig};
use mmm_knl::{
    simulate_pipeline, AffinityPolicy, PipelineParams, WorkBatch, KNL_7210, XEON_GOLD_5115,
};

fn noisy_pair(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut state = seed;
    let mut rnd = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as usize
    };
    let t: Vec<u8> = (0..len).map(|_| (rnd() % 4) as u8).collect();
    let mut q = t.clone();
    for _ in 0..len / 10 {
        let p = rnd() % q.len();
        q[p] = (rnd() % 4) as u8;
    }
    (t, q)
}

fn main() {
    let sc = Scoring::MAP_PB;
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..48).map(|k| noisy_pair(3000, k as u64)).collect();
    let cells: f64 = pairs
        .iter()
        .map(|(t, q)| t.len() as f64 * q.len() as f64)
        .sum();

    // CPU: real execution with the widest manymap kernel, then projected to
    // the paper's 40-thread Xeon Gold via the machine model.
    let engine = best_engine();
    let start = Instant::now();
    let mut per_read = Vec::new();
    for (t, q) in &pairs {
        let t0 = Instant::now();
        std::hint::black_box(engine.align(t, q, &sc, false));
        per_read.push(t0.elapsed().as_secs_f64());
    }
    let cpu_single = start.elapsed().as_secs_f64();
    println!(
        "CPU  ({}, 1 thread, measured): {:.4}s  {:.2} GCUPS",
        engine.label(),
        cpu_single,
        cells / cpu_single / 1e9
    );

    let batch = WorkBatch {
        chain_cost: vec![0.0; per_read.len()],
        align_cost: per_read.clone(),
        in_cost: 0.001,
        out_cost: 0.001,
    };
    let params = PipelineParams {
        affinity: AffinityPolicy::Scatter,
        ..Default::default()
    };
    let cpu40 = simulate_pipeline(&XEON_GOLD_5115, 40, std::slice::from_ref(&batch), &params);
    println!(
        "CPU  (Xeon Gold 5115, 40 threads, modeled): {:.4}s",
        cpu40.total
    );

    // GPU: simulated V100, 128 streams × 512 threads.
    let jobs: Vec<KernelJob> = pairs
        .iter()
        .map(|(t, q)| KernelJob {
            tlen: t.len(),
            qlen: q.len(),
            with_path: false,
        })
        .collect();
    let cfg = StreamConfig {
        kind: GpuKernelKind::Manymap,
        ..Default::default()
    };
    let rep = simulate_batch(&jobs, &cfg, &DeviceSpec::V100);
    println!(
        "GPU  (Tesla V100, simulated): {:.4}s  {:.2} GCUPS  (peak concurrency {})",
        rep.sim_seconds,
        rep.gcups(),
        rep.max_concurrency
    );

    // KNL: simulated Xeon Phi 7210, 256 threads, optimized affinity.
    let knl = simulate_pipeline(
        &KNL_7210,
        256,
        std::slice::from_ref(&batch),
        &PipelineParams::default(),
    );
    println!(
        "KNL  (Xeon Phi 7210, 256 threads, modeled): {:.4}s",
        knl.total
    );

    println!("\n(the GPU wins the kernel micro-benchmark; the CPU stays the most efficient end-to-end platform — the paper's conclusion)");
}
