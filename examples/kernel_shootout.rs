//! Compare every base-level alignment kernel on one sequence pair: the two
//! DP layouts × four CPU vector widths, plus the simulated GPU kernels.
//!
//! ```sh
//! cargo run --release --example kernel_shootout -- 4000
//! ```

use std::time::Instant;

use mmm_align::{Engine, Scoring, Width};
use mmm_gpu::{run_kernel, DeviceSpec, GpuKernelKind};

fn noisy_pair(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut state = seed;
    let mut rnd = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as usize
    };
    let t: Vec<u8> = (0..len).map(|_| (rnd() % 4) as u8).collect();
    let mut q = t.clone();
    for _ in 0..len / 8 {
        let p = rnd() % q.len();
        match rnd() % 3 {
            0 => q[p] = (rnd() % 4) as u8,
            1 => q.insert(p, (rnd() % 4) as u8),
            _ => {
                q.remove(p);
            }
        }
    }
    (t, q)
}

fn main() {
    let len: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4000);
    let (t, q) = noisy_pair(len, 99);
    let sc = Scoring::MAP_ONT;
    let cells = (t.len() as f64) * (q.len() as f64);

    println!("{len} bp pair, {} total cells\n", cells as u64);
    println!("{:<22} {:>10} {:>12}", "kernel", "score", "GCUPS");

    for e in Engine::all() {
        if !e.is_available() {
            println!("{:<22} {:>10}", e.label(), "(unavailable)");
            continue;
        }
        let reps = if e.width == Width::Scalar { 1 } else { 5 };
        let start = Instant::now();
        let mut score = 0;
        for _ in 0..reps {
            score = e.align(&t, &q, &sc, false).score;
        }
        let secs = start.elapsed().as_secs_f64() / reps as f64;
        println!(
            "{:<22} {:>10} {:>12.3}",
            e.label(),
            score,
            cells / secs / 1e9
        );
    }

    // Simulated GPU kernels: one block of 512 threads each (per-kernel
    // throughput; the stream engine multiplies this by concurrency).
    for kind in [GpuKernelKind::Mm2, GpuKernelKind::Manymap] {
        let run = run_kernel(&t, &q, &sc, kind, false, 512, &DeviceSpec::V100);
        println!(
            "{:<22} {:>10} {:>12.3}   (simulated; {} cycles, shared={})",
            kind.label(),
            run.result.score,
            cells / run.exec_seconds / 1e9,
            run.cycles,
            run.used_shared
        );
    }
}
