//! Figure 7 — performance of varied numbers of CUDA streams (§5.2.3).
//!
//! 4 kbp workload, streams 1 → 128, score-only and with-path. Paper shape:
//! linear speedup to 64 streams, only a slight further increase at 128
//! (the resident-grid/SM limits), overall speedups ~90× and ~77×.

use mmm_gpu::{simulate_batch, DeviceSpec, GpuKernelKind, KernelJob, StreamConfig};

use crate::{format_table, noisy_pair};

pub fn run(quick: bool) -> String {
    let len = if quick { 1_000 } else { 4_000 };
    let n_jobs = if quick { 64 } else { 256 };
    let jobs: Vec<KernelJob> = (0..n_jobs)
        .map(|k| {
            let (t, q) = noisy_pair(len, k as u64 + 1);
            KernelJob {
                tlen: t.len(),
                qlen: q.len(),
                with_path: false,
            }
        })
        .collect();
    let jobs_path: Vec<KernelJob> = jobs
        .iter()
        .map(|&j| KernelJob {
            with_path: true,
            ..j
        })
        .collect();

    let stream_counts: &[usize] = if quick {
        &[1, 8, 64]
    } else {
        &[1, 2, 4, 8, 16, 32, 64, 128]
    };
    let dev = DeviceSpec::V100;
    let mut rows = Vec::new();
    let mut base = (0.0, 0.0);
    for &s in stream_counts {
        let cfg = StreamConfig {
            streams: s,
            kind: GpuKernelKind::Manymap,
            ..Default::default()
        };
        let score = simulate_batch(&jobs, &cfg, &dev);
        let path = simulate_batch(&jobs_path, &cfg, &dev);
        if s == 1 {
            base = (score.sim_seconds, path.sim_seconds);
        }
        rows.push(vec![
            s.to_string(),
            format!("{:.2}", score.gcups()),
            format!("{:.1}x", base.0 / score.sim_seconds),
            format!("{:.2}", path.gcups()),
            format!("{:.1}x", base.1 / path.sim_seconds),
            score.max_concurrency.to_string(),
        ]);
    }
    let mut out = format_table(
        &format!("Figure 7 — CUDA streams, {n_jobs} pairs of {len} bp (simulated V100)"),
        &[
            "streams",
            "score GCUPS",
            "speedup",
            "path GCUPS",
            "speedup",
            "max conc",
        ],
        &rows,
    );
    out.push_str("paper: linear to 64 streams; 90x / 77.4x total at 128 streams\n");
    out
}
