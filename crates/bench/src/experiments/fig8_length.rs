//! Figure 8 — base-level alignment performance across sequence lengths on
//! the three processors (§5.2.4).
//!
//! CPU series are measured on the host; GPU series come from the stream
//! simulator at full launch width (128 streams × 512 threads); KNL series
//! from the calibrated micro model with MCDRAM and the flat-mode capacity
//! policy. Paper shape: manymap/CPU 3.3–4.5× over minimap2/CPU; GPU peaks
//! at 4 kbp and wins the mid-length range with path; KNL peaks at 8 kbp and
//! declines as per-thread state outgrows the caches; with-path GPU collapses
//! at 32 kbp (memory-capacity-limited concurrency).

use mmm_align::{best_engine, best_mm2_engine, Scoring};
use mmm_gpu::{simulate_batch, DeviceSpec, GpuKernelKind, KernelJob, StreamConfig};
use mmm_knl::memory::choose_mode;

use super::fig6_memmode::{knl_micro_gcups, working_set};
use crate::{format_table, measure_gcups, noisy_pair, samples_for, MICRO_LENGTHS};

pub fn run(quick: bool) -> String {
    let sc = Scoring::MAP_PB;
    let lengths: &[usize] = if quick {
        &[1_000, 4_000]
    } else {
        &MICRO_LENGTHS
    };
    let mut out = String::new();

    for with_path in [false, true] {
        let mut rows = Vec::new();
        for &len in lengths {
            let (t, q) = noisy_pair(len, len as u64 + 7);
            let samples = if quick {
                1
            } else {
                samples_for(len, with_path)
            };

            // CPU: measured.
            let cpu_mm2 = measure_gcups(best_mm2_engine(), &t, &q, &sc, with_path, samples);
            let cpu_many = measure_gcups(best_engine(), &t, &q, &sc, with_path, samples);

            // GPU: simulated, enough jobs to expose the concurrency limits.
            let n_jobs = if quick {
                16
            } else if with_path && len >= 16_000 {
                24 // memory-capacity-limited regime; keep host time bounded
            } else {
                160
            };
            let jobs: Vec<KernelJob> = (0..n_jobs)
                .map(|k| {
                    let (jt, jq) = noisy_pair(len, (len + k) as u64);
                    KernelJob {
                        tlen: jt.len(),
                        qlen: jq.len(),
                        with_path,
                    }
                })
                .collect();
            let gpu = |kind| {
                let cfg = StreamConfig {
                    kind,
                    ..Default::default()
                };
                simulate_batch(&jobs, &cfg, &DeviceSpec::V100).gcups()
            };
            let gpu_mm2 = gpu(GpuKernelKind::Mm2);
            let gpu_many = gpu(GpuKernelKind::Manymap);

            // KNL: micro model; flat-mode policy picks the memory type.
            let mode = choose_mode(working_set(len, with_path));
            let knl_mm2 = knl_micro_gcups(cpu_mm2 * 0.55, len, with_path, mode);
            let knl_many = knl_micro_gcups(cpu_many, len, with_path, mode);

            rows.push(vec![
                len.to_string(),
                format!("{cpu_mm2:.2}"),
                format!("{cpu_many:.2}"),
                format!("{gpu_mm2:.2}"),
                format!("{gpu_many:.2}"),
                format!("{knl_mm2:.2}"),
                format!("{knl_many:.2}"),
            ]);
        }
        out.push_str(&format_table(
            &format!(
                "Figure 8{} — GCUPS vs length ({})",
                if with_path { "b" } else { "a" },
                if with_path { "with path" } else { "score only" }
            ),
            &[
                "length",
                "CPU mm2",
                "CPU manymap",
                "GPU mm2*",
                "GPU manymap*",
                "KNL mm2*",
                "KNL manymap*",
            ],
            &rows,
        ));
    }
    out.push_str("* simulated platforms. paper: CPU 3.3-4.5x, GPU peak at 4 kbp (3.2x), KNL peak at 8 kbp (3.4x);\n  GPU with-path collapses at 32 kbp (only 8 kernels fit in 16 GB)\n");
    out
}
