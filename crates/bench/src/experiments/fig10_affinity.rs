//! Figure 10 — thread affinity strategies on KNL (§5.3.2).
//!
//! Same metered workloads as Figure 9; the simulator sweeps the thread
//! count under `compact`, `scatter` and `optimized`. Paper shape: compact
//! ≈2× slower while threads ≤ cores, converging at full occupancy;
//! optimized matches scatter below 64 threads and beats it by up to ~22%
//! at ≥150 threads on the I/O-heavier simulated dataset.

use manymap::{MapOpts, Mapper};
use mmm_index::ShardedIndex;
use mmm_knl::{simulate_pipeline, AffinityPolicy, PipelineParams, KNL_7210};

use super::fig9_scaling::{IN_COST_PER_BASE, OUT_COST_PER_READ};
use crate::{format_table, macrodata, meter::meter_batches};

pub fn run(quick: bool) -> String {
    let n_reads = if quick { 60 } else { 600 };
    let mut out = String::new();

    for (ds, io_scale) in [
        (macrodata::pacbio(500_000, n_reads), 12.0), // 9.4 GB of reads: I/O matters
        (macrodata::nanopore(500_000, n_reads / 2), 3.0), // 2.7 GB: less I/O
    ] {
        let opts = if ds.platform == mmm_simreads::Platform::PacBio {
            MapOpts::map_pb()
        } else {
            MapOpts::map_ont()
        };
        let index = match ShardedIndex::build(&[ds.reference()], &opts.idx, 1) {
            Ok(i) => i,
            Err(e) => return format!("fig10_affinity: index build failed: {e}"),
        };
        let mapper = Mapper::new(&index, opts);
        let reads: Vec<Vec<u8>> = ds.reads.iter().map(|r| r.seq.clone()).collect();
        let batches = meter_batches(
            &mapper,
            &reads,
            64,
            IN_COST_PER_BASE * io_scale,
            OUT_COST_PER_READ * io_scale,
        );

        let thread_counts: &[usize] = if quick {
            &[32, 256]
        } else {
            &[16, 32, 64, 128, 150, 192, 256]
        };
        let mut rows = Vec::new();
        for &t in thread_counts {
            let mut cells = vec![t.to_string()];
            for policy in AffinityPolicy::ALL {
                let params = PipelineParams {
                    affinity: policy,
                    ..Default::default()
                };
                let r = simulate_pipeline(&KNL_7210, t, &batches, &params);
                cells.push(format!("{:.3}", r.total));
            }
            rows.push(cells);
        }
        out.push_str(&format_table(
            &format!(
                "Figure 10 — affinity strategies, {} (simulated seconds)",
                ds.label
            ),
            &["threads", "compact", "scatter", "optimized"],
            &rows,
        ));
    }
    out.push_str("paper: compact ~2x slower at <=64 threads; optimized up to 22% over scatter at >=150 threads\n");
    out
}
