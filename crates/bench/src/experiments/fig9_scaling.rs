//! Figure 9 — manymap's thread scalability on KNL (§5.3.1).
//!
//! Per-read costs are metered on the host with the manymap configuration,
//! then the KNL pipeline simulator sweeps the thread count. Paper shape:
//! near-linear to 64 threads (≈79% efficiency on the simulated dataset),
//! then a much flatter hyper-threading region up to 256.

use manymap::{MapOpts, Mapper};
use mmm_index::ShardedIndex;
use mmm_knl::{simulate_pipeline, PipelineParams, KNL_7210};

use crate::{format_table, macrodata, meter::meter_batches};

/// Reference-core I/O costs per base/read (measured once on this host:
/// FASTA parsing ≈ 600 MB/s, PAF formatting ≈ 3 µs/read).
pub const IN_COST_PER_BASE: f64 = 1.7e-9;
pub const OUT_COST_PER_READ: f64 = 3.0e-6;

pub fn run(quick: bool) -> String {
    let n_reads = if quick { 60 } else { 600 };
    let mut out = String::new();

    for ds in [
        macrodata::pacbio(500_000, n_reads),
        macrodata::nanopore(500_000, n_reads / 2),
    ] {
        let opts = if ds.platform == mmm_simreads::Platform::PacBio {
            MapOpts::map_pb()
        } else {
            MapOpts::map_ont()
        };
        let index = match ShardedIndex::build(&[ds.reference()], &opts.idx, 1) {
            Ok(i) => i,
            Err(e) => return format!("fig9_scaling: index build failed: {e}"),
        };
        let mapper = Mapper::new(&index, opts);
        let reads: Vec<Vec<u8>> = ds.reads.iter().map(|r| r.seq.clone()).collect();
        let batches = meter_batches(&mapper, &reads, 64, IN_COST_PER_BASE, OUT_COST_PER_READ);

        let thread_counts: &[usize] = if quick {
            &[1, 64, 256]
        } else {
            &[1, 2, 4, 8, 16, 32, 64, 128, 192, 256]
        };
        let params = PipelineParams::default();
        let t1 = simulate_pipeline(&KNL_7210, 1, &batches, &params).total;
        let mut rows = Vec::new();
        for &t in thread_counts {
            let r = simulate_pipeline(&KNL_7210, t, &batches, &params);
            rows.push(vec![
                t.to_string(),
                format!("{:.3}", r.total),
                format!("{:.2}x", t1 / r.total),
                format!("{:.3}", t1 / t as f64),
                format!("{:.0}%", 100.0 * t1 / r.total / t as f64),
            ]);
        }
        out.push_str(&format_table(
            &format!("Figure 9 — KNL thread scaling, {} (simulated)", ds.label),
            &[
                "threads",
                "runtime (s)",
                "speedup",
                "linear (s)",
                "efficiency",
            ],
            &rows,
        ));
    }
    out.push_str(
        "paper: 50.55x at 64 threads (79% efficiency); +21% from 64->256 on the real dataset\n",
    );
    out
}
