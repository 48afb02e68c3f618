//! Figure 11 — end-to-end breakdown of minimap2 vs manymap on CPU and KNL
//! (§5.3.3), plus the manymap/GPU overall time.
//!
//! Per-read stage costs are metered on the host with each system's kernel
//! configuration (minimap2 = Eq. 3 / SSE, no mmap, 2-thread pipeline,
//! unsorted batches; manymap = Eq. 4 / widest SIMD, mmap, 3-thread
//! pipeline, sorted batches); the machine models project them to the
//! paper's 40-thread CPU and 256-thread KNL. The GPU bar replaces the
//! align component with the stream simulator's time. Paper shape: manymap
//! 1.4× (CPU) and 2.3× (KNL) overall; GPU only slightly ahead of CPU.

use manymap::baselines::BaselineId;
use manymap::Mapper;
use mmm_gpu::{simulate_batch, DeviceSpec, KernelJob, StreamConfig};
use mmm_index::ShardedIndex;
use mmm_knl::{simulate_pipeline, AffinityPolicy, PipelineParams, KNL_7210, XEON_GOLD_5115};

use super::fig9_scaling::{IN_COST_PER_BASE, OUT_COST_PER_READ};
use crate::{format_table, macrodata, meter::meter_batches};

pub fn run(quick: bool) -> String {
    let n_reads = if quick { 50 } else { 500 };
    let ds = macrodata::pacbio(1_000_000, n_reads);
    // The simulated dataset carries heavy I/O relative to its compute at
    // this scale; weight it like the paper's 9.4 GB read file.
    let io_scale = 10.0;

    let mut rows = Vec::new();
    let mut totals = std::collections::HashMap::new();
    for id in [BaselineId::Minimap2, BaselineId::Manymap] {
        let opts = id.map_opts();
        let index = match ShardedIndex::build(&[ds.reference()], &opts.idx, 1) {
            Ok(i) => i,
            Err(e) => return format!("fig11_breakdown: index build failed: {e}"),
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
        let manymap = id == BaselineId::Manymap;
        let params = PipelineParams {
            dedicated_io: manymap,
            mmap_input: manymap,
            sort_by_length: manymap,
            affinity: if manymap {
                AffinityPolicy::Optimized
            } else {
                AffinityPolicy::Scatter
            },
        };
        for (machine, threads) in [(&XEON_GOLD_5115, 40usize), (&KNL_7210, 256)] {
            let r = simulate_pipeline(machine, threads, &batches, &params);
            totals.insert((id.name(), machine.name), r.total);
            rows.push(vec![
                format!("{} / {}", id.name(), machine.name),
                format!("{:.3}", r.in_time),
                format!("{:.3}", r.compute_time),
                format!("{:.3}", r.out_time),
                format!("{:.3}", r.total),
            ]);
        }
    }

    // GPU bar: manymap with the align stage executed by the stream
    // simulator (seed/chain and I/O as on the CPU).
    let gpu_total = {
        let opts = BaselineId::Manymap.map_opts();
        let index = match ShardedIndex::build(&[ds.reference()], &opts.idx, 1) {
            Ok(i) => i,
            Err(e) => return format!("fig11_breakdown: index build failed: {e}"),
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
        // CPU pipeline with the align component removed...
        let mut no_align = batches.clone();
        for b in &mut no_align {
            for a in &mut b.align_cost {
                *a = 0.0;
            }
        }
        let params = PipelineParams::default();
        let rest = simulate_pipeline(&XEON_GOLD_5115, 40, &no_align, &params).total;
        // ...plus the simulated GPU time for the base-level work: one
        // representative inter-anchor fill per read (scaled sample in quick
        // mode).
        let take = if quick { 8 } else { 64 };
        let jobs: Vec<KernelJob> = ds
            .reads
            .iter()
            .take(take)
            .map(|r| {
                let seg = (r.seq.len() / 4).clamp(64, 4000).min(r.seq.len());
                KernelJob {
                    tlen: seg,
                    qlen: seg,
                    with_path: true,
                }
            })
            .collect();
        let rep = simulate_batch(&jobs, &StreamConfig::default(), &DeviceSpec::V100);
        let per_read_gpu = rep.sim_seconds / take as f64;
        rest + per_read_gpu * ds.reads.len() as f64
    };
    rows.push(vec![
        "manymap / Tesla V100".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{gpu_total:.3}"),
    ]);

    let mut out = format_table(
        "Figure 11 — end-to-end breakdown (modeled from host-metered stage costs)",
        &[
            "system / platform",
            "input (s)",
            "compute (s)",
            "output (s)",
            "total (s)",
        ],
        &rows,
    );
    let sp = |m: &str| {
        totals
            .get(&("minimap2", m))
            .and_then(|a| totals.get(&("manymap", m)).map(|b| a / b))
    };
    if let (Some(c), Some(k)) = (sp("Xeon Gold 5115"), sp("Xeon Phi 7210")) {
        out.push_str(&format!(
            "manymap speedup: {:.2}x on CPU, {:.2}x on KNL (paper: 1.4x and 2.3x)\n",
            c, k
        ));
    }
    out
}
