//! Ablations for the design choices DESIGN.md §5 calls out.
//!
//! * A1 — memory layout alone (scalar vs scalar): Eq. 4's benefit without
//!   any SIMD;
//! * A2 — vector width sweep at fixed (manymap) layout;
//! * A3 — GPU: branch-free kernel vs divergent port, and the memory pool;
//! * A4 — KNL pipeline pieces: mmap, dedicated I/O thread, batch sorting.

use mmm_align::{Engine, Layout, Scoring, Width};
use mmm_gpu::{simulate_batch, DeviceSpec, GpuKernelKind, KernelJob, StreamConfig};
use mmm_knl::memory::effective_bandwidth;
use mmm_knl::{simulate_pipeline, MemoryMode, PipelineParams, WorkBatch, KNL_7210};

use crate::{format_table, measure_gcups, noisy_pair};

pub fn run(quick: bool) -> String {
    let sc = Scoring::MAP_ONT;
    let len = if quick { 1_000 } else { 4_000 };
    let (t, q) = noisy_pair(len, 3);
    let samples = if quick { 1 } else { 5 };
    let mut out = String::new();

    // A1: layout alone, no SIMD.
    let s_mm2 = measure_gcups(
        Engine::new(Layout::Mm2, Width::Scalar),
        &t,
        &q,
        &sc,
        false,
        samples,
    );
    let s_many = measure_gcups(
        Engine::new(Layout::Manymap, Width::Scalar),
        &t,
        &q,
        &sc,
        false,
        samples,
    );
    out.push_str(&format_table(
        "Ablation A1 — layout only (scalar kernels)",
        &["layout", "GCUPS"],
        &[
            vec!["Eq.3 (minimap2)".into(), format!("{s_mm2:.4}")],
            vec!["Eq.4 (manymap)".into(), format!("{s_many:.4}")],
        ],
    ));

    // A2: width sweep, fixed layout.
    let mut rows = Vec::new();
    for w in Width::ALL {
        if !w.is_available() {
            continue;
        }
        let g = measure_gcups(Engine::new(Layout::Manymap, w), &t, &q, &sc, false, samples);
        rows.push(vec![
            w.label().to_string(),
            w.lanes().to_string(),
            format!("{g:.3}"),
        ]);
    }
    out.push_str(&format_table(
        "Ablation A2 — vector width (manymap layout)",
        &["ISA", "lanes", "GCUPS"],
        &rows,
    ));

    // A3: GPU kernel structure and memory pool.
    let jobs: Vec<KernelJob> = (0..if quick { 16 } else { 96 })
        .map(|k| {
            let (jt, jq) = noisy_pair(len, 100 + k as u64);
            KernelJob {
                tlen: jt.len(),
                qlen: jq.len(),
                with_path: false,
            }
        })
        .collect();
    let gpu = |kind, use_pool| {
        let cfg = StreamConfig {
            kind,
            use_pool,
            ..Default::default()
        };
        simulate_batch(&jobs, &cfg, &DeviceSpec::V100).sim_seconds
    };
    let g_many = gpu(GpuKernelKind::Manymap, true);
    let g_mm2 = gpu(GpuKernelKind::Mm2, true);
    let g_nopool = gpu(GpuKernelKind::Manymap, false);
    out.push_str(&format_table(
        "Ablation A3 — GPU (simulated seconds)",
        &["variant", "time (s)", "vs manymap"],
        &[
            vec![
                "manymap kernel + pool".into(),
                format!("{g_many:.4}"),
                "1.00x".into(),
            ],
            vec![
                "divergent (minimap2) kernel".into(),
                format!("{g_mm2:.4}"),
                format!("{:.2}x", g_mm2 / g_many),
            ],
            vec![
                "manymap, no memory pool".into(),
                format!("{g_nopool:.4}"),
                format!("{:.2}x", g_nopool / g_many),
            ],
        ],
    ));

    // A4: KNL pipeline pieces over a synthetic I/O-heavy workload.
    let batch = WorkBatch {
        chain_cost: vec![0.002; 256],
        align_cost: {
            let mut v = vec![0.008; 256];
            v[255] = 0.4; // a straggler read
            v
        },
        in_cost: 2.0,
        out_cost: 0.5,
    };
    let batches = vec![batch.clone(), batch.clone(), batch.clone(), batch];
    let base = PipelineParams::default();
    let run_knl = |p: PipelineParams| simulate_pipeline(&KNL_7210, 256, &batches, &p).total;
    let full = run_knl(base);
    let variants = [
        ("full manymap pipeline", base),
        (
            "no mmap",
            PipelineParams {
                mmap_input: false,
                ..base
            },
        ),
        (
            "2-thread pipeline",
            PipelineParams {
                dedicated_io: false,
                ..base
            },
        ),
        (
            "no batch sorting",
            PipelineParams {
                sort_by_length: false,
                ..base
            },
        ),
    ];
    let rows: Vec<Vec<String>> = variants
        .iter()
        .map(|(name, p)| {
            let v = run_knl(*p);
            vec![
                name.to_string(),
                format!("{v:.3}"),
                format!("{:.2}x", v / full),
            ]
        })
        .collect();
    out.push_str(&format_table(
        "Ablation A4 — KNL pipeline pieces (simulated seconds, 256 threads)",
        &["variant", "time (s)", "slowdown"],
        &rows,
    ));

    // A5: the three KNL memory modes (§4.4.1) over growing working sets —
    // why manymap picks flat mode with a capacity check.
    let mut rows = Vec::new();
    for ws_gb in [1u64, 8, 14, 24, 64] {
        let ws = ws_gb << 30;
        rows.push(vec![
            format!("{ws_gb} GB"),
            format!("{:.0}", effective_bandwidth(ws, MemoryMode::Ddr)),
            format!("{:.0}", effective_bandwidth(ws, MemoryMode::Cache)),
            format!("{:.0}", effective_bandwidth(ws, MemoryMode::Mcdram)),
        ]);
    }
    out.push_str(&format_table(
        "Ablation A5 — KNL memory modes, effective bandwidth (GB/s)",
        &["working set", "DDR (flat)", "cache mode", "MCDRAM (flat)"],
        &rows,
    ));

    // A6: chaining design — minimap2's gap-cost DP vs classic LIS.
    {
        use mmm_chain::{chain_anchors, chain_lis, Anchor, ChainOpts};
        use mmm_index::ShardedIndex;
        use mmm_seq::{nt4_decode, SeqRecord};
        use mmm_simreads::{generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts};

        let g = generate_genome(&GenomeOpts {
            len: 200_000,
            repeat_frac: 0.25,
            repeat_unit: 2_000,
            seed: 77,
            ..Default::default()
        });
        let idx = match ShardedIndex::build(
            &[SeqRecord::new("chr1", nt4_decode(&g))],
            &mmm_index::IdxOpts::MAP_ONT,
            1,
        ) {
            Ok(i) => i,
            Err(e) => {
                out.push_str(&format!("ablation A6: index build failed: {e}\n"));
                return out;
            }
        };
        let reads = simulate_reads(
            &g,
            &SimOpts {
                platform: Platform::Nanopore,
                num_reads: if quick { 10 } else { 60 },
                seed: 6,
            },
        );
        let mut dp_correct = 0usize;
        let mut lis_correct = 0usize;
        let mut counted = 0usize;
        for r in &reads {
            let anchors: Vec<Anchor> = idx.collect_anchors(&r.seq).unwrap_or_default();
            if anchors.is_empty() {
                continue;
            }
            counted += 1;
            let within = |c: &mmm_chain::Chain| {
                let (rs, re) = c.ref_range();
                c.rev == r.origin.rev && re.min(r.origin.end) > rs.max(r.origin.start)
            };
            if chain_anchors(anchors.clone(), &ChainOpts::default())
                .first()
                .is_some_and(within)
            {
                dp_correct += 1;
            }
            if chain_lis(anchors, 3).first().is_some_and(within) {
                lis_correct += 1;
            }
        }
        out.push_str(&format_table(
            "Ablation A6 — chaining design on a 25%-repeat genome",
            &["method", "top chain on true locus"],
            &[
                vec![
                    "gap-cost DP (minimap2)".into(),
                    format!("{dp_correct}/{counted}"),
                ],
                vec![
                    "LIS (no gap model)".into(),
                    format!("{lis_correct}/{counted}"),
                ],
            ],
        ));
    }
    out
}
