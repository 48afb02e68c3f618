//! Cross-platform integration: the three processors' performance relations
//! hold (the paper's headline claims as invariants).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmm_align::{best_engine, best_mm2_engine, Scoring};
use mmm_gpu::{simulate_batch, DeviceSpec, GpuKernelKind, KernelJob, StreamConfig};
use mmm_knl::{
    simulate_pipeline, AffinityPolicy, MemoryMode, PipelineParams, WorkBatch, KNL_7210,
    XEON_GOLD_5115,
};

fn pairs(n: usize, len: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n)
        .map(|k| {
            let t: Vec<u8> = (0..len).map(|i| ((i * 7 + k) % 4) as u8).collect();
            let mut q = t.clone();
            for i in (0..len).step_by(11) {
                q[i] = (q[i] + 1) % 4;
            }
            (t, q)
        })
        .collect()
}

#[test]
fn headline_claim_gpu_kernel_speedup() {
    // §Abstract: up to 4.5× on the base-level alignment step; the GPU
    // kernel comparison lands at ~3× (Figure 8).
    let jobs: Vec<KernelJob> = pairs(32, 4_000)
        .into_iter()
        .map(|(t, q)| KernelJob {
            tlen: t.len(),
            qlen: q.len(),
            with_path: false,
        })
        .collect();
    let t_many = simulate_batch(
        &jobs,
        &StreamConfig {
            kind: GpuKernelKind::Manymap,
            ..Default::default()
        },
        &DeviceSpec::V100,
    )
    .sim_seconds;
    let t_mm2 = simulate_batch(
        &jobs,
        &StreamConfig {
            kind: GpuKernelKind::Mm2,
            ..Default::default()
        },
        &DeviceSpec::V100,
    )
    .sim_seconds;
    let speedup = t_mm2 / t_many;
    assert!(speedup > 2.0 && speedup < 4.5, "gpu speedup {speedup}");
}

#[test]
fn headline_claim_cpu_kernel_speedup() {
    // CPU micro: manymap ≥ minimap2 (measured; the margin depends on the
    // host, §5.2.1 reports 1.1–2.2×). The engines alternate round by round,
    // so a burst of load from elsewhere hits both, and each is judged by its
    // fastest run, the one least disturbed. 50 rounds (≈ 0.3 s) outlast the
    // tests this binary runs beside it, so some rounds run on a quiet core.
    let sc = Scoring::MAP_PB;
    let (t, q) = &pairs(1, 4_000)[0];
    let time = |e: mmm_align::Engine| {
        let s = std::time::Instant::now();
        std::hint::black_box(e.align(t, q, &sc, false));
        s.elapsed().as_secs_f64()
    };
    let (mut many, mut mm2) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..50 {
        many = many.min(time(best_engine()));
        mm2 = mm2.min(time(best_mm2_engine()));
    }
    // Generous noise margin: manymap must not be meaningfully slower.
    assert!(many < mm2 * 1.15, "manymap {many} vs minimap2 {mm2}");
}

#[test]
fn knl_overall_beats_its_minimap2_port() {
    // Figure 11 / Table 5: manymap's KNL configuration (mmap + 3-thread
    // pipeline + optimized affinity + sorting) outruns the direct port.
    let batch = WorkBatch {
        chain_cost: vec![0.003; 128],
        align_cost: vec![0.012; 128],
        in_cost: 1.0,
        out_cost: 1.0,
    };
    let batches = vec![batch.clone(), batch.clone(), batch];
    let manymap = PipelineParams::default();
    let port = PipelineParams {
        dedicated_io: false,
        mmap_input: false,
        sort_by_length: false,
        affinity: AffinityPolicy::Scatter,
    };
    let t_many = simulate_pipeline(&KNL_7210, 256, &batches, &manymap).total;
    let t_port = simulate_pipeline(&KNL_7210, 256, &batches, &port).total;
    assert!(t_many < t_port, "manymap {t_many} vs port {t_port}");
}

#[test]
fn cpu_remains_most_efficient_end_to_end() {
    // §6: "a high-end server CPU is still the most efficient platform for
    // long read alignment tasks" — the 40-thread CPU model beats the
    // 256-thread KNL model on the same workload.
    let batch = WorkBatch {
        chain_cost: vec![0.003; 256],
        align_cost: vec![0.012; 256],
        in_cost: 0.5,
        out_cost: 0.5,
    };
    let batches = vec![batch.clone(), batch];
    let p = PipelineParams::default();
    let cpu = simulate_pipeline(&XEON_GOLD_5115, 40, &batches, &p).total;
    let knl = simulate_pipeline(&KNL_7210, 256, &batches, &p).total;
    assert!(cpu < knl, "cpu {cpu} vs knl {knl}");
}

#[test]
fn mcdram_policy_matches_capacity() {
    use mmm_knl::memory::choose_mode;
    assert_eq!(choose_mode(8 << 30), MemoryMode::Mcdram);
    assert_eq!(choose_mode(20 << 30), MemoryMode::Ddr);
}
