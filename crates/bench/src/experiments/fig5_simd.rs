//! Figure 5 — "Comparison of SIMD instruction sets" (§5.2.1).
//!
//! Both DP layouts across SSE2/AVX2/AVX-512 on the CPU, score-only and
//! with-path, reported as GCUPS with the manymap/minimap2 speedup per
//! instruction set. Paper shape: manymap ≥ minimap2 everywhere, largest
//! gain on AVX2 (its cross-lane byte shift is the most expensive).
//!
//! Two tables the paper does not have, because the mapper does not live on
//! 4 kb pairs: the production-size fill (44×44, the median gap fill on the
//! benchmark's `ont_unique`), where almost every diagonal is shorter than a
//! vector, a wider tier is only as good as its masked tail step, and a lane
//! group of one pair per lane sidesteps the diagonal; and the z-drop
//! extension the mapper runs at every chain end.

use std::time::Instant;

#[cfg(target_arch = "x86_64")]
use mmm_align::simd;
use mmm_align::{
    AlignMode, AlignResult, AlignScratch, Engine, GroupJob, Layout, Scoring, Width, DEFAULT_ZDROP,
};

use crate::{format_table, measure_gcups, noisy_pair, samples_for};

/// Median-of-`samples` seconds per call over batches of `reps` calls.
fn secs_per_call(samples: usize, reps: usize, mut call: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                call();
            }
            start.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Side of the production-size fill: the median of a gap fill's longer side
/// on the benchmark's `ont_unique` (p90 108, p99 199).
const FILL_SIDE: usize = 44;

/// Pairs per production-size batch: one 64-lane group.
const FILL_PAIRS: usize = 64;

/// The mapper's median gap fill, 44×44, global, with path, over a batch of
/// 64 such pairs — per ISA and layout as `Engine` dispatches it pair by
/// pair, on the tier's own Eq. 4 kernel, and in the tier's lane groups (one
/// pair per byte lane, what the CPU backend runs). `Engine` hands a problem
/// whose longest diagonal is under eight of a tier's vectors to the next
/// narrower tier, because short diagonals are bound by the store → load
/// latency between them, which the wider accesses lengthen; the own-kernel
/// column is what that rule avoids, and the lane groups avoid the chain.
fn production_fill_table(quick: bool) -> String {
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..FILL_PAIRS)
        .map(|k| {
            let (mut t, mut q) = noisy_pair(FILL_SIDE + 8, 17 + k as u64);
            t.truncate(FILL_SIDE);
            q.truncate(FILL_SIDE);
            (t, q)
        })
        .collect();
    let sc = Scoring::MAP_ONT;
    let cells =
        pairs.iter().map(|(t, q)| t.len() * q.len()).sum::<usize>() as f64 / FILL_PAIRS as f64;
    let (samples, reps) = if quick { (3, 4) } else { (9, 100) };
    // Seconds per job of `batch`, one call over all the pairs.
    let time = |batch: &mut dyn FnMut(&mut AlignScratch, &mut Vec<AlignResult>)| {
        let mut scratch = AlignScratch::new();
        let mut out = Vec::with_capacity(FILL_PAIRS);
        secs_per_call(samples, reps, || {
            batch(&mut scratch, &mut out);
            for r in std::hint::black_box(&mut out).drain(..) {
                if let Some(c) = r.cigar {
                    scratch.recycle(c);
                }
            }
        }) / FILL_PAIRS as f64
    };
    type PairKernel<'a> = &'a dyn Fn(&[u8], &[u8], &mut AlignScratch) -> AlignResult;
    let per_pair = |kernel: PairKernel<'_>| {
        time(&mut |scratch, out| {
            out.extend(pairs.iter().map(|(t, q)| kernel(t, q, scratch)));
        })
    };
    let mut rows = Vec::new();
    for width in [Width::Sse, Width::Avx2, Width::Avx512] {
        let mut row = vec![width.label().to_string()];
        if !width.is_available() {
            row.extend(std::iter::repeat_n("-".to_string(), 7));
            rows.push(row);
            continue;
        }
        for layout in [Layout::Mm2, Layout::Manymap] {
            let engine = Engine::new(layout, width);
            let secs = per_pair(&|t, q, scratch| {
                engine.align_with_scratch(t, q, &sc, AlignMode::Global, true, scratch)
            });
            row.push(format!("{:.2}", secs * 1e6));
            row.push(format!("{:.3}", cells / secs / 1e9));
        }
        #[cfg(target_arch = "x86_64")]
        {
            let own = match width {
                Width::Avx512 => simd::avx512::align_manymap_with_scratch,
                Width::Avx2 => simd::avx2::align_manymap_with_scratch,
                _ => simd::sse::align_manymap_with_scratch,
            };
            let secs = per_pair(&|t, q, scratch| own(t, q, &sc, AlignMode::Global, true, scratch));
            row.push(format!("{:.2}", secs * 1e6));
        }
        let engine = Engine::new(Layout::Manymap, width);
        let jobs: Vec<GroupJob<'_>> = pairs
            .iter()
            .map(|(t, q)| GroupJob {
                target: t,
                query: q,
                with_path: true,
            })
            .collect();
        let secs = time(&mut |scratch, out| {
            for group in jobs.chunks(width.lanes()) {
                engine.align_group_with_scratch(group, &sc, scratch, out);
            }
        });
        row.push(format!("{:.2}", secs * 1e6));
        row.push(format!("{:.3}", cells / secs / 1e9));
        rows.push(row);
    }
    format_table(
        &format!(
            "Figure 5c — production-size fill, {FILL_PAIRS} pairs of {FILL_SIDE}x{FILL_SIDE} global with path"
        ),
        &[
            "ISA",
            "minimap2 us/job",
            "Gcells/s",
            "manymap us/job",
            "Gcells/s",
            "own kernel us/job",
            "lane groups us/job",
            "Gcells/s",
        ],
        &rows,
    )
}

/// The mapper's end extension: a 1.5 kb PacBio-like tail against a window
/// 1.5x its length, `zdrop` 400, with path. Cells are the cells handed
/// (`|T| x |Q|`), as the benchmark's `align.zdrop_mcups` counts them.
fn extension_table(quick: bool) -> String {
    let (mut t, mut q) = noisy_pair(1_500, 13);
    q.truncate(1_500);
    let window = (q.len() as f64 * 1.5) as usize + 32;
    t.extend(noisy_pair(window, 14).0);
    t.truncate(window);
    let sc = Scoring::MAP_PB;
    let cells = (t.len() * q.len()) as f64;
    let samples = if quick { 1 } else { 9 };
    let mut rows = Vec::new();
    let mut scalar_secs = None;
    for width in Width::ALL {
        if !width.is_available() {
            rows.push(vec![width.label().to_string(), "-".into(), "-".into()]);
            continue;
        }
        let engine = Engine::new(Layout::Manymap, width);
        let mut scratch = AlignScratch::new();
        let secs = secs_per_call(samples, 1, || {
            let e =
                engine.extend_zdrop_with_scratch(&t, &q, &sc, DEFAULT_ZDROP, true, &mut scratch);
            scratch.recycle(std::hint::black_box(e).cigar);
        });
        let base = *scalar_secs.get_or_insert(secs);
        rows.push(vec![
            width.label().to_string(),
            format!("{:.0}", cells / secs / 1e6),
            format!("{:.1}x", base / secs),
        ]);
    }
    format_table(
        &format!(
            "Figure 5d — z-drop extension, {} bp tail in a {} bp window (zdrop {DEFAULT_ZDROP}, with path)",
            q.len(),
            t.len()
        ),
        &["ISA", "Mcells/s handed", "vs scalar"],
        &rows,
    )
}

pub fn run(quick: bool) -> String {
    let len = 4_000;
    let (t, q) = noisy_pair(len, 11);
    let sc = Scoring::MAP_ONT;
    let mut out = String::new();

    for with_path in [false, true] {
        let mut rows = Vec::new();
        for width in [Width::Sse, Width::Avx2, Width::Avx512] {
            if !width.is_available() {
                rows.push(vec![
                    width.label().to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            }
            let samples = if quick {
                1
            } else {
                samples_for(len, with_path) * 2
            };
            let mm2 = measure_gcups(
                Engine::new(Layout::Mm2, width),
                &t,
                &q,
                &sc,
                with_path,
                samples,
            );
            let many = measure_gcups(
                Engine::new(Layout::Manymap, width),
                &t,
                &q,
                &sc,
                with_path,
                samples,
            );
            rows.push(vec![
                width.label().to_string(),
                format!("{mm2:.3}"),
                format!("{many:.3}"),
                format!("{:.2}x", many / mm2),
            ]);
        }
        out.push_str(&format_table(
            &format!(
                "Figure 5{} — SIMD instruction sets, {} bp pair ({})",
                if with_path { "b" } else { "a" },
                len,
                if with_path { "with path" } else { "score only" }
            ),
            &["ISA", "minimap2 GCUPS", "manymap GCUPS", "speedup"],
            &rows,
        ));
    }
    out.push_str("paper: manymap/minimap2 = ~1.1x (SSE2), 2.2x/1.6x (AVX2), 1.5x (AVX-512)\n");
    out.push_str(&production_fill_table(quick));
    out.push_str(&extension_table(quick));
    out
}
