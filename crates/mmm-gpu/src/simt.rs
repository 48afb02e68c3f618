//! A lane-level lock-step SIMT engine executing the two GPU kernels of
//! Figure 4.
//!
//! [`crate::kernel::price_kernel`] prices kernels analytically; this module
//! *executes* them the way a thread block would — diagonals processed in
//! chunks of `threads` lanes, every lane computing one DP cell per step —
//! and records an execution trace (instruction issues, divergent branches,
//! barriers, memory accesses). Two purposes:
//!
//! * demonstrating the semantic difference between the kernels: the
//!   minimap2-layout kernel needs a read phase, a carry hand-off by lane 0
//!   and a barrier before the write phase (Figure 4a), while the
//!   manymap-layout kernel is a single dependency-free phase (Figure 4b);
//! * validating the analytic model: the trace's issue counts must scale
//!   with the model's cycle counts (tested below).

use mmm_align::diff::{cell_update, Tracker};
use mmm_align::Scoring;

use crate::kernel::GpuKernelKind;

/// Execution trace of one block.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimtTrace {
    /// Lock-step chunk issues (each retires ≤ `threads` cells).
    pub chunks: u64,
    /// `__syncthreads` barriers executed.
    pub barriers: u64,
    /// Chunks in which a divergent branch forced both sides to issue.
    pub divergent_chunks: u64,
    /// State-array loads (lane-steps).
    pub loads: u64,
    /// State-array stores (lane-steps).
    pub stores: u64,
}

/// Execute one kernel over a block of `threads` lanes; returns the global
/// alignment score and the trace.
pub fn execute_block(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    kind: GpuKernelKind,
    threads: usize,
) -> (i32, SimtTrace) {
    assert!(
        !target.is_empty() && !query.is_empty(),
        "block needs non-empty sequences"
    );
    assert!(sc.fits_i8());
    let (tlen, qlen) = (target.len(), query.len());
    let (q, e) = (sc.q, sc.e);
    let qe = q + e;
    let mut trace = SimtTrace::default();
    let mut tracker = Tracker::default();

    match kind {
        GpuKernelKind::Manymap => {
            // Figure 4b: one in-place phase, no barrier, no carry.
            let mut u = vec![-e as i8; tlen];
            let mut y = vec![-qe as i8; tlen];
            u[0] = -qe as i8;
            let mut v = vec![-e as i8; qlen + 1];
            let mut x = vec![-qe as i8; qlen + 1];
            v[qlen] = -qe as i8;

            for r in 0..tlen + qlen - 1 {
                let st = r.saturating_sub(qlen - 1);
                let en = r.min(tlen - 1);
                let off = st + qlen - r;
                let mut t = st;
                while t <= en {
                    let lanes = threads.min(en - t + 1);
                    trace.chunks += 1;
                    trace.loads += 6 * lanes as u64; // tv, qv, x, v, u, y
                    trace.stores += 4 * lanes as u64;
                    for lane in 0..lanes {
                        let tt = t + lane;
                        let tp = tt - st + off;
                        let s = sc.subst(target[tt], query[r - tt]);
                        let (un, vn, xn, yn, _) = cell_update(
                            s,
                            x[tp] as i32,
                            v[tp] as i32,
                            y[tt] as i32,
                            u[tt] as i32,
                            q,
                            qe,
                        );
                        u[tt] = un;
                        v[tp] = vn;
                        x[tp] = xn;
                        y[tt] = yn;
                    }
                    t += lanes;
                }
                let v_st0 = v[qlen - r.min(qlen)] as i32;
                let v_en = v[en + qlen - r] as i32;
                tracker.diag(r, st, en, u[st] as i32, u[en] as i32, v_st0, v_en, qe);
            }
        }
        GpuKernelKind::Mm2 => {
            // Figure 4a: read phase (lane 0 takes the carry and saves the
            // next one), barrier, write phase — per chunk.
            let mut u = vec![-e as i8; tlen];
            let mut v = vec![0i8; tlen];
            let mut x = vec![0i8; tlen];
            let mut y = vec![-qe as i8; tlen];
            u[0] = -qe as i8;

            for r in 0..tlen + qlen - 1 {
                let st = r.saturating_sub(qlen - 1);
                let en = r.min(tlen - 1);
                let (mut xcarry, mut vcarry) = if st == 0 {
                    (-qe, if r == 0 { -qe } else { -e })
                } else {
                    (x[st - 1] as i32, v[st - 1] as i32)
                };
                let mut t = st;
                while t <= en {
                    let lanes = threads.min(en - t + 1);
                    trace.chunks += 1;
                    trace.divergent_chunks += 1; // the tid==0 branch
                    trace.barriers += 1; // __syncthreads between read & write
                    trace.loads += 6 * lanes as u64;
                    trace.stores += 4 * lanes as u64;

                    // Read phase: every lane latches its operands; lane 0
                    // uses the carry; the carry for the NEXT chunk is the
                    // old value at this chunk's last cell.
                    let mut regs = Vec::with_capacity(lanes);
                    for lane in 0..lanes {
                        let tt = t + lane;
                        let (xin, vin) = if lane == 0 {
                            (xcarry, vcarry)
                        } else {
                            (x[tt - 1] as i32, v[tt - 1] as i32)
                        };
                        regs.push((xin, vin, y[tt] as i32, u[tt] as i32));
                    }
                    let next_carry = (x[t + lanes - 1] as i32, v[t + lanes - 1] as i32);

                    // ---- barrier ----

                    // Write phase.
                    for (lane, &(xin, vin, yin, uin)) in regs.iter().enumerate() {
                        let tt = t + lane;
                        let s = sc.subst(target[tt], query[r - tt]);
                        let (un, vn, xn, yn, _) = cell_update(s, xin, vin, yin, uin, q, qe);
                        u[tt] = un;
                        v[tt] = vn;
                        x[tt] = xn;
                        y[tt] = yn;
                    }
                    xcarry = next_carry.0;
                    vcarry = next_carry.1;
                    t += lanes;
                }
                tracker.diag(
                    r,
                    st,
                    en,
                    u[st] as i32,
                    u[en] as i32,
                    v[0] as i32,
                    v[en] as i32,
                    qe,
                );
            }
        }
    }

    (tracker.finalize(), trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::kernel::{price_kernel, KernelJob};
    use mmm_align::scalar;

    const SC: Scoring = Scoring::MAP_ONT;

    fn pair(n: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
        let mut s = seed | 1;
        let mut rnd = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (s >> 33) as usize
        };
        let t: Vec<u8> = (0..n).map(|_| (rnd() % 4) as u8).collect();
        let mut q = t.clone();
        for _ in 0..n / 9 {
            let p = rnd() % q.len();
            q[p] = (rnd() % 4) as u8;
        }
        (t, q)
    }

    #[test]
    fn both_kernels_compute_the_scalar_score() {
        for len in [63usize, 250, 700] {
            let (t, q) = pair(len, len as u64);
            let gold = scalar::align_manymap(&t, &q, &SC, false).score;
            for kind in [GpuKernelKind::Mm2, GpuKernelKind::Manymap] {
                for threads in [32, 128, 512] {
                    let (score, _) = execute_block(&t, &q, &SC, kind, threads);
                    assert_eq!(score, gold, "{kind:?} len={len} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn mm2_kernel_pays_barriers_and_divergence_manymap_does_not() {
        let (t, q) = pair(600, 7);
        let (_, mm2) = execute_block(&t, &q, &SC, GpuKernelKind::Mm2, 128);
        let (_, many) = execute_block(&t, &q, &SC, GpuKernelKind::Manymap, 128);
        assert_eq!(many.barriers, 0);
        assert_eq!(many.divergent_chunks, 0);
        assert_eq!(mm2.barriers, mm2.chunks);
        assert_eq!(mm2.divergent_chunks, mm2.chunks);
        assert_eq!(mm2.chunks, many.chunks); // same work decomposition
    }

    #[test]
    fn chunk_count_matches_the_analytic_model() {
        // The trace's chunk count is exactly what price_kernel charges per
        // diagonal: Σ ⌈width/threads⌉.
        let (t, q) = pair(900, 3);
        let (_, trace) = execute_block(&t, &q, &SC, GpuKernelKind::Manymap, 256);
        let mut expect = 0u64;
        let (tlen, qlen) = (t.len(), q.len());
        for r in 0..tlen + qlen - 1 {
            let st = r.saturating_sub(qlen - 1);
            let en = r.min(tlen - 1);
            expect += ((en - st + 1) as u64).div_ceil(256);
        }
        assert_eq!(trace.chunks, expect);
    }

    #[test]
    fn analytic_cycle_ratio_tracks_trace_ratio() {
        // The model's mm2/manymap cycle ratio must agree in *direction and
        // rough magnitude* with the trace-level extra work (barrier +
        // divergence per chunk).
        let (t, q) = pair(2_000, 5);
        let dev = DeviceSpec::V100;
        let job = KernelJob {
            tlen: t.len(),
            qlen: q.len(),
            with_path: false,
        };
        let a = price_kernel(job, GpuKernelKind::Mm2, 512, &dev).unwrap();
        let b = price_kernel(job, GpuKernelKind::Manymap, 512, &dev).unwrap();
        let model_ratio = a.cycles as f64 / b.cycles as f64;
        assert!(
            model_ratio > 1.5 && model_ratio < 5.0,
            "model ratio {model_ratio}"
        );
        let (_, tr_mm2) = execute_block(&t, &q, &SC, GpuKernelKind::Mm2, 512);
        assert!(tr_mm2.barriers > 0);
    }

    #[test]
    fn loads_and_stores_scale_with_cells() {
        let (t, q) = pair(300, 11);
        let (_, tr) = execute_block(&t, &q, &SC, GpuKernelKind::Manymap, 512);
        let cells = (t.len() * q.len()) as u64;
        assert_eq!(tr.loads, 6 * cells);
        assert_eq!(tr.stores, 4 * cells);
    }
}
