//! The simulated GPU alignment kernels.
//!
//! Functional results are produced by the same difference-recurrence
//! semantics as the CPU kernels (delegating to `mmm_align::scalar`, whose
//! lock-step-per-diagonal structure *is* the SIMT execution order — the
//! crate's property tests guarantee bit-identical output across all
//! layouts). Timing is accumulated per diagonal from the SIMT structure:
//! chunks of `threads` lanes, per-lane issue-slot counts, shared vs global
//! memory costs, and — for the minimap2 layout — the per-chunk divergent
//! branch and `__syncthreads` barrier of Figure 4a.

use mmm_align::types::AlignResult;
use mmm_align::{best_engine, best_mm2_engine, Scoring};

use crate::device::DeviceSpec;
use crate::error::GpuError;

/// Which DP layout the kernel implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GpuKernelKind {
    /// Equation (3): divergent `tid == 0` branch + barrier per chunk.
    Mm2,
    /// Equation (4): branch-free (Figure 4b).
    Manymap,
}

impl GpuKernelKind {
    /// Figure label used by the harnesses.
    pub fn label(self) -> &'static str {
        match self {
            GpuKernelKind::Mm2 => "minimap2/GPU",
            GpuKernelKind::Manymap => "manymap/GPU",
        }
    }
}

/// Outcome of one simulated kernel.
#[derive(Clone, Debug)]
pub struct KernelRun {
    pub result: AlignResult,
    /// Simulated SM cycles.
    pub cycles: u64,
    /// Device memory footprint (sequences + DP state + backtrack matrix).
    pub footprint: u64,
    /// Whether the DP state fit in shared memory.
    pub used_shared: bool,
    /// Kernel execution time (excludes transfers), seconds.
    pub exec_seconds: f64,
}

/// Issue slots per lane per cell, manymap layout (arithmetic + shared-mem
/// state accesses; calibrated so one block sustains ~0.4 GCUPS and 80
/// concurrent blocks land in the tens of GCUPS, the V100 class).
const SLOTS_MANYMAP: u64 = 120;
/// Issue slots per lane per cell for the ported minimap2 layout: the
/// shifted accesses, the `tid == 0` special case executed by *all* warps
/// (divergence), and extra index arithmetic. Together with the per-chunk
/// barrier this calibrates the manymap-vs-minimap2 GPU gap to Figure 8's
/// ≈3.2× at 4 kbp.
const SLOTS_MM2: u64 = 380;
/// `__syncthreads` barrier latency per chunk (mm2 kernel only), cycles.
const SYNC_CYCLES: u64 = 300;
/// Multiplier on state-access slots when the DP arrays spill to global
/// memory (§4.5.2: coalesced but uncached).
const GLOBAL_MEM_FACTOR: u64 = 3;
/// Extra per-cell slots for writing the backtrack matrix (always global).
const PATH_STORE_SLOTS: u64 = 60;

/// Device memory needed by one kernel.
pub fn kernel_footprint(tlen: usize, qlen: usize, with_path: bool) -> u64 {
    let seqs = (tlen + qlen) as u64;
    let state = (4 * tlen + 2 * qlen + 64) as u64;
    // Two bytes per cell with path: direction bits plus the packed z
    // values the backtracking pass re-reads (matches §4.5.2's "32 kbp pair
    // needs 2 GB" example).
    let dir = if with_path {
        2 * tlen as u64 * qlen as u64
    } else {
        0
    };
    seqs + state + dir + 4096
}

/// DP-state bytes that compete for shared memory.
fn state_bytes(tlen: usize, qlen: usize) -> usize {
    4 * tlen + 2 * qlen + 64
}

/// Execute one alignment kernel on the simulated device.
///
/// ```
/// use mmm_align::Scoring;
/// use mmm_gpu::{run_kernel, DeviceSpec, GpuKernelKind};
/// let t = mmm_seq::to_nt4(b"ACGTACGTACGT");
/// let run = run_kernel(&t, &t, &Scoring::MAP_ONT, GpuKernelKind::Manymap,
///                      false, 512, &DeviceSpec::V100);
/// assert_eq!(run.result.score, 24);
/// assert!(run.used_shared && run.cycles > 0);
/// ```
pub fn run_kernel(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    kind: GpuKernelKind,
    with_path: bool,
    threads: usize,
    dev: &DeviceSpec,
) -> KernelRun {
    match try_run_kernel(target, query, sc, kind, with_path, threads, dev) {
        Ok(run) => run,
        Err(e) => panic!("run_kernel: {e}"),
    }
}

/// Fallible variant of [`run_kernel`]: an invalid launch configuration or
/// overflowing scoring comes back as a [`GpuError`] instead of a panic, so
/// batch drivers can degrade through the pipeline's error chain.
pub fn try_run_kernel(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    kind: GpuKernelKind,
    with_path: bool,
    threads: usize,
    dev: &DeviceSpec,
) -> Result<KernelRun, GpuError> {
    if !(32..=1024).contains(&threads) {
        return Err(GpuError::BlockSize { threads });
    }
    if !sc.fits_i8() {
        return Err(GpuError::ScoringOverflow);
    }
    let (tlen, qlen) = (target.len(), query.len());

    // Functional pass — lock-step diagonal semantics. All kernel variants
    // are bit-identical (property-tested in mmm-align), so the simulator
    // may use the fastest host kernel of the matching layout for the
    // values.
    let result = match kind {
        GpuKernelKind::Mm2 => best_mm2_engine().align(target, query, sc, with_path),
        GpuKernelKind::Manymap => best_engine().align(target, query, sc, with_path),
    };

    let used_shared = state_bytes(tlen, qlen) <= dev.shared_mem_per_block;
    let mem_factor = if used_shared { 1 } else { GLOBAL_MEM_FACTOR };
    let base_slots = match kind {
        GpuKernelKind::Mm2 => SLOTS_MM2,
        GpuKernelKind::Manymap => SLOTS_MANYMAP,
    } * mem_factor
        + if with_path { PATH_STORE_SLOTS } else { 0 };

    // Timing pass over the anti-diagonals.
    let mut cycles: u64 = 0;
    if tlen > 0 && qlen > 0 {
        let lanes = dev.lanes_per_sm as u64;
        for r in 0..tlen + qlen - 1 {
            let st = r.saturating_sub(qlen - 1);
            let en = r.min(tlen - 1);
            let width = (en - st + 1) as u64;
            let chunks = width.div_ceil(threads as u64);
            // Each chunk retires `threads` cells; the SM issues `lanes`
            // lanes per cycle, so a chunk costs `slots × ⌈threads/lanes⌉`
            // cycles plus fixed loop/addressing overhead.
            let issue = (threads as u64).div_ceil(lanes);
            cycles += chunks * (base_slots * issue + 40);
            if kind == GpuKernelKind::Mm2 {
                cycles += chunks * SYNC_CYCLES;
            }
            cycles += 12; // diagonal loop overhead
        }
    }
    let exec_seconds = cycles as f64 / (dev.clock_ghz * 1e9);

    Ok(KernelRun {
        result,
        cycles,
        footprint: kernel_footprint(tlen, qlen, with_path),
        used_shared,
        exec_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SC: Scoring = Scoring::MAP_ONT;

    fn pair(n: usize) -> (Vec<u8>, Vec<u8>) {
        let t: Vec<u8> = (0..n).map(|i| ((i * 7 + 1) % 4) as u8).collect();
        let q: Vec<u8> = (0..n).map(|i| ((i * 5 + 2) % 4) as u8).collect();
        (t, q)
    }

    #[test]
    fn results_match_cpu_kernels() {
        let (t, q) = pair(600);
        for kind in [GpuKernelKind::Mm2, GpuKernelKind::Manymap] {
            let g = run_kernel(&t, &q, &SC, kind, true, 512, &DeviceSpec::V100);
            let c = mmm_align::scalar::align_manymap(&t, &q, &SC, true);
            assert_eq!(g.result, c, "{kind:?}");
        }
    }

    #[test]
    fn manymap_kernel_is_faster_than_mm2_port() {
        // Figure 8a: up to ~3.2× at 4 kbp.
        let (t, q) = pair(4000);
        let a = run_kernel(
            &t,
            &q,
            &SC,
            GpuKernelKind::Mm2,
            false,
            512,
            &DeviceSpec::V100,
        );
        let b = run_kernel(
            &t,
            &q,
            &SC,
            GpuKernelKind::Manymap,
            false,
            512,
            &DeviceSpec::V100,
        );
        let speedup = a.cycles as f64 / b.cycles as f64;
        assert!(speedup > 2.0 && speedup < 4.5, "speedup={speedup}");
    }

    #[test]
    fn long_sequences_spill_to_global_memory() {
        // §5.2.4: past ~16 kbp the score arrays exceed 96 KiB shared.
        let (t8, q8) = pair(8_000);
        let (t32, q32) = pair(32_000);
        let short = run_kernel(
            &t8,
            &q8,
            &SC,
            GpuKernelKind::Manymap,
            false,
            512,
            &DeviceSpec::V100,
        );
        let long = run_kernel(
            &t32,
            &q32,
            &SC,
            GpuKernelKind::Manymap,
            false,
            512,
            &DeviceSpec::V100,
        );
        assert!(short.used_shared);
        assert!(!long.used_shared);
        // Per-cell cost jumps when spilled.
        let cpc_short = short.cycles as f64 / (8e3 * 8e3);
        let cpc_long = long.cycles as f64 / (32e3 * 32e3);
        assert!(cpc_long > 2.0 * cpc_short, "{cpc_long} vs {cpc_short}");
    }

    #[test]
    fn with_path_footprint_matches_paper_example() {
        // §4.5.2: "two sequences of 32 thousands bp each, then 2 GB memory
        // is required to calculate the alignment path".
        let f = kernel_footprint(32_000, 32_000, true);
        assert!(
            f > 900 << 20 && f < (2u64 << 30) + (1 << 20),
            "footprint={f}"
        );
        // Score-only stays linear.
        assert!(kernel_footprint(32_000, 32_000, false) < 1 << 20);
    }

    #[test]
    fn more_threads_reduce_cycles() {
        let (t, q) = pair(4000);
        let t128 = run_kernel(
            &t,
            &q,
            &SC,
            GpuKernelKind::Manymap,
            false,
            128,
            &DeviceSpec::V100,
        );
        let t512 = run_kernel(
            &t,
            &q,
            &SC,
            GpuKernelKind::Manymap,
            false,
            512,
            &DeviceSpec::V100,
        );
        assert!(t512.cycles < t128.cycles);
    }
}
