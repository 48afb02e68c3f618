//! The simulated GPU alignment kernels, priced.
//!
//! A kernel's values are the host executor's (every kernel tier returns the
//! scalar gold's bytes); this module prices one from its shape alone.
//! Timing is accumulated per diagonal from the SIMT structure: chunks of
//! `threads` lanes, per-lane issue-slot counts, shared vs global memory
//! costs, and — for the minimap2 layout — the per-chunk divergent branch
//! and `__syncthreads` barrier of Figure 4a. [`crate::simt`] executes the
//! same diagonal order lane by lane and checks the chunk count.

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

/// The shape of one alignment job: all the model needs to place and price
/// its kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelJob {
    pub tlen: usize,
    pub qlen: usize,
    pub with_path: bool,
}

impl KernelJob {
    /// DP cells, `tlen·qlen`.
    pub fn cells(self) -> u64 {
        self.tlen as u64 * self.qlen as u64
    }

    /// Device memory the kernel needs: sequences, DP state and, with path,
    /// the backtrack matrix.
    pub fn footprint(self) -> u64 {
        let seqs = (self.tlen + self.qlen) as u64;
        // Two bytes per cell with path: direction bits plus the packed z
        // values the backtracking pass re-reads (matches §4.5.2's "32 kbp
        // pair needs 2 GB" example).
        let dir = if self.with_path { 2 * self.cells() } else { 0 };
        seqs + state_bytes(self.tlen, self.qlen) as u64 + dir + 4096
    }
}

/// Price of one simulated kernel.
#[derive(Clone, Copy, Debug)]
pub struct KernelRun {
    /// Simulated SM cycles.
    pub cycles: u64,
    /// Device memory footprint ([`KernelJob::footprint`]).
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

/// DP-state bytes that compete for shared memory.
fn state_bytes(tlen: usize, qlen: usize) -> usize {
    4 * tlen + 2 * qlen + 64
}

/// Price one alignment kernel on the simulated device. A block size
/// outside the device's range is a typed [`GpuError`], never a panic.
///
/// ```
/// use mmm_gpu::{price_kernel, DeviceSpec, GpuKernelKind, KernelJob};
/// let job = KernelJob { tlen: 12, qlen: 12, with_path: false };
/// let run = price_kernel(job, GpuKernelKind::Manymap, 512, &DeviceSpec::V100);
/// assert!(run.is_ok_and(|r| r.used_shared && r.cycles > 0));
/// ```
pub fn price_kernel(
    job: KernelJob,
    kind: GpuKernelKind,
    threads: usize,
    dev: &DeviceSpec,
) -> Result<KernelRun, GpuError> {
    if !(32..=1024).contains(&threads) {
        return Err(GpuError::BlockSize { threads });
    }
    let KernelJob {
        tlen,
        qlen,
        with_path,
    } = job;
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
        cycles,
        footprint: job.footprint(),
        used_shared,
        exec_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn price(n: usize, kind: GpuKernelKind, threads: usize) -> KernelRun {
        let job = KernelJob {
            tlen: n,
            qlen: n,
            with_path: false,
        };
        price_kernel(job, kind, threads, &DeviceSpec::V100).unwrap()
    }

    #[test]
    fn manymap_kernel_is_faster_than_mm2_port() {
        // Figure 8a: up to ~3.2× at 4 kbp.
        let a = price(4000, GpuKernelKind::Mm2, 512);
        let b = price(4000, GpuKernelKind::Manymap, 512);
        let speedup = a.cycles as f64 / b.cycles as f64;
        assert!(speedup > 2.0 && speedup < 4.5, "speedup={speedup}");
    }

    #[test]
    fn long_sequences_spill_to_global_memory() {
        // §5.2.4: past ~16 kbp the score arrays exceed 96 KiB shared.
        let short = price(8_000, GpuKernelKind::Manymap, 512);
        let long = price(32_000, GpuKernelKind::Manymap, 512);
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
        let job = |with_path| KernelJob {
            tlen: 32_000,
            qlen: 32_000,
            with_path,
        };
        let f = job(true).footprint();
        assert!(
            f > 900 << 20 && f < (2u64 << 30) + (1 << 20),
            "footprint={f}"
        );
        // Score-only stays linear.
        assert!(job(false).footprint() < 1 << 20);
    }

    #[test]
    fn more_threads_reduce_cycles() {
        let t128 = price(4000, GpuKernelKind::Manymap, 128);
        let t512 = price(4000, GpuKernelKind::Manymap, 512);
        assert!(t512.cycles < t128.cycles);
    }
}
