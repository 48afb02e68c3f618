//! The unit of work a backend executes.

use mmm_align::AlignMode;

/// Hard cap, in bases, on either side of a plan-time alignment segment.
///
/// This is the single size limit shared by the two layers that must agree
/// on it: the mapper's gap classifier (`MapOpts::max_fill`) refuses to emit
/// an [`AlignJob`] whose target or query exceeds it (oversized chain gaps
/// are approximated inline instead), and the device backends size-check
/// submitted jobs against device memory. Keeping one constant — plus the
/// reconciliation test in `gpu.rs` proving a maximal planned job still fits
/// the default device — guarantees a job can never be accepted at plan time
/// only to surprise-fallback at submit time.
pub const MAX_PLAN_SEGMENT: usize = 20_000;

/// One base-level alignment problem, owned so a backend can ship it to a
/// device queue (or another thread) without borrowing the mapper's state.
#[derive(Clone, Debug)]
pub struct AlignJob {
    /// Target (reference) segment, 2-bit nucleotide codes.
    pub target: Vec<u8>,
    /// Query (read) segment, 2-bit nucleotide codes.
    pub query: Vec<u8>,
    /// DP boundary condition.
    pub mode: AlignMode,
    /// Whether the caller needs the traceback path (CIGAR).
    pub with_path: bool,
}

impl AlignJob {
    /// A global-alignment job, the shape the mapper's gap-fill step emits.
    pub fn global(target: Vec<u8>, query: Vec<u8>, with_path: bool) -> Self {
        AlignJob {
            target,
            query,
            mode: AlignMode::Global,
            with_path,
        }
    }

    /// DP cells, `|T|·|Q|` — what the kernels compute and
    /// [`AlignResult::cells`](mmm_align::AlignResult::cells) counts; the
    /// scheduling weight for longest-first ordering and the throughput
    /// numerator.
    pub fn cells(&self) -> u64 {
        self.target.len() as u64 * self.query.len() as u64
    }
}
