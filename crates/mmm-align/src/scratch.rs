//! Reusable allocation arena for the alignment hot path.
//!
//! Every kernel variant needs the same working set per call: the `u/v/x/y`
//! difference vectors, the reversed query for diagonal-contiguous SIMD
//! loads, the 32-bit exact-score column for z-drop extension, the
//! [`DirMatrix`] for with-path alignment (one row per diagonal the DP
//! reaches), and a run-length CIGAR. The paper charges the DP itself as the
//! dominant cost (65% of CPU time, Table 2) — paying a fresh heap allocation
//! for each of these on *every* `align` call is pure overhead, and exactly
//! what minimap2 avoids with its per-thread kmalloc pools.
//!
//! [`AlignScratch`] owns all of those buffers grow-only: a kernel entered
//! through a `*_with_scratch` entry point resizes (never shrinks) the
//! buffers it needs, so after one warm-up call at the largest problem size
//! every subsequent call performs **zero heap allocations** (enforced by the
//! `alloc_count` integration test with a counting global allocator). One
//! scratch per worker thread is the intended usage: a mapping session's one
//! `WorkerPool` (the backend's, `mmm-exec`) builds one per worker, and the
//! same arena serves that worker's plan, lane-group and finalize items.

use crate::cigar::Cigar;
use crate::diff::DirMatrix;

/// Grow-only buffer set threaded through every `*_with_scratch` kernel.
///
/// Buffers are plain `Vec`s reused across calls; their contents between
/// calls are unspecified (each kernel re-initializes what it uses). Create
/// one per worker thread and pass it to repeated align calls:
///
/// ```
/// use mmm_align::{best_engine, AlignMode, AlignScratch, Scoring};
/// let t = mmm_seq::to_nt4(b"ACGTACGT");
/// let mut scratch = AlignScratch::new();
/// let e = best_engine();
/// for _ in 0..4 {
///     let r = e.align_with_scratch(&t, &t, &Scoring::MAP_ONT, AlignMode::Global, true, &mut scratch);
///     assert_eq!(r.score, 16);
///     scratch.recycle(r.cigar.unwrap()); // optional: reuse the CIGAR storage too
/// }
/// ```
#[derive(Default)]
pub struct AlignScratch {
    /// `u` differences, indexed by `t` (length `|T|`).
    pub(crate) u: Vec<i8>,
    /// `v` differences (`|T|` for Eq. 3, `|Q|+1` for Eq. 4; a lane group's
    /// column array, `maxQ · L` lane-interleaved).
    pub(crate) v: Vec<i8>,
    /// `x` differences (same sizing as `v`).
    pub(crate) x: Vec<i8>,
    /// `y` differences, indexed by `t`.
    pub(crate) y: Vec<i8>,
    /// Exact 32-bit scores per target row (z-drop extension).
    pub(crate) h32: Vec<i32>,
    /// Reversed query for diagonal-contiguous access (a lane group's
    /// queries, transposed to `[j][lane]`).
    pub(crate) qr: Vec<u8>,
    /// Copy of the target for the SIMD kernels, with the slack their last
    /// step of a diagonal may read past it (the caller's slice cannot be
    /// padded in place); a lane group's targets, transposed to `[i][lane]`.
    pub(crate) tpad: Vec<u8>,
    /// Direction-matrix backing store for with-path alignment.
    pub(crate) dir: DirMatrix,
    /// A lane group's direction bytes, `[i][j / 2][lane]`, two cells per
    /// byte. Grow-only and never cleared: a group's fill writes every byte
    /// its traceback reads.
    pub(crate) block: Vec<u8>,
    /// A lane group's lock-step traceback log, one op byte per lane and
    /// step (`[step][lane]`). Grow-only.
    pub(crate) ops: Vec<u8>,
    /// Per step of that walk, the lanes whose op changed; transposed in
    /// place to per-lane run boundaries.
    pub(crate) changes: Vec<u64>,
    /// Recycled CIGAR storage, handed out to with-path calls.
    pub(crate) cigars: Vec<Cigar>,
}

impl AlignScratch {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return a CIGAR produced by an earlier with-path call so its storage
    /// is reused by the next one.
    pub fn recycle(&mut self, mut cigar: Cigar) {
        cigar.clear();
        self.cigars.push(cigar);
    }

    /// A cleared CIGAR from the recycle pool (or a fresh one).
    pub(crate) fn take_cigar(cigars: &mut Vec<Cigar>) -> Cigar {
        cigars.pop().unwrap_or_default()
    }

    /// Total bytes currently held by the arena's buffers.
    pub fn heap_bytes(&self) -> usize {
        self.u.capacity()
            + self.v.capacity()
            + self.x.capacity()
            + self.y.capacity()
            + self.h32.capacity() * std::mem::size_of::<i32>()
            + self.qr.capacity()
            + self.tpad.capacity()
            + self.dir.heap_bytes()
            + self.block.capacity()
            + self.ops.capacity()
            + self.changes.capacity() * std::mem::size_of::<u64>()
    }
}

/// Re-initialize `buf` to `len` copies of `fill` without shrinking its
/// capacity: the single allocation-free primitive behind every buffer reuse
/// in the kernels.
#[inline]
pub(crate) fn reset_fill<T: Copy>(buf: &mut Vec<T>, len: usize, fill: T) {
    buf.clear();
    buf.resize(len, fill);
}

/// Refill `qr` with the reversed query, giving diagonal-contiguous access:
/// `query[r - t] == qr[t + (qlen - 1 - r)]`.
#[inline]
pub(crate) fn reverse_query_into(query: &[u8], qr: &mut Vec<u8>) {
    qr.clear();
    qr.extend(query.iter().rev());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_fill_reuses_capacity() {
        let mut b: Vec<i8> = Vec::new();
        reset_fill(&mut b, 100, -3);
        assert!(b.iter().all(|&x| x == -3));
        let cap = b.capacity();
        let ptr = b.as_ptr();
        reset_fill(&mut b, 60, 7);
        assert_eq!(b.len(), 60);
        assert!(b.iter().all(|&x| x == 7));
        assert_eq!(b.capacity(), cap);
        assert_eq!(b.as_ptr(), ptr);
    }

    #[test]
    fn reverse_query_into_matches_identity() {
        let q = [0u8, 1, 2, 3, 3, 1];
        let mut qr = Vec::new();
        reverse_query_into(&q, &mut qr);
        let qlen = q.len();
        for r in 0..qlen {
            for t in 0..=r {
                assert_eq!(q[r - t], qr[t + (qlen - 1 - r)]);
            }
        }
    }

    #[test]
    fn cigar_recycling_round_trips() {
        let mut s = AlignScratch::new();
        let mut c = Cigar::new();
        c.push(crate::cigar::CigarOp::Match, 5);
        s.recycle(c);
        let c2 = AlignScratch::take_cigar(&mut s.cigars);
        assert!(c2.is_empty());
        assert!(AlignScratch::take_cigar(&mut s.cigars).is_empty()); // pool empty -> fresh
    }
}
