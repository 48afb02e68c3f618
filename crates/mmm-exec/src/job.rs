//! The unit of work a backend executes.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

use mmm_align::AlignMode;

/// Hard cap, in bases, on either side of a plan-time gap fill.
///
/// This is the single size limit shared by the two layers that must agree
/// on it: the mapper's gap classifier (`MapOpts::max_fill`) refuses to emit
/// a fill whose target or query exceeds it (oversized chain gaps are
/// approximated inline instead), and the device backends size-check
/// submitted jobs against device memory. Keeping one constant — plus
/// `meter.rs`'s `max_planned_job_is_device_eligible_on_the_default_device`,
/// which proves a maximal planned fill still fits the default device —
/// guarantees a fill can never be accepted at plan time only to
/// surprise-fallback at submit time. An extension's query is capped the
/// same way, but its reference window is not: one that does not fit device
/// memory runs as a CPU fallback.
pub const MAX_PLAN_SEGMENT: usize = 20_000;

/// A job's sequence bytes: a range of a shared, immutable buffer.
///
/// The mapper decodes all of one read's fill windows and query slices into
/// one buffer and hands each job views into it, so planning a read costs
/// one allocation however many jobs it emits, and the buffer is freed when
/// the read's last job is dropped. A view dereferences to `[u8]`; cloning
/// one (the supervisor's regathered sets) copies no bytes.
#[derive(Clone)]
pub struct JobSeq {
    buf: Arc<[u8]>,
    start: u32,
    end: u32,
}

impl JobSeq {
    /// The bytes `range` of `buf`.
    ///
    /// # Panics
    /// If `range` is not inside `buf`, or `buf` is 4 GiB or longer.
    pub fn new(buf: Arc<[u8]>, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "job range {range:?} outside a {}-byte buffer",
            buf.len()
        );
        assert!(
            buf.len() <= u32::MAX as usize,
            "a job buffer is under 4 GiB"
        );
        JobSeq {
            buf,
            start: range.start as u32,
            end: range.end as u32,
        }
    }

    /// Bases in the view, without slicing the buffer.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl Deref for JobSeq {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf[self.start as usize..self.end as usize]
    }
}

impl From<Vec<u8>> for JobSeq {
    fn from(v: Vec<u8>) -> Self {
        let n = v.len();
        JobSeq::new(v.into(), 0..n)
    }
}

impl PartialEq for JobSeq {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for JobSeq {}

impl fmt::Debug for JobSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One base-level alignment problem, owned so a backend can ship it to a
/// device queue (or another thread) without borrowing the mapper's state.
#[derive(Clone, Debug)]
pub struct AlignJob {
    /// Target (reference) segment, 2-bit nucleotide codes.
    pub target: JobSeq,
    /// Query (read) segment, 2-bit nucleotide codes.
    pub query: JobSeq,
    /// DP boundary condition: a gap fill or a z-drop end extension.
    pub mode: AlignMode,
    /// Whether the caller needs the traceback path (CIGAR).
    pub with_path: bool,
}

impl AlignJob {
    /// A global-alignment job, the shape the mapper's gap-fill step emits.
    pub fn global(target: impl Into<JobSeq>, query: impl Into<JobSeq>, with_path: bool) -> Self {
        AlignJob {
            target: target.into(),
            query: query.into(),
            mode: AlignMode::Global,
            with_path,
        }
    }

    /// A z-drop extension job, the shape the mapper emits for each read end
    /// a chain leaves unaligned (`zdrop` must be positive).
    pub fn extend(
        target: impl Into<JobSeq>,
        query: impl Into<JobSeq>,
        zdrop: i32,
        with_path: bool,
    ) -> Self {
        AlignJob {
            mode: AlignMode::Extend { zdrop },
            ..AlignJob::global(target, query, with_path)
        }
    }

    /// DP cells, `|T|·|Q|` — what a fill computes (an extension that
    /// z-drops computes fewer) and
    /// [`AlignResult::cells`](mmm_align::AlignResult::cells) counts; the
    /// scheduling weight for longest-first ordering and the throughput
    /// numerator.
    pub fn cells(&self) -> u64 {
        self.target.len() as u64 * self.query.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_share_one_buffer() {
        let buf: Arc<[u8]> = vec![0, 1, 2, 3, 3, 2, 1].into();
        let (t, q) = (
            JobSeq::new(buf.clone(), 0..3),
            JobSeq::new(buf.clone(), 3..7),
        );
        assert_eq!((&*t, &*q), (&[0u8, 1, 2][..], &[3u8, 3, 2, 1][..]));
        assert_eq!(
            (t.len(), q.len(), JobSeq::new(buf.clone(), 2..2).is_empty()),
            (3, 4, true)
        );
        let job = AlignJob::global(t, q.clone(), true);
        assert_eq!(job.cells(), 12);
        // A clone adds owners of the buffer, not copies of it: `buf`, `q`
        // and two views in each of the two jobs.
        let copy = job.clone();
        assert_eq!(Arc::strong_count(&buf), 6);
        assert_eq!(copy.query, JobSeq::from(vec![3, 3, 2, 1]));
        assert_eq!(format!("{:?}", copy.target), "[0, 1, 2]");
    }

    #[test]
    #[should_panic(expected = "outside a 7-byte buffer")]
    fn a_view_past_its_buffer_is_refused() {
        JobSeq::new(vec![0; 7].into(), 5..8);
    }
}
