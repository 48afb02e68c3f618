//! Shared scaffolding for the difference-recurrence kernels.
//!
//! Both memory layouts (minimap2's Eq. 3 and manymap's Eq. 4) iterate the DP
//! matrix by anti-diagonal `r = i + j` with `t = i` inside the diagonal, and
//! both need the same three pieces implemented here:
//!
//! * [`DirMatrix`] — the backtracking matrix for with-path alignment,
//!   stored diagonal-major so SIMD kernels can write direction bytes with
//!   contiguous stores, and appended one diagonal at a time as the DP
//!   reaches it;
//! * [`Tracker`] — 32-bit score recovery along the diagonal boundary cells
//!   (the difference recurrence only keeps 8-bit deltas; absolute scores are
//!   rebuilt incrementally at the `st`/`en` edges of each diagonal);
//! * [`backtrack_into`] — the state-machine CIGAR reconstruction shared by
//!   every with-path kernel, over a direction-byte accessor.
//!
//! Direction byte layout (one byte per cell): bits 0–1 hold the source of
//! `z` (0 = diagonal/substitution, 1 = E-term ⇒ `D`, 2 = F-term ⇒ `I`);
//! bit 2 is set when the E gap *continues* into the next row (the
//! `max(0, ·)` in Eq. 3 selected the non-zero branch); bit 3 likewise for F.
#![expect(unsafe_code, reason = "uninitialized rows, written before `get`")]

use crate::cigar::{Cigar, CigarOp};
use crate::score::Scoring;
use crate::types::{AlignMode, AlignResult};
use std::mem::MaybeUninit;

/// `z` came from the substitution term.
pub const SRC_DIAG: u8 = 0;
/// `z` came from the E term (gap in query, CIGAR `D`).
pub const SRC_E: u8 = 1;
/// `z` came from the F term (gap in target, CIGAR `I`).
pub const SRC_F: u8 = 2;
/// Mask for the source bits.
pub const SRC_MASK: u8 = 3;
/// E gap continues (x chose the non-zero branch).
pub const E_CONT: u8 = 4;
/// F gap continues (y chose the non-zero branch).
pub const F_CONT: u8 = 8;

/// Direction matrix in diagonal-major layout, grown one diagonal at a time.
///
/// Row `r` holds the cells of anti-diagonal `r` (indices `t - st(r)`), so a
/// kernel sweeping `t` writes one contiguous byte run per diagonal. A kernel
/// [`reset`](Self::reset)s the matrix for its problem (no allocation, no
/// fill) and appends row `r` when the DP reaches diagonal `r`; storage is
/// grow-only and never pre-filled, so memory and page touches are
/// proportional to the diagonals actually computed — `|T|·|Q|` bytes for a
/// fill that runs to the corner, far less for a z-drop extension that stops
/// early. Every byte of a row is written by the kernel that appended it
/// before [`get`](Self::get) can read it.
pub struct DirMatrix {
    /// Backing store. `data.len()` is the allocated extent (kept equal to
    /// the capacity); only the first `offsets.last()` bytes belong to rows.
    data: Vec<MaybeUninit<u8>>,
    /// `offsets[r]` is the start of row `r`; one more entry than rows.
    offsets: Vec<usize>,
    tlen: usize,
    qlen: usize,
}

/// Bytes a kernel may store past the end of the row it appended: the widest
/// vector tier finishes a diagonal with one full-width direction store, and
/// the spill lands where the next row (or this slack) will be.
pub(crate) const ROW_SLACK: usize = 64;

impl Default for DirMatrix {
    fn default() -> Self {
        DirMatrix::empty()
    }
}

impl DirMatrix {
    /// An unsized matrix holding no storage; size it with
    /// [`reset`](Self::reset) before use. This is what [`crate::AlignScratch`]
    /// embeds so the backing store can be recycled across align calls.
    pub fn empty() -> Self {
        DirMatrix {
            data: Vec::new(),
            offsets: Vec::new(),
            tlen: 0,
            qlen: 0,
        }
    }

    /// A matrix for a `|T| × |Q|` problem, holding no rows yet.
    ///
    /// # Panics
    /// If either dimension is zero (the diagonal layout is undefined for an
    /// empty matrix; every kernel routes empty inputs through its
    /// `degenerate()` gate before building a `DirMatrix`).
    pub fn new(tlen: usize, qlen: usize) -> Self {
        let mut m = DirMatrix::empty();
        m.reset(tlen, qlen);
        m
    }

    /// Start a `|T| × |Q|` problem: drop every row, keep the backing store.
    ///
    /// # Panics
    /// If either dimension is zero — see [`new`](Self::new).
    pub fn reset(&mut self, tlen: usize, qlen: usize) {
        assert!(
            tlen > 0 && qlen > 0,
            "DirMatrix is undefined for empty inputs ({tlen}x{qlen}); \
             kernels must take their degenerate() path first"
        );
        self.offsets.clear();
        self.offsets.push(0);
        self.tlen = tlen;
        self.qlen = qlen;
    }

    /// Append the next diagonal's row and return its storage: the row's
    /// `en - st + 1` cells followed by [`ROW_SLACK`] spill bytes.
    fn push_row_uninit(&mut self) -> &mut [MaybeUninit<u8>] {
        assert!(
            (1..self.tlen + self.qlen).contains(&self.offsets.len()),
            "reset() first; a matrix has tlen + qlen - 1 diagonals"
        );
        let r = self.offsets.len() - 1;
        let n = r.min(self.tlen - 1) - r.saturating_sub(self.qlen - 1) + 1;
        let start = self.offsets[r];
        let end = start + n;
        if self.data.len() < end + ROW_SLACK {
            self.data.reserve(end + ROW_SLACK - self.data.len());
            // SAFETY: `MaybeUninit<u8>` needs no initialization, and the new
            // length is the capacity `reserve` just guaranteed.
            unsafe { self.data.set_len(self.data.capacity()) };
        }
        self.offsets.push(end);
        &mut self.data[start..end + ROW_SLACK]
    }

    /// Append the next diagonal's row, zeroed, and return its cells (length
    /// `en - st + 1`) — the scalar kernels' entry point.
    pub fn push_row(&mut self) -> &mut [u8] {
        let row = self.push_row_uninit();
        let n = row.len() - ROW_SLACK;
        let row = &mut row[..n];
        row.fill(MaybeUninit::new(0));
        // SAFETY: every element was just initialized, and `MaybeUninit<u8>`
        // has the layout of `u8`.
        unsafe { &mut *(row as *mut [MaybeUninit<u8>] as *mut [u8]) }
    }

    /// Append the next diagonal's row without touching it and return a
    /// pointer to its first cell, valid for writes of the row's
    /// `en - st + 1` bytes plus [`ROW_SLACK`] — the SIMD kernels' entry
    /// point.
    ///
    /// # Safety
    /// The caller must write every cell of the row before the matrix is read
    /// through [`get`](Self::get) (the kernels do so before they append the
    /// next row).
    pub(crate) unsafe fn push_row_ptr(&mut self) -> *mut u8 {
        self.push_row_uninit().as_mut_ptr().cast()
    }

    /// Direction byte of cell `(i, j)`, which must lie on an appended row.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> u8 {
        let r = i + j;
        let st = r.saturating_sub(self.qlen - 1);
        assert!(
            r + 1 < self.offsets.len(),
            "diagonal {r} was never computed"
        );
        // SAFETY: the row exists (checked above) and whoever appended it
        // wrote all of its cells — `push_row` zeroes them, `push_row_ptr`
        // makes that its caller's contract.
        unsafe { self.data[self.offsets[r] + (i - st)].assume_init() }
    }

    /// Bytes held: proportional to the most diagonals any problem computed.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() + self.offsets.capacity() * std::mem::size_of::<usize>()
    }

    /// Target length this matrix was sized for.
    pub fn tlen(&self) -> usize {
        self.tlen
    }

    /// Query length this matrix was sized for.
    pub fn qlen(&self) -> usize {
        self.qlen
    }
}

/// Rebuilds absolute 32-bit scores along each diagonal's first (`st`) and
/// last (`en`) cells and tracks the best last-row / last-column cell for the
/// free-end modes.
///
/// Identities used (derived from the definitions of `u`, `v`):
/// `H(r,en) = H(r-1,en) + u(r,en)` while the `en` cell walks down column 0,
/// and `H(r,en) = H(r-1,en) + v(r,en)` once it walks along the last row;
/// symmetrically for the `st` cell with `v` (first row) and `u` (last
/// column).
pub struct Tracker {
    hen: i32,
    hst: i32,
    row_best: (i32, usize, usize),
    col_best: (i32, usize, usize),
    tlen: usize,
    qlen: usize,
}

impl Tracker {
    /// Tracker for a `|T| × |Q|` problem.
    ///
    /// # Panics
    /// If either dimension is zero: `diag`'s boundary identities divide the
    /// walk at `tlen - 1` / `qlen - 1`, which underflow for empty inputs.
    /// Kernels route empty inputs through `degenerate()` before building a
    /// `Tracker`.
    pub fn new(tlen: usize, qlen: usize) -> Self {
        assert!(
            tlen > 0 && qlen > 0,
            "Tracker is undefined for empty inputs ({tlen}x{qlen}); \
             kernels must take their degenerate() path first"
        );
        Tracker {
            hen: 0,
            hst: 0,
            row_best: (i32::MIN / 4, 0, 0),
            col_best: (i32::MIN / 4, 0, 0),
            tlen,
            qlen,
        }
    }

    /// Account diagonal `r` after its cells are written. `u_st`, `u_en` are
    /// the freshly written `u` values at `t = st`/`t = en`; `v_st` / `v_en`
    /// the freshly written `v` values (callers pass the layout-appropriate
    /// slots). `qe = q + e`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn diag(
        &mut self,
        r: usize,
        st: usize,
        en: usize,
        u_st: i32,
        u_en: i32,
        v_st: i32,
        v_en: i32,
        qe: i32,
    ) {
        if r == 0 {
            // H(0,0) = u(0,0) + H(-1,0) = u(0,0) - (q+e).
            self.hen = u_en - qe;
            self.hst = self.hen;
        } else {
            if en == r {
                self.hen += u_en; // walking down column j = 0
            } else {
                self.hen += v_en; // walking along the last row
            }
            if st == 0 {
                self.hst += v_st; // walking along the first row
            } else {
                self.hst += u_st; // walking down the last column
            }
        }
        if en == self.tlen - 1 && self.hen > self.row_best.0 {
            self.row_best = (self.hen, en, r - en);
        }
        if r - st == self.qlen - 1 && self.hst > self.col_best.0 {
            self.col_best = (self.hst, st, r - st);
        }
    }

    /// Resolve the score and end cell for `mode`.
    pub fn finalize(&self, mode: AlignMode) -> (i32, usize, usize) {
        match mode {
            AlignMode::Global => {
                debug_assert_eq!(self.hen, self.hst, "both walks must meet at the corner");
                (self.hen, self.tlen - 1, self.qlen - 1)
            }
            AlignMode::QuerySuffixFree => self.row_best,
            AlignMode::TargetSuffixFree => self.col_best,
            // Prefer the last-row cell on ties, matching the reference
            // implementation's scan order.
            AlignMode::SemiGlobal => {
                if self.col_best.0 > self.row_best.0 {
                    self.col_best
                } else {
                    self.row_best
                }
            }
        }
    }
}

/// Reconstruct the CIGAR into caller-provided (recyclable) storage, starting
/// at cell `(end_i, end_j)` and walking back to the `(0,0)` boundary.
/// `dir(i, j)` is the direction byte of cell `(i, j)`: a [`DirMatrix`]'s
/// [`get`](DirMatrix::get), or a lane of a lane group's direction block.
pub fn backtrack_into(
    dir: impl Fn(usize, usize) -> u8,
    end_i: usize,
    end_j: usize,
    cig: &mut Cigar,
) {
    cig.clear();
    let mut i = end_i as isize;
    let mut j = end_j as isize;
    #[derive(PartialEq)]
    enum State {
        M,
        E,
        F,
    }
    let mut state = State::M;
    while i >= 0 && j >= 0 {
        match state {
            State::M => match dir(i as usize, j as usize) & SRC_MASK {
                SRC_DIAG => {
                    cig.push(CigarOp::Match, 1);
                    i -= 1;
                    j -= 1;
                }
                SRC_E => state = State::E,
                _ => state = State::F,
            },
            State::E => {
                // We arrived via E(i,j); the open/continue decision for this
                // gap step is the E_CONT bit of cell (i-1, j). (`j >= 0`
                // holds throughout the loop, so only `i` needs guarding.)
                cig.push(CigarOp::Del, 1);
                let cont = i > 0 && dir(i as usize - 1, j as usize) & E_CONT != 0;
                i -= 1;
                if !cont {
                    state = State::M;
                }
            }
            State::F => {
                cig.push(CigarOp::Ins, 1);
                let cont = j > 0 && dir(i as usize, j as usize - 1) & F_CONT != 0;
                j -= 1;
                if !cont {
                    state = State::M;
                }
            }
        }
    }
    if i >= 0 {
        cig.push(CigarOp::Del, i as u32 + 1);
    }
    if j >= 0 {
        cig.push(CigarOp::Ins, j as u32 + 1);
    }
    cig.reverse();
}

/// One difference-recurrence cell update (Eq. 3/4 right-hand sides), shared
/// by the scalar kernels and the scalar tails of the SIMD kernels so every
/// code path computes bit-identical values.
///
/// Inputs are the 8-bit state values promoted to i32; returns
/// `(u, v, x, y, dir)` for the cell.
#[inline(always)]
pub fn cell_update(
    s: i32,
    x_in: i32,
    v_in: i32,
    y_in: i32,
    u_in: i32,
    q: i32,
    qe: i32,
) -> (i8, i8, i8, i8, u8) {
    let a = x_in + v_in;
    let b = y_in + u_in;
    let mut z = s;
    let mut dir = SRC_DIAG;
    if a > z {
        z = a;
        dir = SRC_E;
    }
    if b > z {
        z = b;
        dir = SRC_F;
    }
    let xt = a - z + q;
    let yt = b - z + q;
    if xt > 0 {
        dir |= E_CONT;
    }
    if yt > 0 {
        dir |= F_CONT;
    }
    (
        clamp_i8(z - v_in),
        clamp_i8(z - u_in),
        clamp_i8(xt.max(0) - qe),
        clamp_i8(yt.max(0) - qe),
        dir,
    )
}

#[inline(always)]
pub(crate) fn clamp_i8(v: i32) -> i8 {
    debug_assert!(
        (i8::MIN as i32..=i8::MAX as i32).contains(&v),
        "difference value {v} escapes i8; scoring violates fits_i8"
    );
    // Saturate rather than truncate: a release build fed a scoring that
    // violates fits_i8 (callers are expected to reject those via
    // `Engine::try_align`) degrades like the SIMD kernels' saturating
    // arithmetic instead of silently wrapping to a garbage score.
    v.clamp(i8::MIN as i32, i8::MAX as i32) as i8
}

/// Shared empty-input handling for all kernels (delegates to the reference
/// implementation's conventions).
pub(crate) fn degenerate(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    mode: AlignMode,
    with_path: bool,
) -> Option<AlignResult> {
    if target.is_empty() || query.is_empty() {
        Some(crate::fullmatrix::align(target, query, sc, mode, with_path))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_matrix_layout_covers_all_cells() {
        // Mark every cell via push_row and read back via get.
        let mut m = DirMatrix::new(4, 3);
        assert_eq!(
            m.heap_bytes(),
            std::mem::size_of::<usize>() * m.offsets.capacity()
        );
        for r in 0usize..(4 + 3 - 1) {
            let st = r.saturating_sub(2);
            let en = r.min(3);
            let row = m.push_row();
            assert_eq!(row.len(), en - st + 1, "diag {r}");
            for (k, b) in row.iter_mut().enumerate() {
                *b = (r * 10 + k) as u8;
            }
        }
        assert!(m.heap_bytes() >= 12);
        for i in 0usize..4 {
            for j in 0..3 {
                let r = i + j;
                let st = r.saturating_sub(2);
                assert_eq!(m.get(i, j), (r * 10 + (i - st)) as u8);
            }
        }
    }

    #[test]
    fn tracker_pure_match_path() {
        // 2x2 all-match with a=2, q=4, e=2 (qe=6): H(0,0)=2 so u(0,0)=8.
        let mut t = Tracker::new(2, 2);
        t.diag(0, 0, 0, 8, 8, 0, 0, 6);
        // r=1: en==r ⇒ hen += u_en; st==0 ⇒ hst += v_st.
        t.diag(1, 0, 1, 0, -6, -6, 0, 6);
        // r=2: single cell (1,1), en=1<r ⇒ hen += v_en; st=1>0 ⇒ hst += u_st.
        t.diag(2, 1, 1, 8, 0, 0, 8, 6);
        let (score, i, j) = t.finalize(AlignMode::Global);
        assert_eq!((score, i, j), (4, 1, 1));
    }
}
