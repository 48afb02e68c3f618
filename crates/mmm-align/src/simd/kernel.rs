//! The fill kernels, the lane-group fill and the z-drop extension, written
//! once over [`Isa`].
//!
//! Everything here is `#[inline(always)]` and carries no target feature of
//! its own: each tier instantiates these functions inside its
//! `#[target_feature]` wrappers, where the intrinsics behind the [`Isa`]
//! methods inline to single instructions.
//!
//! A diagonal of `n` cells is `n / L` full vector steps and, when
//! `n % L != 0`, one masked step (see the module docs of [`super`] for how a
//! tier masks). Both are the same code with `m: Option<I::M>` folded at
//! compile time.

use core::ptr;

use super::{Consts, Isa};
use crate::diff::{backtrack_into, Tracker, E_CONT, F_CONT, SRC_E, SRC_F};
use crate::score::Scoring;
use crate::scratch::{reset_fill, reverse_query_into, AlignScratch};
use crate::types::{AlignResult, GroupJob};
use crate::zdrop::ExtendResult;

/// # Safety
/// See [`Isa`].
#[inline(always)]
unsafe fn consts<I: Isa>(sc: &Scoring) -> Consts<I::V> {
    Consts {
        vmatch: I::splat(sc.a as i8),
        vmis: I::splat(-sc.b as i8),
        vambi: I::splat(-sc.ambi as i8),
        vfour: I::splat(4),
        vq: I::splat(sc.q as i8),
        vqe: I::splat((sc.q + sc.e) as i8),
        zero: I::splat(0),
        src_e: I::splat(SRC_E as i8),
        src_f: I::splat(SRC_F as i8),
        e_cont: I::splat(E_CONT as i8),
        f_cont: I::splat(F_CONT as i8),
    }
}

/// Load a full vector, or the lanes `m` selects.
///
/// # Safety
/// See [`Isa`]: `p` is valid for the reads `load` / `load_tail` make.
#[inline(always)]
unsafe fn ld<I: Isa>(p: *const u8, m: Option<I::M>) -> I::V {
    match m {
        None => I::load(p),
        Some(m) => I::load_tail(p, m),
    }
}

/// Store a full vector, or the lanes `m` selects (`old` is what `p` held).
///
/// # Safety
/// See [`Isa`]: `p` is valid for the writes `store` / `store_tail` make.
#[inline(always)]
unsafe fn st<I: Isa>(p: *mut u8, m: Option<I::M>, new: I::V, old: I::V) {
    match m {
        None => I::store(p, new),
        Some(m) => I::store_tail(p, m, new, old),
    }
}

/// Store a step's direction bytes, unless the call keeps no path.
///
/// # Safety
/// See [`Isa`]: `dir` is null or valid for the step's direction bytes (plus
/// the row's spill slack on a tail step).
#[inline(always)]
unsafe fn store_dir<I: Isa>(dir: *mut u8, m: Option<I::M>, d: I::V) {
    if dir.is_null() {
        return;
    }
    match m {
        None => I::store(dir, d),
        Some(m) => I::store_dir_tail(dir, m, d),
    }
}

/// The new difference values of `L` cells and their direction bytes.
struct Cell<V> {
    u: V,
    v: V,
    x: V,
    y: V,
    dir: V,
}

/// The right-hand sides of Eq. 3/4 on `L` lanes — lane for lane what
/// [`crate::diff::cell_update`] computes (saturating where it clamps).
///
/// # Safety
/// See [`Isa`].
#[inline(always)]
unsafe fn cell<I: Isa>(
    s: I::V,
    x_in: I::V,
    v_in: I::V,
    y_in: I::V,
    u_in: I::V,
    k: &Consts<I::V>,
    want_dir: bool,
) -> Cell<I::V> {
    let a = I::adds(x_in, v_in);
    let b = I::adds(y_in, u_in);
    let za = I::max(s, a);
    let z = I::max(za, b);
    let xt = I::adds(I::subs(a, z), k.vq);
    let yt = I::adds(I::subs(b, z), k.vq);
    Cell {
        u: I::subs(z, v_in),
        v: I::subs(z, u_in),
        x: I::subs(I::max(xt, k.zero), k.vqe),
        y: I::subs(I::max(yt, k.zero), k.vqe),
        dir: if want_dir {
            I::dir_bits(s, a, b, za, xt, yt, k)
        } else {
            k.zero
        },
    }
}

/// Slack past the last live slot of every working array: the largest
/// [`Isa::PAD`]. All tiers size their arrays with it, so an arena warmed on
/// one problem serves any smaller one whichever tier `Engine` hands it to.
const PAD: usize = 32;

/// Raw views of one call's working set. `u`/`y` are indexed by `t`; `v`/`x`
/// by `t` (Eq. 3) or by `t' = t - r + |Q|` (Eq. 4). Every array is readable
/// and writable [`PAD`] bytes past its last live slot.
struct Ptrs {
    target: *const u8,
    qr: *const u8,
    u: *mut u8,
    v: *mut u8,
    x: *mut u8,
    y: *mut u8,
}

/// The signed difference value at slot `i`.
///
/// # Safety
/// `p + i` is inside a live difference array.
#[inline(always)]
unsafe fn at(p: *const u8, i: usize) -> i32 {
    *p.add(i) as i8 as i32
}

/// Size and initialize the difference arrays for a `|T| × |Q|` problem in
/// the given layout, padded for the tiers' tail steps. The pointers stay
/// valid until the scratch vectors are next resized.
fn setup(target: &[u8], query: &[u8], sc: &Scoring, eq4: bool, scratch: &mut AlignScratch) -> Ptrs {
    let (tlen, qlen) = (target.len(), query.len());
    let (e, qe) = (sc.e, sc.q + sc.e);
    let AlignScratch {
        u,
        v,
        x,
        y,
        qr,
        tpad,
        ..
    } = scratch;
    reverse_query_into(query, qr);
    qr.resize(qlen + PAD, 0);
    reset_fill(u, tlen + PAD, -e as i8);
    reset_fill(y, tlen + PAD, -qe as i8);
    u[0] = -qe as i8;
    if eq4 {
        reset_fill(v, qlen + 1 + PAD, -e as i8);
        reset_fill(x, qlen + 1 + PAD, -qe as i8);
        v[qlen] = -qe as i8; // v(-1,0): the first-row gap opens here
    } else {
        reset_fill(v, tlen + PAD, 0i8);
        reset_fill(x, tlen + PAD, 0i8);
    }
    // The caller's target slice cannot be padded in place.
    tpad.clear();
    tpad.extend_from_slice(target);
    tpad.resize(tlen + PAD, 0);
    Ptrs {
        target: tpad.as_ptr(),
        qr: qr.as_ptr(),
        u: u.as_mut_ptr().cast(),
        v: v.as_mut_ptr().cast(),
        x: x.as_mut_ptr().cast(),
        y: y.as_mut_ptr().cast(),
    }
}

/// Fold `L` freshly written `v` values into the exact scores `h[0..L]`
/// (`H(r,t) = H(r-1,t) + v(r,t)`, ksw2's exact-score pass) and into the
/// running lane-wise maximum. `live` limits a tail step to its first lanes.
///
/// # Safety
/// See [`Isa`]; `h` is valid for `L` scores (`live` scores when
/// `I::PAD == 0`).
#[inline(always)]
unsafe fn h_update<I: Isa>(h: *mut i32, vn: I::V, live: Option<usize>, mut hmax: I::W) -> I::W {
    let lw = I::L / 4;
    for (g, w) in I::widen4(vn).into_iter().enumerate() {
        let hp = h.add(g * lw);
        match live {
            None => {
                let hv = I::w_add(I::w_load(hp), w);
                I::w_store(hp, hv);
                hmax = I::w_max(hmax, hv);
            }
            Some(n) if n > g * lw => {
                let m = I::w_tail(n - g * lw);
                let old = I::w_load_tail(hp, m);
                let hv = I::w_add(old, w);
                I::w_store_tail(hp, m, hv, old);
                hmax = I::w_max(hmax, I::w_select(m, hv, hmax));
            }
            Some(_) => {}
        }
    }
    hmax
}

/// One vector step of Eq. 4 at target index `t`, in place.
///
/// # Safety
/// See [`Isa`]; `t..t + L` (the first `live` of them on a tail step) lie on
/// diagonal `r`, `dir` is null or that step's direction bytes, `h` is null
/// unless `EXT`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn eq4_step<I: Isa, const EXT: bool>(
    p: &Ptrs,
    k: &Consts<I::V>,
    t: usize,
    tp: usize,
    qi: usize,
    live: Option<usize>,
    dir: *mut u8,
    h: *mut i32,
    hmax: I::W,
) -> I::W {
    // Not `Option::map`: a closure would not inherit the tier's target
    // features.
    let mut m = None;
    if let Some(n) = live {
        m = Some(I::tail(n));
    }
    let s = I::subst(ld::<I>(p.target.add(t), m), ld::<I>(p.qr.add(qi), m), k);
    // Figure 3b: one plain load per operand, no shifts.
    let x_in = ld::<I>(p.x.add(tp), m);
    let v_in = ld::<I>(p.v.add(tp), m);
    let u_in = ld::<I>(p.u.add(t), m);
    let y_in = ld::<I>(p.y.add(t), m);
    let c = cell::<I>(s, x_in, v_in, y_in, u_in, k, !dir.is_null());
    st::<I>(p.u.add(t), m, c.u, u_in);
    st::<I>(p.v.add(tp), m, c.v, v_in);
    st::<I>(p.x.add(tp), m, c.x, x_in);
    st::<I>(p.y.add(t), m, c.y, y_in);
    store_dir::<I>(dir, m, c.dir);
    if EXT {
        h_update::<I>(h.add(t), c.v, live, hmax)
    } else {
        hmax
    }
}

/// Anti-diagonal `r` (cells `st..=en`) of Eq. 4, in place; with `EXT`, also
/// the exact-score pass over `h`, returning its lane-wise maximum.
///
/// # Safety
/// See [`Isa`]; `p` was set up for this problem with `eq4`, `row` is null
/// or diagonal `r`'s direction row, `h` is null unless `EXT`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn eq4_diagonal<I: Isa, const EXT: bool>(
    p: &Ptrs,
    k: &Consts<I::V>,
    r: usize,
    st: usize,
    en: usize,
    qlen: usize,
    row: *mut u8,
    h: *mut i32,
) -> I::W {
    let off = st + qlen - r; // t' of the first cell
    let qbase = off - 1; // qr index of the first cell
    let n = en - st + 1;
    let mut hmax = if EXT {
        I::w_splat(i32::MIN)
    } else {
        I::w_splat(0)
    };
    let mut i = 0;
    while i + I::L <= n {
        let dir = if row.is_null() { row } else { row.add(i) };
        hmax = eq4_step::<I, EXT>(p, k, st + i, off + i, qbase + i, None, dir, h, hmax);
        i += I::L;
    }
    if i < n {
        let dir = if row.is_null() { row } else { row.add(i) };
        let live = Some(n - i);
        hmax = eq4_step::<I, EXT>(p, k, st + i, off + i, qbase + i, live, dir, h, hmax);
    }
    hmax
}

/// Equation (4) global fill.
///
/// # Safety
/// See [`Isa`]; both sequences are non-empty and `sc.fits_i8()`.
#[inline(always)]
pub(super) unsafe fn fill_manymap<I: Isa>(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    const { assert!(I::PAD <= PAD) };
    let (tlen, qlen) = (target.len(), query.len());
    let qe = sc.q + sc.e;
    let k = consts::<I>(sc);
    let p = setup(target, query, sc, true, scratch);
    if with_path {
        scratch.dir.reset(tlen, qlen);
    }
    let mut tracker = Tracker::default();

    for r in 0..tlen + qlen - 1 {
        let st = r.saturating_sub(qlen - 1);
        let en = r.min(tlen - 1);
        let row = if with_path {
            scratch.dir.push_row_ptr()
        } else {
            ptr::null_mut()
        };
        eq4_diagonal::<I, false>(&p, &k, r, st, en, qlen, row, ptr::null_mut());
        let v_st0 = at(p.v, qlen - r.min(qlen)); // slot of t = 0 when st == 0
        let v_en = at(p.v, en + qlen - r);
        tracker.diag(r, st, en, at(p.u, st), at(p.u, en), v_st0, v_en, qe);
    }
    finish_fill(&tracker, with_path, scratch, tlen, qlen)
}

/// One vector step of Eq. 3 at target index `t`, in place. `carry` holds
/// the previous vector's last `X`/`V` bytes (ksw2's shift idiom: the byte
/// entering lane 0 is carried in a separate vector, so each operand costs
/// the tier's byte shift plus an OR, and a second shift to produce the next
/// carry — the extra instructions of Figure 3a); returns the next carry.
///
/// # Safety
/// See [`Isa`]; `t..t + L` (the lanes of `m`) lie on the current diagonal,
/// `dir` is null or that step's direction bytes.
#[inline(always)]
unsafe fn eq3_step<I: Isa>(
    p: &Ptrs,
    k: &Consts<I::V>,
    t: usize,
    qi: usize,
    m: Option<I::M>,
    dir: *mut u8,
    carry: (I::V, I::V),
) -> (I::V, I::V) {
    let s = I::subst(ld::<I>(p.target.add(t), m), ld::<I>(p.qr.add(qi), m), k);
    let xcur = ld::<I>(p.x.add(t), m);
    let vcur = ld::<I>(p.v.add(t), m);
    let u_in = ld::<I>(p.u.add(t), m);
    let y_in = ld::<I>(p.y.add(t), m);
    // Figure 3a: the shifted load of the previous diagonal's X/V.
    let x_in = I::shift_in(xcur, carry.0);
    let v_in = I::shift_in(vcur, carry.1);
    let c = cell::<I>(s, x_in, v_in, y_in, u_in, k, !dir.is_null());
    st::<I>(p.u.add(t), m, c.u, u_in);
    st::<I>(p.v.add(t), m, c.v, vcur);
    st::<I>(p.x.add(t), m, c.x, xcur);
    st::<I>(p.y.add(t), m, c.y, y_in);
    store_dir::<I>(dir, m, c.dir);
    (I::carry_out(xcur), I::carry_out(vcur))
}

/// Equation (3) global fill: the same step with `X[t-1]`/`V[t-1]`
/// shifted in from the previous vector.
///
/// # Safety
/// See [`Isa`]; both sequences are non-empty and `sc.fits_i8()`.
#[inline(always)]
pub(super) unsafe fn fill_mm2<I: Isa>(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> AlignResult {
    const { assert!(I::PAD <= PAD) };
    let (tlen, qlen) = (target.len(), query.len());
    let (e, qe) = (sc.e, sc.q + sc.e);
    let k = consts::<I>(sc);
    let p = setup(target, query, sc, false, scratch);
    if with_path {
        scratch.dir.reset(tlen, qlen);
    }
    let mut tracker = Tracker::default();

    for r in 0..tlen + qlen - 1 {
        let st = r.saturating_sub(qlen - 1);
        let en = r.min(tlen - 1);
        let (xlast, vlast) = if st == 0 {
            (-qe, if r == 0 { -qe } else { -e })
        } else {
            (at(p.x, st - 1), at(p.v, st - 1))
        };
        let qbase = st + qlen - 1 - r; // qr index of the first cell
        let row = if with_path {
            scratch.dir.push_row_ptr()
        } else {
            ptr::null_mut()
        };
        let n = en - st + 1;

        let mut carry = (I::carry_from(xlast as i8), I::carry_from(vlast as i8));
        let mut i = 0;
        while i + I::L <= n {
            let dir = if with_path { row.add(i) } else { row };
            carry = eq3_step::<I>(&p, &k, st + i, qbase + i, None, dir, carry);
            i += I::L;
        }
        if i < n {
            let dir = if with_path { row.add(i) } else { row };
            eq3_step::<I>(&p, &k, st + i, qbase + i, Some(I::tail(n - i)), dir, carry);
        }
        let (u_st, u_en) = (at(p.u, st), at(p.u, en));
        tracker.diag(r, st, en, u_st, u_en, at(p.v, 0), at(p.v, en), qe);
    }
    finish_fill(&tracker, with_path, scratch, tlen, qlen)
}

/// Score and (with a path) the backtracked CIGAR of a fill.
fn finish_fill(
    tracker: &Tracker,
    with_path: bool,
    scratch: &mut AlignScratch,
    tlen: usize,
    qlen: usize,
) -> AlignResult {
    let cigar = with_path.then(|| {
        let mut c = AlignScratch::take_cigar(&mut scratch.cigars);
        backtrack_into(|i, j| scratch.dir.get(i, j), tlen - 1, qlen - 1, &mut c);
        c
    });
    AlignResult {
        score: tracker.finalize(),
        cigar,
        cells: tlen as u64 * qlen as u64,
    }
}

/// Most lanes any tier has (AVX-512's 64).
const MAX_LANES: usize = 64;

/// Raw views of a lane group's working set: targets and queries transposed
/// to `[pos][lane]`, the up neighbours' `x`/`v` as `[j][lane]` columns, and
/// the direction block as `[i][j / 2][lane]`, two cells per byte — column
/// `j` in the low nibble when even, the high one when odd (null when no job
/// keeps a path).
struct GroupPtrs {
    target: *const u8,
    query: *const u8,
    x: *mut u8,
    v: *mut u8,
    dir: *mut u8,
}

/// The cell vector at column offset `o` of a row whose target bases are
/// `tv`: reads and writes back the up neighbours' `x`/`v`, takes the left
/// neighbour's `u`/`y` and leaves this cell's in their place. Returns the
/// direction bytes (zero unless `PATH`).
///
/// # Safety
/// See [`Isa`]; `p`'s query, `x` and `v` hold a cell vector at `o`.
#[inline(always)]
unsafe fn group_cell<I: Isa, const PATH: bool>(
    p: &GroupPtrs,
    k: &Consts<I::V>,
    tv: I::V,
    o: usize,
    u: &mut I::V,
    y: &mut I::V,
) -> I::V {
    let s = I::subst(tv, I::load(p.query.add(o)), k);
    let x_in = I::load(p.x.add(o));
    let v_in = I::load(p.v.add(o));
    let c = cell::<I>(s, x_in, v_in, *y, *u, k, PATH);
    I::store(p.x.add(o), c.x);
    I::store(p.v.add(o), c.v);
    *u = c.u;
    *y = c.y;
    c.dir
}

/// Row `i` of a lane group, `qcols` (even) cell vectors left to right, two
/// per direction-block store. `u`/`y` enter as column `-1`'s values and
/// carry each cell's left neighbour in registers.
///
/// # Safety
/// See [`Isa`]; `p` holds at least `i + 1` target rows, `qcols` query, `x`
/// and `v` columns and, with `PATH`, `i + 1` direction rows of `qcols / 2`
/// vectors.
#[inline(always)]
unsafe fn group_row<I: Isa, const PATH: bool>(
    p: &GroupPtrs,
    k: &Consts<I::V>,
    i: usize,
    qcols: usize,
    mut u: I::V,
    mut y: I::V,
) {
    let tv = I::load(p.target.add(i * I::L));
    let dir = if PATH {
        p.dir.add(i * qcols / 2 * I::L)
    } else {
        p.dir
    };
    let mut o = 0;
    while o < qcols * I::L {
        let lo = group_cell::<I, PATH>(p, k, tv, o, &mut u, &mut y);
        let hi = group_cell::<I, PATH>(p, k, tv, o + I::L, &mut u, &mut y);
        if PATH {
            I::store(dir.add(o / 2), I::nibble_pair(lo, hi));
        }
        o += 2 * I::L;
    }
}

/// Inter-sequence global fill: lane `l` of every vector holds `jobs[l]`,
/// and the kernel walks the group's padded `maxT × maxQ` matrix (`maxQ`
/// rounded up to even) row by row
/// (`i` over the targets, `j` over the queries) — so consecutive steps pass
/// the left neighbour in registers, not through memory. A cell with
/// `i ≥ |T_l|` or `j ≥ |Q_l|` is dead: it is computed over padding and never
/// read, because every DP dependency points up or left. Appends one result
/// per job to `out`, equal to the per-pair kernels' result.
///
/// # Panics
/// Unless `1 ≤ jobs.len() ≤ L`, every side is non-empty and `sc.fits_i8()`.
///
/// # Safety
/// See [`Isa`].
#[inline(always)]
pub(super) unsafe fn fill_group<I: Isa>(
    jobs: &[GroupJob<'_>],
    sc: &Scoring,
    scratch: &mut AlignScratch,
    out: &mut Vec<AlignResult>,
) {
    const { assert!(I::L <= MAX_LANES) };
    let lanes = I::L;
    assert!(
        (1..=lanes).contains(&jobs.len()),
        "a lane group holds 1..={lanes} jobs, not {}",
        jobs.len()
    );
    assert!(
        jobs.iter()
            .all(|j| !j.target.is_empty() && !j.query.is_empty()),
        "a lane group's jobs must have non-empty sides"
    );
    assert!(sc.fits_i8(), "scoring parameters must satisfy fits_i8()");
    let tmax = jobs.iter().map(|j| j.target.len()).max().unwrap_or(0);
    // Query columns, rounded up to pairs: an odd group gets one dead column.
    let qcols = jobs
        .iter()
        .map(|j| j.query.len())
        .max()
        .unwrap_or(0)
        .next_multiple_of(2);
    let with_path = jobs.iter().any(|j| j.with_path);
    let (e, qe) = (sc.e, sc.q + sc.e);
    let k = consts::<I>(sc);
    let AlignScratch {
        v,
        x,
        qr,
        tpad,
        block,
        cigars,
        ..
    } = scratch;
    // Padding lanes and positions read base 0; their cells are dead.
    reset_fill(tpad, tmax * lanes, 0);
    reset_fill(qr, qcols * lanes, 0);
    for (l, job) in jobs.iter().enumerate() {
        for (i, &b) in job.target.iter().enumerate() {
            tpad[i * lanes + l] = b;
        }
        for (j, &b) in job.query.iter().enumerate() {
            qr[j * lanes + l] = b;
        }
    }
    // Row -1: x(-1, j) = -(q+e); v(-1, 0) = -(q+e) opens the row's gap,
    // v(-1, j > 0) = -e extends it.
    reset_fill(x, qcols * lanes, -qe as i8);
    reset_fill(v, qcols * lanes, -e as i8);
    v[..lanes].fill(-qe as i8);
    let half = qcols / 2;
    if with_path && block.len() < tmax * half * lanes {
        block.resize(tmax * half * lanes, 0);
    }
    let p = GroupPtrs {
        target: tpad.as_ptr(),
        query: qr.as_ptr(),
        x: x.as_mut_ptr().cast(),
        v: v.as_mut_ptr().cast(),
        dir: if with_path {
            block.as_mut_ptr()
        } else {
            ptr::null_mut()
        },
    };

    // Lanes in the order their last row comes, so each lane's score is
    // summed right after that row, while `v` still holds it.
    let mut by_rows = [0usize; MAX_LANES];
    let by_rows = &mut by_rows[..jobs.len()];
    for (l, slot) in by_rows.iter_mut().enumerate() {
        *slot = l;
    }
    by_rows.sort_unstable_by_key(|&l| jobs[l].target.len());
    let mut scores = [0i32; MAX_LANES];
    let mut ended = 0;
    let (open, extend) = (I::splat(-qe as i8), I::splat(-e as i8));
    for i in 0..tmax {
        // u(i, -1) and y(i, -1): column -1's gap opens at row 0.
        let u = if i == 0 { open } else { extend };
        if with_path {
            group_row::<I, true>(&p, &k, i, qcols, u, open);
        } else {
            group_row::<I, false>(&p, &k, i, qcols, u, open);
        }
        // H(i, |Q_l| - 1) = H(i, -1) + Σ_j v(i, j), exact in i32.
        while let Some(&l) = by_rows.get(ended) {
            if jobs[l].target.len() != i + 1 {
                break;
            }
            let h = -sc.gap_cost(i as u32 + 1);
            scores[l] = (0..jobs[l].query.len()).fold(h, |h, j| h + at(p.v, j * lanes + l));
            ended += 1;
        }
    }

    for (l, job) in jobs.iter().enumerate() {
        let (tlen, qlen) = (job.target.len(), job.query.len());
        let cigar = job.with_path.then(|| {
            let mut c = AlignScratch::take_cigar(cigars);
            let dir =
                |i: usize, j: usize| (block[(i * half + j / 2) * lanes + l] >> (j % 2 * 4)) & 0xf;
            backtrack_into(dir, tlen - 1, qlen - 1, &mut c);
            c
        });
        out.push(AlignResult {
            score: scores[l],
            cigar,
            cells: tlen as u64 * qlen as u64,
        });
    }
}

/// The smallest `t` in `st..=en` with `h[t] == x`.
///
/// # Safety
/// See [`Isa`]; `h` is valid for `en + 1` scores plus [`PAD`].
#[inline(always)]
unsafe fn first_eq<I: Isa>(h: *const i32, st: usize, en: usize, x: i32) -> usize {
    let lw = I::L / 4;
    let xv = I::w_splat(x);
    let mut t = st;
    while t <= en {
        let n = en + 1 - t;
        let m = I::w_tail(n);
        let mut bits = I::w_eq_bits(I::w_load_tail(h.add(t), m), xv);
        if n < lw {
            bits &= (1 << n) - 1;
        }
        if bits != 0 {
            return t + bits.trailing_zeros() as usize;
        }
        t += lw;
    }
    unreachable!("a diagonal's maximum is the score of one of its cells")
}

/// Exact z-drop extension (see [`crate::zdrop`]) on the Eq. 4 step: per
/// diagonal the in-place update, the 32-bit exact-score pass on the fresh
/// `v` values, and one max-reduce for the z-drop test.
///
/// The scalar kernel's tie rule falls out of the reduce: the best cell is
/// the first diagonal that reaches the running maximum and the smallest `t`
/// within it, so a diagonal is rescanned for its argmax only when its
/// maximum beats `best`.
///
/// # Safety
/// See [`Isa`]; both sequences are non-empty, `sc.fits_i8()`, `zdrop > 0`.
#[inline(always)]
pub(super) unsafe fn extend_zdrop<I: Isa>(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    zdrop: i32,
    with_path: bool,
    scratch: &mut AlignScratch,
) -> ExtendResult {
    const { assert!(I::PAD <= PAD) };
    let (tlen, qlen) = (target.len(), query.len());
    let k = consts::<I>(sc);
    let p = setup(target, query, sc, true, scratch);
    reset_fill(&mut scratch.h32, tlen + PAD, 0i32);
    let h = scratch.h32.as_mut_ptr();
    if with_path {
        scratch.dir.reset(tlen, qlen);
    }
    let mut best = (i32::MIN, 0usize, 0usize); // (score, i, j)

    for r in 0..tlen + qlen - 1 {
        let st = r.saturating_sub(qlen - 1);
        let en = r.min(tlen - 1);
        if en == r {
            // First visit of row r (j = 0): H(r, -1) = -gap(r+1).
            *h.add(r) = -sc.gap_cost(r as u32 + 1);
        }
        let row = if with_path {
            scratch.dir.push_row_ptr()
        } else {
            ptr::null_mut()
        };
        let hmax = eq4_diagonal::<I, true>(&p, &k, r, st, en, qlen, row, h);
        let diag_best = I::w_reduce_max(hmax);
        if diag_best > best.0 {
            let t = first_eq::<I>(h, st, en, diag_best);
            best = (diag_best, t, r - t);
        }
        // z-drop: the whole frontier fell too far below the best cell.
        if best.0 - diag_best > zdrop {
            break;
        }
    }

    if best.0 <= 0 {
        return ExtendResult::empty();
    }
    let mut cigar = Default::default();
    if with_path {
        cigar = AlignScratch::take_cigar(&mut scratch.cigars);
        backtrack_into(|i, j| scratch.dir.get(i, j), best.1, best.2, &mut cigar);
    }
    ExtendResult {
        score: best.0,
        t_consumed: best.1 + 1,
        q_consumed: best.2 + 1,
        cigar,
    }
}
