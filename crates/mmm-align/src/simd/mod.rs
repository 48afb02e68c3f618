//! Hand-vectorized x86-64 kernels (Figures 3 and 5 of the paper).
//!
//! One module per vector width. Each implements `Isa` — the tier's
//! loads, stores, saturating byte arithmetic, compare→direction bits and
//! widen-add-max — and instantiates the generic kernels of `kernel`
//! inside its `#[target_feature]` functions, so the three tiers run one
//! diagonal step, not three hand-copied ones:
//!
//! * the `mm2` fill vectorizes Equation (3). The `t-1` accesses to `X`/`V`
//!   force a byte-shift of the previous iteration's vector — one `palignr`
//!   on SSE, a `vperm2i128 + vpalignr` pair on AVX2 (the cross-lane shift
//!   AVX2 lacks, which is why the paper sees the largest gain there), and a
//!   shift + qword permute on AVX-512;
//! * the `manymap` fill vectorizes Equation (4): every operand is a plain
//!   unaligned load and every result a plain store to the same offset — the
//!   single-instruction load of Figure 3b;
//! * the z-drop extension is the Equation (4) step plus a 32-bit exact-score
//!   pass per diagonal;
//! * the lane-group fill runs the same cell step across sequences: byte
//!   lane `l` holds job `l` of a group of global jobs, walked row by row
//!   over the group's padded matrix, so short fills fill whole vectors;
//!   on AVX2 and AVX-512 its traceback walks every lane back at once
//!   (`LaneWalk`).
//!
//! **No cell runs in a scalar loop.** The `n % L` cells that end a diagonal
//! are one more vector step whose dead lanes are masked (ksw2 pads its
//! arrays and computes whole vectors to the end of every diagonal for the
//! same reason — the mapper's median gap fill is 44×44, whose 87 diagonals
//! never reach 64 lanes). How the dead lanes are kept out of memory is the
//! tier's business, stated by `Isa::PAD`:
//!
//! * AVX-512BW (`PAD = 0`): `_mm512_maskz_loadu_epi8` /
//!   `_mm512_mask_storeu_epi8` under a k-mask. Masked-off lanes neither
//!   fault nor store, so the tier needs no padding.
//! * AVX2 and SSE (`PAD = L`): the tail loads and stores whole vectors. The
//!   kernels pad `u/v/x/y/qr` (and `h32`) by one vector and copy the target
//!   into a padded scratch buffer, so the loads stay in bounds; the stored
//!   lanes are blended against a lane-index mask, so the slots past `en`
//!   (`u[en+1..]`, `y[en+1..]`, whose initial values later diagonals read)
//!   keep their contents.
//!
//! Either way the result is bit-identical to the scalar kernels (and
//! therefore to the full-matrix reference): a live lane computes exactly
//! [`crate::diff::cell_update`].
//!
//! The functions here run their own tier whatever the problem size.
//! [`crate::Engine`] does not: consecutive diagonals form a store → load
//! chain through `u/v/x/y`, short diagonals are bound by that latency, and
//! the wider the access the longer it is — so `Engine` hands a problem whose
//! longest diagonal is under eight of a tier's vectors to the next narrower
//! tier (`Width::for_longest_diagonal`).
//!
//! Naming note: the paper's baseline tier is "SSE2"; our 128-bit kernels use
//! SSE4.1 (`pblendvb`/`pmaxsb`), universally available on x86-64 since 2008.
//! We keep the paper's tier labels in the harnesses.
#![expect(unsafe_code, reason = "SIMD kernels, reached only via `available()`")]

#[cfg(target_arch = "x86_64")]
pub mod avx2;
#[cfg(target_arch = "x86_64")]
pub mod avx512;
#[cfg(target_arch = "x86_64")]
mod kernel;
#[cfg(target_arch = "x86_64")]
pub mod sse;

/// Splatted scoring and direction-bit constants of one kernel call.
#[cfg(target_arch = "x86_64")]
pub(crate) struct Consts<V> {
    pub vmatch: V,
    pub vmis: V,
    pub vambi: V,
    pub vfour: V,
    pub vq: V,
    pub vqe: V,
    pub zero: V,
    pub src_e: V,
    pub src_f: V,
    pub e_cont: V,
    pub f_cont: V,
}

/// Writes the methods of [`Isa`] and of its impls: every `fn` in the
/// invocation becomes an `#[inline(always)] unsafe fn` (a bare declaration
/// when it has no body) under the one contract they all share.
#[cfg(target_arch = "x86_64")]
macro_rules! isa_fns {
    ($($(#[$doc:meta])* fn $name:ident($($a:ident: $t:ty),* $(,)?) $(-> $r:ty)?;)*) => {$(
        $(#[$doc])*
        ///
        /// # Safety
        /// See the trait's contract.
        unsafe fn $name($($a: $t),*) $(-> $r)?;
    )*};
    ($(fn $name:ident($($a:ident: $t:ty),* $(,)?) $(-> $r:ty)? $body:block)*) => {$(
        /// # Safety
        /// See [`Isa`]: runs under the tier's target features, on pointers
        /// valid for the access the trait documents.
        #[inline(always)]
        unsafe fn $name($($a: $t),*) $(-> $r)? $body
    )*};
}
#[cfg(target_arch = "x86_64")]
pub(crate) use isa_fns;

/// What a vector tier provides to the generic kernels in [`kernel`].
///
/// `V` is one register of `L` signed bytes (the difference values), `W` the
/// same register as `L / 4` 32-bit lanes (the extension's exact scores).
/// `M` / `MW` select the first `n` lanes of a `V` / `W` for the masked step
/// that ends a diagonal.
///
/// # Safety
/// Every method is an `unsafe fn` and must run under the tier's target
/// features: the kernels are `#[inline(always)]` into the tier's
/// `#[target_feature]` functions, which are reached only behind its
/// `available()` assert. Pointer methods read or write `L` bytes (`V`) or
/// `L` bytes' worth of `i32` (`W`) at `p`, except the `*_tail` forms of a
/// tier with `PAD == 0`, which touch the selected lanes only.
#[cfg(target_arch = "x86_64")]
pub(crate) trait Isa {
    type V: Copy;
    type W: Copy;
    type M: Copy;
    type MW: Copy;
    /// Byte lanes per vector.
    const L: usize;
    /// Bytes past the live lanes that a tail step may read from its operand
    /// arrays and write to the direction row: `0` (true masking) or `L`.
    const PAD: usize;

    isa_fns! {
        /// `x` in every byte lane.
        fn splat(x: i8) -> Self::V;
        /// `L` bytes at `p`.
        fn load(p: *const u8) -> Self::V;
        /// `v` to the `L` bytes at `p`.
        fn store(p: *mut u8, v: Self::V);
        /// Mask of the first `n` byte lanes, `0 < n < L`.
        fn tail(n: usize) -> Self::M;
        /// The selected lanes at `p` (the others unspecified).
        fn load_tail(p: *const u8, m: Self::M) -> Self::V;
        /// Store the selected lanes of `new`; the other lanes of memory keep
        /// `old`, the value they were loaded with.
        fn store_tail(p: *mut u8, m: Self::M, new: Self::V, old: Self::V);
        /// Store the direction bytes of a tail step (dead lanes may spill
        /// when `PAD > 0`; the row has slack for them).
        fn store_dir_tail(p: *mut u8, m: Self::M, d: Self::V);

        /// Saturating lane-wise `a + b`.
        fn adds(a: Self::V, b: Self::V) -> Self::V;
        /// Saturating lane-wise `a - b`.
        fn subs(a: Self::V, b: Self::V) -> Self::V;
        /// Signed lane-wise maximum.
        fn max(a: Self::V, b: Self::V) -> Self::V;
        /// Substitution scores of `L` target/query base pairs.
        fn subst(tv: Self::V, qv: Self::V, k: &Consts<Self::V>) -> Self::V;
        /// Direction bytes from the step's intermediates (see
        /// [`crate::diff::cell_update`]).
        fn dir_bits(
            s: Self::V,
            a: Self::V,
            b: Self::V,
            za: Self::V,
            xt: Self::V,
            yt: Self::V,
            k: &Consts<Self::V>,
        ) -> Self::V;

        /// `lo | hi << 4` in every byte lane, both below 16: two cells'
        /// direction bytes in one.
        fn nibble_pair(lo: Self::V, hi: Self::V) -> Self::V;

        /// Eq. 3's `t-1` access: `cur` shifted up one byte lane, `carry`'s
        /// byte 0 entering lane 0.
        fn shift_in(cur: Self::V, carry: Self::V) -> Self::V;
        /// `cur`'s last byte in lane 0, zeros elsewhere — the next `carry`.
        fn carry_out(cur: Self::V) -> Self::V;
        /// `x` in lane 0, zeros elsewhere.
        fn carry_from(x: i8) -> Self::V;

        /// The four quarters of `v`, sign-extended to 32-bit lanes.
        fn widen4(v: Self::V) -> [Self::W; 4];
        /// `x` in every 32-bit lane.
        fn w_splat(x: i32) -> Self::W;
        /// `L / 4` scores at `p`.
        fn w_load(p: *const i32) -> Self::W;
        /// `w` to the `L / 4` scores at `p`.
        fn w_store(p: *mut i32, w: Self::W);
        /// Mask of the first `n` 32-bit lanes; `n >= L / 4` selects all.
        fn w_tail(n: usize) -> Self::MW;
        /// The selected scores at `p` (the others unspecified).
        fn w_load_tail(p: *const i32, m: Self::MW) -> Self::W;
        /// Store the selected lanes of `new`; the others keep `old`.
        fn w_store_tail(p: *mut i32, m: Self::MW, new: Self::W, old: Self::W);
        /// `a` in the selected lanes, `b` elsewhere.
        fn w_select(m: Self::MW, a: Self::W, b: Self::W) -> Self::W;
        /// Lane-wise `a + b`.
        fn w_add(a: Self::W, b: Self::W) -> Self::W;
        /// Signed lane-wise maximum.
        fn w_max(a: Self::W, b: Self::W) -> Self::W;
        /// Horizontal maximum.
        fn w_reduce_max(w: Self::W) -> i32;
        /// Bit `k` set iff lane `k` equals `x`.
        fn w_eq_bits(w: Self::W, x: Self::W) -> u32;
    }

    /// The CIGARs of a lane group's with-path jobs, from the direction
    /// block its fill wrote: each lane walked alone by
    /// [`crate::diff::backtrack_into`], unless the tier walks them all in
    /// lock-step ([`LaneWalk`]).
    ///
    /// # Safety
    /// See the trait's contract; `t.block` holds the group's direction
    /// rows.
    #[inline(always)]
    unsafe fn trace_group(t: &mut kernel::GroupTrace<'_>) {
        kernel::walk_lanes(t)
    }
}

/// What a tier provides to the lock-step lane-group traceback
/// ([`kernel::walk_lockstep`]): 32-bit lane arithmetic, compares to a
/// lane mask, a masked gather and the narrowing of four `W`s back to one
/// `V` of bytes. SSE has no gather and keeps the per-lane walk.
///
/// # Safety
/// As for [`Isa`]; `w_gather` reads 4 bytes at `base + off` for every
/// selected lane.
#[cfg(target_arch = "x86_64")]
pub(crate) trait LaneWalk: Isa {
    isa_fns! {
        /// Lane-wise `a > b`.
        fn w_gt(a: Self::W, b: Self::W) -> Self::MW;
        /// Lane-wise `a == b`.
        fn w_eq(a: Self::W, b: Self::W) -> Self::MW;
        /// Lanes selected by both masks.
        fn m_and(a: Self::MW, b: Self::MW) -> Self::MW;
        /// Lane-wise `a & b`.
        fn w_and(a: Self::W, b: Self::W) -> Self::W;
        /// Lane-wise `a - b`.
        fn w_sub(a: Self::W, b: Self::W) -> Self::W;
        /// Lane-wise `a << n`.
        fn w_shl(a: Self::W, n: Self::W) -> Self::W;
        /// Lane-wise logical `a >> n`.
        fn w_shr(a: Self::W, n: Self::W) -> Self::W;
        /// The `i32` at `base + off` in the selected lanes, 0 elsewhere.
        fn w_gather(base: *const u8, off: Self::W, m: Self::MW) -> Self::W;
        /// The low byte of every lane of `w[0]`, then `w[1]`, … — the
        /// inverse of [`Isa::widen4`] for values that fit a byte.
        fn narrow4(w: [Self::W; 4]) -> Self::V;
        /// Bit `k` set iff byte lane `k` of `a` equals that of `b`.
        fn eq_bits(a: Self::V, b: Self::V) -> u64;
    }
}

// Miri cannot execute vendor intrinsics; the simd tests are host-only.
#[cfg(all(test, target_arch = "x86_64", not(miri)))]
mod tests;
