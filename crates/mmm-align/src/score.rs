//! Scoring schemes for base-level alignment.
//!
//! The paper (§3.2) uses a one-piece affine gap penalty `q + k·e` and a
//! substitution score `s(T_i, Q_j)`. Like ksw2's vectorized kernels, the
//! difference-recurrence kernels restrict the substitution function to
//! match / mismatch / ambiguous so the per-diagonal score vector can be
//! produced with a single byte compare; the full-matrix reference uses the
//! same function, keeping every kernel bit-comparable.

/// Match/mismatch/affine-gap scoring parameters.
///
/// All fields are stored as the *positive magnitudes* of the respective
/// penalties, mirroring minimap2's `-A/-B/-O/-E` options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scoring {
    /// Match score (`A`), > 0.
    pub a: i32,
    /// Mismatch penalty (`B`), ≥ 0 (applied as `-b`).
    pub b: i32,
    /// Penalty for aligning against an ambiguous base (`N`), ≥ 0.
    pub ambi: i32,
    /// Gap open cost (`q` in Eq. 1), ≥ 0.
    pub q: i32,
    /// Gap extension cost (`e` in Eq. 1), > 0. A gap of length k costs
    /// `q + k·e`.
    pub e: i32,
}

impl Scoring {
    /// minimap2's defaults for PacBio CLR reads (`-ax map-pb`:
    /// A=2 B=5 O=4 E=2, collapsed to one-piece affine as in the paper).
    pub const MAP_PB: Scoring = Scoring {
        a: 2,
        b: 5,
        ambi: 1,
        q: 4,
        e: 2,
    };

    /// minimap2's defaults for Oxford Nanopore reads (`-ax map-ont`).
    pub const MAP_ONT: Scoring = Scoring {
        a: 2,
        b: 4,
        ambi: 1,
        q: 4,
        e: 2,
    };

    /// Substitution score between two nt4 codes.
    #[inline(always)]
    pub fn subst(&self, x: u8, y: u8) -> i32 {
        if x >= 4 || y >= 4 {
            -self.ambi
        } else if x == y {
            self.a
        } else {
            -self.b
        }
    }

    /// Validate that the parameters keep all difference-recurrence state in
    /// `i8` range (Suzuki–Kasahara bound: every delta lies within
    /// `[-(q+e), a+q+e]` and every `z` within `[-2(q+e)-b, a+q+e]`).
    pub fn fits_i8(&self) -> bool {
        let hi = self.a + self.q + self.e;
        let lo = 2 * (self.q + self.e) + self.b.max(self.ambi);
        self.a > 0 && self.e > 0 && hi <= 127 && lo <= 127
    }

    /// Cost of a gap of length `len` (`q + len·e`), as a positive magnitude.
    #[inline]
    pub fn gap_cost(&self, len: u32) -> i32 {
        if len == 0 {
            0
        } else {
            self.q + len as i32 * self.e
        }
    }
}

impl Default for Scoring {
    fn default() -> Self {
        Scoring::MAP_ONT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subst_cases() {
        let s = Scoring::MAP_ONT;
        assert_eq!(s.subst(0, 0), 2);
        assert_eq!(s.subst(0, 3), -4);
        assert_eq!(s.subst(4, 0), -1);
        assert_eq!(s.subst(2, 4), -1);
    }

    #[test]
    fn presets_fit_i8() {
        assert!(Scoring::MAP_PB.fits_i8());
        assert!(Scoring::MAP_ONT.fits_i8());
    }

    #[test]
    fn extreme_params_rejected() {
        for s in [
            Scoring {
                a: 100,
                b: 100,
                ambi: 1,
                q: 50,
                e: 30,
            },
            // `2(q+e)+b = 130 > 127`: the deltas just overflow `i8`.
            Scoring {
                a: 2,
                b: 4,
                ambi: 1,
                q: 60,
                e: 3,
            },
            // Zero extension cost and non-positive match score.
            Scoring {
                e: 0,
                ..Scoring::MAP_ONT
            },
            Scoring {
                a: 0,
                ..Scoring::MAP_ONT
            },
        ] {
            assert!(!s.fits_i8(), "{s:?}");
        }
    }

    #[test]
    fn gap_cost_is_affine() {
        let s = Scoring::MAP_ONT;
        assert_eq!(s.gap_cost(0), 0);
        assert_eq!(s.gap_cost(1), 6);
        assert_eq!(s.gap_cost(10), 24);
    }
}
