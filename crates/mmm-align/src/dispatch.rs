//! Runtime kernel selection.
//!
//! An [`Engine`] names one of the eight kernel variants benchmarked in the
//! paper: {minimap2 layout, manymap layout} × {scalar, SSE, AVX2, AVX-512}.
//! `Engine::align` dispatches to the right implementation; [`best_engine`]
//! picks manymap's layout at the widest vector unit the CPU supports, which
//! is what the mapper uses by default.

use std::sync::OnceLock;

use crate::scalar;
use crate::score::Scoring;
use crate::scratch::AlignScratch;
use crate::simd::{avx2, avx512, sse};
use crate::types::{AlignMode, AlignResult, GroupJob};
use crate::zdrop;
use crate::zdrop::ExtendResult;

/// SIMD tiers turned off by the `MMM_DISABLE_SIMD` environment override —
/// the escape hatch for debugging a suspect kernel in production and for
/// forcing the scalar fallback path in tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DisabledTiers {
    pub sse: bool,
    pub avx2: bool,
    pub avx512: bool,
}

impl DisabledTiers {
    /// No tier disabled (the default when the variable is unset).
    pub const NONE: DisabledTiers = DisabledTiers {
        sse: false,
        avx2: false,
        avx512: false,
    };

    /// Every SIMD tier disabled: scalar kernels only.
    pub const ALL_SIMD: DisabledTiers = DisabledTiers {
        sse: true,
        avx2: true,
        avx512: true,
    };
}

/// Parse an `MMM_DISABLE_SIMD` value: a comma/space-separated list of tier
/// names (`sse`, `avx2`, `avx512`/`avx-512`), or `all`/`1` for every tier.
/// Unknown tokens are ignored rather than rejected — a typo in a debugging
/// override must never take the mapper down.
pub fn parse_disable_list(value: &str) -> DisabledTiers {
    let mut d = DisabledTiers::NONE;
    for token in value.split([',', ' ', ';']) {
        match token.trim().to_ascii_lowercase().as_str() {
            "sse" | "sse2" | "sse4.1" => d.sse = true,
            "avx2" => d.avx2 = true,
            "avx512" | "avx-512" | "avx512f" => d.avx512 = true,
            "all" | "1" | "true" => d = DisabledTiers::ALL_SIMD,
            _ => {}
        }
    }
    d
}

/// The process-wide override, read from `MMM_DISABLE_SIMD` once on first
/// dispatch and cached (the hot path must not re-read the environment).
fn env_disabled() -> DisabledTiers {
    static CACHE: OnceLock<DisabledTiers> = OnceLock::new();
    *CACHE.get_or_init(|| match std::env::var("MMM_DISABLE_SIMD") {
        Ok(v) => parse_disable_list(&v),
        Err(_) => DisabledTiers::NONE,
    })
}

/// Vector width tier. Labels follow the paper's naming (its baseline tier is
/// "SSE2"; our 128-bit kernels use SSE4.1 instructions — see `simd`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Width {
    Scalar,
    Sse,
    Avx2,
    Avx512,
}

impl Width {
    /// 8-bit lanes processed per vector op.
    pub fn lanes(self) -> usize {
        match self {
            Width::Scalar => 1,
            Width::Sse => 16,
            Width::Avx2 => 32,
            Width::Avx512 => 64,
        }
    }

    /// The paper's tier label.
    pub fn label(self) -> &'static str {
        match self {
            Width::Scalar => "scalar",
            Width::Sse => "SSE2",
            Width::Avx2 => "AVX2",
            Width::Avx512 => "AVX-512",
        }
    }

    /// Does the running CPU support this tier, and is it not disabled by
    /// the `MMM_DISABLE_SIMD` override?
    pub fn is_available(self) -> bool {
        self.is_available_unless(env_disabled())
    }

    /// [`Width::is_available`] against an explicit disable mask — the pure
    /// form the env-independent tests drive directly.
    pub fn is_available_unless(self, disabled: DisabledTiers) -> bool {
        match self {
            Width::Scalar => true,
            Width::Sse => !disabled.sse && sse::available(),
            Width::Avx2 => !disabled.avx2 && avx2::available(),
            Width::Avx512 => !disabled.avx512 && avx512::available(),
        }
    }

    /// All tiers, narrowest first.
    pub const ALL: [Width; 4] = [Width::Scalar, Width::Sse, Width::Avx2, Width::Avx512];

    /// The tier that runs a problem whose longest anti-diagonal has
    /// `longest` cells when this tier is asked for: the widest available
    /// one, no wider than `self`, whose vector that diagonal fills
    /// [`MIN_VECTORS`] times (else the narrowest such tier).
    ///
    /// Consecutive diagonals form a store → load chain through the
    /// difference arrays, and on short diagonals that latency, not the
    /// instruction count, is the cost: 16-byte accesses split fewer cache
    /// lines and forward more stores than 32- or 64-byte ones, so the
    /// narrow kernel finishes a short diagonal sooner in four steps than a
    /// wide one in one. On the AVX-512 build host the 256-bit fill overtakes
    /// the 128-bit one between 150 and 200 cells and the 512-bit one the
    /// 256-bit one between 512 and 700. The mapper's gap fills are far
    /// shorter (on the benchmark's `ont_unique`, a fill's longer side has
    /// median 44, p90 108, p99 199), and at 44×44 the 512-bit kernel is
    /// 1.2–1.4x slower than the 128-bit one (`fig5`, table 5c); the CPU
    /// backend runs most of them in lane groups instead
    /// ([`Engine::align_group_with_scratch`]). Every tier computes the same
    /// bytes, so only speed depends on this.
    fn for_longest_diagonal(self, longest: usize) -> Width {
        let mut pick = self;
        for w in [Width::Avx512, Width::Avx2, Width::Sse] {
            // Never wider than asked for, never a tier that is missing or
            // switched off by `MMM_DISABLE_SIMD`.
            if w.lanes() > self.lanes() || (w != self && !w.is_available()) {
                continue;
            }
            pick = w;
            if longest >= MIN_VECTORS * w.lanes() {
                break;
            }
        }
        pick
    }
}

/// See [`Width::for_longest_diagonal`].
const MIN_VECTORS: usize = 8;

/// DP memory layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Equation (3) — minimap2's layout with the intra-loop dependency.
    Mm2,
    /// Equation (4) — manymap's dependency-free layout.
    Manymap,
}

impl Layout {
    /// The paper's series label.
    pub fn label(self) -> &'static str {
        match self {
            Layout::Mm2 => "minimap2",
            Layout::Manymap => "manymap",
        }
    }
}

/// One concrete kernel variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Engine {
    pub layout: Layout,
    pub width: Width,
}

impl Engine {
    /// Construct a variant.
    pub const fn new(layout: Layout, width: Width) -> Self {
        Engine { layout, width }
    }

    /// All eight variants in Figure 5/8 order.
    pub fn all() -> Vec<Engine> {
        let mut v = Vec::with_capacity(8);
        for layout in [Layout::Mm2, Layout::Manymap] {
            for width in Width::ALL {
                v.push(Engine::new(layout, width));
            }
        }
        v
    }

    /// Is the variant runnable on this CPU?
    pub fn is_available(&self) -> bool {
        self.width.is_available()
    }

    /// Series label, e.g. `manymap/AVX2`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.layout.label(), self.width.label())
    }

    /// Globally align `target` against `query`. Panics if the width is
    /// unsupported on this CPU (check [`Engine::is_available`] first). A
    /// problem too small to keep the engine's vectors busy runs on a
    /// narrower tier of the same layout (see [`Width`]'s
    /// `for_longest_diagonal`); the result is the same.
    ///
    /// ```
    /// use mmm_align::{best_engine, Scoring};
    /// let t = mmm_seq::to_nt4(b"ACGTACGT");
    /// let r = best_engine().align(&t, &t, &Scoring::MAP_ONT, true);
    /// assert_eq!(r.score, 16); // 8 matches x 2
    /// assert_eq!(r.cigar.unwrap().to_string(), "8M");
    /// ```
    pub fn align(&self, target: &[u8], query: &[u8], sc: &Scoring, with_path: bool) -> AlignResult {
        self.align_with_scratch(
            target,
            query,
            sc,
            AlignMode::Global,
            with_path,
            &mut AlignScratch::new(),
        )
    }

    /// One DP problem of either [`AlignMode`] with caller-provided buffers:
    /// [`Engine::align`] for a global fill, or
    /// [`Engine::extend_zdrop_with_scratch`] for an extension, whose result
    /// carries the prefixes it consumed. After one warm-up call at the
    /// largest problem size, repeated calls perform zero heap allocations
    /// (see [`AlignScratch`]).
    pub fn align_with_scratch(
        &self,
        target: &[u8],
        query: &[u8],
        sc: &Scoring,
        mode: AlignMode,
        with_path: bool,
        scratch: &mut AlignScratch,
    ) -> AlignResult {
        if let AlignMode::Extend { zdrop } = mode {
            let e = self.extend_zdrop_with_scratch(target, query, sc, zdrop, with_path, scratch);
            return AlignResult {
                score: e.score,
                cigar: with_path.then_some(e.cigar),
                cells: target.len() as u64 * query.len() as u64,
                t_consumed: e.t_consumed,
                q_consumed: e.q_consumed,
            };
        }
        let width = self
            .width
            .for_longest_diagonal(target.len().min(query.len()));
        match (self.layout, width) {
            (Layout::Mm2, Width::Scalar) => {
                scalar::align_mm2_with_scratch(target, query, sc, with_path, scratch)
            }
            (Layout::Manymap, Width::Scalar) => {
                scalar::align_manymap_with_scratch(target, query, sc, with_path, scratch)
            }
            (Layout::Mm2, Width::Sse) => {
                sse::align_mm2_with_scratch(target, query, sc, with_path, scratch)
            }
            (Layout::Manymap, Width::Sse) => {
                sse::align_manymap_with_scratch(target, query, sc, with_path, scratch)
            }
            (Layout::Mm2, Width::Avx2) => {
                avx2::align_mm2_with_scratch(target, query, sc, with_path, scratch)
            }
            (Layout::Manymap, Width::Avx2) => {
                avx2::align_manymap_with_scratch(target, query, sc, with_path, scratch)
            }
            (Layout::Mm2, Width::Avx512) => {
                avx512::align_mm2_with_scratch(target, query, sc, with_path, scratch)
            }
            (Layout::Manymap, Width::Avx512) => {
                avx512::align_manymap_with_scratch(target, query, sc, with_path, scratch)
            }
        }
    }

    /// Jobs per [`Engine::align_group_with_scratch`] call — the byte lanes of
    /// this engine's vector — or `None` for an engine that aligns pair by
    /// pair: the scalar tier and the minimap2 layout.
    pub fn group_lanes(&self) -> Option<usize> {
        match (self.layout, self.width) {
            (Layout::Manymap, Width::Sse | Width::Avx2 | Width::Avx512) => Some(self.width.lanes()),
            _ => None,
        }
    }

    /// Global alignment of a lane group: `jobs[l]` runs in byte lane `l` of
    /// this engine's own tier (never a narrower one), over the group's padded
    /// `max|T| × max|Q|` matrix. Appends one result per job to `out`, in job
    /// order, each equal to what [`Engine::align_with_scratch`] returns for
    /// it. When a job keeps its path, the direction block takes half a byte
    /// of the scratch per padded cell.
    ///
    /// # Panics
    /// If the engine has no group kernel ([`Engine::group_lanes`] is `None`)
    /// or its tier is unsupported on this CPU, `jobs` is empty or holds more
    /// jobs than lanes, a job has an empty side, or `sc` violates
    /// [`Scoring::fits_i8`].
    pub fn align_group_with_scratch(
        &self,
        jobs: &[GroupJob<'_>],
        sc: &Scoring,
        scratch: &mut AlignScratch,
        out: &mut Vec<AlignResult>,
    ) {
        let kernel = match (self.layout, self.width) {
            (Layout::Manymap, Width::Sse) => sse::align_group_with_scratch,
            (Layout::Manymap, Width::Avx2) => avx2::align_group_with_scratch,
            (Layout::Manymap, Width::Avx512) => avx512::align_group_with_scratch,
            _ => panic!(
                "{} aligns pair by pair: it has no group kernel",
                self.label()
            ),
        };
        kernel(jobs, sc, scratch, out)
    }

    /// Exact z-drop extension ([`crate::extend_zdrop`]) at this engine's
    /// vector width. The extension always runs the Eq. 4 step, so `layout`
    /// does not enter; every width returns the same score, end cell and
    /// CIGAR as the scalar kernel.
    ///
    /// # Panics
    /// If the width is unsupported on this CPU, `sc` violates
    /// [`Scoring::fits_i8`], or `zdrop <= 0`.
    pub fn extend_zdrop_with_scratch(
        &self,
        target: &[u8],
        query: &[u8],
        sc: &Scoring,
        zdrop: i32,
        with_path: bool,
        scratch: &mut AlignScratch,
    ) -> ExtendResult {
        if target.is_empty() || query.is_empty() {
            return ExtendResult::empty();
        }
        assert!(sc.fits_i8(), "scoring parameters must satisfy fits_i8()");
        assert!(zdrop > 0, "zdrop must be positive");
        let width = self
            .width
            .for_longest_diagonal(target.len().min(query.len()));
        let kernel = match width {
            Width::Scalar => zdrop::extend_scalar,
            Width::Sse => sse::extend_zdrop,
            Width::Avx2 => avx2::extend_zdrop,
            Width::Avx512 => avx512::extend_zdrop,
        };
        kernel(target, query, sc, zdrop, with_path, scratch)
    }
}

/// The widest available manymap kernel — the mapper default. Honors the
/// `MMM_DISABLE_SIMD` override.
pub fn best_engine() -> Engine {
    best_engine_unless(Layout::Manymap, env_disabled())
}

/// The widest available minimap2-layout kernel — the baseline the macro
/// benchmarks compare against. Honors the `MMM_DISABLE_SIMD` override.
pub fn best_mm2_engine() -> Engine {
    best_engine_unless(Layout::Mm2, env_disabled())
}

/// Widest-first selection against an explicit disable mask.
pub fn best_engine_unless(layout: Layout, disabled: DisabledTiers) -> Engine {
    for width in [Width::Avx512, Width::Avx2, Width::Sse] {
        if width.is_available_unless(disabled) {
            return Engine::new(layout, width);
        }
    }
    Engine::new(layout, Width::Scalar)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_variants_exist() {
        assert_eq!(Engine::all().len(), 8);
    }

    #[test]
    fn scalar_always_available() {
        assert!(Engine::new(Layout::Manymap, Width::Scalar).is_available());
    }

    #[test]
    fn best_engine_is_manymap() {
        let e = best_engine();
        assert_eq!(e.layout, Layout::Manymap);
        assert!(e.is_available());
    }

    #[test]
    fn all_available_engines_agree() {
        let t = mmm_seq::to_nt4(b"ACGTTTACGGGACTACGT");
        let q = mmm_seq::to_nt4(b"ACGTTACGGGCACTAGT");
        let sc = Scoring::MAP_ONT;
        let gold = scalar::align_manymap(&t, &q, &sc, true);
        for e in Engine::all().into_iter().filter(|e| e.is_available()) {
            assert_eq!(e.align(&t, &q, &sc, true), gold, "{}", e.label());
        }
    }

    #[test]
    fn disable_list_parses_each_tier() {
        assert_eq!(parse_disable_list(""), DisabledTiers::NONE);
        assert_eq!(
            parse_disable_list("sse"),
            DisabledTiers {
                sse: true,
                ..DisabledTiers::NONE
            }
        );
        assert_eq!(
            parse_disable_list("AVX2"),
            DisabledTiers {
                avx2: true,
                ..DisabledTiers::NONE
            }
        );
        assert_eq!(
            parse_disable_list("avx-512"),
            DisabledTiers {
                avx512: true,
                ..DisabledTiers::NONE
            }
        );
        assert_eq!(
            parse_disable_list("sse, avx2,avx512"),
            DisabledTiers::ALL_SIMD
        );
        assert_eq!(parse_disable_list("all"), DisabledTiers::ALL_SIMD);
        // Typos never disable (or enable) anything by accident.
        assert_eq!(parse_disable_list("sse3;banana"), DisabledTiers::NONE);
    }

    #[test]
    fn disabling_each_tier_falls_back_to_the_next_narrower() {
        // Scalar survives any mask.
        assert!(Width::Scalar.is_available_unless(DisabledTiers::ALL_SIMD));
        for w in [Width::Sse, Width::Avx2, Width::Avx512] {
            assert!(!w.is_available_unless(DisabledTiers::ALL_SIMD), "{w:?}");
        }
        let e = best_engine_unless(Layout::Manymap, DisabledTiers::ALL_SIMD);
        assert_eq!(e, Engine::new(Layout::Manymap, Width::Scalar));
        // Masking only the widest supported tier steps down one level.
        if Width::Avx512.is_available_unless(DisabledTiers::NONE) {
            let d = DisabledTiers {
                avx512: true,
                ..DisabledTiers::NONE
            };
            assert_eq!(best_engine_unless(Layout::Manymap, d).width, Width::Avx2);
        }
        if Width::Avx2.is_available_unless(DisabledTiers::NONE) {
            let d = DisabledTiers {
                avx2: true,
                avx512: true,
                ..DisabledTiers::NONE
            };
            assert_eq!(best_engine_unless(Layout::Mm2, d).width, Width::Sse);
        }
    }

    #[test]
    fn forced_scalar_output_is_identical_per_tier() {
        // Forcing each tier off must not change results: whatever
        // `best_engine_unless` picks agrees exactly with the scalar gold.
        let t = mmm_seq::to_nt4(b"ACGTTTACGGGACTACGTTACGACT");
        let q = mmm_seq::to_nt4(b"ACGTTACGGGCACTAGTTAGACT");
        let sc = Scoring::MAP_ONT;
        let gold = scalar::align_manymap(&t, &q, &sc, true);
        for d in [
            DisabledTiers::NONE,
            DisabledTiers {
                avx512: true,
                ..DisabledTiers::NONE
            },
            DisabledTiers {
                avx2: true,
                avx512: true,
                ..DisabledTiers::NONE
            },
            DisabledTiers::ALL_SIMD,
        ] {
            let e = best_engine_unless(Layout::Manymap, d);
            assert_eq!(e.align(&t, &q, &sc, true), gold, "{d:?}");
        }
    }

    #[test]
    fn labels_are_paper_series() {
        assert_eq!(
            Engine::new(Layout::Mm2, Width::Sse).label(),
            "minimap2/SSE2"
        );
        assert_eq!(
            Engine::new(Layout::Manymap, Width::Avx512).label(),
            "manymap/AVX-512"
        );
    }
}
