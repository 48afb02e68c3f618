//! Mapping presets (minimap2's `-ax map-pb` / `-ax map-ont`).

use mmm_align::{best_engine, Engine, Scoring};
use mmm_chain::{ChainOpts, SelectOpts};
use mmm_exec::MAX_PLAN_SEGMENT;
use mmm_index::IdxOpts;

/// All knobs of one mapping run.
#[derive(Clone, Copy, Debug)]
pub struct MapOpts {
    pub idx: IdxOpts,
    pub chain: ChainOpts,
    pub select: SelectOpts,
    pub scoring: Scoring,
    /// Which base-level kernel to use.
    pub engine: Engine,
    /// Produce CIGARs (the paper's "alignment with complete path") or scores
    /// only.
    pub with_cigar: bool,
    /// Maximum reference window for end extension, as a multiple of the
    /// unaligned query tail.
    pub ext_factor: f64,
    /// Hard cap on any single base-level alignment problem (guards the
    /// quadratic with-path memory, §4.5.2's "fall back" case).
    pub max_fill: usize,
    /// Z-drop threshold for end extension (minimap2 `-z`).
    pub zdrop: i32,
    /// Reads longer than this are rejected per-read (degraded to unmapped)
    /// rather than aligned; guards worker memory against pathological input.
    pub max_read_len: usize,
}

impl MapOpts {
    /// PacBio preset: `-ax map-pb` (k=19, PacBio scoring).
    pub fn map_pb() -> Self {
        MapOpts {
            idx: IdxOpts::MAP_PB,
            chain: ChainOpts::default(),
            select: SelectOpts::default(),
            scoring: Scoring::MAP_PB,
            engine: best_engine(),
            with_cigar: true,
            ext_factor: 1.5,
            // The one shared plan-time size limit: keeping this equal to the
            // executor's constant guarantees no planned job is rejected at
            // submit time for being oversized (see `mmm_exec::job`).
            max_fill: MAX_PLAN_SEGMENT,
            zdrop: mmm_align::DEFAULT_ZDROP,
            max_read_len: 100_000_000,
        }
    }

    /// Nanopore preset: `-ax map-ont` (k=15, ONT scoring).
    pub fn map_ont() -> Self {
        MapOpts {
            idx: IdxOpts::MAP_ONT,
            scoring: Scoring::MAP_ONT,
            ..Self::map_pb()
        }
    }

    /// Use a specific kernel variant.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Toggle CIGAR production.
    pub fn cigar(mut self, on: bool) -> Self {
        self.with_cigar = on;
        self
    }
}

/// Parse a byte-size flag value: a positive integer with an optional
/// binary `K`/`M`/`G` suffix (case-insensitive). `flag` names the flag in
/// the error message. Shared by the `manymap --mem-budget` and
/// `mmm-serve --mem-budget` parsers so both CLIs accept the same syntax.
pub fn parse_byte_size(flag: &str, v: &str) -> Result<usize, String> {
    let (digits, mult) = match v.as_bytes().last() {
        Some(b'K' | b'k') => (&v[..v.len() - 1], 1usize << 10),
        Some(b'M' | b'm') => (&v[..v.len() - 1], 1usize << 20),
        Some(b'G' | b'g') => (&v[..v.len() - 1], 1usize << 30),
        _ => (v, 1),
    };
    digits
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| {
            format!("{flag} {v:?}: expected a positive byte count (K/M/G suffix allowed)")
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_k_and_scoring() {
        let pb = MapOpts::map_pb();
        let ont = MapOpts::map_ont();
        assert_eq!(pb.idx.k, 19);
        assert_eq!(ont.idx.k, 15);
        assert_eq!(pb.scoring.b, 5);
        assert_eq!(ont.scoring.b, 4);
    }

    #[test]
    fn builders_apply() {
        assert!(MapOpts::map_ont().with_cigar);
        assert!(!MapOpts::map_ont().cigar(false).with_cigar);
    }

    #[test]
    fn byte_sizes_parse_suffixes_and_name_the_flag() {
        assert_eq!(parse_byte_size("--mem-budget", "4096").unwrap(), 4096);
        assert_eq!(parse_byte_size("--mem-budget", "64K").unwrap(), 64 << 10);
        assert_eq!(parse_byte_size("--mem-budget", "8m").unwrap(), 8 << 20);
        assert_eq!(parse_byte_size("--mem-budget", "2G").unwrap(), 2 << 30);
        assert!(parse_byte_size("--mem-budget", "0").is_err());
        assert!(parse_byte_size("--mem-budget", "").is_err());
        for bad in ["lots", "99999999999G"] {
            let e = parse_byte_size("--mem-budget", bad).unwrap_err();
            assert!(
                e.contains("--mem-budget") && e.contains("expected a positive byte count"),
                "{e}"
            );
        }
    }

    #[test]
    fn plan_size_limit_is_reconciled_with_the_executor() {
        // Plan-time `max_fill` and the executor's submit-time limit must be
        // the same constant, or the mapper could plan jobs the device path
        // would reject (or under-use the budget it is allowed).
        assert_eq!(MapOpts::map_pb().max_fill, MAX_PLAN_SEGMENT);
        assert_eq!(MapOpts::map_ont().max_fill, MAX_PLAN_SEGMENT);
    }
}
