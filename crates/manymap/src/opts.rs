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
    fn plan_size_limit_is_reconciled_with_the_executor() {
        // Plan-time `max_fill` and the executor's submit-time limit must be
        // the same constant, or the mapper could plan jobs the device path
        // would reject (or under-use the budget it is allowed).
        assert_eq!(MapOpts::map_pb().max_fill, MAX_PLAN_SEGMENT);
        assert_eq!(MapOpts::map_ont().max_fill, MAX_PLAN_SEGMENT);
    }
}
