//! Simplified models of the Table 5 comparator aligners.
//!
//! The paper benchmarks manymap against five external tools (minialign,
//! Kart, BLASR, NGMLR, BWA-MEM). Those codebases are not reimplemented
//! verbatim here; instead each comparator is modeled as a configuration of
//! our own substrates that captures the *algorithmic choice that drives its
//! Table 5 behaviour* (see DESIGN.md §2):
//!
//! * **minimap2** — our pipeline with the Eq. 3 kernels: by construction it
//!   produces bit-identical alignments to manymap (the paper: "manymap
//!   produces the same alignment result as minimap2").
//! * **minialign** — minimizer seeding but a sparser sketch and coarse
//!   gap interpolation instead of per-segment DP: fastest, slightly less
//!   accurate.
//! * **Kart** — divide-and-conquer with long exact matches: on 15%-error
//!   PacBio reads, long exact seeds (k = 24) rarely survive, so chains are
//!   sparse and error rises sharply — the mechanism behind its 4.1% error.
//! * **BLASR** — dense short exact seeds (k = 12, w = 1) with exhaustive
//!   sparse DP (no chaining heuristics) and scalar alignment: accurate but
//!   slow.
//! * **NGMLR** — convex-gap philosophy modeled as a very wide chaining
//!   band with small seeds and scalar kernels: accurate on indels, slow.
//! * **BWA-MEM** — a short-read design: dense exact seeding plus a
//!   short-read chaining distance that fragments long reads: slowest and
//!   least able to anchor noisy long reads.

use mmm_align::{Engine, Layout, Width};
use mmm_chain::{ChainOpts, SelectOpts};
use mmm_index::IdxOpts;

use crate::opts::MapOpts;

/// The aligners of Table 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BaselineId {
    Manymap,
    Minimap2,
    Minialign,
    Kart,
    Blasr,
    Ngmlr,
    BwaMem,
}

impl BaselineId {
    /// Table 5 column order.
    pub const ALL: [BaselineId; 7] = [
        BaselineId::Manymap,
        BaselineId::Minimap2,
        BaselineId::Minialign,
        BaselineId::Kart,
        BaselineId::Blasr,
        BaselineId::Ngmlr,
        BaselineId::BwaMem,
    ];

    /// Display name as printed in Table 5.
    pub fn name(&self) -> &'static str {
        match self {
            BaselineId::Manymap => "manymap",
            BaselineId::Minimap2 => "minimap2",
            BaselineId::Minialign => "minialign",
            BaselineId::Kart => "Kart",
            BaselineId::Blasr => "BLASR",
            BaselineId::Ngmlr => "NGMLR",
            BaselineId::BwaMem => "BWA-MEM",
        }
    }

    /// Does the paper run this aligner on the GPU? (Only manymap.)
    pub fn gpu_capable(&self) -> bool {
        matches!(self, BaselineId::Manymap)
    }

    /// Maximum threads the tool survives with on KNL (§5.3.3: minialign,
    /// Kart and BWA-MEM cap at 64).
    pub fn knl_max_threads(&self) -> usize {
        match self {
            BaselineId::Minialign | BaselineId::Kart | BaselineId::BwaMem => 64,
            _ => 256,
        }
    }

    /// The mapping configuration modeling this aligner (PacBio dataset).
    pub fn map_opts(&self) -> MapOpts {
        let base = MapOpts::map_pb();
        match self {
            BaselineId::Manymap => base,
            BaselineId::Minimap2 => base.with_engine(mmm_align::best_mm2_engine()),
            BaselineId::Minialign => MapOpts {
                idx: IdxOpts {
                    k: 17,
                    w: 16,
                    occ_frac: 2e-4,
                    hpc: true,
                },
                // Coarse interpolation instead of per-segment DP.
                max_fill: 0,
                ..base
            },
            BaselineId::Kart => MapOpts {
                idx: IdxOpts {
                    k: 24,
                    w: 12,
                    occ_frac: 2e-4,
                    hpc: false,
                },
                chain: ChainOpts {
                    min_cnt: 2,
                    min_score: 20,
                    ..ChainOpts::default()
                },
                select: SelectOpts {
                    mask_level: 0.9,
                    best_n: 1,
                },
                max_fill: 0,
                ..base
            },
            BaselineId::Blasr => MapOpts {
                idx: IdxOpts {
                    k: 12,
                    w: 1,
                    occ_frac: 1e-3,
                    hpc: false,
                },
                chain: ChainOpts {
                    max_iter: 50_000,
                    max_skip: 1_000,
                    ..ChainOpts::default()
                },
                ..base.with_engine(Engine::new(Layout::Mm2, Width::Scalar))
            },
            BaselineId::Ngmlr => MapOpts {
                idx: IdxOpts {
                    k: 13,
                    w: 5,
                    occ_frac: 2e-4,
                    hpc: false,
                },
                chain: ChainOpts {
                    bandwidth: 2_000,
                    max_dist: 10_000,
                    ..ChainOpts::default()
                },
                ..base.with_engine(Engine::new(Layout::Mm2, Width::Scalar))
            },
            BaselineId::BwaMem => MapOpts {
                idx: IdxOpts {
                    k: 19,
                    w: 1,
                    occ_frac: 1e-3,
                    hpc: false,
                },
                // Short-read chaining: tight insert-size assumptions.
                chain: ChainOpts {
                    max_dist: 100,
                    bandwidth: 100,
                    min_score: 30,
                    ..ChainOpts::default()
                },
                ..base.with_engine(Engine::new(Layout::Mm2, Width::Scalar))
            },
        }
    }

    /// Relative KNL port efficiency: how well the tool's code exploits 256
    /// slow cores when run unmodified (§5.3.3 observes minimap2-class tools
    /// port best). Used by the Table 5 KNL column model.
    pub fn knl_port_efficiency(&self) -> f64 {
        match self {
            BaselineId::Manymap => 1.0,
            BaselineId::Minimap2 | BaselineId::Kart => 0.85,
            BaselineId::Minialign => 0.55,
            BaselineId::Blasr => 0.25,
            BaselineId::Ngmlr => 0.5,
            BaselineId::BwaMem => 0.6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::Mapper;
    use mmm_index::ShardedIndex;
    use mmm_seq::{nt4_decode, SeqRecord};
    use mmm_simreads::{
        evaluate, generate_genome, simulate_reads, GenomeOpts, MappingCall, Platform, SimOpts,
    };

    #[test]
    fn seven_aligners_in_table_order() {
        assert_eq!(BaselineId::ALL.len(), 7);
        assert_eq!(BaselineId::ALL[0].name(), "manymap");
        assert!(BaselineId::Manymap.gpu_capable());
        assert!(!BaselineId::Blasr.gpu_capable());
    }

    #[test]
    fn minimap2_model_matches_manymap_results() {
        let g = generate_genome(&GenomeOpts {
            len: 80_000,
            repeat_frac: 0.0,
            seed: 17,
            ..Default::default()
        });
        let rec = SeqRecord::new("chr1", nt4_decode(&g));
        let reads = simulate_reads(
            &g,
            &SimOpts {
                platform: Platform::PacBio,
                num_reads: 8,
                seed: 5,
            },
        );
        let om = BaselineId::Manymap.map_opts();
        let o2 = BaselineId::Minimap2.map_opts();
        let idx = ShardedIndex::build(&[rec], &om.idx, 1).unwrap();
        let a = Mapper::new(&idx, om);
        let b = Mapper::new(&idx, o2);
        for r in &reads {
            let ma = a.map_read(&r.seq);
            let mb = b.map_read(&r.seq);
            assert_eq!(ma.len(), mb.len());
            for (x, y) in ma.iter().zip(&mb) {
                assert_eq!(x.align_score, y.align_score);
                assert_eq!(x.cigar, y.cigar);
            }
        }
    }

    fn error_rate(
        id: BaselineId,
        genome: &[u8],
        reads: &[mmm_simreads::SimulatedRead],
    ) -> (f64, f64) {
        let opts = id.map_opts();
        let idx = ShardedIndex::build(&[SeqRecord::new("chr1", nt4_decode(genome))], &opts.idx, 1)
            .unwrap();
        let mapper = Mapper::new(&idx, opts);
        let mut calls = Vec::new();
        for (i, r) in reads.iter().enumerate() {
            if let Some(m) = mapper.map_read(&r.seq).into_iter().find(|m| m.primary) {
                calls.push(MappingCall {
                    read_id: i,
                    rid: m.rid,
                    ref_start: m.ref_start,
                    ref_end: m.ref_end,
                    rev: m.rev,
                    mapq: m.mapq,
                });
            }
        }
        let truths: Vec<_> = reads.iter().map(|r| r.origin).collect();
        let s = evaluate(&calls, &truths);
        (s.error_rate_pct(), s.mapped_frac())
    }

    #[test]
    fn kart_model_is_less_reliable_on_noisy_reads() {
        // Long exact seeds barely survive high error rates. Sample reads
        // from an 8%-diverged copy of the reference (on top of the 15%
        // sequencing error): the k=24 Kart model must lose reads the k=19
        // manymap model still anchors.
        let g = generate_genome(&GenomeOpts {
            len: 150_000,
            repeat_frac: 0.0,
            seed: 23,
            ..Default::default()
        });
        let mut diverged = g.clone();
        let mut state = 77u64;
        for b in diverged.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if (state >> 33) % 100 < 8 {
                *b = (*b + 1 + ((state >> 20) % 3) as u8) % 4;
            }
        }
        let reads = simulate_reads(
            &diverged,
            &SimOpts {
                platform: Platform::PacBio,
                num_reads: 30,
                seed: 11,
            },
        );
        let (mm_err, mm_mapped) = error_rate(BaselineId::Manymap, &g, &reads);
        let (kart_err, kart_mapped) = error_rate(BaselineId::Kart, &g, &reads);
        assert!(
            kart_mapped < mm_mapped || kart_err > mm_err,
            "kart=({kart_err:.2}%, {kart_mapped:.2}) manymap=({mm_err:.2}%, {mm_mapped:.2})"
        );
        assert!(mm_mapped > 0.7, "manymap mapped fraction {mm_mapped}");
    }

    #[test]
    fn knl_caps_match_paper() {
        assert_eq!(BaselineId::BwaMem.knl_max_threads(), 64);
        assert_eq!(BaselineId::Manymap.knl_max_threads(), 256);
    }
}
