//! The seed–chain–extend mapper (§3.1's workflow).
//!
//! For each read: collect minimizer anchors from the index, chain them,
//! select primary/secondary chains, then produce base-level alignments by
//! globally filling the segments between adjacent anchors and extending
//! both chain ends with exact z-drop extension. Every one of those DP
//! problems is an [`AlignJob`] for an `mmm_exec` backend, which runs it on
//! the configured [`mmm_align::Engine`], so a single flag switches the whole
//! mapper between minimap2's kernels and manymap's.

use std::ops::Range;
use std::sync::Arc;

use mmm_align::{AlignError, AlignMode, AlignResult, AlignScratch, Cigar, CigarOp};
use mmm_chain::select::SelectedChain;
use mmm_chain::{chain_anchors, select_chains, Chain};
use mmm_exec::{align_jobs_with_scratch, AlignJob, JobSeq};
use mmm_index::{ShardUnavailable, ShardedIndex};
use mmm_seq::revcomp4;

use crate::opts::MapOpts;

/// Why one read could not be aligned. These are per-read conditions: the
/// pipeline degrades the read to an unmapped record (with a counted reason)
/// and keeps going, rather than aborting the whole run.
#[derive(Debug)]
pub enum MapReadError {
    /// The read exceeds [`MapOpts::max_read_len`]; base-level alignment
    /// would need an unreasonable amount of memory.
    ReadTooLong { len: usize, max: usize },
    /// The configured scoring cannot run on the 8-bit kernels.
    Align(AlignError),
    /// A sharded index could not serve a shard this read's seeds touch —
    /// the shard is quarantined (persistent corruption) or its load failed.
    /// Only this read degrades; reads over healthy shards are unaffected.
    ShardUnavailable(ShardUnavailable),
}

impl std::fmt::Display for MapReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapReadError::ReadTooLong { len, max } => {
                write!(f, "read length {len} exceeds the {max} bp limit")
            }
            MapReadError::Align(e) => write!(f, "alignment rejected: {e}"),
            MapReadError::ShardUnavailable(e) => write!(f, "index shard unavailable: {e}"),
        }
    }
}

impl std::error::Error for MapReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MapReadError::ReadTooLong { .. } => None,
            MapReadError::Align(e) => Some(e),
            MapReadError::ShardUnavailable(e) => Some(e),
        }
    }
}

impl From<ShardUnavailable> for MapReadError {
    fn from(e: ShardUnavailable) -> Self {
        MapReadError::ShardUnavailable(e)
    }
}

/// The plan phase's output for one read: its selected chains, what of each
/// chain's score needs no DP, and every DP problem the read needs, as
/// backend-ready [`AlignJob`]s.
///
/// Produced by [`Mapper::plan_read`]; a batch of plans is executed by an
/// `AlignBackend` and the results spliced back by
/// [`Mapper::finalize_read_with_scratch`]. Jobs are emitted (and must be
/// answered) in chain-walk order: selected chains in order, and per chain
/// its left extension, its gap fills left to right, then its right
/// extension (each extension only where the chain stops short of that read
/// end).
pub struct ReadPlan {
    selected: Vec<SelectedChain>,
    /// Per selected chain, the score of what its walk aligns without DP:
    /// the first anchor's end base, same-diagonal match runs and long-gap
    /// penalties, scored against the reference at plan time.
    base_scores: Vec<i32>,
    /// Deferred DP problems. The dispatcher takes these (e.g. with
    /// `std::mem::take`), runs them through a backend, and hands the
    /// results — one per job, in order — to the finalize phase.
    pub jobs: Vec<AlignJob>,
}

/// How the chain walk treats one stretch of the read.
#[derive(Clone, Copy, PartialEq, Eq)]
enum GapKind {
    /// The read's head before the first anchor: a z-drop extension job, run
    /// on both sides reversed.
    Left,
    /// Same diagonal, at most `k` apart (or the first anchor's end base):
    /// overlapping k-mers, scored as a gap-free run.
    MatchRun,
    /// Longer than [`MapOpts::max_fill`]: approximated as one long gap.
    Long,
    /// Everything else between two anchors: a global-alignment job.
    Fill,
    /// The read's tail past the last anchor: a z-drop extension job.
    Right,
}

/// One stretch of a chain walk, on the reference and the query strand:
/// between two anchors, the bases after the left anchor's end base up to
/// and including the right anchor's; at a read end, the extension's
/// reference window and query slice.
struct Gap {
    kind: GapKind,
    r: Range<usize>,
    q: Range<usize>,
}

impl Gap {
    /// The DP job this stretch is, if any.
    fn mode(&self, zdrop: i32) -> Option<AlignMode> {
        match self.kind {
            GapKind::Fill => Some(AlignMode::Global),
            GapKind::Left | GapKind::Right => Some(AlignMode::Extend { zdrop }),
            GapKind::MatchRun | GapKind::Long => None,
        }
    }
}

/// One alignment record (a PAF row).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mapping {
    pub rid: u32,
    /// Reference interval, 0-based end-exclusive.
    pub ref_start: u32,
    pub ref_end: u32,
    /// Query interval in *original read* coordinates, 0-based end-exclusive.
    pub q_start: u32,
    pub q_end: u32,
    pub rev: bool,
    pub primary: bool,
    pub mapq: u8,
    /// Chaining score.
    pub chain_score: i32,
    /// Base-level alignment score (DP score).
    pub align_score: i32,
    /// Number of matching bases (PAF column 10 numerator).
    pub matches: u32,
    /// Alignment block length (PAF column 11).
    pub block_len: u32,
    /// CIGAR on the mapped strand, when requested.
    pub cigar: Option<Cigar>,
}

/// A reusable mapper over one index.
///
/// There is one index type, [`ShardedIndex`], whatever the reference came
/// from: a shard manifest, a single-file `.mmx`, or a FASTA indexed in
/// memory ([`ShardedIndex::build`]) — the last two are one shard, loaded
/// from the start. Seeding and every reference access go through its one
/// set of accessors. A quarantined shard degrades exactly the reads it
/// leaves with no seeds anywhere else ([`MapReadError::ShardUnavailable`]);
/// reads that still seed in healthy shards map normally.
pub struct Mapper<'a> {
    pub index: &'a ShardedIndex,
    pub opts: MapOpts,
}

impl<'a> Mapper<'a> {
    pub fn new(index: &'a ShardedIndex, opts: MapOpts) -> Self {
        Mapper { index, opts }
    }

    /// Map one read (nt4, forward orientation). Returns primary first; a
    /// read [`Mapper::plan_read`] rejects maps to nothing.
    pub fn map_read(&self, query: &[u8]) -> Vec<Mapping> {
        self.map_read_with_scratch(query, &mut AlignScratch::new())
    }

    /// [`Mapper::map_read`] with a caller-provided alignment scratch arena:
    /// plan, execute the plan's jobs on the host engine with `scratch`,
    /// finalize — the production path with the backend inlined.
    pub fn map_read_with_scratch(&self, query: &[u8], scratch: &mut AlignScratch) -> Vec<Mapping> {
        let Ok(plan) = self.plan_read(query) else {
            return Vec::new();
        };
        let results =
            align_jobs_with_scratch(self.opts.engine, &plan.jobs, &self.opts.scoring, scratch);
        self.finalize_read_with_scratch(query, &plan, &results, scratch)
    }

    /// Phase 1: seed, chain, score what needs no DP, and describe every DP
    /// problem the read needs — gap fills and z-drop end extensions — as
    /// backend [`AlignJob`]s without executing them. Per-read conditions
    /// that would trip kernel asserts or exhaust memory are rejected here as
    /// [`MapReadError`], before any backend work is queued, so the caller
    /// can degrade the read instead of crashing the worker.
    ///
    /// Every backend is bit-identical to the host engines, so `plan_read` +
    /// any backend + [`Mapper::finalize_read_with_scratch`] produces the
    /// mappings [`Mapper::map_read_with_scratch`] does.
    pub fn plan_read(&self, query: &[u8]) -> Result<ReadPlan, MapReadError> {
        if query.len() > self.opts.max_read_len {
            return Err(MapReadError::ReadTooLong {
                len: query.len(),
                max: self.opts.max_read_len,
            });
        }
        if !self.opts.scoring.fits_i8() {
            return Err(MapReadError::Align(AlignError::ScoringOverflowsI8(
                self.opts.scoring,
            )));
        }
        let anchors = self.index.collect_anchors(query)?;
        let selected = if anchors.is_empty() {
            Vec::new()
        } else {
            let chains = chain_anchors(anchors, &self.opts.chain);
            select_chains(chains, &self.opts.select)
        };
        self.plan_chains(selected, query)
    }

    /// Phase 3: splice a backend's answers to the plan's jobs into each
    /// chain walk — scores, consumed extents, CIGAR segments — and assemble
    /// the mappings. This reads no reference base and runs no DP; `scratch`
    /// is unused and stays in the signature for existing callers.
    /// `results` must hold one result per planned job, in job order; a chain
    /// whose results are missing (a backend contract violation) is skipped
    /// rather than crashing the worker.
    pub fn finalize_read_with_scratch(
        &self,
        query: &[u8],
        plan: &ReadPlan,
        results: &[AlignResult],
        _scratch: &mut AlignScratch,
    ) -> Vec<Mapping> {
        let qlen = query.len();
        let mut rest = results;
        let mut out = Vec::with_capacity(plan.selected.len());
        for (sel, &base_score) in plan.selected.iter().zip(&plan.base_scores) {
            let n = self.jobs(&sel.chain, qlen).count();
            let Some(mine) = rest.get(..n) else {
                continue;
            };
            rest = &rest[n..];
            out.push(self.splice_chain(sel, qlen, base_score, mine));
        }
        // Primary mappings first, then by score.
        out.sort_by_key(|m| (!m.primary, -m.align_score));
        out
    }

    /// A chain's walk along the read, in path order: its left extension,
    /// its first anchor's end base, the stretches between adjacent anchors
    /// (each classified once), its right extension. Plan and finalize both
    /// iterate this, so they cannot disagree on which stretches are jobs.
    ///
    /// The body starts at the first anchor's END base: with
    /// homopolymer-compressed seeds an anchor's reference and query spans
    /// differ, so only the end coordinates are trustworthy. The left
    /// extension recovers everything before it. An extension exists only
    /// where the chain stops short of that read end (of `qlen` bases): the
    /// right one aligns the tail against the `⌊tail·ext_factor⌋ + 32`
    /// reference bases after the last anchor, clamped to the sequence; the
    /// left one the head against as many bases before the first anchor.
    /// Either query side is capped at [`MapOpts::max_fill`].
    fn walk<'c>(&'c self, chain: &'c Chain, qlen: usize) -> impl Iterator<Item = Gap> + 'c {
        let (max_fill, k) = (self.opts.max_fill, self.index.k());
        let window = |bases: usize| (bases as f64 * self.opts.ext_factor) as usize + 32;
        let (first, last) = (chain.anchors[0], chain.anchors[chain.anchors.len() - 1]);
        let (r0, q0) = (first.rpos as usize, first.qpos as usize);
        let (r1, q1) = (last.rpos as usize + 1, last.qpos as usize + 1);
        let left = (q0 > 0).then(|| Gap {
            kind: GapKind::Left,
            r: r0 - window(q0).min(r0)..r0,
            q: q0 - q0.min(max_fill)..q0,
        });
        let base = Gap {
            kind: GapKind::MatchRun,
            r: r0..r0 + 1,
            q: q0..q0 + 1,
        };
        let between = chain.anchors.windows(2).map(move |w| {
            let (rcur, qcur) = (w[0].rpos as usize, w[0].qpos as usize);
            let (rn, qn) = (w[1].rpos as usize, w[1].qpos as usize);
            let (dr, dq) = (rn - rcur, qn - qcur);
            let kind = if dr.max(dq) > max_fill {
                GapKind::Long
            } else if dr == dq && dr <= k {
                GapKind::MatchRun
            } else {
                GapKind::Fill
            };
            Gap {
                kind,
                r: rcur + 1..rn + 1,
                q: qcur + 1..qn + 1,
            }
        });
        let right = (q1 < qlen).then(|| Gap {
            kind: GapKind::Right,
            r: r1..(r1 + window(qlen - q1)).min(self.index.seq_len(chain.rid)),
            q: q1..qlen.min(q1 + max_fill),
        });
        left.into_iter().chain([base]).chain(between).chain(right)
    }

    /// The stretches of a chain's walk that are DP jobs, with their modes.
    fn jobs<'c>(
        &'c self,
        chain: &'c Chain,
        qlen: usize,
    ) -> impl Iterator<Item = (Gap, AlignMode)> + 'c {
        let zdrop = self.opts.zdrop;
        self.walk(chain, qlen)
            .filter_map(move |gap| gap.mode(zdrop).map(|mode| (gap, mode)))
    }

    /// The plan of `selected`: every chain's DP jobs, whose reference
    /// windows and query slices are laid out, in job order, in one buffer
    /// the jobs share — so a read costs one buffer, one job vector and one
    /// score vector whatever its job count — and, in the same walk, each
    /// chain's base score.
    fn plan_chains(
        &self,
        selected: Vec<SelectedChain>,
        query: &[u8],
    ) -> Result<ReadPlan, MapReadError> {
        let qlen = query.len();
        let (n, len) = selected
            .iter()
            .flat_map(|sel| self.jobs(&sel.chain, qlen))
            .fold((0, 0), |(n, len), (g, _)| {
                (n + 1, len + g.r.len() + g.q.len())
            });
        if n == 0 {
            return Ok(ReadPlan {
                selected,
                base_scores: Vec::new(),
                jobs: Vec::new(),
            });
        }
        let q_rc = if selected.iter().any(|s| s.chain.rev) {
            revcomp4(query)
        } else {
            Vec::new()
        };
        // A `TrustedLen` iterator collects into one allocation.
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        // The buffer has one owner, so this borrows it without a copy.
        let bytes = Arc::make_mut(&mut buf);
        let mut at = 0;
        let mut base_scores = Vec::with_capacity(selected.len());
        for sel in &selected {
            let (rid, qseq) = (sel.chain.rid, if sel.chain.rev { &q_rc[..] } else { query });
            let mut score = 0;
            for gap in self.walk(&sel.chain, qlen) {
                match gap.kind {
                    GapKind::Long => {
                        let gap_len = gap.r.len().abs_diff(gap.q.len()) as u32;
                        score -= self.opts.scoring.gap_cost(gap_len);
                    }
                    GapKind::MatchRun => score += self.score_run(rid, gap.r, &qseq[gap.q])?,
                    GapKind::Fill | GapKind::Left | GapKind::Right => {
                        let (t, rest) = bytes[at..].split_at_mut(gap.r.len());
                        let q = &mut rest[..gap.q.len()];
                        self.index.ref_window_into_slice(rid, gap.r.start, t)?;
                        q.copy_from_slice(&qseq[gap.q]);
                        if gap.kind == GapKind::Left {
                            t.reverse();
                            q.reverse();
                        }
                        at += t.len() + q.len();
                    }
                }
            }
            base_scores.push(score);
        }
        let mut jobs = Vec::with_capacity(n);
        let mut at = 0;
        let mut view = |len: usize| {
            at += len;
            JobSeq::new(Arc::clone(&buf), at - len..at)
        };
        for sel in &selected {
            for (gap, mode) in self.jobs(&sel.chain, qlen) {
                let (t, q) = (view(gap.r.len()), view(gap.q.len()));
                jobs.push(AlignJob {
                    mode,
                    ..AlignJob::global(t, q, self.opts.with_cigar)
                });
            }
        }
        Ok(ReadPlan {
            selected,
            base_scores,
            jobs,
        })
    }

    /// The gap-free score of reference bases `r` of `rid` against `q`
    /// (of the same length), decoded a stack buffer at a time.
    fn score_run(&self, rid: u32, r: Range<usize>, q: &[u8]) -> Result<i32, ShardUnavailable> {
        let mut buf = [0u8; 64];
        let mut score = 0;
        for (start, q) in r.step_by(buf.len()).zip(q.chunks(buf.len())) {
            let t = &mut buf[..q.len()];
            self.index.ref_window_into_slice(rid, start, t)?;
            score += t
                .iter()
                .zip(q)
                .map(|(&a, &b)| self.opts.scoring.subst(a, b))
                .sum::<i32>();
        }
        Ok(score)
    }

    /// Base-level alignment of one chain against the reference (the
    /// paper's "Align" stage), from the chain's base score and the results
    /// of its jobs, in walk order: coordinates from the anchors and the
    /// extensions' consumed extents, the CIGAR from the walk's match runs
    /// and long gaps and the results' paths.
    fn splice_chain(
        &self,
        sel: &SelectedChain,
        qlen: usize,
        base_score: i32,
        results: &[AlignResult],
    ) -> Mapping {
        let chain = &sel.chain;
        let align_score = base_score + results.iter().map(|r| r.score).sum::<i32>();
        let (first, last) = (chain.anchors[0], chain.anchors[chain.anchors.len() - 1]);
        let (mut ref_start, mut q_start) = (first.rpos as usize, first.qpos as usize);
        let (mut ref_end, mut q_end) = (last.rpos as usize + 1, last.qpos as usize + 1);
        let mut cigar = self.opts.with_cigar.then(Cigar::new);
        let mut results = results.iter();
        for gap in self.walk(chain, qlen) {
            let (dr, dq) = (gap.r.len(), gap.q.len());
            let result = gap.mode(self.opts.zdrop).and_then(|_| results.next());
            match (gap.kind, result) {
                (GapKind::Left, Some(r)) => {
                    ref_start -= r.t_consumed;
                    q_start -= r.q_consumed;
                }
                (GapKind::Right, Some(r)) => {
                    ref_end += r.t_consumed;
                    q_end += r.q_consumed;
                }
                _ => {}
            }
            let Some(c) = cigar.as_mut() else {
                continue;
            };
            let path = result
                .and_then(|r| r.cigar.as_ref())
                .map_or(&[][..], Cigar::runs);
            match gap.kind {
                // The left extension ran on reversed sequences.
                GapKind::Left => path.iter().rev().for_each(|&(op, len)| c.push(op, len)),
                GapKind::Fill | GapKind::Right => {
                    path.iter().for_each(|&(op, len)| c.push(op, len))
                }
                GapKind::MatchRun => c.push(CigarOp::Match, dr as u32),
                // Chain gap too large to fill (paper: fall back / give up
                // on pathological segments) — approximated with one long
                // gap.
                GapKind::Long => {
                    c.push(CigarOp::Match, dr.min(dq) as u32);
                    if dr > dq {
                        c.push(CigarOp::Del, (dr - dq) as u32);
                    } else if dq > dr {
                        c.push(CigarOp::Ins, (dq - dr) as u32);
                    }
                }
            }
        }
        debug_assert!(ref_end <= self.index.seq_len(chain.rid));

        // Matches / block length from the CIGAR when available, otherwise
        // estimated from the interval.
        let (matches, block_len) = match &cigar {
            Some(c) => {
                debug_assert_eq!(c.target_len() as usize, ref_end - ref_start);
                debug_assert_eq!(c.query_len() as usize, q_end - q_start);
                let m: u64 = c.match_len();
                let b: u64 = c.runs().iter().map(|&(_, l)| l as u64).sum();
                (m as u32, b as u32)
            }
            None => {
                let span = (ref_end - ref_start).min(q_end - q_start) as u32;
                (span, (ref_end - ref_start).max(q_end - q_start) as u32)
            }
        };

        // Convert query coordinates back to the original read orientation.
        let (oq_start, oq_end) = if chain.rev {
            ((qlen - q_end) as u32, (qlen - q_start) as u32)
        } else {
            (q_start as u32, q_end as u32)
        };

        Mapping {
            rid: chain.rid,
            ref_start: ref_start as u32,
            ref_end: ref_end as u32,
            q_start: oq_start,
            q_end: oq_end,
            rev: chain.rev,
            primary: sel.primary,
            mapq: sel.mapq,
            chain_score: chain.score,
            align_score,
            matches,
            block_len,
            cigar,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_index::IdxOpts;
    use mmm_seq::{nt4_decode, SeqRecord};
    use mmm_simreads::{
        generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts, SimulatedRead,
    };

    fn genome(len: usize, repeat_frac: f64, seed: u64) -> Vec<u8> {
        generate_genome(&GenomeOpts {
            len,
            repeat_frac,
            seed,
            ..Default::default()
        })
    }

    fn sim(g: &[u8], platform: Platform, num_reads: usize, seed: u64) -> Vec<SimulatedRead> {
        simulate_reads(
            g,
            &SimOpts {
                platform,
                num_reads,
                seed,
            },
        )
    }

    fn build_index(genome: &[u8], opts: &IdxOpts) -> ShardedIndex {
        ShardedIndex::build(&[SeqRecord::new("chr1", nt4_decode(genome))], opts, 1).unwrap()
    }

    #[test]
    fn exact_read_maps_exactly() {
        let g = genome(100_000, 0.0, 42);
        let idx = build_index(&g, &IdxOpts::MAP_ONT);
        let mapper = Mapper::new(&idx, crate::opts::MapOpts::map_ont());
        let read = g[20_000..24_000].to_vec();
        let ms = mapper.map_read(&read);
        assert!(!ms.is_empty());
        let m = &ms[0];
        assert!(m.primary);
        assert!(!m.rev);
        assert_eq!(m.ref_start, 20_000);
        assert_eq!(m.ref_end, 24_000);
        assert_eq!(m.q_start, 0);
        assert_eq!(m.q_end, 4_000);
        assert_eq!(m.cigar.as_ref().unwrap().to_string(), "4000M");
        assert_eq!(m.matches, 4_000);
    }

    #[test]
    fn reverse_complement_read_maps_reverse() {
        let g = genome(100_000, 0.0, 3);
        let idx = build_index(&g, &IdxOpts::MAP_ONT);
        let mapper = Mapper::new(&idx, crate::opts::MapOpts::map_ont());
        let read = revcomp4(&g[50_000..53_000]);
        let ms = mapper.map_read(&read);
        assert!(!ms.is_empty());
        let m = &ms[0];
        assert!(m.rev);
        assert_eq!(m.ref_start, 50_000);
        assert_eq!(m.ref_end, 53_000);
        assert_eq!((m.q_start, m.q_end), (0, 3_000));
    }

    #[test]
    fn noisy_pacbio_read_maps_to_true_interval() {
        let g = genome(200_000, 0.0, 9);
        let idx = build_index(&g, &IdxOpts::MAP_PB);
        let mapper = Mapper::new(&idx, crate::opts::MapOpts::map_pb());
        let reads = sim(&g, Platform::PacBio, 20, 1);
        let mut mapped = 0;
        let mut correct = 0;
        for r in &reads {
            let ms = mapper.map_read(&r.seq);
            if let Some(m) = ms.first() {
                mapped += 1;
                let inter = m
                    .ref_end
                    .min(r.origin.end)
                    .saturating_sub(m.ref_start.max(r.origin.start));
                if m.rev == r.origin.rev && inter * 2 > (r.origin.end - r.origin.start) {
                    correct += 1;
                }
            }
        }
        assert!(mapped >= 18, "mapped={mapped}/20");
        assert!(correct >= 17, "correct={correct}/{mapped}");
    }

    #[test]
    fn cigar_lengths_always_match_intervals() {
        let g = genome(150_000, 0.05, 4);
        let idx = build_index(&g, &IdxOpts::MAP_ONT);
        let mapper = Mapper::new(&idx, crate::opts::MapOpts::map_ont());
        let reads = sim(&g, Platform::Nanopore, 15, 2);
        for r in &reads {
            for m in mapper.map_read(&r.seq) {
                let c = m.cigar.as_ref().unwrap();
                assert_eq!(c.target_len(), (m.ref_end - m.ref_start) as u64);
                assert_eq!(c.query_len(), (m.q_end - m.q_start) as u64);
                assert!(m.matches <= m.block_len);
            }
        }
    }

    #[test]
    fn score_only_mode_produces_no_cigars() {
        let g = genome(80_000, 0.0, 5);
        let idx = build_index(&g, &IdxOpts::MAP_ONT);
        let mapper = Mapper::new(&idx, crate::opts::MapOpts::map_ont().cigar(false));
        let read = g[10_000..13_000].to_vec();
        let ms = mapper.map_read(&read);
        assert!(!ms.is_empty());
        assert!(ms.iter().all(|m| m.cigar.is_none()));
    }

    #[test]
    fn unmappable_read_returns_empty() {
        let g = genome(60_000, 0.0, 6);
        let idx = build_index(&g, &IdxOpts::MAP_ONT);
        let mapper = Mapper::new(&idx, crate::opts::MapOpts::map_ont());
        // A read from a different random genome.
        let other = genome(10_000, 0.0, 999);
        let ms = mapper.map_read(&other[..3_000]);
        assert!(ms.is_empty());
    }

    /// Host-inline execution ([`Mapper::map_read_with_scratch`]) is the
    /// gold a `kind` backend session must reproduce bit for bit on every
    /// read. Returns the number of jobs the session executed.
    fn assert_backend_matches_inline(
        mapper: &Mapper<'_>,
        kind: mmm_exec::BackendKind,
        reads: &[SimulatedRead],
    ) -> usize {
        let mut bopts = mmm_exec::BackendOptions::new(mapper.opts.scoring);
        bopts.engine = mapper.opts.engine;
        bopts.threads = 2;
        let backend = mmm_exec::prepare(kind, &bopts).unwrap();
        let mut scratch = AlignScratch::new();
        let mut jobs = 0usize;
        for r in reads {
            let gold = mapper.map_read_with_scratch(&r.seq, &mut scratch);
            let plan = mapper.plan_read(&r.seq).unwrap();
            jobs += plan.jobs.len();
            let (results, _stats) = backend.submit(plan.jobs.clone()).unwrap();
            let got = mapper.finalize_read_with_scratch(&r.seq, &plan, &results, &mut scratch);
            assert_eq!(gold, got, "{}", backend.label());
        }
        jobs
    }

    #[test]
    fn planned_backend_path_matches_monolithic() {
        use mmm_exec::BackendKind;
        let g = genome(150_000, 0.05, 11);
        let idx = build_index(&g, &IdxOpts::MAP_ONT);
        let reads = sim(&g, Platform::Nanopore, 12, 5);
        for with_cigar in [true, false] {
            let mapper = Mapper::new(&idx, crate::opts::MapOpts::map_ont().cigar(with_cigar));
            for kind in [BackendKind::Cpu, BackendKind::GpuSim] {
                assert!(
                    assert_backend_matches_inline(&mapper, kind, &reads) > 0,
                    "workload must exercise deferred gap fills"
                );
            }
        }
    }

    /// Reads with unrelated flanks at both ends, on both strands: every
    /// chain's jobs are its left extension (head and window before the
    /// first anchor, both reversed), its fills, then its right extension
    /// (the tail past the last anchor against the window after it) — the
    /// order finalize consumes them in. Finalize over the results of a
    /// gpu-sim session on a 16 KiB device, where the extensions fall back to
    /// the CPU, equals `map_read`.
    #[test]
    fn extension_jobs_bracket_their_chains_fills_and_splice_back() {
        use mmm_exec::{BackendKind, BackendOptions};
        let g = genome(120_000, 0.0, 17);
        let idx = build_index(&g, &IdxOpts::MAP_ONT);
        let mapper = Mapper::new(&idx, crate::opts::MapOpts::map_ont());
        let o = mapper.opts;
        let junk = genome(4_000, 0.0, 99);
        let reads: Vec<Vec<u8>> = (0..6)
            .map(|i| {
                let start = 10_000 + i * 15_000;
                let mut r = junk[i * 300..i * 300 + 200].to_vec();
                r.extend_from_slice(&g[start..start + 3_000]);
                r.extend_from_slice(&junk[2_000 + i * 300..2_000 + i * 300 + 250]);
                if i % 2 == 1 {
                    revcomp4(&r)
                } else {
                    r
                }
            })
            .collect();
        let mut bopts = BackendOptions::new(o.scoring);
        bopts.engine = o.engine;
        bopts.threads = 2;
        bopts.device_mem = Some(16_384);
        let backend = mmm_exec::prepare(BackendKind::GpuSim, &bopts).unwrap();
        let window = |read_bases: usize| (read_bases as f64 * o.ext_factor) as usize + 32;
        let rev = |s: &[u8]| s.iter().rev().copied().collect::<Vec<u8>>();
        let extend = AlignMode::Extend { zdrop: o.zdrop };
        let (mut fallbacks, mut strands) = (0, [0; 2]);
        for (i, read) in reads.iter().enumerate() {
            let plan = mapper.plan_read(read).unwrap();
            let q_rc = revcomp4(read);
            let mut jobs = plan.jobs.iter();
            for sel in &plan.selected {
                let chain = &sel.chain;
                strands[usize::from(chain.rev)] += 1;
                let qseq = if chain.rev { &q_rc[..] } else { &read[..] };
                let (first, last) = (chain.anchors[0], chain.anchors[chain.anchors.len() - 1]);
                let (q_start, q_end) = (first.qpos as usize, last.qpos as usize + 1);
                assert!(q_start > 0 && q_end < read.len(), "read {i} has both tails");

                let left = jobs.next().unwrap();
                let r_start = first.rpos as usize;
                let r_from = r_start - window(q_start).min(r_start);
                assert_eq!(left.mode, extend, "read {i}");
                assert_eq!(*left.query, rev(&qseq[..q_start]), "read {i}");
                assert_eq!(*left.target, rev(&g[r_from..r_start]), "read {i}");

                let walk = mapper.walk(chain, read.len());
                for _ in walk.filter(|gap| gap.kind == GapKind::Fill) {
                    assert_eq!(jobs.next().unwrap().mode, AlignMode::Global, "read {i}");
                }

                let right = jobs.next().unwrap();
                let r_end = last.rpos as usize + 1;
                let r_to = (r_end + window(read.len() - q_end)).min(g.len());
                assert_eq!(right.mode, extend, "read {i}");
                assert_eq!(&*right.query, &qseq[q_end..], "read {i}");
                assert_eq!(&*right.target, &g[r_end..r_to], "read {i}");
            }
            assert!(jobs.next().is_none(), "read {i}: jobs past its chains");

            let (results, stats) = backend.submit(plan.jobs.clone()).unwrap();
            fallbacks += stats.fallbacks;
            let got =
                mapper.finalize_read_with_scratch(read, &plan, &results, &mut AlignScratch::new());
            assert!(!got.is_empty(), "read {i} maps");
            assert_eq!(got, mapper.map_read(read), "read {i}");
        }
        assert!(
            strands[0] > 0 && strands[1] > 0,
            "chains per strand {strands:?}"
        );
        assert!(fallbacks > 0, "no extension fell back on the 16 KiB device");
    }

    #[test]
    fn plan_read_rejects_bad_reads_and_map_read_maps_them_to_nothing() {
        let g = genome(60_000, 0.0, 13);
        let idx = build_index(&g, &IdxOpts::MAP_ONT);
        let mut opts = crate::opts::MapOpts::map_ont();
        opts.max_read_len = 1_000;
        let mapper = Mapper::new(&idx, opts);
        let long = g[..2_000].to_vec();
        assert!(matches!(
            mapper.plan_read(&long),
            Err(MapReadError::ReadTooLong { len: 2_000, .. })
        ));
        assert!(mapper.map_read(&long).is_empty());
        // A scoring the 8-bit kernels would assert on is rejected up front,
        // on the fallible and the infallible entry point alike.
        let mut wide = crate::opts::MapOpts::map_ont();
        wide.scoring.a = 100;
        wide.scoring.q = 50;
        let wide = Mapper::new(&idx, wide);
        assert!(matches!(
            wide.plan_read(&g[..800]),
            Err(MapReadError::Align(AlignError::ScoringOverflowsI8(_)))
        ));
        assert!(wide.map_read(&g[..800]).is_empty());
        // An unmappable read plans to zero jobs and finalizes to nothing.
        let other = genome(5_000, 0.0, 777);
        let plan = mapper.plan_read(&other[..800]).unwrap();
        assert!(plan.jobs.is_empty());
        let ms =
            mapper.finalize_read_with_scratch(&other[..800], &plan, &[], &mut AlignScratch::new());
        assert!(ms.is_empty());
    }

    #[test]
    fn engines_produce_identical_mappings() {
        // `opts.engine` governs the gap fills and both end extensions.
        use mmm_align::{Engine, Layout, Width};
        let g = genome(100_000, 0.0, 7);
        let idx = build_index(&g, &IdxOpts::MAP_PB);
        let reads = sim(&g, Platform::PacBio, 5, 3);
        for with_cigar in [true, false] {
            let opts = crate::opts::MapOpts::map_pb().cigar(with_cigar);
            let scalar = Engine::new(Layout::Manymap, Width::Scalar);
            let base = Mapper::new(&idx, opts.with_engine(scalar));
            for e in Engine::all().into_iter().filter(|e| e.is_available()) {
                let m2 = Mapper::new(&idx, opts.with_engine(e));
                for r in &reads {
                    let a = base.map_read(&r.seq);
                    let b = m2.map_read(&r.seq);
                    assert_eq!(a.len(), b.len(), "{}", e.label());
                    for (x, y) in a.iter().zip(&b) {
                        let ctx = format!("{} cigar={with_cigar}", e.label());
                        assert_eq!(x.align_score, y.align_score, "{ctx}");
                        assert_eq!(x.cigar, y.cigar, "{ctx}");
                        assert_eq!((x.ref_start, x.ref_end), (y.ref_start, y.ref_end), "{ctx}");
                        assert_eq!((x.q_start, x.q_end), (y.q_start, y.q_end), "{ctx}");
                    }
                }
            }
        }
    }
}
