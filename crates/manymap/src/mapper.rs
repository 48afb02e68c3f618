//! The seed–chain–extend mapper (§3.1's workflow).
//!
//! For each read: collect minimizer anchors from the index, chain them,
//! select primary/secondary chains, then produce base-level alignments by
//! globally filling the segments between adjacent anchors and extending
//! both chain ends with exact z-drop extension. All
//! base-level work goes through the configured [`mmm_align::Engine`], so a
//! single flag switches the whole mapper between minimap2's kernels and
//! manymap's.

use std::ops::Range;
use std::sync::Arc;

use mmm_align::{AlignError, AlignResult, AlignScratch, Cigar, CigarOp};
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

/// The plan phase's output for one read: its selected chains plus every DP
/// problem its gap-fill step needs, as backend-ready [`AlignJob`]s.
///
/// Produced by [`Mapper::plan_read`]; a batch of plans is executed by an
/// `AlignBackend` and the results spliced back by
/// [`Mapper::finalize_read_with_scratch`]. Jobs are emitted (and must be
/// answered) in chain-walk order: selected chains in order, gaps within
/// each chain left to right.
pub struct ReadPlan {
    selected: Vec<SelectedChain>,
    /// The query's reverse complement, when any selected chain is reverse.
    q_rc: Option<Vec<u8>>,
    /// Deferred gap-fill problems. The dispatcher takes these (e.g. with
    /// `std::mem::take`), runs them through a backend, and hands the
    /// results — one per job, in order — to the finalize phase.
    pub jobs: Vec<AlignJob>,
}

impl ReadPlan {
    /// The query strand `sel` was chained on. `seed_chain` computes `q_rc`
    /// whenever any selected chain is reverse; if that invariant ever
    /// broke, `None` skips the chain rather than crashing the worker.
    fn strand<'q>(&'q self, query: &'q [u8], sel: &SelectedChain) -> Option<&'q [u8]> {
        if sel.chain.rev {
            self.q_rc.as_deref()
        } else {
            Some(query)
        }
    }
}

/// How the chain walk treats the stretch between two adjacent anchors.
#[derive(Clone, Copy, PartialEq, Eq)]
enum GapKind {
    /// Longer than [`MapOpts::max_fill`]: approximated as one long gap.
    Long,
    /// Same diagonal, at most `k` apart: overlapping k-mers, scored as a
    /// gap-free run.
    MatchRun,
    /// Everything else: a global-alignment job for the backend.
    Fill,
}

/// One between-anchor stretch: the bases after the left anchor's end base
/// up to and including the right anchor's, on the reference and the query.
struct Gap {
    kind: GapKind,
    r: Range<usize>,
    q: Range<usize>,
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
        let fills =
            align_jobs_with_scratch(self.opts.engine, &plan.jobs, &self.opts.scoring, scratch);
        self.finalize_read_with_scratch(query, &plan, &fills, scratch)
    }

    /// Phase 1: seed, chain, and describe the read's gap-fill DP problems
    /// as backend [`AlignJob`]s without executing them. Per-read conditions
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
        let mut plan = self.seed_chain(query)?;
        plan.jobs = self.plan_jobs(&plan, query)?;
        Ok(plan)
    }

    /// Phase 3: splice a backend's answers to the plan's jobs back into the
    /// chain walk (scores and CIGAR segments), run the CPU-side end
    /// extensions, and assemble the mappings. `fill_results` must hold one
    /// result per planned job, in job order; a chain whose results are
    /// missing (a backend contract violation) is skipped rather than
    /// crashing the worker.
    pub fn finalize_read_with_scratch(
        &self,
        query: &[u8],
        plan: &ReadPlan,
        fill_results: &[AlignResult],
        scratch: &mut AlignScratch,
    ) -> Vec<Mapping> {
        // Consumed in the order the plan emitted jobs.
        let mut fills = fill_results.iter();
        let mut out = Vec::with_capacity(plan.selected.len());
        for sel in &plan.selected {
            let Some(qseq) = plan.strand(query, sel) else {
                continue;
            };
            out.extend(self.align_chain(sel, qseq, query.len(), scratch, &mut fills));
        }
        // Primary mappings first, then by score.
        out.sort_by_key(|m| (!m.primary, -m.align_score));
        out
    }

    /// The stretches between a chain's adjacent anchors, left to right,
    /// each classified once — the plan and finalize walks both iterate
    /// this, so they cannot disagree on which gaps are backend jobs.
    fn chain_gaps<'c>(&self, chain: &'c Chain) -> impl Iterator<Item = Gap> + 'c {
        let (max_fill, k) = (self.opts.max_fill, self.index.k());
        chain.anchors.windows(2).map(move |w| {
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
        })
    }

    /// The fill gaps of the plan's chains, in walk order, each with its
    /// chain's reference id and query strand.
    fn fill_gaps<'p>(
        &'p self,
        plan: &'p ReadPlan,
        query: &'p [u8],
    ) -> impl Iterator<Item = (u32, &'p [u8], Gap)> + 'p {
        plan.selected
            .iter()
            .filter_map(move |sel| Some((&sel.chain, plan.strand(query, sel)?)))
            .flat_map(move |(chain, qseq)| {
                self.chain_gaps(chain)
                    .filter(|gap| gap.kind == GapKind::Fill)
                    .map(move |gap| (chain.rid, qseq, gap))
            })
    }

    /// The [`AlignJob`]s the plan's gap fills need, in walk order. Every
    /// job's reference window and query slice is laid out, in job order, in
    /// one buffer the jobs share, so a read costs one buffer and one job
    /// vector whatever its job count.
    fn plan_jobs(&self, plan: &ReadPlan, query: &[u8]) -> Result<Vec<AlignJob>, MapReadError> {
        let (n, len) = self
            .fill_gaps(plan, query)
            .fold((0, 0), |(n, len), (_, _, gap)| {
                (n + 1, len + gap.r.len() + gap.q.len())
            });
        if n == 0 {
            return Ok(Vec::new());
        }
        // A `TrustedLen` iterator collects into one allocation.
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        // The buffer has one owner, so this borrows it without a copy.
        let bytes = Arc::make_mut(&mut buf);
        let mut at = 0;
        for (rid, qseq, gap) in self.fill_gaps(plan, query) {
            let (t, rest) = bytes[at..].split_at_mut(gap.r.len());
            self.index.ref_window_into_slice(rid, gap.r.start, t)?;
            rest[..gap.q.len()].copy_from_slice(&qseq[gap.q.clone()]);
            at += gap.r.len() + gap.q.len();
        }
        let mut jobs = Vec::with_capacity(n);
        let mut at = 0;
        for (_, _, gap) in self.fill_gaps(plan, query) {
            let (t, q) = (
                at..at + gap.r.len(),
                at + gap.r.len()..at + gap.r.len() + gap.q.len(),
            );
            at = q.end;
            jobs.push(AlignJob::global(
                JobSeq::new(Arc::clone(&buf), t),
                JobSeq::new(Arc::clone(&buf), q),
                self.opts.with_cigar,
            ));
        }
        Ok(jobs)
    }

    /// Seeding and chaining (the paper's "Seed & Chain" stage): a plan with
    /// no jobs yet. Chain selection is the only candidate filter.
    fn seed_chain(&self, query: &[u8]) -> Result<ReadPlan, MapReadError> {
        let anchors = self.index.collect_anchors(query)?;
        let selected = if anchors.is_empty() {
            Vec::new()
        } else {
            let chains = chain_anchors(anchors, &self.opts.chain);
            select_chains(chains, &self.opts.select)
        };
        let q_rc = selected
            .iter()
            .any(|s| s.chain.rev)
            .then(|| revcomp4(query));
        Ok(ReadPlan {
            selected,
            q_rc,
            jobs: Vec::new(),
        })
    }

    /// Decode a reference window into a buffer leased from `scratch` (hand
    /// it back with `put_seq_buf`); `None` when its shard is unavailable.
    fn window(&self, rid: u32, r: Range<usize>, scratch: &mut AlignScratch) -> Option<Vec<u8>> {
        let mut rbuf = scratch.take_seq_buf();
        if self
            .index
            .ref_window_into(rid, r.start, r.end, &mut rbuf)
            .is_err()
        {
            scratch.put_seq_buf(rbuf);
            return None;
        }
        Some(rbuf)
    }

    /// Base-level alignment of one chain against the reference (the
    /// paper's "Align" stage): match runs and long-gap approximations are
    /// scored here, each fill gap consumes the next backend result from
    /// `fills`, and both chain ends are extended on the CPU.
    fn align_chain(
        &self,
        sel: &SelectedChain,
        qseq: &[u8],
        qlen: usize,
        scratch: &mut AlignScratch,
        fills: &mut std::slice::Iter<'_, AlignResult>,
    ) -> Option<Mapping> {
        let chain = &sel.chain;
        let sc = &self.opts.scoring;
        let rseq_len = self.index.seq_len(chain.rid);

        let first = chain.anchors[0];
        let last = chain.anchors[chain.anchors.len() - 1];
        // The chain body starts at the first anchor's END base: with
        // homopolymer-compressed seeds an anchor's reference and query
        // spans differ, so only the end coordinates are trustworthy. The
        // left extension recovers everything before it.
        let body_rs = first.rpos as usize;
        let body_qs = first.qpos as usize;

        let mut cigar = self.opts.with_cigar.then(Cigar::new);
        let mut align_score = 0i32;

        // The first anchor's final matched base. Anchor positions are
        // always in range; the `if let` only guards a broken invariant.
        {
            if let Some(rbase) = self.index.ref_base(chain.rid, body_rs).ok().flatten() {
                align_score += sc.subst(rbase, qseq[body_qs]);
            }
            if let Some(c) = cigar.as_mut() {
                c.push(CigarOp::Match, 1);
            }
        }

        // Fill between consecutive anchors.
        for gap in self.chain_gaps(chain) {
            let (dr, dq) = (gap.r.len(), gap.q.len());
            match gap.kind {
                GapKind::Long => {
                    // Chain gap too large to fill (paper: fall back / give
                    // up on pathological segments) — approximate with one
                    // long gap.
                    if let Some(c) = cigar.as_mut() {
                        c.push(CigarOp::Match, dr.min(dq) as u32);
                        if dr > dq {
                            c.push(CigarOp::Del, (dr - dq) as u32);
                        } else if dq > dr {
                            c.push(CigarOp::Ins, (dq - dr) as u32);
                        }
                    }
                    align_score -= sc.gap_cost(dr.abs_diff(dq) as u32);
                }
                GapKind::MatchRun => {
                    // Same diagonal, overlapping k-mers: pure match run.
                    let rbuf = self.window(chain.rid, gap.r, scratch)?;
                    align_score += score_segment(&rbuf, &qseq[gap.q], sc);
                    scratch.put_seq_buf(rbuf);
                    if let Some(c) = cigar.as_mut() {
                        c.push(CigarOp::Match, dr as u32);
                    }
                }
                GapKind::Fill => {
                    let r = fills.next()?;
                    align_score += r.score;
                    if let (Some(c), Some(rc)) = (cigar.as_mut(), r.cigar.as_ref()) {
                        c.extend(rc);
                    }
                }
            }
        }

        // Right extension: query tail beyond the last anchor.
        let mut ref_end = last.rpos as usize + 1;
        let mut q_end = last.qpos as usize + 1;
        if q_end < qlen {
            let tail = qlen - q_end;
            let win = (tail as f64 * self.opts.ext_factor) as usize + 32;
            let rbuf = self.window(chain.rid, ref_end..ref_end + win, scratch)?;
            let qseg = &qseq[q_end..qlen.min(q_end + self.opts.max_fill)];
            let e = self.opts.engine.extend_zdrop_with_scratch(
                &rbuf,
                qseg,
                sc,
                self.opts.zdrop,
                cigar.is_some(),
                scratch,
            );
            scratch.put_seq_buf(rbuf);
            align_score += e.score;
            ref_end += e.t_consumed;
            q_end += e.q_consumed;
            if let Some(c) = cigar.as_mut() {
                c.extend(&e.cigar);
                scratch.recycle(e.cigar);
            }
        }

        // Left extension: reversed prefix against reversed reference window.
        let mut ref_start = body_rs;
        let mut q_start = body_qs;
        if q_start > 0 {
            let head = q_start;
            let win = ((head as f64 * self.opts.ext_factor) as usize + 32).min(ref_start);
            let mut rbuf = self.window(chain.rid, ref_start - win..ref_start, scratch)?;
            rbuf.reverse();
            let take = head.min(self.opts.max_fill);
            let mut qbuf = scratch.take_seq_buf();
            qbuf.extend(qseq[q_start - take..q_start].iter().rev());
            let e = self.opts.engine.extend_zdrop_with_scratch(
                &rbuf,
                &qbuf,
                sc,
                self.opts.zdrop,
                cigar.is_some(),
                scratch,
            );
            scratch.put_seq_buf(qbuf);
            scratch.put_seq_buf(rbuf);
            align_score += e.score;
            ref_start -= e.t_consumed;
            q_start -= e.q_consumed;
            if let Some(c) = cigar.as_mut() {
                let mut left = e.cigar;
                left.reverse();
                let body = std::mem::take(c);
                left.extend(&body);
                scratch.recycle(body);
                *c = left;
            }
        }

        debug_assert!(ref_end <= rseq_len);

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

        Some(Mapping {
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
        })
    }
}

/// Score a gap-free segment pair of equal length.
fn score_segment(t: &[u8], q: &[u8], sc: &mmm_align::Scoring) -> i32 {
    debug_assert_eq!(t.len(), q.len());
    t.iter().zip(q).map(|(&a, &b)| sc.subst(a, b)).sum()
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
