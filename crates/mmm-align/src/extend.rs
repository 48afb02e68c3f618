//! End extension by best-prefix trimming.
//!
//! (Between two adjacent chain anchors the mapper aligns the inter-anchor
//! segments *globally*, as `mmm-exec` jobs straight on
//! [`Engine::align_with_scratch`].) At the ends of a chain the remaining
//! read tail is extended across a reference window ([`extend_align`]):
//! the window is aligned semi-globally (both ends free) and the resulting
//! path is then trimmed back to its best-scoring prefix, which emulates
//! minimap2's z-drop extension stop — the alignment ends where the score
//! peaks instead of being dragged through a noisy tail.

use crate::cigar::{Cigar, CigarOp};
use crate::dispatch::Engine;
use crate::score::Scoring;
use crate::scratch::AlignScratch;
use crate::types::AlignMode;

/// Result of an end extension.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtendResult {
    /// Score of the trimmed alignment.
    pub score: i32,
    /// Target bases consumed by the trimmed alignment.
    pub t_consumed: usize,
    /// Query bases consumed by the trimmed alignment.
    pub q_consumed: usize,
    /// The trimmed path.
    pub cigar: Cigar,
}

impl ExtendResult {
    /// The extension that consumes nothing (empty input, or no cell scored
    /// above zero).
    pub(crate) fn empty() -> Self {
        ExtendResult {
            score: 0,
            t_consumed: 0,
            q_consumed: 0,
            cigar: Cigar::new(),
        }
    }
}

/// Extend across `target` × `query` from their common origin, stopping at
/// the best-scoring point on the optimal semi-global path.
pub fn extend_align(target: &[u8], query: &[u8], sc: &Scoring, engine: Engine) -> ExtendResult {
    extend_align_with_scratch(target, query, sc, engine, &mut AlignScratch::new())
}

/// [`extend_align`] with caller-provided buffers. The trimmed CIGAR is
/// rebuilt from the recycle pool, so a warmed scratch makes the whole
/// extension allocation-free.
pub fn extend_align_with_scratch(
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    engine: Engine,
    scratch: &mut AlignScratch,
) -> ExtendResult {
    if target.is_empty() || query.is_empty() {
        return ExtendResult::empty();
    }
    let r = engine.align_with_scratch(target, query, sc, AlignMode::SemiGlobal, true, scratch);
    // `with_path = true` always yields a path; an absent one degrades to an
    // empty extension rather than panicking mid-pipeline.
    let cigar = r.cigar.unwrap_or_default();
    let mut out = AlignScratch::take_cigar(&mut scratch.cigars);
    let trimmed = trim_to_best_prefix_into(&cigar, target, query, sc, &mut out);
    scratch.recycle(cigar);
    trimmed
}

/// Walk the path accumulating score and keep the best-scoring prefix.
///
/// Since gaps only lower the score, a best prefix never ends inside a gap
/// run; inside match runs every base is a candidate endpoint.
pub fn trim_to_best_prefix(
    cigar: &Cigar,
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
) -> ExtendResult {
    trim_to_best_prefix_into(cigar, target, query, sc, &mut Cigar::new())
}

/// [`trim_to_best_prefix`] writing the trimmed path into `out` (cleared
/// first) so its storage can come from a scratch pool.
pub fn trim_to_best_prefix_into(
    cigar: &Cigar,
    target: &[u8],
    query: &[u8],
    sc: &Scoring,
    out: &mut Cigar,
) -> ExtendResult {
    out.clear();
    let mut score = 0i32;
    let (mut i, mut j) = (0usize, 0usize);
    // (score, t_pos, q_pos, ops completed, bases into the next op)
    let mut best = (0i32, 0usize, 0usize, 0usize, 0u32);
    for (op_idx, &(op, len)) in cigar.runs().iter().enumerate() {
        match op {
            CigarOp::Match => {
                for k in 0..len {
                    score += sc.subst(target[i], query[j]);
                    i += 1;
                    j += 1;
                    if score > best.0 {
                        best = (score, i, j, op_idx, k + 1);
                    }
                }
            }
            CigarOp::Del => {
                score -= sc.gap_cost(len);
                i += len as usize;
            }
            CigarOp::Ins => {
                score -= sc.gap_cost(len);
                j += len as usize;
            }
            CigarOp::SoftClip => {
                j += len as usize;
            }
        }
    }
    // Rebuild the trimmed cigar.
    for (op_idx, &(op, len)) in cigar.runs().iter().enumerate() {
        if op_idx < best.3 {
            out.push(op, len);
        } else if op_idx == best.3 {
            out.push(op, best.4);
            break;
        }
    }
    ExtendResult {
        score: best.0,
        t_consumed: best.1,
        q_consumed: best.2,
        cigar: std::mem::take(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::best_engine;

    const SC: Scoring = Scoring::MAP_ONT;

    fn nt(s: &[u8]) -> Vec<u8> {
        mmm_seq::to_nt4(s)
    }

    #[test]
    fn extension_stops_before_noisy_tail() {
        // Query matches the first 12 target bases, then diverges completely.
        // The trimmed extension must stop at (or within a base of) the clean
        // prefix instead of being dragged through the divergent tail.
        let t = nt(b"ACGTACGTACGTTTTTTTTTT");
        let q = nt(b"ACGTACGTACGTGGGGGGGGG");
        let r = extend_align(&t, &q, &SC, best_engine());
        assert!(
            r.q_consumed >= 11 && r.q_consumed <= 13,
            "q_consumed={}",
            r.q_consumed
        );
        assert!(r.score >= 22, "score={}", r.score);
        assert_eq!(r.cigar.query_len() as usize, r.q_consumed);
        assert_eq!(r.cigar.target_len() as usize, r.t_consumed);
        assert_eq!(r.cigar.score(&t, &q, &SC), r.score);
    }

    #[test]
    fn clean_extension_consumes_everything() {
        let t = nt(b"ACGTACGTACGT");
        let q = nt(b"ACGTACGTACGT");
        let r = extend_align(&t, &q, &SC, best_engine());
        assert_eq!(r.q_consumed, 12);
        assert_eq!(r.t_consumed, 12);
        assert_eq!(r.score, 24);
    }

    #[test]
    fn empty_inputs_give_empty_extension() {
        let r = extend_align(&[], &nt(b"ACG"), &SC, best_engine());
        assert_eq!(r.q_consumed, 0);
        assert!(r.cigar.is_empty());
    }

    #[test]
    fn extension_survives_internal_gap() {
        // 8 matches, 2-base deletion, 8 matches, then junk: the extension
        // must reach past the gap into the second match block rather than
        // stopping at the gap.
        let t = nt(b"ACGTACGTGGACGTACGTTTTTTTT");
        let q = nt(b"ACGTACGTACGTACGTCCCCCCC");
        let r = extend_align(&t, &q, &SC, best_engine());
        assert!(r.q_consumed >= 15, "q_consumed={}", r.q_consumed);
        assert!(r.t_consumed >= 17, "t_consumed={}", r.t_consumed);
        assert!(r.score >= 20, "score={}", r.score);
        assert_eq!(r.cigar.score(&t, &q, &SC), r.score);
    }

    #[test]
    fn trim_handles_all_negative_path() {
        // Nothing scores positive: empty extension.
        let t = nt(b"AAAA");
        let q = nt(b"CCCC");
        let r = extend_align(&t, &q, &SC, best_engine());
        assert_eq!(r.score, 0);
        assert_eq!(r.q_consumed, 0);
        assert!(r.cigar.is_empty());
    }
}
