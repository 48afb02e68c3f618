//! CIGAR strings — the with-path alignment output.

use std::fmt;

/// One CIGAR operation kind.
///
/// Conventions follow SAM/minimap2 with *query* = read and *target* =
/// reference: `M` consumes both, `I` consumes query only (insertion in the
/// read), `D` consumes target only (deletion from the read), `S` soft-clips
/// query bases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CigarOp {
    Match,
    Ins,
    Del,
    SoftClip,
}

impl CigarOp {
    /// SAM character for this op.
    pub fn ch(self) -> char {
        match self {
            CigarOp::Match => 'M',
            CigarOp::Ins => 'I',
            CigarOp::Del => 'D',
            CigarOp::SoftClip => 'S',
        }
    }

    /// Does this op consume a query base?
    pub fn consumes_query(self) -> bool {
        matches!(self, CigarOp::Match | CigarOp::Ins | CigarOp::SoftClip)
    }

    /// Does this op consume a target base?
    pub fn consumes_target(self) -> bool {
        matches!(self, CigarOp::Match | CigarOp::Del)
    }
}

/// A run-length encoded CIGAR.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cigar {
    ops: Vec<(CigarOp, u32)>,
}

impl Cigar {
    /// Empty CIGAR.
    pub fn new() -> Self {
        Cigar::default()
    }

    /// Append `len` copies of `op`, merging with the tail run when equal.
    pub fn push(&mut self, op: CigarOp, len: u32) {
        if len == 0 {
            return;
        }
        if let Some(last) = self.ops.last_mut() {
            if last.0 == op {
                last.1 += len;
                return;
            }
        }
        self.ops.push((op, len));
    }

    /// Append another CIGAR, merging at the junction.
    pub fn extend(&mut self, other: &Cigar) {
        for &(op, len) in &other.ops {
            self.push(op, len);
        }
    }

    /// Reverse the run order in place (used after backtracking, which emits
    /// operations end-to-start).
    pub fn reverse(&mut self) {
        self.ops.reverse();
    }

    /// Make room for `runs` more runs.
    pub fn reserve(&mut self, runs: usize) {
        self.ops.reserve(runs);
    }

    /// Remove all runs, keeping the allocation (so the storage can be
    /// recycled through [`crate::AlignScratch`]).
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// The runs.
    pub fn runs(&self) -> &[(CigarOp, u32)] {
        &self.ops
    }

    /// True when no operations are stored.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total query bases consumed.
    pub fn query_len(&self) -> u64 {
        self.ops
            .iter()
            .filter(|(op, _)| op.consumes_query())
            .map(|&(_, l)| l as u64)
            .sum()
    }

    /// Total target bases consumed.
    pub fn target_len(&self) -> u64 {
        self.ops
            .iter()
            .filter(|(op, _)| op.consumes_target())
            .map(|&(_, l)| l as u64)
            .sum()
    }

    /// Number of `M` bases.
    pub fn match_len(&self) -> u64 {
        self.ops
            .iter()
            .filter(|(op, _)| *op == CigarOp::Match)
            .map(|&(_, l)| l as u64)
            .sum()
    }

    /// Re-derive the alignment score of this CIGAR against the given
    /// sequences (nt4). Soft clips score zero. Used to cross-check kernels.
    pub fn score(&self, target: &[u8], query: &[u8], sc: &crate::score::Scoring) -> i32 {
        let (mut i, mut j) = (0usize, 0usize);
        let mut total = 0i32;
        for &(op, len) in &self.ops {
            match op {
                CigarOp::Match => {
                    for _ in 0..len {
                        total += sc.subst(target[i], query[j]);
                        i += 1;
                        j += 1;
                    }
                }
                CigarOp::Del => {
                    total -= sc.gap_cost(len);
                    i += len as usize;
                }
                CigarOp::Ins => {
                    total -= sc.gap_cost(len);
                    j += len as usize;
                }
                CigarOp::SoftClip => j += len as usize,
            }
        }
        total
    }
}

impl fmt::Display for Cigar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ops.is_empty() {
            return write!(f, "*");
        }
        for &(op, len) in &self.ops {
            write!(f, "{}{}", len, op.ch())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::Scoring;

    #[test]
    fn push_merges_runs() {
        let mut c = Cigar::new();
        c.push(CigarOp::Match, 3);
        c.push(CigarOp::Match, 2);
        c.push(CigarOp::Ins, 1);
        c.push(CigarOp::Ins, 0); // no-op
        assert_eq!(c.runs(), &[(CigarOp::Match, 5), (CigarOp::Ins, 1)]);
        assert_eq!(c.to_string(), "5M1I");
    }

    #[test]
    fn lengths() {
        let mut c = Cigar::new();
        c.push(CigarOp::SoftClip, 2);
        c.push(CigarOp::Match, 10);
        c.push(CigarOp::Del, 3);
        c.push(CigarOp::Ins, 1);
        assert_eq!(c.query_len(), 13);
        assert_eq!(c.target_len(), 13);
        assert_eq!(c.match_len(), 10);
    }

    #[test]
    fn extend_merges_junction() {
        let mut a = Cigar::new();
        a.push(CigarOp::Match, 4);
        let mut b = Cigar::new();
        b.push(CigarOp::Match, 6);
        b.push(CigarOp::Del, 1);
        a.extend(&b);
        assert_eq!(a.to_string(), "10M1D");
    }

    #[test]
    fn score_rederivation() {
        let sc = Scoring::MAP_ONT; // a=2 b=4 q=4 e=2
        let t = [0u8, 1, 2, 3]; // ACGT
        let q = [0u8, 1, 3]; // ACT
        let mut c = Cigar::new();
        c.push(CigarOp::Match, 2); // A=A, C=C  -> +4
        c.push(CigarOp::Del, 1); // skip G    -> -6
        c.push(CigarOp::Match, 1); // T=T       -> +2
        assert_eq!(c.score(&t, &q, &sc), 0);
    }

    #[test]
    fn empty_displays_star() {
        assert_eq!(Cigar::new().to_string(), "*");
    }
}
