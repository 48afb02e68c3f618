//! Anchors: minimizer matches between query and reference.

/// One seed match. Positions are the *end* coordinates of the k-mer match,
/// matching minimap2's anchor convention `(x = rid/rpos, y = qpos)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Anchor {
    /// Reference sequence id.
    pub rid: u32,
    /// Position of the last base of the match on the reference.
    pub rpos: u32,
    /// Position of the last base of the match on the query (on the strand
    /// given by `rev`).
    pub qpos: u32,
    /// Length of the read the anchor came from. A reverse anchor's `qpos`
    /// counts from the read's far end, so chain selection needs this to
    /// compare chains on opposite strands in read coordinates.
    pub qlen: u32,
    /// True when the minimizer matched the reverse-complemented query.
    pub rev: bool,
    /// Match span in bases (the k-mer length).
    pub span: u8,
}

impl Anchor {
    /// Sort key grouping anchors by (rid, strand) and ordering by reference
    /// then query position — the order the chaining DP requires.
    pub fn sort_key(&self) -> (u32, bool, u32, u32) {
        (self.rid, self.rev, self.rpos, self.qpos)
    }
}

/// Sort anchors into chaining order.
pub fn sort_anchors(anchors: &mut [Anchor]) {
    anchors.sort_unstable_by_key(|a| a.sort_key());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorting_groups_by_rid_and_strand() {
        let a = |rid, rpos, qpos, rev| Anchor {
            rid,
            rpos,
            qpos,
            qlen: 100,
            rev,
            span: 15,
        };
        let mut v = vec![
            a(1, 5, 1, false),
            a(0, 9, 2, true),
            a(0, 3, 3, false),
            a(0, 7, 1, false),
        ];
        sort_anchors(&mut v);
        assert_eq!(v[0].rpos, 3);
        assert_eq!(v[1].rpos, 7);
        assert!(v[2].rev);
        assert_eq!(v[3].rid, 1);
    }
}
