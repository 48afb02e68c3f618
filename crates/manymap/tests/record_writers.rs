//! The in-place SAM and PAF writers against the `format!` bodies they
//! replaced, kept here as the reference: the same bytes for every record,
//! on mappings at the edges of every field — `u32::MAX` coordinates,
//! `i32::MIN`/`MAX` scores, no CIGAR or an empty one, zero, one and both
//! soft clips, reverse strands over `N` (code 4 and above), secondary
//! flags — and for unmapped records.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use manymap::sam::{push_sam_line, sam_line, sam_unmapped};
use manymap::{paf_line, paf_unmapped, push_paf_line, write_paf, Mapping};
use mmm_align::{Cigar, CigarOp};
use mmm_seq::nt4_decode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `sam_line` as it was written with `format!`.
fn sam_reference(qname: &str, query: &[u8], tnames: &[String], m: &Mapping) -> String {
    let mut flag = 0u16;
    if m.rev {
        flag |= 0x10;
    }
    if !m.primary {
        flag |= 0x100;
    }
    let seq = if m.rev {
        nt4_decode(&mmm_seq::revcomp4(query))
    } else {
        nt4_decode(query)
    };
    let (clip5, clip3) = if m.rev {
        (query.len() as u32 - m.q_end, m.q_start)
    } else {
        (m.q_start, query.len() as u32 - m.q_end)
    };
    let cigar = match &m.cigar {
        Some(c) => {
            let mut s = String::new();
            if clip5 > 0 {
                s.push_str(&format!("{clip5}S"));
            }
            s.push_str(&c.to_string());
            if clip3 > 0 {
                s.push_str(&format!("{clip3}S"));
            }
            s
        }
        None => "*".to_string(),
    };
    format!(
        "{qname}\t{flag}\t{}\t{}\t{}\t{cigar}\t*\t0\t0\t{}\t*\tAS:i:{}\ts1:i:{}",
        tnames[m.rid as usize],
        m.ref_start + 1,
        m.mapq,
        String::from_utf8_lossy(&seq),
        m.align_score,
        m.chain_score,
    )
}

/// `paf_line` as it was written with `format!`.
fn paf_reference(qname: &str, qlen: usize, tname: &str, tlen: usize, m: &Mapping) -> String {
    let mut s = format!(
        "{qname}\t{qlen}\t{}\t{}\t{}\t{tname}\t{tlen}\t{}\t{}\t{}\t{}\t{}\ttp:A:{}\ts1:i:{}\tAS:i:{}",
        m.q_start,
        m.q_end,
        if m.rev { '-' } else { '+' },
        m.ref_start,
        m.ref_end,
        m.matches,
        m.block_len,
        m.mapq,
        if m.primary { 'P' } else { 'S' },
        m.chain_score,
        m.align_score,
    );
    if let Some(c) = &m.cigar {
        s.push_str("\tcg:Z:");
        s.push_str(&c.to_string());
    }
    s
}

/// An edge or a random value of each kind.
fn pick_u32(rng: &mut StdRng) -> u32 {
    match rng.random_range(0u32..6) {
        0 => 0,
        1 => 1,
        2 => u32::MAX,
        3 => u32::MAX - 1,
        4 => 9,
        _ => rng.random::<u32>(),
    }
}

fn pick_i32(rng: &mut StdRng) -> i32 {
    match rng.random_range(0u32..7) {
        0 => 0,
        1 => i32::MIN,
        2 => i32::MAX,
        3 => -1,
        4 => -10,
        5 => 10,
        _ => rng.random::<u32>() as i32,
    }
}

fn cigar(rng: &mut StdRng) -> Option<Cigar> {
    match rng.random_range(0u32..5) {
        0 => None,
        1 => Some(Cigar::new()),
        _ => {
            // Each run's op differs from the last, so no two runs merge
            // (and `u32::MAX` runs cannot overflow a merged length).
            let ops = [CigarOp::Match, CigarOp::Ins, CigarOp::Del];
            let (mut c, mut op) = (Cigar::new(), rng.random_range(0usize..3));
            for _ in 0..rng.random_range(1usize..12) {
                op = (op + rng.random_range(1usize..3)) % 3;
                c.push(
                    ops[op],
                    [1, 9, 10, 99, 100, u32::MAX][rng.random_range(0usize..6)],
                );
            }
            Some(c)
        }
    }
}

/// A read over codes 0..=5 (4 and 5 print as `N`) and a mapping on it:
/// SAM needs `q_start <= q_end <= |read|` and `ref_start < u32::MAX`; PAF
/// prints any value.
fn case(rng: &mut StdRng, sam: bool) -> (Vec<u8>, Mapping) {
    let len = rng.random_range(0usize..40);
    let read: Vec<u8> = (0..len)
        .map(|_| {
            if rng.random_range(0u32..8) == 0 {
                rng.random_range(4u32..6) as u8
            } else {
                rng.random_range(0u32..4) as u8
            }
        })
        .collect();
    let mut m = Mapping {
        rid: rng.random_range(0u32..2),
        ref_start: pick_u32(rng),
        ref_end: pick_u32(rng),
        q_start: pick_u32(rng),
        q_end: pick_u32(rng),
        rev: rng.random::<bool>(),
        primary: rng.random::<bool>(),
        mapq: [0, 60, 255][rng.random_range(0usize..3)],
        chain_score: pick_i32(rng),
        align_score: pick_i32(rng),
        matches: pick_u32(rng),
        block_len: pick_u32(rng),
        cigar: cigar(rng),
    };
    if sam {
        // Zero, one or both clips.
        let a = rng.random_range(0..len as u32 + 1);
        let b = rng.random_range(a..len as u32 + 1);
        (m.q_start, m.q_end) = match rng.random_range(0u32..4) {
            0 => (0, len as u32),
            1 => (0, b),
            2 => (a, len as u32),
            _ => (a, b),
        };
        m.ref_start = m.ref_start.min(u32::MAX - 1);
    }
    (read, m)
}

#[test]
fn in_place_writers_equal_the_format_reference() {
    let tnames = vec!["chr1".to_string(), "a-much-longer-contig-name".to_string()];
    let tlens = [0usize, usize::MAX];
    let mut rng = StdRng::seed_from_u64(0x5A3);
    for i in 0..4_000 {
        let (read, m) = case(&mut rng, true);
        let want = sam_reference("read/1", &read, &tnames, &m);
        assert_eq!(
            sam_line("read/1", &read, &tnames, &m),
            want,
            "case {i}: {m:?}"
        );
        let mut out = String::from("before\n");
        push_sam_line(&mut out, "read/1", &read, &tnames, &m);
        assert_eq!(out, format!("before\n{want}"), "case {i}");

        let (read, m) = case(&mut rng, false);
        let (tname, tlen) = (&tnames[m.rid as usize], tlens[m.rid as usize]);
        let want = paf_reference("q", read.len(), tname, tlen, &m);
        assert_eq!(
            paf_line("q", read.len(), tname, tlen, &m),
            want,
            "case {i}: {m:?}"
        );
        let mut out = String::from("x");
        push_paf_line(&mut out, "q", read.len(), tname, tlen, &m);
        assert_eq!(out, format!("x{want}"), "case {i}");
        let mut bytes = Vec::new();
        let n = write_paf(
            &mut bytes,
            "q",
            read.len(),
            &tnames,
            &tlens,
            &[m.clone(), m],
        )
        .unwrap();
        assert_eq!(bytes, format!("{want}\n{want}\n").into_bytes(), "case {i}");
        assert_eq!(n, bytes.len());
    }
}

#[test]
fn unmapped_records_are_unchanged() {
    let read = [0u8, 1, 2, 3, 4, 5, 3];
    assert_eq!(
        sam_unmapped("r", &read),
        "r\t4\t*\t0\t0\t*\t*\t0\t0\tACGTNNT\t*"
    );
    assert_eq!(sam_unmapped("r", &[]), "r\t4\t*\t0\t0\t*\t*\t0\t0\t\t*");
    assert_eq!(
        paf_unmapped("r", 7),
        "r\t7\t0\t0\t*\t*\t0\t0\t0\t0\t0\t0\ttp:A:U"
    );
}
