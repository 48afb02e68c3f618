//! SAM output (the paper runs minimap2/manymap with `-a`, i.e. SAM).

use std::io::{self, Write};

use mmm_seq::nt4_decode;

use crate::mapper::Mapping;
use crate::paf::{push_cigar, push_int, push_uint};

/// SAM flag bits used here.
const FLAG_REV: u16 = 0x10;
const FLAG_SECONDARY: u16 = 0x100;
const FLAG_UNMAPPED: u16 = 0x4;

/// Write the SAM header for a reference set.
pub fn write_sam_header<W: Write>(w: &mut W, tnames: &[String], tlens: &[usize]) -> io::Result<()> {
    writeln!(w, "@HD\tVN:1.6\tSO:unknown")?;
    for (n, l) in tnames.iter().zip(tlens) {
        writeln!(w, "@SQ\tSN:{n}\tLN:{l}")?;
    }
    writeln!(w, "@PG\tID:manymap\tPN:manymap-rs")
}

/// One SAM record: [`push_sam_line`] into a new string.
pub fn sam_line(qname: &str, query: &[u8], tnames: &[String], m: &Mapping) -> String {
    let mut s = String::new();
    push_sam_line(&mut s, qname, query, tnames, m);
    s
}

/// Append one SAM record, without its newline, to `out`. `query` is the
/// read in nt4 codes (forward orientation); reverse-strand mappings emit
/// the reverse-complemented bases, as SAM requires.
pub fn push_sam_line(out: &mut String, qname: &str, query: &[u8], tnames: &[String], m: &Mapping) {
    let mut flag = 0u16;
    if m.rev {
        flag |= FLAG_REV;
    }
    if !m.primary {
        flag |= FLAG_SECONDARY;
    }
    // Soft-clip the unaligned prefix/suffix (in the mapped orientation).
    let (clip5, clip3) = if m.rev {
        (query.len() as u32 - m.q_end, m.q_start)
    } else {
        (m.q_start, query.len() as u32 - m.q_end)
    };
    out.push_str(qname);
    out.push('\t');
    push_uint(out, flag.into());
    out.push('\t');
    out.push_str(&tnames[m.rid as usize]);
    out.push('\t');
    push_uint(out, (m.ref_start + 1).into()); // SAM is 1-based
    out.push('\t');
    push_uint(out, m.mapq.into());
    out.push('\t');
    match &m.cigar {
        Some(c) => {
            let push_clip = |out: &mut String, clip: u32| {
                if clip > 0 {
                    push_uint(out, clip.into());
                    out.push('S');
                }
            };
            push_clip(out, clip5);
            push_cigar(out, c);
            push_clip(out, clip3);
        }
        None => out.push('*'),
    }
    out.push_str("\t*\t0\t0\t");
    // nt4 code (4 and above are `N`) to base, and to its complement's.
    const FWD: [u8; 5] = *b"ACGTN";
    const RC: [u8; 5] = *b"TGCAN";
    if m.rev {
        out.extend(query.iter().rev().map(|&c| RC[(c as usize).min(4)] as char));
    } else {
        out.extend(query.iter().map(|&c| FWD[(c as usize).min(4)] as char));
    }
    out.push_str("\t*\tAS:i:");
    push_int(out, m.align_score);
    out.push_str("\ts1:i:");
    push_int(out, m.chain_score);
}

/// An unmapped record.
pub fn sam_unmapped(qname: &str, query: &[u8]) -> String {
    format!(
        "{qname}\t{FLAG_UNMAPPED}\t*\t0\t0\t*\t*\t0\t0\t{}\t*",
        String::from_utf8_lossy(&nt4_decode(query))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_align::{Cigar, CigarOp};

    fn mapping(rev: bool) -> Mapping {
        let mut c = Cigar::new();
        c.push(CigarOp::Match, 4);
        Mapping {
            rid: 0,
            ref_start: 99,
            ref_end: 103,
            q_start: 1,
            q_end: 5,
            rev,
            primary: true,
            mapq: 60,
            chain_score: 10,
            align_score: 8,
            matches: 4,
            block_len: 4,
            cigar: Some(c),
        }
    }

    #[test]
    fn header_and_line_shape() {
        let mut buf = Vec::new();
        write_sam_header(&mut buf, &["chr1".into()], &[1000]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("@SQ\tSN:chr1\tLN:1000"));

        let q = mmm_seq::to_nt4(b"AACGTT");
        let line = sam_line("r1", &q, &["chr1".into()], &mapping(false));
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols[1], "0");
        assert_eq!(cols[3], "100"); // 1-based
        assert_eq!(cols[5], "1S4M1S");
        assert_eq!(cols[9], "AACGTT");
    }

    #[test]
    fn reverse_mapping_flips_seq_and_clips() {
        let q = mmm_seq::to_nt4(b"AACGTT");
        let line = sam_line("r1", &q, &["chr1".into()], &mapping(true));
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols[1], "16");
        assert_eq!(
            cols[9],
            "AACGTT"
                .chars()
                .rev()
                .map(|c| match c {
                    'A' => 'T',
                    'C' => 'G',
                    'G' => 'C',
                    'T' => 'A',
                    x => x,
                })
                .collect::<String>()
        );
        // clip5 = qlen - q_end = 1, clip3 = q_start = 1.
        assert_eq!(cols[5], "1S4M1S");
    }

    #[test]
    fn unmapped_record() {
        let q = mmm_seq::to_nt4(b"ACGT");
        let line = sam_unmapped("r2", &q);
        assert!(line.starts_with("r2\t4\t*"));
    }
}
