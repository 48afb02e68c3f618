//! PAF output (minimap2's default format, used for all macro benchmarks).

use std::io::{self, Write};

use mmm_align::Cigar;

use crate::mapper::Mapping;

/// Format one mapping as a PAF line: [`push_paf_line`] into a new string.
pub fn paf_line(qname: &str, qlen: usize, tname: &str, tlen: usize, m: &Mapping) -> String {
    let mut s = String::new();
    push_paf_line(&mut s, qname, qlen, tname, tlen, m);
    s
}

/// Append one mapping's PAF line, without its newline, to `out`.
///
/// Columns: qname qlen qstart qend strand tname tlen tstart tend matches
/// blocklen mapq, plus `tp`, `s1`/`AS` and optional `cg` tags.
pub fn push_paf_line(
    out: &mut String,
    qname: &str,
    qlen: usize,
    tname: &str,
    tlen: usize,
    m: &Mapping,
) {
    out.push_str(qname);
    for v in [qlen as u64, m.q_start.into(), m.q_end.into()] {
        out.push('\t');
        push_uint(out, v);
    }
    out.push_str(if m.rev { "\t-\t" } else { "\t+\t" });
    out.push_str(tname);
    for v in [
        tlen as u64,
        m.ref_start.into(),
        m.ref_end.into(),
        m.matches.into(),
        m.block_len.into(),
        m.mapq.into(),
    ] {
        out.push('\t');
        push_uint(out, v);
    }
    out.push_str(if m.primary { "\ttp:A:P" } else { "\ttp:A:S" });
    out.push_str("\ts1:i:");
    push_int(out, m.chain_score);
    out.push_str("\tAS:i:");
    push_int(out, m.align_score);
    if let Some(c) = &m.cigar {
        out.push_str("\tcg:Z:");
        push_cigar(out, c);
    }
}

/// `v` in decimal.
pub(crate) fn push_uint(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| d as char));
}

/// `v` in decimal, with a leading `-` when negative.
pub(crate) fn push_int(out: &mut String, v: i32) {
    if v < 0 {
        out.push('-');
    }
    push_uint(out, v.unsigned_abs().into());
}

/// A CIGAR as SAM and PAF print it: `<len><op>` per run, `*` when empty.
pub(crate) fn push_cigar(out: &mut String, c: &Cigar) {
    if c.is_empty() {
        out.push('*');
    }
    for &(op, len) in c.runs() {
        push_uint(out, len.into());
        out.push(op.ch());
    }
}

/// Format an unmapped-read placeholder line (12 mandatory columns with `*`
/// target fields and a `tp:A:U` tag). Emitted when a read is degraded —
/// e.g. its worker panicked or it exceeded the length limit — so the output
/// still accounts for every input read.
pub fn paf_unmapped(qname: &str, qlen: usize) -> String {
    format!("{qname}\t{qlen}\t0\t0\t*\t*\t0\t0\t0\t0\t0\t0\ttp:A:U")
}

/// Write a batch of mappings for one read.
pub fn write_paf<W: Write>(
    w: &mut W,
    qname: &str,
    qlen: usize,
    tnames: &[String],
    tlens: &[usize],
    mappings: &[Mapping],
) -> io::Result<usize> {
    let mut lines = String::new();
    for m in mappings {
        let rid = m.rid as usize;
        push_paf_line(&mut lines, qname, qlen, &tnames[rid], tlens[rid], m);
        lines.push('\n');
    }
    w.write_all(lines.as_bytes())?;
    Ok(lines.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_align::{Cigar, CigarOp};

    fn mapping() -> Mapping {
        let mut c = Cigar::new();
        c.push(CigarOp::Match, 100);
        Mapping {
            rid: 0,
            ref_start: 1000,
            ref_end: 1100,
            q_start: 0,
            q_end: 100,
            rev: true,
            primary: true,
            mapq: 60,
            chain_score: 90,
            align_score: 200,
            matches: 100,
            block_len: 100,
            cigar: Some(c),
        }
    }

    #[test]
    fn paf_has_twelve_mandatory_columns() {
        let line = paf_line("readA", 100, "chr1", 50_000, &mapping());
        let cols: Vec<&str> = line.split('\t').collect();
        assert!(cols.len() >= 12);
        assert_eq!(cols[0], "readA");
        assert_eq!(cols[4], "-");
        assert_eq!(cols[5], "chr1");
        assert_eq!(cols[9], "100");
        assert_eq!(cols[11], "60");
        assert!(line.contains("tp:A:P"));
        assert!(line.contains("cg:Z:100M"));
    }

    #[test]
    fn unmapped_line_has_twelve_columns() {
        let line = paf_unmapped("readB", 777);
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols.len(), 13); // 12 mandatory + tp tag
        assert_eq!(cols[0], "readB");
        assert_eq!(cols[1], "777");
        assert_eq!(cols[4], "*");
        assert_eq!(cols[5], "*");
        assert_eq!(cols[12], "tp:A:U");
    }

    #[test]
    fn write_paf_counts_bytes() {
        let mut buf = Vec::new();
        let n = write_paf(
            &mut buf,
            "readA",
            100,
            &["chr1".to_string()],
            &[50_000],
            &[mapping()],
        )
        .unwrap();
        assert_eq!(n, buf.len());
        assert!(buf.ends_with(b"\n"));
    }
}
