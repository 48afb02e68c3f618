//! Output checks: every PAF/SAM record parses, lies inside its target and
//! query, and its CIGAR consumes exactly the spans it reports; and the
//! accuracy of the primary calls against the generator's ground truth.

use std::collections::HashMap;

use mmm_simreads::eval::is_correct;
use mmm_simreads::{MappingCall, TrueOrigin};

use crate::gen::{Inputs, ReadSet};

/// What the records of one output said, read by read.
#[derive(Default)]
pub struct Checked {
    /// Reads the program degraded to an unmapped placeholder.
    pub degraded: usize,
    /// Reads that have no record at all.
    pub absent: usize,
    /// Reads answered correctly: a primary call on the true origin, or no
    /// call for a decoy.
    pub right: usize,
    /// Reads with a primary call that is wrong, decoys included.
    pub wrong: usize,
    pub records: usize,
    /// `(read index, line end offset in the output)` of each read's last
    /// record, for the arrival-time latencies.
    pub last_line_end: Vec<(usize, usize)>,
}

/// `(query bases, target bases)` a CIGAR string consumes; soft clips count
/// as query bases in `clips`.
fn cigar_spans(cigar: &str) -> Result<(u64, u64, u64), String> {
    let (mut q, mut t, mut clips, mut n) = (0u64, 0u64, 0u64, 0u64);
    let mut any_digit = false;
    for c in cigar.bytes() {
        if c.is_ascii_digit() {
            n = n * 10 + (c - b'0') as u64;
            any_digit = true;
            continue;
        }
        if !any_digit || n == 0 {
            return Err(format!("CIGAR {cigar:.40}: operation without a length"));
        }
        match c {
            b'M' | b'=' | b'X' => {
                q += n;
                t += n;
            }
            b'I' => q += n,
            b'D' | b'N' => t += n,
            b'S' => clips += n,
            other => return Err(format!("CIGAR operation {:?}", other as char)),
        }
        n = 0;
        any_digit = false;
    }
    if any_digit {
        return Err(format!("CIGAR {cigar:.40}: trailing length"));
    }
    Ok((q, t, clips))
}

struct Record {
    read: usize,
    call: Option<(MappingCall, bool)>,
}

fn num<T: std::str::FromStr>(cols: &[&str], i: usize, what: &str) -> Result<T, String> {
    cols.get(i)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("column {} ({what}) is not a number", i + 1))
}

fn parse_paf(
    line: &str,
    names: &HashMap<&str, usize>,
    set: &ReadSet,
    inp: &Inputs,
) -> Result<Record, String> {
    let cols: Vec<&str> = line.split('\t').collect();
    if cols.len() < 12 {
        return Err(format!("{} columns, expected at least 12", cols.len()));
    }
    let read = *names
        .get(cols[0])
        .ok_or_else(|| format!("unknown read {:?}", cols[0]))?;
    let qlen: u64 = num(&cols, 1, "qlen")?;
    if qlen != set.recs[read].len() as u64 {
        return Err(format!("qlen {qlen} is not the read's length"));
    }
    if cols[12..].contains(&"tp:A:U") {
        return Ok(Record { read, call: None });
    }
    let (qs, qe): (u64, u64) = (num(&cols, 2, "qstart")?, num(&cols, 3, "qend")?);
    let (ts, te): (u64, u64) = (num(&cols, 7, "tstart")?, num(&cols, 8, "tend")?);
    let tlen: u64 = num(&cols, 6, "tlen")?;
    let rid = inp
        .tnames
        .iter()
        .position(|n| n == cols[5])
        .ok_or_else(|| format!("unknown target {:?}", cols[5]))?;
    if tlen != inp.tlens[rid] as u64 {
        return Err(format!("tlen {tlen} is not {}'s length", cols[5]));
    }
    if !(qs < qe && qe <= qlen && ts < te && te <= tlen) {
        return Err(format!(
            "spans q {qs}..{qe}/{qlen} t {ts}..{te}/{tlen} are empty or outside"
        ));
    }
    let rev = match cols[4] {
        "+" => false,
        "-" => true,
        other => return Err(format!("strand {other:?}")),
    };
    if let Some(cg) = cols[12..].iter().find_map(|c| c.strip_prefix("cg:Z:")) {
        let (cq, ct, clips) = cigar_spans(cg)?;
        if (cq, ct, clips) != (qe - qs, te - ts, 0) {
            return Err(format!(
                "CIGAR consumes q {cq} t {ct}, record reports q {} t {}",
                qe - qs,
                te - ts
            ));
        }
    }
    let primary = cols[12..].contains(&"tp:A:P");
    let call = MappingCall {
        read_id: read,
        rid: rid as u32,
        ref_start: ts as u32,
        ref_end: te as u32,
        rev,
        mapq: num(&cols, 11, "mapq")?,
    };
    Ok(Record {
        read,
        call: Some((call, primary)),
    })
}

fn parse_sam(
    line: &str,
    names: &HashMap<&str, usize>,
    set: &ReadSet,
    inp: &Inputs,
) -> Result<Record, String> {
    let cols: Vec<&str> = line.split('\t').collect();
    if cols.len() < 11 {
        return Err(format!("{} columns, expected at least 11", cols.len()));
    }
    let read = *names
        .get(cols[0])
        .ok_or_else(|| format!("unknown read {:?}", cols[0]))?;
    let flag: u16 = num(&cols, 1, "flag")?;
    let rlen = set.recs[read].len() as u64;
    if cols[9].len() as u64 != rlen {
        return Err(format!("SEQ has {} bases, the read {rlen}", cols[9].len()));
    }
    if flag & 0x4 != 0 {
        return Ok(Record { read, call: None });
    }
    let rid = inp
        .tnames
        .iter()
        .position(|n| n == cols[2])
        .ok_or_else(|| format!("unknown target {:?}", cols[2]))?;
    let pos: u64 = num(&cols, 3, "pos")?;
    let (cq, ct, clips) = cigar_spans(cols[5])?;
    if cq + clips != rlen {
        return Err(format!(
            "CIGAR consumes {} query bases of {rlen}",
            cq + clips
        ));
    }
    if pos == 0 || ct == 0 || pos - 1 + ct > inp.tlens[rid] as u64 {
        return Err(format!("POS {pos} + {ct} target bases leaves {}", cols[2]));
    }
    let call = MappingCall {
        read_id: read,
        rid: rid as u32,
        ref_start: (pos - 1) as u32,
        ref_end: (pos - 1 + ct) as u32,
        rev: flag & 0x10 != 0,
        mapq: num(&cols, 4, "mapq")?,
    };
    Ok(Record {
        read,
        call: Some((call, flag & 0x100 == 0)),
    })
}

fn truth_ok(call: &MappingCall, truth: &Option<TrueOrigin>) -> bool {
    truth.as_ref().is_some_and(|t| is_correct(call, t))
}

/// Check every record of `out` (the stdout of `manymap map`, or a tenant's
/// concatenated REC payloads) against the reads of `set`. `Err` names the
/// first record that is malformed.
pub fn check_output(out: &[u8], set: &ReadSet, inp: &Inputs) -> Result<Checked, String> {
    let sam = inp.sam();
    let text = std::str::from_utf8(out).map_err(|e| format!("output is not UTF-8: {e}"))?;
    let names: HashMap<&str, usize> = set
        .recs
        .iter()
        .enumerate()
        .map(|(i, r)| (r.name.as_str(), i))
        .collect();
    let mut c = Checked::default();
    // Per read: has any record, has been judged by its first primary.
    let mut seen = vec![false; set.recs.len()];
    let mut judged = vec![false; set.recs.len()];
    let mut offset = 0usize;
    for (ln, line) in text.split_inclusive('\n').enumerate() {
        offset += line.len();
        let body = line
            .strip_suffix('\n')
            .ok_or_else(|| format!("line {}: output ends mid-record", ln + 1))?;
        if sam && body.starts_with('@') {
            continue;
        }
        let rec = if sam {
            parse_sam(body, &names, set, inp)
        } else {
            parse_paf(body, &names, set, inp)
        }
        .map_err(|e| format!("line {}: {e}", ln + 1))?;
        c.records += 1;
        match c.last_line_end.last_mut() {
            Some(last) if last.0 == rec.read => last.1 = offset,
            _ => c.last_line_end.push((rec.read, offset)),
        }
        seen[rec.read] = true;
        match rec.call {
            None => c.degraded += 1,
            Some((call, primary)) => {
                if primary && !judged[rec.read] {
                    judged[rec.read] = true;
                    if truth_ok(&call, &set.truths[rec.read]) {
                        c.right += 1;
                    } else {
                        c.wrong += 1;
                    }
                }
            }
        }
    }
    for (i, truth) in set.truths.iter().enumerate() {
        match (seen[i], truth) {
            // A decoy that got no record was answered correctly.
            (false, None) => c.right += 1,
            (false, Some(_)) => c.absent += 1,
            _ => {}
        }
    }
    Ok(c)
}
