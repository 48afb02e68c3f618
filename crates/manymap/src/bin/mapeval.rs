//! `mapeval` — score a PAF against the ground truth encoded in read names.
//!
//! Reads PAF from a file (or `-` for stdin) whose query names follow the
//! `simreads` convention `read{N}!{rname}!{start}!{end}!{+|-}`, and prints
//! the paper's accuracy metrics (Table 5's error-rate definition: wrong
//! primary alignments / primary alignments, with ≥10% overlap of the true
//! interval counting as correct) plus a MAPQ-stratified breakdown. Every
//! `tp:A:P` record is judged: a read that carries a right primary and a
//! wrong one counts once on each side, whatever the order of its lines.
//!
//! ```sh
//! simreads --out-ref ref.fa --out-reads reads.fa
//! manymap map ref.fa reads.fa > out.paf
//! mapeval out.paf
//! ```

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader};
use std::process::ExitCode;

/// The true origin encoded in a `simreads` query name.
struct Truth<'a> {
    rname: &'a str,
    start: u64,
    end: u64,
    rev: bool,
}

fn parse_truth(qname: &str) -> Option<Truth<'_>> {
    let parts: Vec<&str> = qname.split('!').collect();
    if parts.len() != 5 {
        return None;
    }
    Some(Truth {
        rname: parts[1],
        start: parts[2].parse().ok()?,
        end: parts[3].parse().ok()?,
        rev: parts[4] == "-",
    })
}

/// What one PAF says about its reads' primaries.
#[derive(Default, Debug, PartialEq)]
struct Summary {
    lines: u64,
    /// Distinct query names carrying a truth, on any record.
    reads: u64,
    /// `tp:A:P` records, every one judged.
    primaries: u64,
    wrong: u64,
    wrong_mapq40: u64,
    /// MAPQ decade floor → (primaries, wrong).
    strata: BTreeMap<u8, (u64, u64)>,
}

/// Judge every `tp:A:P` record of `paf` against the truth in its query
/// name. A mid-stream read error is returned with the count of lines read
/// before it: stats over a partial PAF would look plausible but be wrong.
fn evaluate(paf: impl BufRead) -> Result<Summary, (u64, std::io::Error)> {
    let mut s = Summary::default();
    let mut seen: HashSet<String> = HashSet::new();
    for line in paf.lines() {
        let line = line.map_err(|e| (s.lines, e))?;
        s.lines += 1;
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() < 12 {
            continue;
        }
        let Some(truth) = parse_truth(cols[0]) else {
            continue;
        };
        if !seen.contains(cols[0]) {
            seen.insert(cols[0].to_string());
        }
        if !cols[12..].contains(&"tp:A:P") {
            continue;
        }
        let start: u64 = cols[7].parse().unwrap_or(0);
        let end: u64 = cols[8].parse().unwrap_or(0);
        let mapq: u8 = cols[11].parse().unwrap_or(0);
        let inter = end.min(truth.end).saturating_sub(start.max(truth.start));
        let ok = cols[5] == truth.rname
            && (cols[4] == "-") == truth.rev
            && inter as f64 >= 0.1 * (truth.end - truth.start).max(1) as f64;
        let stratum = s.strata.entry(mapq / 10 * 10).or_default();
        s.primaries += 1;
        stratum.0 += 1;
        if !ok {
            s.wrong += 1;
            stratum.1 += 1;
            s.wrong_mapq40 += u64::from(mapq >= 40);
        }
    }
    s.reads = seen.len() as u64;
    Ok(s)
}

fn main() -> ExitCode {
    let path = match std::env::args().nth(1) {
        Some(p) => p,
        None => {
            eprintln!("usage: mapeval <out.paf|->");
            return ExitCode::FAILURE;
        }
    };
    let reader: Box<dyn BufRead> = if path == "-" {
        Box::new(BufReader::new(std::io::stdin()))
    } else {
        match std::fs::File::open(&path) {
            Ok(f) => Box::new(BufReader::new(f)),
            Err(e) => {
                eprintln!("mapeval: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let s = match evaluate(reader) {
        Ok(s) => s,
        Err((lines, e)) => {
            eprintln!("mapeval: {path}: read error after line {lines}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let pct = |num: u64, den: u64| 100.0 * num as f64 / den.max(1) as f64;
    println!("paf lines:        {}", s.lines);
    println!("reads:            {}", s.reads);
    println!("primary records:  {}", s.primaries);
    println!(
        "primaries/read:   {:.2}",
        s.primaries as f64 / s.reads.max(1) as f64
    );
    println!("wrong primaries:  {}", s.wrong);
    println!("error rate:       {:.3}%", pct(s.wrong, s.primaries));
    println!("wrong primaries at MAPQ >= 40: {}", s.wrong_mapq40);
    println!("\nmapq   primaries   wrong   err%");
    for (b, (m, w)) in &s.strata {
        println!(
            "{:>2}-{:>2} {:>11} {:>7}  {:>5.2}",
            b,
            b + 9,
            m,
            w,
            pct(*w, *m)
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One read with a correct primary, a wrong primary on another locus
    /// and a secondary: both primaries are judged, whichever comes last.
    #[test]
    fn every_primary_record_is_judged() {
        let q = "read0!chr1!1000!3000!+";
        let rec = |start: u32, mapq: u8, tp: &str| {
            let end = start + 2000;
            format!("{q}\t2000\t0\t2000\t+\tchr1\t900000\t{start}\t{end}\t1900\t2000\t{mapq}\ttp:A:{tp}\n")
        };
        let right = rec(1010, 60, "P");
        let wrong = rec(760_000, 49, "P");
        let secondary = rec(500_000, 0, "S");
        for order in [[&right, &wrong, &secondary], [&secondary, &wrong, &right]] {
            let paf: String = order.into_iter().cloned().collect();
            let s = evaluate(paf.as_bytes()).unwrap();
            assert_eq!((s.lines, s.reads), (3, 1));
            assert_eq!((s.primaries, s.wrong, s.wrong_mapq40), (2, 1, 1));
            assert_eq!(s.strata[&40], (1, 1));
            assert_eq!(s.strata[&60], (1, 0));
        }
    }
}
