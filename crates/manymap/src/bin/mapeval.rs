//! `mapeval` — score a PAF against the ground truth encoded in read names.
//!
//! Reads PAF from a file (or `-` for stdin) whose query names follow the
//! `simreads` convention `read{N}!{rname}!{start}!{end}!{+|-}`, and prints
//! the paper's accuracy metrics (Table 5's error-rate definition: wrong
//! primary alignments / primary alignments, with ≥10% overlap of the true
//! interval counting as correct) plus a MAPQ-stratified breakdown. Every
//! `tp:A:P` record is judged: a read that carries a right primary and a
//! wrong one counts once on each side, whatever the order of its lines.
//! A PAF with no such record to judge is an error (exit 1), not a clean
//! score: ci.sh's selection ratchet reads this output.
//!
//! ```sh
//! simreads --out-ref ref.fa --out-reads reads.fa
//! manymap map ref.fa reads.fa > out.paf
//! mapeval out.paf
//! ```

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, ErrorKind, Write};
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
/// name. Refuses what would judge nothing or judge it wrongly: a PAF with
/// no primary that carries a truth (empty, all `tp:A:U`, or not from
/// `simreads`) would print zero wrong primaries and pass any ratchet, and
/// stats over a PAF cut by a read error would look plausible but be wrong.
fn evaluate(paf: impl BufRead) -> Result<Summary, String> {
    let mut s = Summary::default();
    let mut seen: HashSet<String> = HashSet::new();
    for line in paf.lines() {
        let line = line.map_err(|e| format!("read error after line {}: {e}", s.lines))?;
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
    if s.primaries == 0 {
        return Err("no primary record carries simreads truth".into());
    }
    Ok(s)
}

/// The one positional argument: a PAF path, or `-` for stdin.
fn parse_args(args: &[String]) -> Result<&str, String> {
    match args {
        [] => Err("missing the PAF to judge".into()),
        [flag, ..] if flag.starts_with('-') && flag != "-" => Err(format!("unknown flag {flag}")),
        [path] => Ok(path),
        [_, extra, ..] => Err(format!("unexpected argument {extra}")),
    }
}

/// The report `mapeval` prints: the summary, then one row per MAPQ decade.
fn render(s: &Summary) -> String {
    let pct = |num: u64, den: u64| 100.0 * num as f64 / den.max(1) as f64;
    let mut r = format!(
        "paf lines:        {}\n\
         reads:            {}\n\
         primary records:  {}\n\
         primaries/read:   {:.2}\n\
         wrong primaries:  {}\n\
         error rate:       {:.3}%\n\
         wrong primaries at MAPQ >= 40: {}\n\
         \n\
         mapq   primaries   wrong   err%\n",
        s.lines,
        s.reads,
        s.primaries,
        s.primaries as f64 / s.reads.max(1) as f64,
        s.wrong,
        pct(s.wrong, s.primaries),
        s.wrong_mapq40,
    );
    for (b, (m, w)) in &s.strata {
        r += &format!(
            "{:>2}-{:>2} {:>11} {:>7}  {:>5.2}\n",
            b,
            b + 9,
            m,
            w,
            pct(*w, *m)
        );
    }
    r
}

/// Write the report in one piece. A reader that closed early
/// (`mapeval out.paf | head`) has all it wanted, so a broken pipe is a
/// quiet success; any other write error is reported.
fn write_report(w: &mut impl Write, report: &str) -> Result<(), String> {
    match w.write_all(report.as_bytes()).and_then(|()| w.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("writing the report: {e}")),
        _ => Ok(()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mapeval: {e}\nusage: mapeval <out.paf|->");
            return ExitCode::FAILURE;
        }
    };
    let reader: Box<dyn BufRead> = if path == "-" {
        Box::new(BufReader::new(std::io::stdin()))
    } else {
        match std::fs::File::open(path) {
            Ok(f) => Box::new(BufReader::new(f)),
            Err(e) => {
                eprintln!("mapeval: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let s = match evaluate(reader) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mapeval: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match write_report(&mut std::io::stdout().lock(), &render(&s)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mapeval: {e}");
            ExitCode::FAILURE
        }
    }
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

    /// A PAF that judges no primary would pass every ratchet vacuously.
    #[test]
    fn nothing_to_judge_is_refused() {
        let unmapped = "read0!chr1!1000!3000!+\t2000\t0\t0\t*\t*\t0\t0\t0\t0\t0\t0\ttp:A:U\n";
        for paf in ["", unmapped, "not a paf line\n"] {
            let err = evaluate(paf.as_bytes()).unwrap_err();
            assert_eq!(err, "no primary record carries simreads truth", "{paf:?}");
        }
    }

    /// A writer whose reader has gone away, as `mapeval out.paf | head`
    /// leaves stdout.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(ErrorKind::BrokenPipe.into())
        }
    }

    #[test]
    fn a_closed_pipe_is_a_quiet_exit_and_other_write_errors_are_not() {
        let q = "read0!chr1!1000!3000!+";
        let paf =
            format!("{q}\t2000\t0\t2000\t+\tchr1\t900000\t1010\t3010\t1900\t2000\t60\ttp:A:P\n");
        let report = render(&evaluate(paf.as_bytes()).unwrap());
        assert_eq!(write_report(&mut ClosedPipe, &report), Ok(()));
        let mut full = [0u8; 16];
        let err = write_report(&mut &mut full[..], &report).unwrap_err();
        assert!(err.starts_with("writing the report: "), "{err}");
        let mut out = Vec::new();
        assert_eq!(write_report(&mut out, &report), Ok(()));
        assert_eq!(String::from_utf8(out).unwrap(), report);
        assert!(report.starts_with("paf lines:        1\nreads:            1\n"));
        assert!(report.contains("\nwrong primaries at MAPQ >= 40: 0\n\nmapq   primaries"));
        assert!(
            report.ends_with("\n60-69           1       0   0.00\n"),
            "{report}"
        );
    }

    #[test]
    fn one_path_and_no_flags() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_args(&args(&["out.paf"])), Ok("out.paf"));
        assert_eq!(parse_args(&args(&["-"])), Ok("-"));
        assert!(parse_args(&args(&[])).is_err());
        assert_eq!(
            parse_args(&args(&["--help"])),
            Err("unknown flag --help".into())
        );
        assert_eq!(
            parse_args(&args(&["a.paf", "b.paf"])),
            Err("unexpected argument b.paf".into())
        );
    }
}
