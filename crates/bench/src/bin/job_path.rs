//! Times the gap-fill job path outside its DP cells on an `ont_unique`-shaped set (see
//! DESIGN.md §4.1c) and writes the result to `BENCH_job_path.json`
//! (override the path with `BENCH_JSON_OUT`; set it empty to skip).
//! `--quick` runs a 500 kbp, 120-read set.

use std::process::ExitCode;

fn main() -> ExitCode {
    let quick = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--quick") => true,
        Some(a) => {
            eprintln!("job_path: unexpected argument {a:?}\nusage: job_path [--quick]");
            return ExitCode::FAILURE;
        }
    };
    let (table, json) = match bench::experiments::job_path::run_with_json(quick) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("job_path: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{table}");
    let out = std::env::var("BENCH_JSON_OUT").unwrap_or_else(|_| "BENCH_job_path.json".into());
    if out.is_empty() {
        return ExitCode::SUCCESS;
    }
    match std::fs::write(&out, &json) {
        Ok(()) => eprintln!("[job_path] wrote {out}"),
        Err(e) => eprintln!("[job_path] could not write {out}: {e}"),
    }
    ExitCode::SUCCESS
}
