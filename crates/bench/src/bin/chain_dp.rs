//! Times `chain_anchors` against its reference loop on P2 and P3 (see
//! DESIGN.md §4.3) and writes the result to `BENCH_chain_dp.json`
//! (override the path with `BENCH_JSON_OUT`; set it empty to skip).
//! `--quick` runs P2 only.

use std::process::ExitCode;

fn main() -> ExitCode {
    let quick = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--quick") => true,
        Some(a) => {
            eprintln!("chain_dp: unexpected argument {a:?}\nusage: chain_dp [--quick]");
            return ExitCode::FAILURE;
        }
    };
    let (table, json) = match bench::experiments::chain_dp::run_with_json(quick) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("chain_dp: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{table}");
    let out = std::env::var("BENCH_JSON_OUT").unwrap_or_else(|_| "BENCH_chain_dp.json".into());
    if out.is_empty() {
        return ExitCode::SUCCESS;
    }
    match std::fs::write(&out, &json) {
        Ok(()) => eprintln!("[chain_dp] wrote {out}"),
        Err(e) => eprintln!("[chain_dp] could not write {out}: {e}"),
    }
    ExitCode::SUCCESS
}
