//! Table 2 — performance breakdown of (original) minimap2, one thread,
//! CPU vs KNL (§4.1).
//!
//! The CPU column is *measured*: `manymap map`'s own run
//! (`session::map_reads` at one thread) in the minimap2 configuration
//! (Eq. 3 SSE kernel, CPU backend) over the scaled PacBio dataset, read off
//! the pipeline's stage times: Load Index is `load_index_any` (the one mmap
//! loader), Load Query the reader thread, Seed & Chain the plan phase,
//! Align dispatch plus finalize, Output the writer thread. The KNL column
//! applies the calibrated per-stage slowdowns of the machine model (its
//! read-vs-mmap factor lives there, in `mmm-knl`). Paper shape: Align
//! dominates (65% on CPU, 83% on KNL) and every stage is several times
//! slower on one KNL core.

use std::sync::Arc;
use std::time::Instant;

use manymap::baselines::BaselineId;
use manymap::session::{load_index_any, map_reads, MapReport};
use manymap::{ExecConfig, MapSession};
use mmm_index::{save_index, MinimizerIndex};
use mmm_knl::KNL_7210;

use crate::{format_table, macrodata, mapped_records};

/// The measured CPU column: Load Index seconds, the run's report, and its
/// mapping count.
fn profile(quick: bool) -> Result<(f64, MapReport, usize), String> {
    let n_reads = if quick { 50 } else { 800 };
    let ds = macrodata::pacbio(1_000_000, n_reads);
    let opts = BaselineId::Minimap2.map_opts();
    let index = MinimizerIndex::build(&[ds.reference()], &opts.idx, 1)
        .map_err(|e| format!("index build failed: {e}"))?;
    let fasta = ds
        .reads_fasta()
        .map_err(|e| format!("in-memory fasta failed: {e}"))?;
    let idx_path = std::env::temp_dir().join(format!("bench-table2-{}.mmx", std::process::id()));
    save_index(&index, &idx_path).map_err(|e| format!("index serialization failed: {e}"))?;
    let cfg = ExecConfig::new(&opts, 1);
    let exec = cfg.open().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let index = load_index_any(&idx_path, &opts, cfg.shard_open_opts(), 1);
    let load_seconds = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&idx_path);
    let session = Arc::new(MapSession::new(0, index.map_err(|e| e.to_string())?, opts));
    let mut out = Vec::new();
    let run = map_reads(&fasta[..], &mut out, &session, &exec, false, None)
        .map_err(|e| format!("mapping run failed: {e}"))?;
    Ok((load_seconds, run, mapped_records(&out)))
}

pub fn run(quick: bool) -> String {
    let (load_seconds, run, mappings) = match profile(quick) {
        Ok(res) => res,
        Err(e) => return format!("table2_profile: {e}"),
    };

    // KNL column: calibrated per-stage slowdowns (Table 2 ratios).
    let m = KNL_7210;
    let s = run.stats;
    let align = s.dispatch_seconds + s.finalize_seconds;
    let stages = [
        ("Load Index", load_seconds, m.read_time(load_seconds, false)),
        (
            "Load Query",
            s.in_seconds,
            m.read_time(s.in_seconds, false) * (8.3 / 6.1),
        ),
        (
            "Seed & Chain",
            s.plan_seconds,
            m.seedchain_time(s.plan_seconds),
        ),
        ("Align", align, m.align_time(align)),
        ("Output", s.out_seconds, m.write_time(s.out_seconds)),
    ];
    let cpu_total: f64 = stages.iter().map(|r| r.1).sum();
    let knl_total: f64 = stages.iter().map(|r| r.2).sum();

    let rows: Vec<Vec<String>> = stages
        .iter()
        .map(|&(label, c, k)| {
            vec![
                label.to_string(),
                format!("{c:.3}"),
                format!("{:.2}", 100.0 * c / cpu_total),
                format!("{k:.3}"),
                format!("{:.2}", 100.0 * k / knl_total),
            ]
        })
        .collect();

    let mut out = format_table(
        &format!(
            "Table 2 — minimap2 single-thread breakdown, {} reads (CPU measured, KNL modeled)",
            s.items
        ),
        &["stage", "CPU time (s)", "CPU %", "KNL time (s)", "KNL %"],
        &rows,
    );
    out.push_str(&format!(
        "totals: CPU {:.3}s, KNL {:.3}s ({:.1}x); {} mappings\n",
        cpu_total,
        knl_total,
        knl_total / cpu_total,
        mappings
    ));
    out.push_str("paper: Align 65.42% of CPU / 82.69% of KNL; KNL ~15x slower overall\n");
    out.push_str(crate::SCALE_NOTE);
    out.push('\n');
    out
}
