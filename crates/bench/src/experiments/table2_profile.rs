//! Table 2 — performance breakdown of (original) minimap2, one thread,
//! CPU vs KNL (§4.1).
//!
//! The CPU column is *measured*: a single-threaded run of the production
//! `MapSession` stages (`manymap::profile_run`) in the minimap2
//! configuration (Eq. 3 SSE kernel, CPU backend) over the scaled PacBio
//! dataset; Load Index is measured through the one mmap loader. The KNL
//! column applies the calibrated per-stage slowdowns of the machine model
//! (its read-vs-mmap factor lives there, in `mmm-knl`). Paper shape: Align dominates
//! (65% on CPU, 83% on KNL) and every stage is several times slower on one
//! KNL core.

use manymap::baselines::BaselineId;
use manymap::{profile_run, ExecConfig, ProfileConfig, ProfileResult};
use mmm_index::{save_index, MinimizerIndex};
use mmm_io::Stage;
use mmm_knl::KNL_7210;

use crate::{format_table, macrodata};

/// The measured CPU column: one profiled run of the minimap2 configuration.
fn profile(quick: bool) -> Result<ProfileResult, String> {
    let n_reads = if quick { 50 } else { 800 };
    let ds = macrodata::pacbio(1_000_000, n_reads);
    let opts = BaselineId::Minimap2.map_opts();
    let index = MinimizerIndex::build(&[ds.reference()], &opts.idx)
        .map_err(|e| format!("index build failed: {e}"))?;
    let fasta = ds
        .reads_fasta()
        .map_err(|e| format!("in-memory fasta failed: {e}"))?;
    let idx_path = std::env::temp_dir().join(format!("bench-table2-{}.mmx", std::process::id()));
    save_index(&index, &idx_path).map_err(|e| format!("index serialization failed: {e}"))?;
    let cfg = ProfileConfig {
        opts,
        exec: ExecConfig::new(&opts, 1),
    };
    let res = profile_run(&idx_path, &fasta, &cfg);
    let _ = std::fs::remove_file(&idx_path);
    res.map_err(|e| format!("profiled run failed: {e}"))
}

pub fn run(quick: bool) -> String {
    let res = match profile(quick) {
        Ok(res) => res,
        Err(e) => return format!("table2_profile: {e}"),
    };

    // KNL column: calibrated per-stage slowdowns (Table 2 ratios).
    let m = KNL_7210;
    let knl = |stage: Stage, secs: f64| -> f64 {
        match stage {
            Stage::LoadIndex => m.read_time(secs, false),
            Stage::LoadQuery => m.read_time(secs, false) * (8.3 / 6.1),
            Stage::SeedChain => m.seedchain_time(secs),
            Stage::Align => m.align_time(secs),
            Stage::Output => m.write_time(secs),
        }
    };

    let cpu_total = res.timer.total().as_secs_f64();
    let knl_times: Vec<(Stage, f64, f64)> = Stage::ALL
        .iter()
        .map(|&s| {
            let c = res.timer.get(s).as_secs_f64();
            (s, c, knl(s, c))
        })
        .collect();
    let knl_total: f64 = knl_times.iter().map(|r| r.2).sum();

    let rows: Vec<Vec<String>> = knl_times
        .iter()
        .map(|&(s, c, k)| {
            vec![
                s.label().to_string(),
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
            res.reads
        ),
        &["stage", "CPU time (s)", "CPU %", "KNL time (s)", "KNL %"],
        &rows,
    );
    out.push_str(&format!(
        "totals: CPU {:.3}s, KNL {:.3}s ({:.1}x); {} mappings\n",
        cpu_total,
        knl_total,
        knl_total / cpu_total,
        res.mappings
    ));
    out.push_str("paper: Align 65.42% of CPU / 82.69% of KNL; KNL ~15x slower overall\n");
    out.push_str(crate::SCALE_NOTE);
    out.push('\n');
    out
}
