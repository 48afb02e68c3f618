//! Backend execution comparison — the unified `AlignBackend` seam run
//! end-to-end (DESIGN.md §9, §11).
//!
//! One dataset, three runs of `manymap map`'s pipeline (`session::map_reads`
//! at one thread), each under an `ExecConfig` a user can pick on the
//! command line (every session supervised): the CPU SIMD backend, the
//! simulated GPU/SIMT backend, and a shrunken device that forces the
//! oversized-pair fallback path. (The bare-backend vs. supervised vs.
//! binned submit seam is timed by `benchmark/`'s `exec.submit_*_s` layer
//! metrics.) All variants must agree on every mapping (the backends are
//! bit-identical); the table reports what each one did — jobs, DP cells,
//! fallbacks, pool traffic, jobs the host executor ran in lane groups —
//! alongside its Align seconds (dispatch plus finalize), and
//! [`run_with_json`] additionally serializes the counters for the committed
//! `BENCH_backend_exec.json` baseline.

use std::sync::Arc;

use manymap::baselines::BaselineId;
use manymap::session::map_reads;
use manymap::{ExecConfig, MapSession};
use mmm_exec::{BackendKind, BackendStats};
use mmm_index::ShardedIndex;
use mmm_pipeline::lock_unpoisoned;

use crate::{format_table, macrodata, mapped_records};

/// Simulated device memory for the shrunken-device rows: small enough that
/// real gap-fill jobs straddle the fit/fallback boundary (same constant as
/// the xtask oracle's tiny-device session).
const TINY_DEVICE_MEM: u64 = 16_384;

/// The execution configurations compared: `(label, backend, shrunken
/// device)`.
const VARIANTS: [(&str, BackendKind, bool); 3] = [
    ("cpu", BackendKind::Cpu, false),
    ("gpu-sim", BackendKind::GpuSim, false),
    // Shrunken device: some gap fills no longer fit, so the in-submit
    // fallback path becomes visible in the fallback rate.
    ("gpu-tiny", BackendKind::GpuSim, true),
];

struct Row {
    label: &'static str,
    mappings: usize,
    align_seconds: f64,
    stats: BackendStats,
}

impl Row {
    fn jobs_per_sec(&self) -> f64 {
        if self.align_seconds > 0.0 {
            self.stats.jobs as f64 / self.align_seconds
        } else {
            0.0
        }
    }

    fn fallback_rate(&self) -> f64 {
        if self.stats.jobs > 0 {
            self.stats.fallbacks as f64 / self.stats.jobs as f64
        } else {
            0.0
        }
    }
}

pub fn run(quick: bool) -> String {
    run_with_json(quick).0
}

/// One run per [`VARIANTS`] entry over a shared index and read set.
fn profile_variants(n_reads: usize) -> Result<Vec<Row>, String> {
    let ds = macrodata::pacbio(800_000, n_reads);
    let opts = BaselineId::Manymap.map_opts();
    let index = ShardedIndex::build(&[ds.reference()], &opts.idx, 1)
        .map_err(|e| format!("index build failed: {e}"))?;
    let fasta = ds
        .reads_fasta()
        .map_err(|e| format!("in-memory fasta failed: {e}"))?;
    let session = Arc::new(MapSession::new(0, index, opts));

    VARIANTS
        .into_iter()
        .map(|(label, kind, tiny)| {
            let mut cfg = ExecConfig::new(&opts, 1);
            cfg.kind = kind;
            cfg.backend.device_mem = tiny.then_some(TINY_DEVICE_MEM);
            let exec = cfg.open().map_err(|e| format!("{label}: {e}"))?;
            let mut out = Vec::new();
            let run = map_reads(&fasta[..], &mut out, &session, &exec, false, None)
                .map_err(|e| format!("{label} run failed: {e}"))?;
            let stats = *lock_unpoisoned(&exec.stats);
            Ok(Row {
                label,
                mappings: mapped_records(&out),
                align_seconds: run.stats.dispatch_seconds + run.stats.finalize_seconds,
                stats,
            })
        })
        .collect()
}

/// Run the comparison; returns the human table and the JSON document the
/// `backend_exec` binary writes to `BENCH_backend_exec.json`.
pub fn run_with_json(quick: bool) -> (String, String) {
    let n_reads = if quick { 40 } else { 400 };
    let rows = match profile_variants(n_reads) {
        Ok(rows) => rows,
        Err(e) => {
            let msg = format!("backend_exec: {e}");
            return (msg.clone(), format!("{{\"error\": {msg:?}}}"));
        }
    };

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                format!("{}", r.mappings),
                format!("{:.3}", r.align_seconds),
                format!("{}", r.stats.jobs),
                format!("{:.0}", r.jobs_per_sec()),
                format!("{:.2}", r.stats.cells as f64 / 1e9),
                format!("{}", r.stats.fallbacks),
                format!("{:.1}", r.stats.bytes_pooled as f64 / 1e6),
                format!("{}", r.stats.grouped_jobs),
                format!("{}", r.stats.lane_groups),
            ]
        })
        .collect();

    let mut out = format_table(
        &format!(
            "Backend execution — {} reads through the AlignBackend seam",
            n_reads
        ),
        &[
            "backend",
            "mappings",
            "align (s)",
            "jobs",
            "jobs/s",
            "Gcells",
            "fallbacks",
            "MB pooled",
            "grouped",
            "lane groups",
        ],
        &table_rows,
    );
    let agree = rows.windows(2).all(|w| w[0].mappings == w[1].mappings);
    out.push_str(&format!(
        "mapping agreement across backends: {}\n",
        if agree { "identical" } else { "MISMATCH" }
    ));
    out.push_str("paper: one pipeline, interchangeable processors (§4.5); backend choice changes accounting, never output\n");
    out.push_str(crate::SCALE_NOTE);
    out.push('\n');

    (out, json_report(quick, n_reads, agree, &rows))
}

/// Hand-rolled JSON (the workspace takes no serialization dependency):
/// per-variant counters.
fn json_report(quick: bool, n_reads: usize, agree: bool, rows: &[Row]) -> String {
    let mut j = String::from("{\n");
    j.push_str("  \"experiment\": \"backend_exec\",\n");
    j.push_str(&format!("  \"quick\": {quick},\n"));
    j.push_str(&format!("  \"reads\": {n_reads},\n"));
    j.push_str(&format!("  \"mapping_agreement\": {agree},\n"));
    j.push_str("  \"variants\": [\n");
    for (i, r) in rows.iter().enumerate() {
        j.push_str("    {\n");
        j.push_str(&format!("      \"label\": \"{}\",\n", r.label));
        j.push_str(&format!("      \"mappings\": {},\n", r.mappings));
        j.push_str(&format!(
            "      \"align_seconds\": {:.6},\n",
            r.align_seconds
        ));
        j.push_str(&format!("      \"jobs\": {},\n", r.stats.jobs));
        j.push_str(&format!(
            "      \"jobs_per_sec\": {:.2},\n",
            r.jobs_per_sec()
        ));
        j.push_str(&format!("      \"cells\": {},\n", r.stats.cells));
        j.push_str(&format!("      \"fallbacks\": {},\n", r.stats.fallbacks));
        j.push_str(&format!(
            "      \"fallback_rate\": {:.6},\n",
            r.fallback_rate()
        ));
        j.push_str(&format!(
            "      \"grouped_jobs\": {},\n",
            r.stats.grouped_jobs
        ));
        j.push_str(&format!("      \"lane_groups\": {}\n", r.stats.lane_groups));
        j.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    j.push_str("  ]\n}\n");
    j
}
