//! Sharded-index load and integrity-check cost (DESIGN.md §15).
//!
//! Every index file is a container that checksums each section and is
//! validated on first touch, so the robustness layer has a measurable
//! price: manifest open, cold first-touch (mmap + xxh64 sweep + structural
//! validation of every file — nothing is copied, so this is what opening an
//! index costs), and warm re-touch (the `Arc` cache hit). Beside the times,
//! what a loaded index occupies: bytes mapped (page cache, the kernel's to
//! reclaim) and bytes on the heap (lookup directories and sequence tables),
//! separately. This experiment
//! puts those numbers side by side over the same multi-chromosome
//! reference, as one single-file container (flat) and at 2 and 8 shards —
//! all opened the way `manymap map` opens them — so a regression in either
//! the checksum sweep or the shard cache shows up as a row-level jump in
//! `BENCH_shard_load.json`.

use std::path::PathBuf;
use std::time::Instant;

use mmm_index::{
    build_sharded, save_index, AnyIndex, IdxOpts, MinimizerIndex, ShardOpenOpts, ShardedIndex,
};
use mmm_seq::{nt4_decode, SeqRecord};
use mmm_simreads::{generate_chromosomes, GenomeOpts};

use crate::format_table;

struct Row {
    variant: String,
    file_bytes: u64,
    open_s: f64,
    touch_s: f64,
    warm_s: f64,
    mapped_bytes: usize,
    heap_bytes: usize,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn refs(quick: bool) -> Vec<SeqRecord> {
    let chroms = generate_chromosomes(
        &GenomeOpts {
            len: if quick { 400_000 } else { 4_000_000 },
            seed: 23,
            ..Default::default()
        },
        8,
    );
    chroms
        .iter()
        .enumerate()
        .map(|(i, g)| SeqRecord::new(format!("chr{}", i + 1), nt4_decode(g)))
        .collect()
}

fn rows(quick: bool) -> Result<Vec<Row>, String> {
    let refs = refs(quick);
    let opts = IdxOpts::MAP_ONT;
    let samples = if quick { 3 } else { 5 };
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let mut out = Vec::new();

    // Flat baseline: one container, verified and validated whole at open.
    let flat_path = dir.join(format!("bench-shard-load-flat-{tag}.mmx"));
    let flat =
        MinimizerIndex::build(&refs, &opts).map_err(|e| format!("flat build failed: {e}"))?;
    save_index(&flat, &flat_path).map_err(|e| format!("flat save failed: {e}"))?;
    drop(flat);
    let file_bytes = std::fs::metadata(&flat_path).map_or(0, |m| m.len());
    let mut touch = Vec::new();
    let (mut mapped, mut heap) = (0, 0);
    for _ in 0..samples {
        let start = Instant::now();
        let idx = AnyIndex::open_mmap(&flat_path, ShardOpenOpts::default())
            .map_err(|e| format!("flat load failed: {e}"))?;
        touch.push(start.elapsed().as_secs_f64());
        if let AnyIndex::Flat(idx) = &idx {
            (mapped, heap) = (idx.image_len(), idx.heap_bytes());
        }
    }
    let _ = std::fs::remove_file(&flat_path);
    out.push(Row {
        variant: "flat".into(),
        file_bytes,
        open_s: 0.0,
        touch_s: median(touch),
        warm_s: 0.0,
        mapped_bytes: mapped,
        heap_bytes: heap,
    });

    for n_shards in [2usize, 8] {
        let manifest = dir.join(format!("bench-shard-load-s{n_shards}-{tag}.mmx"));
        let report = build_sharded(&refs, &opts, n_shards, &manifest)
            .map_err(|e| format!("sharded({n_shards}) build failed: {e}"))?;
        let file_bytes = report.manifest_bytes + report.shard_bytes.iter().sum::<u64>();
        let shard_files: Vec<PathBuf> = report.shard_files.clone();

        let (mut open, mut touch, mut warm) = (Vec::new(), Vec::new(), Vec::new());
        let (mut mapped, mut heap) = (0, 0);
        for _ in 0..samples {
            let start = Instant::now();
            let sh = ShardedIndex::open(&manifest)
                .map_err(|e| format!("sharded({n_shards}) open failed: {e}"))?;
            open.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            for s in 0..sh.num_shards() {
                sh.ensure_shard(s)
                    .map_err(|e| format!("sharded({n_shards}) shard {s}: {}", e.reason))?;
            }
            touch.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            (mapped, heap) = (0, 0);
            for s in 0..sh.num_shards() {
                let idx = sh
                    .ensure_shard(s)
                    .map_err(|e| format!("sharded({n_shards}) warm shard {s}: {}", e.reason))?;
                mapped += idx.image_len();
                heap += idx.heap_bytes();
            }
            warm.push(start.elapsed().as_secs_f64());
        }
        let _ = std::fs::remove_file(&manifest);
        for f in shard_files {
            let _ = std::fs::remove_file(&f);
        }
        out.push(Row {
            variant: format!("sharded x{n_shards}"),
            file_bytes,
            open_s: median(open),
            touch_s: median(touch),
            warm_s: median(warm),
            mapped_bytes: mapped,
            heap_bytes: heap,
        });
    }
    Ok(out)
}

pub fn run(quick: bool) -> String {
    run_with_json(quick).0
}

/// Run the load comparison; returns the human table and the JSON document
/// the `shard_load` binary writes to `BENCH_shard_load.json`.
pub fn run_with_json(quick: bool) -> (String, String) {
    let rows = match rows(quick) {
        Ok(rows) => rows,
        Err(e) => {
            let msg = format!("shard_load: {e}");
            return (msg.clone(), format!("{{\"error\": {msg:?}}}"));
        }
    };

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                format!("{:.2}", r.file_bytes as f64 / 1e6),
                format!("{:.3}", r.open_s * 1e3),
                format!("{:.3}", r.touch_s * 1e3),
                format!("{:.3}", r.warm_s * 1e3),
                format!("{:.2}", r.mapped_bytes as f64 / 1e6),
                format!("{:.2}", r.heap_bytes as f64 / 1e6),
            ]
        })
        .collect();
    let out = format_table(
        "Shard load — manifest open, checksummed first-touch, warm re-touch",
        &[
            "variant",
            "disk MB",
            "open (ms)",
            "first-touch (ms)",
            "warm (ms)",
            "mapped MB",
            "heap MB",
        ],
        &table,
    );

    let mut json = String::from("{\n  \"experiment\": \"shard_load\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"variant\": {:?}, \"file_bytes\": {}, \"open_s\": {:.6}, \
             \"touch_s\": {:.6}, \"warm_s\": {:.6}, \"mapped_bytes\": {}, \"heap_bytes\": {}}}{}\n",
            r.variant,
            r.file_bytes,
            r.open_s,
            r.touch_s,
            r.warm_s,
            r.mapped_bytes,
            r.heap_bytes,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    (out, json)
}
