//! Sharded-index load and integrity-check cost (DESIGN.md §15).
//!
//! Every index file is a container that checksums each section and is
//! validated on first touch, so the robustness layer has a measurable
//! price: manifest open, cold first-touch (mmap + xxh64 sweep + structural
//! validation of every file — nothing is copied, so this is what opening an
//! index costs), and warm re-touch (the `Arc` cache hit). First touch is
//! split into its two steps: `verify_s`, the checksum pass over a fresh
//! mapping of every file, and `validate_s`, the rest (structural checks and
//! the lookup directory), which is the whole touch less the checksum pass
//! timed on the same sample. Beside the times, what a loaded index
//! occupies: bytes mapped (page cache, the kernel's to reclaim) and bytes
//! on the heap (lookup directories and sequence tables), separately. This
//! experiment puts those numbers side by side over the same
//! multi-chromosome reference, as one single-file container (flat) and at
//! 2, 4 and 8 shards — all opened the way `manymap map` opens them — plus
//! the 4-shard index touched cold by two threads seeding at once, as the
//! mapper's workers do: the wall from their release to both having their
//! anchors. Every row also times building its files at 1 and 2 threads
//! (`build_s`, each build checked to write the 1-thread bytes). A
//! regression in the build, the checksum sweep, the validation walk, the
//! shard cache or concurrent first touch shows up as a row-level jump in
//! `BENCH_shard_load.json`.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use mmm_index::{
    build_sharded, container_section_ranges, save_index, IdxOpts, MinimizerIndex, ShardOpenOpts,
    ShardedIndex,
};
use mmm_io::Mmap;
use mmm_seq::{nt4_decode, SeqRecord};
use mmm_simreads::{generate_chromosomes, GenomeOpts};

use crate::format_table;

struct Row {
    variant: String,
    /// Wall of building and writing the row's files at 1 and 2 threads.
    build_s: [f64; 2],
    file_bytes: u64,
    open_s: f64,
    /// `None` on the two-thread row, whose touch is one wall.
    verify_s: Option<f64>,
    validate_s: Option<f64>,
    touch_s: f64,
    warm_s: f64,
    mapped_bytes: usize,
    heap_bytes: usize,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Eight chromosomes as 2-bit codes.
fn chroms(quick: bool) -> Vec<Vec<u8>> {
    generate_chromosomes(
        &GenomeOpts {
            len: if quick { 400_000 } else { 4_000_000 },
            seed: 23,
            ..Default::default()
        },
        8,
    )
}

/// Seconds the checksum pass takes over fresh mappings of `files`.
fn verify_files(files: &[PathBuf]) -> Result<f64, String> {
    let start = Instant::now();
    for f in files {
        let map = Mmap::open(f).map_err(|e| format!("{}: {e}", f.display()))?;
        container_section_ranges(&map).map_err(|e| format!("{}: {e}", f.display()))?;
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Median walls of `samples` runs of `build` (which writes files and
/// returns their paths) at 1 and at 2 threads. Every run must write the
/// bytes the first 1-thread run wrote.
fn build_walls(
    samples: usize,
    build: impl Fn(usize) -> Result<Vec<PathBuf>, String>,
) -> Result<[f64; 2], String> {
    let mut gold: Option<Vec<Vec<u8>>> = None;
    let mut walls = [0.0; 2];
    for (wall, threads) in walls.iter_mut().zip([1, 2]) {
        let mut times = Vec::new();
        for _ in 0..samples {
            let start = Instant::now();
            let files = build(threads)?;
            times.push(start.elapsed().as_secs_f64());
            let bytes = files
                .iter()
                .map(|f| std::fs::read(f).map_err(|e| format!("{}: {e}", f.display())))
                .collect::<Result<Vec<_>, _>>()?;
            match &gold {
                Some(g) if *g != bytes => {
                    return Err(format!("the {threads}-thread build wrote other bytes"))
                }
                Some(_) => {}
                None => gold = Some(bytes),
            }
        }
        *wall = median(times);
    }
    Ok(walls)
}

fn flat_row(refs: &[SeqRecord], samples: usize, path: &Path) -> Result<Row, String> {
    let opts = IdxOpts::MAP_ONT;
    let build_s = build_walls(samples, |threads| {
        let flat = MinimizerIndex::build(refs, &opts, threads)
            .map_err(|e| format!("flat build failed: {e}"))?;
        save_index(&flat, path).map_err(|e| format!("flat save failed: {e}"))?;
        Ok(vec![path.to_path_buf()])
    })?;
    let file_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    let (mut verify, mut touch) = (Vec::new(), Vec::new());
    let (mut mapped, mut heap) = (0, 0);
    for _ in 0..samples {
        verify.push(verify_files(&[path.to_path_buf()])?);
        let start = Instant::now();
        let sh = ShardedIndex::open(path, ShardOpenOpts::default())
            .map_err(|e| format!("flat load failed: {e}"))?;
        touch.push(start.elapsed().as_secs_f64());
        let idx = sh
            .ensure_shard(0)
            .map_err(|e| format!("flat shard: {}", e.reason))?;
        (mapped, heap) = (idx.image_len(), idx.heap_bytes());
    }
    let _ = std::fs::remove_file(path);
    let (verify_s, validate_s, touch_s) = split(verify, touch);
    Ok(Row {
        variant: "flat".into(),
        build_s,
        file_bytes,
        open_s: 0.0,
        verify_s,
        validate_s,
        touch_s,
        warm_s: 0.0,
        mapped_bytes: mapped,
        heap_bytes: heap,
    })
}

/// Medians of a split first touch: `(verify_s, validate_s, touch_s)`,
/// where each sample's validation is its touch less its checksum pass.
fn split(verify: Vec<f64>, touch: Vec<f64>) -> (Option<f64>, Option<f64>, f64) {
    let validate = touch
        .iter()
        .zip(&verify)
        .map(|(t, v)| (t - v).max(0.0))
        .collect();
    (Some(median(verify)), Some(median(validate)), median(touch))
}

/// Touch every shard of the index at `manifest` from one thread, in order.
fn sharded_row(
    n_shards: usize,
    samples: usize,
    manifest: &Path,
    shard_files: &[PathBuf],
    file_bytes: u64,
    build_s: [f64; 2],
) -> Result<Row, String> {
    let (mut open, mut verify, mut touch, mut warm) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut mapped, mut heap) = (0, 0);
    for _ in 0..samples {
        verify.push(verify_files(shard_files)?);
        let start = Instant::now();
        let sh = ShardedIndex::open(manifest, ShardOpenOpts::default())
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
    let (verify_s, validate_s, touch_s) = split(verify, touch);
    Ok(Row {
        variant: format!("sharded x{n_shards}"),
        build_s,
        file_bytes,
        open_s: median(open),
        verify_s,
        validate_s,
        touch_s,
        warm_s: median(warm),
        mapped_bytes: mapped,
        heap_bytes: heap,
    })
}

/// Two threads seed `query` — which touches every shard — through a fresh
/// index at once; `touch_s` is the wall from their release until both
/// have their anchors, `warm_s` the same seeding once every shard is in.
fn two_thread_row(
    n_shards: usize,
    samples: usize,
    manifest: &Path,
    file_bytes: u64,
    build_s: [f64; 2],
    query: &[u8],
) -> Result<Row, String> {
    let (mut open, mut touch, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    let (mut mapped, mut heap) = (0, 0);
    for _ in 0..samples {
        let start = Instant::now();
        let sh = ShardedIndex::open(manifest, ShardOpenOpts::default())
            .map_err(|e| format!("sharded({n_shards}) open failed: {e}"))?;
        open.push(start.elapsed().as_secs_f64());
        for wall in [&mut touch, &mut warm] {
            let ready = Barrier::new(3);
            let seeded = std::thread::scope(|s| {
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            ready.wait();
                            sh.collect_anchors(query).map(|a| a.len())
                        })
                    })
                    .collect();
                ready.wait();
                let start = Instant::now();
                let seeded: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
                wall.push(start.elapsed().as_secs_f64());
                seeded
            });
            for r in seeded {
                match r {
                    Ok(Ok(_)) => {}
                    Ok(Err(e)) => return Err(format!("sharded({n_shards}) 2 threads: {e}")),
                    Err(_) => {
                        return Err(format!("sharded({n_shards}) 2 threads: a worker panicked"))
                    }
                }
            }
        }
        let loads: u64 = sh.health().iter().map(|h| h.loads).sum();
        if loads != n_shards as u64 {
            return Err(format!(
                "sharded({n_shards}) 2 threads: {loads} shard loads"
            ));
        }
        (mapped, heap) = (0, 0);
        for idx in (0..n_shards).filter_map(|s| sh.ensure_shard(s).ok()) {
            mapped += idx.image_len();
            heap += idx.heap_bytes();
        }
    }
    Ok(Row {
        variant: format!("sharded x{n_shards}, 2 threads"),
        build_s,
        file_bytes,
        open_s: median(open),
        verify_s: None,
        validate_s: None,
        touch_s: median(touch),
        warm_s: median(warm),
        mapped_bytes: mapped,
        heap_bytes: heap,
    })
}

fn rows(quick: bool) -> Result<Vec<Row>, String> {
    let chroms = chroms(quick);
    let refs: Vec<SeqRecord> = chroms
        .iter()
        .enumerate()
        .map(|(i, g)| SeqRecord::new(format!("chr{}", i + 1), nt4_decode(g)))
        .collect();
    let samples = if quick { 3 } else { 5 };
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let mut out = vec![flat_row(
        &refs,
        samples,
        &dir.join(format!("bench-shard-load-flat-{tag}.mmx")),
    )?];

    // 1 kb of every chromosome: a read that touches every shard.
    let query: Vec<u8> = chroms
        .iter()
        .flat_map(|g| g[5_000..6_000].to_vec())
        .collect();
    for n_shards in [2usize, 4, 8] {
        let manifest = dir.join(format!("bench-shard-load-s{n_shards}-{tag}.mmx"));
        let build = |threads| {
            build_sharded(&refs, &IdxOpts::MAP_ONT, n_shards, threads, &manifest)
                .map_err(|e| format!("sharded({n_shards}) build failed: {e}"))
        };
        let build_s = build_walls(samples, |threads| {
            let report = build(threads)?;
            Ok([manifest.clone()]
                .into_iter()
                .chain(report.shard_files)
                .collect())
        })?;
        let report = build(1)?;
        let file_bytes = report.manifest_bytes + report.shard_bytes.iter().sum::<u64>();
        let files = &report.shard_files;
        let rows =
            sharded_row(n_shards, samples, &manifest, files, file_bytes, build_s).and_then(|r| {
                let mut rows = vec![r];
                if n_shards == 4 {
                    rows.push(two_thread_row(
                        n_shards, samples, &manifest, file_bytes, build_s, &query,
                    )?);
                }
                Ok(rows)
            });
        let _ = std::fs::remove_file(&manifest);
        for f in files {
            let _ = std::fs::remove_file(f);
        }
        out.extend(rows?);
    }
    Ok(out)
}

pub fn run(quick: bool) -> String {
    run_with_json(quick).0
}

/// Milliseconds for the table, or a dash where the row has no value.
fn ms(s: Option<f64>) -> String {
    s.map_or("-".into(), |s| format!("{:.3}", s * 1e3))
}

/// Seconds for the JSON, `null` where the row has no value.
fn secs(s: Option<f64>) -> String {
    s.map_or("null".into(), |s| format!("{s:.6}"))
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
                ms(Some(r.build_s[0])),
                ms(Some(r.build_s[1])),
                format!("{:.2}", r.file_bytes as f64 / 1e6),
                ms(Some(r.open_s)),
                ms(r.verify_s),
                ms(r.validate_s),
                ms(Some(r.touch_s)),
                ms(Some(r.warm_s)),
                format!("{:.2}", r.mapped_bytes as f64 / 1e6),
                format!("{:.2}", r.heap_bytes as f64 / 1e6),
            ]
        })
        .collect();
    let out = format_table(
        "Shard load — build at 1 and 2 threads, manifest open, checksummed first-touch, warm re-touch",
        &[
            "variant",
            "build 1t (ms)",
            "build 2t (ms)",
            "disk MB",
            "open (ms)",
            "verify (ms)",
            "validate (ms)",
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
            "    {{\"variant\": {:?}, \"build_s\": {{\"threads_1\": {:.6}, \"threads_2\": {:.6}}}, \
             \"file_bytes\": {}, \"open_s\": {:.6}, \
             \"verify_s\": {}, \"validate_s\": {}, \"touch_s\": {:.6}, \
             \"warm_s\": {:.6}, \"mapped_bytes\": {}, \"heap_bytes\": {}}}{}\n",
            r.variant,
            r.build_s[0],
            r.build_s[1],
            r.file_bytes,
            r.open_s,
            secs(r.verify_s),
            secs(r.validate_s),
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
