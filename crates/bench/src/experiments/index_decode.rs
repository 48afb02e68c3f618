//! Posting-list decode throughput and the packed index under the mapper.
//!
//! Four tables: (1) the two decoders alone — the posting cursor's walk
//! (Mhits/s) per delta bit width over the multi-hit buckets of a
//! tandem-repeat index, and the reference window decoder (`unpack_nt4`,
//! the 256-entry table) beside its per-base scalar gold at the window
//! lengths the mapper fetches and a long one; (2) sketch alone — Mbases/s of the minimizer
//! sketcher over an ONT read set at both presets, and of the whole seeding
//! call (`ShardedIndex::collect_anchors`: sketch, filter probes, lookups,
//! anchors) over 1 kb fragments and decoys, on a 4-shard index and on a
//! single-file one; (3) lookup alone — ns
//! per `hit_count` probe, present and absent hashes in random order, over a
//! whole-genome-sized key array and a shard-sized one, so the seeding
//! layer's probe cost has a number of its own; (4) the whole pipeline over
//! an mmap-loaded index, with its posting bytes next to the
//! 8-bytes-per-hit floor a flat hit array would need. [`run_with_json`]
//! serializes the tables for the committed `BENCH_index_decode.json`
//! baseline.

use std::sync::Arc;
use std::time::Instant;

use manymap::baselines::BaselineId;
use manymap::session::{load_index_any, map_reads};
use manymap::{ExecConfig, MapSession};
use mmm_index::minimizer::{minimizers, minimizers_hpc};
use mmm_index::unpack;
use mmm_index::{build_sharded, save_index, BucketRef, IdxOpts, MinimizerIndex, ShardedIndex};
use mmm_seq::{nt4_decode, SeqRecord};
use mmm_simreads::{
    generate_chromosomes, generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts,
};

use crate::{format_table, macrodata, mapped_records};

/// Tandem-repeat units the cursor rows are built from: a unit of `u`
/// bases repeated end to end leaves each of its minimizers one bucket whose
/// deltas are all `2u` (a packed hit is `pos << 1 | strand`), so the
/// buckets of chromosome `i` pack at `bits(2u)` bits: 7, 11, 14 and 17.
const REPEAT_UNITS: [usize; 4] = [60, 1_000, 8_000, 60_000];

/// Window lengths the window-decode rows time: the mapper's gap fills and
/// extension windows are 15–170 bases, and the benchmark trace decodes
/// kb-long record spans.
const WINDOW_LENS: [usize; 5] = [16, 64, 128, 512, 4_096];

/// The posting cursor over every multi-hit bucket of one delta width.
struct CursorRow {
    width: u32,
    buckets: usize,
    hits: usize,
    mhits_per_s: f64,
}

/// The window decoder beside its scalar gold at one window length.
struct WindowRow {
    bases: usize,
    scalar_gbases_per_s: f64,
    table_gbases_per_s: f64,
}

/// Throughput of one seeding-layer call over a read set.
struct SketchRow {
    what: &'static str,
    reads: usize,
    bases: usize,
    /// Minimizers sketched, or anchors collected.
    out: usize,
    seconds: f64,
}

impl SketchRow {
    fn mbases_per_s(&self) -> f64 {
        if self.seconds > 0.0 {
            self.bases as f64 / self.seconds / 1e6
        } else {
            0.0
        }
    }
}

/// Probe cost of one index: the seeding layer pays one of these per query
/// minimizer.
struct LookupRow {
    keys: usize,
    hit_ns: f64,
    miss_ns: f64,
}

struct MapRow {
    index_bytes: usize,
    posting_bytes: usize,
    /// What the same hits cost as one `u64` each.
    flat_posting_bytes: usize,
    load_seconds: f64,
    map_seconds: f64,
    reads_per_sec: f64,
    mappings: usize,
}

/// Time `f` over enough repetitions to produce ~`budget` units of output
/// at `per_call` units a call; returns units per second.
fn rate(per_call: usize, budget: usize, mut f: impl FnMut()) -> f64 {
    let reps = (budget / per_call.max(1)).max(4);
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    let dt = t0.elapsed().as_secs_f64();
    if dt > 0.0 {
        (reps * per_call) as f64 / dt
    } else {
        0.0
    }
}

/// Random bytes from an LCG's top bits (its low bits repeat within a few
/// kb; the bench crate keeps the decode inputs dependency-free).
fn lcg_bytes(mut state: u64) -> impl FnMut() -> u8 {
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 56) as u8
    }
}

/// One chromosome per [`REPEAT_UNITS`] entry, each ≈ 240 kb of its unit
/// repeated; then every bucket of ≥ 2 hits, grouped by delta width, walked
/// by the cursor the seeding layer uses.
fn cursor_rows(quick: bool) -> Result<Vec<CursorRow>, String> {
    let mut next = lcg_bytes(0x1234_5678_9ABC_DEF0);
    let refs: Vec<SeqRecord> = REPEAT_UNITS
        .iter()
        .enumerate()
        .map(|(i, &u)| {
            let unit: Vec<u8> = (0..u).map(|_| next() & 3).collect();
            let chrom: Vec<u8> = unit
                .iter()
                .cycle()
                .take(240_000.max(4 * u))
                .copied()
                .collect();
            SeqRecord::new(format!("chr{i}"), nt4_decode(&chrom))
        })
        .collect();
    let idx = MinimizerIndex::build(&refs, &IdxOpts::MAP_ONT, 1)
        .map_err(|e| format!("cursor index build failed: {e}"))?;
    let mut by_width: Vec<(u32, Vec<BucketRef>)> = Vec::new();
    for h in idx.hashes() {
        let Some(r) = idx.lookup(h).filter(|r| r.count() > 1) else {
            continue;
        };
        match by_width.iter_mut().find(|(w, _)| *w == r.width()) {
            Some((_, rs)) => rs.push(r),
            None => by_width.push((r.width(), vec![r])),
        }
    }
    by_width.sort_by_key(|(w, _)| *w);
    let budget = if quick { 1 << 24 } else { 1 << 28 };
    Ok(by_width
        .into_iter()
        .map(|(width, buckets)| {
            let hits: usize = buckets.iter().map(|r| r.count() as usize).sum();
            let mhits_per_s = rate(hits, budget, || {
                let sum = buckets
                    .iter()
                    .flat_map(|&r| idx.cursor(r))
                    .fold(0u64, u64::wrapping_add);
                std::hint::black_box(sum);
            }) / 1e6;
            CursorRow {
                width,
                buckets: buckets.len(),
                hits,
                mhits_per_s,
            }
        })
        .collect())
}

/// Both window decoders over windows of each [`WINDOW_LENS`] length, their
/// starts stepping through a 64 kbase packed sequence so every start
/// offset mod 4 comes up.
fn window_rows(quick: bool) -> Vec<WindowRow> {
    let budget = if quick { 1 << 24 } else { 1 << 28 };
    let mut next = lcg_bytes(0x9E37_79B9_7F4A_7C15);
    let n_bases = 1usize << 16;
    let packed: Vec<u8> = (0..n_bases / 4).map(|_| next()).collect();
    let mut buf = vec![0u8; *WINDOW_LENS.last().unwrap_or(&0)];
    WINDOW_LENS
        .iter()
        .map(|&len| {
            let mut time = |decode: fn(&[u8], usize, usize, &mut [u8])| {
                let mut start = 0usize;
                rate(len, budget, || {
                    start = (start + 4_099) % (n_bases - len);
                    decode(&packed, start, start + len, &mut buf[..len]);
                    std::hint::black_box(buf[len - 1]);
                }) / 1e9
            };
            WindowRow {
                bases: len,
                scalar_gbases_per_s: time(unpack::unpack_nt4_scalar),
                table_gbases_per_s: time(unpack::unpack_nt4),
            }
        })
        .collect()
}

/// ns per probe over `probes`, which are all present (`hit`) or all absent.
fn probe_ns(idx: &MinimizerIndex, probes: &[u64], hit: bool, rounds: usize) -> f64 {
    let t0 = Instant::now();
    let mut found = 0usize;
    for _ in 0..rounds {
        for &h in probes {
            found += usize::from(idx.hit_count(std::hint::black_box(h)) > 0);
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(found, if hit { probes.len() * rounds } else { 0 });
    dt * 1e9 / (probes.len() * rounds) as f64
}

/// Best-of-`rounds` seconds of `f` over `reads`; `f` returns a count that
/// must repeat across rounds.
fn best_of(rounds: usize, reads: &[Vec<u8>], mut f: impl FnMut(&[u8]) -> usize) -> (usize, f64) {
    let mut best = f64::INFINITY;
    let mut count = None;
    for _ in 0..rounds {
        let t0 = Instant::now();
        let n: usize = reads.iter().map(|r| f(std::hint::black_box(r))).sum();
        best = best.min(t0.elapsed().as_secs_f64());
        assert!(count.is_none_or(|c| c == n), "a sketch did not repeat");
        count = Some(n);
    }
    (count.unwrap_or(0), best)
}

/// The sketcher alone over a seeded ONT read set, at map-ont (k15 w10) and
/// map-pb (k19 w10, HPC); then the whole seeding call on `frag_screen`'s
/// shape: a 4-shard index of 8 Mbp in 4 chromosomes, ONT reads cut into
/// 1 kb fragments, and three times as many 1 kb decoys from an unrelated
/// genome; and the same call over a single-file index of the same
/// reference (one shard, no filter).
fn sketch_rows(quick: bool) -> Result<Vec<SketchRow>, String> {
    let scale = if quick { 8 } else { 1 };
    let rounds = if quick { 3 } else { 9 };
    let reads: Vec<Vec<u8>> = macrodata::nanopore(2_000_000, 400 / scale)
        .reads
        .into_iter()
        .map(|r| r.seq)
        .collect();
    let bases = reads.iter().map(Vec::len).sum();
    let mut rows = Vec::new();
    for (what, opts, sketch) in [
        (
            "sketch map-ont (k15 w10)",
            IdxOpts::MAP_ONT,
            minimizers as fn(&[u8], usize, usize) -> _,
        ),
        (
            "sketch map-pb (k19 w10 HPC)",
            IdxOpts::MAP_PB,
            minimizers_hpc,
        ),
    ] {
        let (out, seconds) = best_of(rounds, &reads, |r| sketch(r, opts.k, opts.w).len());
        rows.push(SketchRow {
            what,
            reads: reads.len(),
            bases,
            out,
            seconds,
        });
    }

    let chroms = generate_chromosomes(
        &GenomeOpts {
            len: 8_000_000 / scale,
            repeat_frac: 0.0,
            seed: 11,
            ..Default::default()
        },
        4,
    );
    let decoy_genome = generate_genome(&GenomeOpts {
        len: 2_000_000 / scale,
        repeat_frac: 0.0,
        seed: 12,
        ..Default::default()
    });
    let mut frags: Vec<Vec<u8>> = Vec::new();
    for (i, chrom) in chroms.iter().enumerate() {
        let sim = SimOpts {
            platform: Platform::Nanopore,
            num_reads: 60 / scale,
            seed: 20 + i as u64,
        };
        for read in simulate_reads(chrom, &sim) {
            frags.extend(read.seq.chunks_exact(1_000).map(<[u8]>::to_vec));
        }
    }
    let decoys = 3 * frags.len();
    frags.extend(
        decoy_genome
            .chunks_exact(1_000)
            .cycle()
            .step_by(7)
            .take(decoys)
            .map(<[u8]>::to_vec),
    );
    let refs: Vec<SeqRecord> = chroms
        .iter()
        .enumerate()
        .map(|(i, c)| SeqRecord::new(format!("chr{}", i + 1), nt4_decode(c)))
        .collect();
    let dir = std::env::temp_dir().join(format!("bench-sketch-shards-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir: {e}"))?;
    let manifest = dir.join("ref.mmx");
    let flat = dir.join("flat.mmx");
    let seed = |path: &std::path::Path| {
        ShardedIndex::open(path, Default::default())
            .map_err(|e| format!("open failed: {e}"))
            .map(|sh| {
                // A warm-up round loads every shard the fragments touch.
                best_of(rounds + 1, &frags, |r| {
                    sh.collect_anchors(r).map_or(0, |a| a.len())
                })
            })
    };
    let seeded = build_sharded(&refs, &IdxOpts::MAP_ONT, 4, 1, &manifest)
        .map_err(|e| format!("sharded build failed: {e}"))
        .and_then(|_| seed(&manifest))
        .and_then(|sharded| {
            let idx = MinimizerIndex::build(&refs, &IdxOpts::MAP_ONT, 1)
                .map_err(|e| format!("flat build failed: {e}"))?;
            save_index(&idx, &flat).map_err(|e| format!("save failed: {e}"))?;
            Ok((sharded, seed(&flat)?))
        });
    let _ = std::fs::remove_dir_all(&dir);
    let (sharded, flat) = seeded?;
    for (what, (anchors, seconds)) in [
        (
            "collect_anchors, 4 shards (1 kb frags + 3x decoys)",
            sharded,
        ),
        ("collect_anchors, flat (1 shard, no filter)", flat),
    ] {
        rows.push(SketchRow {
            what,
            reads: frags.len(),
            bases: frags.iter().map(Vec::len).sum(),
            out: anchors,
            seconds,
        });
    }
    Ok(rows)
}

/// One row per genome length: 8 Mbp gives ≈ 1.5 M map-ont keys (a flat
/// index of the size ISSUE 24 measured), 2 Mbp ≈ 0.37 M (one of its four
/// shards). Probes are visited in a scrambled order, as a read's
/// minimizers arrive; the absent ones are uniform over the hash range.
fn lookup_rows(quick: bool) -> Result<Vec<LookupRow>, String> {
    let scale = if quick { 8 } else { 1 };
    let mut rows = Vec::new();
    for len in [8_000_000 / scale, 2_000_000 / scale] {
        let genome = generate_genome(&GenomeOpts {
            len,
            repeat_frac: 0.0,
            seed: 11,
            ..Default::default()
        });
        let idx = MinimizerIndex::build(
            &[SeqRecord::new("chr1", nt4_decode(&genome))],
            &IdxOpts::MAP_ONT,
            1,
        )
        .map_err(|e| format!("lookup index build failed: {e}"))?;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let n = 200_000usize;
        let keys: Vec<u64> = idx.hashes().collect();
        let hits: Vec<u64> = (0..n).map(|_| keys[next() as usize % keys.len()]).collect();
        // Absent hashes from the same 2k-bit range the present ones fill.
        let mask = (1u64 << (2 * idx.k)) - 1;
        let misses: Vec<u64> = std::iter::repeat_with(|| next() & mask)
            .filter(|&h| idx.hit_count(h) == 0)
            .take(n)
            .collect();
        let rounds = if quick { 2 } else { 10 };
        rows.push(LookupRow {
            keys: keys.len(),
            hit_ns: probe_ns(&idx, &hits, true, rounds),
            miss_ns: probe_ns(&idx, &misses, false, rounds),
        });
    }
    Ok(rows)
}

fn map_row(quick: bool) -> Result<MapRow, String> {
    let n_reads = if quick { 40 } else { 300 };
    let ds = macrodata::pacbio(800_000, n_reads);
    let opts = BaselineId::Manymap.map_opts();

    let fasta = ds
        .reads_fasta()
        .map_err(|e| format!("in-memory fasta failed: {e}"))?;

    let index = MinimizerIndex::build(&[ds.reference()], &opts.idx, 1)
        .map_err(|e| format!("index build failed: {e}"))?;
    let posting_bytes = index.posting_bytes();
    let flat_posting_bytes = index.num_positions() * 8;
    let idx_path =
        std::env::temp_dir().join(format!("bench-index-decode-{}.mmx", std::process::id()));
    save_index(&index, &idx_path).map_err(|e| format!("save failed: {e}"))?;
    drop(index);

    let cfg = ExecConfig::new(&opts, 1);
    let exec = cfg.open().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let index = load_index_any(&idx_path, &opts, cfg.shard_open_opts(), 1);
    let load_seconds = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&idx_path);
    let index = index.map_err(|e| format!("load failed: {e}"))?;
    let index_bytes = index.image_len();
    let session = Arc::new(MapSession::new(0, index, opts));
    let mut out = Vec::new();
    let run = map_reads(&fasta[..], &mut out, &session, &exec, false, None)
        .map_err(|e| format!("run failed: {e}"))?;
    let s = run.stats;
    let map_seconds = s.plan_seconds + s.dispatch_seconds + s.finalize_seconds;
    Ok(MapRow {
        index_bytes,
        posting_bytes,
        flat_posting_bytes,
        load_seconds,
        map_seconds,
        reads_per_sec: if map_seconds > 0.0 {
            s.items as f64 / map_seconds
        } else {
            0.0
        },
        mappings: mapped_records(&out),
    })
}

pub fn run(quick: bool) -> String {
    run_with_json(quick).0
}

/// Run the decode + map comparison; returns the human tables and the JSON
/// document the `index_decode` binary writes to `BENCH_index_decode.json`.
pub fn run_with_json(quick: bool) -> (String, String) {
    let windows = window_rows(quick);
    let rows = cursor_rows(quick)
        .and_then(|c| Ok((c, sketch_rows(quick)?, lookup_rows(quick)?, map_row(quick)?)));
    let (cursors, sketches, lookups, r) = match rows {
        Ok(rows) => rows,
        Err(e) => {
            let msg = format!("index_decode: {e}");
            return (msg.clone(), format!("{{\"error\": {msg:?}}}"));
        }
    };

    let cursor_table: Vec<Vec<String>> = cursors
        .iter()
        .map(|c| {
            vec![
                c.width.to_string(),
                c.buckets.to_string(),
                c.hits.to_string(),
                format!("{:.0}", c.mhits_per_s),
            ]
        })
        .collect();
    let mut out = format_table(
        "Index decode — posting cursor walk per delta width (multi-hit buckets)",
        &["width (bits)", "buckets", "hits", "Mhits/s"],
        &cursor_table,
    );
    let window_table: Vec<Vec<String>> = windows
        .iter()
        .map(|w| {
            vec![
                w.bases.to_string(),
                format!("{:.2}", w.scalar_gbases_per_s),
                format!("{:.2}", w.table_gbases_per_s),
            ]
        })
        .collect();
    out.push_str(&format_table(
        &format!(
            "Index decode — reference window decode ({} vs scalar gold)",
            unpack::best_tier_label()
        ),
        &["window (bases)", "scalar Gbases/s", "table Gbases/s"],
        &window_table,
    ));

    let sketch_table: Vec<Vec<String>> = sketches
        .iter()
        .map(|s| {
            vec![
                s.what.to_string(),
                s.reads.to_string(),
                format!("{:.2}", s.bases as f64 / 1e6),
                s.out.to_string(),
                format!("{:.4}", s.seconds),
                format!("{:.1}", s.mbases_per_s()),
            ]
        })
        .collect();
    out.push_str(&format_table(
        "Index decode — sketch alone (ONT reads, one thread, best of rounds)",
        &[
            "call",
            "reads",
            "Mbases",
            "minimizers / anchors",
            "seconds",
            "Mbases/s",
        ],
        &sketch_table,
    ));

    let lookup_table: Vec<Vec<String>> = lookups
        .iter()
        .map(|l| {
            vec![
                l.keys.to_string(),
                format!("{:.1}", l.hit_ns),
                format!("{:.1}", l.miss_ns),
            ]
        })
        .collect();
    out.push_str(&format_table(
        "Index decode — lookup alone (random order, one probe per minimizer)",
        &["keys", "hit ns/probe", "miss ns/probe"],
        &lookup_table,
    ));

    out.push_str(&format_table(
        "Index decode — end-to-end map throughput on the packed index",
        &[
            "index MB",
            "postings MB",
            "flat floor MB",
            "load (s)",
            "map (s)",
            "reads/s",
            "mappings",
        ],
        &[vec![
            format!("{:.2}", r.index_bytes as f64 / 1e6),
            format!("{:.2}", r.posting_bytes as f64 / 1e6),
            format!("{:.2}", r.flat_posting_bytes as f64 / 1e6),
            format!("{:.3}", r.load_seconds),
            format!("{:.3}", r.map_seconds),
            format!("{:.1}", r.reads_per_sec),
            format!("{}", r.mappings),
        ]],
    ));
    if r.posting_bytes > 0 {
        out.push_str(&format!(
            "posting section: {:.2}x smaller than 8 bytes per hit\n",
            r.flat_posting_bytes as f64 / r.posting_bytes as f64
        ));
    }
    out.push_str(
        "paper: the KNL result is a bandwidth story — a smaller resident index \
         is throughput headroom (§4.4)\n",
    );
    out.push_str(crate::SCALE_NOTE);
    out.push('\n');

    (
        out,
        json_report(quick, &cursors, &windows, &sketches, &lookups, &r),
    )
}

/// Hand-rolled JSON (the workspace takes no serialization dependency).
fn json_report(
    quick: bool,
    cursors: &[CursorRow],
    windows: &[WindowRow],
    sketches: &[SketchRow],
    lookups: &[LookupRow],
    r: &MapRow,
) -> String {
    let mut j = String::from("{\n");
    j.push_str("  \"experiment\": \"index_decode\",\n");
    j.push_str(&format!("  \"quick\": {quick},\n"));
    j.push_str("  \"cursor_walk\": [\n");
    for (i, c) in cursors.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"width\": {}, \"buckets\": {}, \"hits\": {}, \"mhits_per_s\": {:.1}}}{}\n",
            c.width,
            c.buckets,
            c.hits,
            c.mhits_per_s,
            if i + 1 < cursors.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    j.push_str(&format!(
        "  \"window_decoder\": {:?},\n",
        unpack::best_tier_label()
    ));
    j.push_str("  \"window_decode\": [\n");
    for (i, w) in windows.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"bases\": {}, \"scalar_gbases_per_s\": {:.3}, \"table_gbases_per_s\": {:.3}}}{}\n",
            w.bases,
            w.scalar_gbases_per_s,
            w.table_gbases_per_s,
            if i + 1 < windows.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    j.push_str("  \"sketch\": [\n");
    for (i, s) in sketches.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"call\": {:?}, \"reads\": {}, \"bases\": {}, \"out\": {}, \"seconds\": {:.6}, \"mbases_per_s\": {:.1}}}{}\n",
            s.what,
            s.reads,
            s.bases,
            s.out,
            s.seconds,
            s.mbases_per_s(),
            if i + 1 < sketches.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    j.push_str("  \"lookup\": [\n");
    for (i, l) in lookups.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"keys\": {}, \"hit_ns\": {:.1}, \"miss_ns\": {:.1}}}{}\n",
            l.keys,
            l.hit_ns,
            l.miss_ns,
            if i + 1 < lookups.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    j.push_str("  \"map_run\": {\n");
    j.push_str(&format!("    \"index_bytes\": {},\n", r.index_bytes));
    j.push_str(&format!("    \"posting_bytes\": {},\n", r.posting_bytes));
    j.push_str(&format!(
        "    \"flat_posting_bytes\": {},\n",
        r.flat_posting_bytes
    ));
    j.push_str(&format!("    \"load_seconds\": {:.6},\n", r.load_seconds));
    j.push_str(&format!("    \"map_seconds\": {:.6},\n", r.map_seconds));
    j.push_str(&format!("    \"reads_per_sec\": {:.2},\n", r.reads_per_sec));
    j.push_str(&format!("    \"mappings\": {}\n", r.mappings));
    j.push_str("  }\n}\n");
    j
}
