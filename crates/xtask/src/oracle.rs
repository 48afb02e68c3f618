//! The differential kernel oracle.
//!
//! Runs every kernel variant the CPU supports — {minimap2, manymap} layout ×
//! {scalar, SSE, AVX2, AVX-512} — over a seeded stream of random sequence
//! pairs and diffs their global alignments against the scalar manymap gold:
//! scores, CIGARs, and cell counts must agree *exactly* (the Eq. 3 ↔ Eq. 4
//! layouts compute the same recurrence, and every SIMD width must be
//! bit-compatible with scalar). Layout/dependency bugs in these kernels are
//! silent wrong-answer bugs, not crashes — this is the harness that makes
//! them loud. The z-drop extension rides the same stream: each engine's
//! `extend_zdrop_with_scratch` (a vector kernel per width) against the
//! scalar extension, on score, consumed prefixes and CIGAR.
//!
//! The oracle also audits the PR-1 zero-allocation contract: each engine
//! keeps one scratch arena across the whole stream, and replaying the
//! stream against the warmed arena must leave its high-water mark
//! (`AlignScratch::heap_bytes`) exactly unchanged — any growth on the second
//! pass means some input shape still allocates in the hot path.
//!
//! A third pass replays the stream through the batched `AlignBackend` seam
//! (mmm-exec): the CPU SIMD session, the simulated GPU/SIMT session, and a
//! gpu-sim session on a shrunken device that forces part of the stream
//! across the oversized-pair fallback boundary — all must return the scalar
//! gold bit-for-bit, in job order. A CPU session per SIMD tier then runs
//! gap-fill-shaped jobs in lane groups (two full groups and a leftover)
//! against the same gold, and z-drop extension jobs run on every session
//! kind and tier against the scalar extension.
//!
//! A fourth pass (`packed_crosscheck`) audits the bit-packed resident
//! storage: every posting bucket's cursor walk vs. its hit count and its
//! deltas' `write_fields`/`read_field` round trip, packed-reference windows
//! vs. the source bases, and end-to-end PAF output of the mapper across
//! every available engine — all bit-exact.
//!
//! A fifth pass (`sketch_crosscheck`) holds the minimizer sketcher to the
//! brute-force model its unit tests use, over the fuzzer's FASTA/FASTQ
//! reads and lengths either side of the sketch block boundary.
//!
//! A sixth pass (`chain_crosscheck`) holds `chain_anchors` to its
//! reference loop, `chain_anchors_gold`, chain for chain, on the anchors
//! of simulated ONT reads over a genome with planted repeats.

use manymap::index::minimizer::{hash64, minimizers, minimizers_hpc, Minimizer, SKETCH_BLOCK};
use mmm_align::{
    AlignMode, AlignResult, AlignScratch, Engine, ExtendResult, Layout, Scoring, Width,
};
use mmm_exec::{prepare, AlignJob, BackendKind, BackendOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// The brute-force sketch model `mmm-index`'s own tests use; it names
// `hash64` and `Minimizer` through this module.
#[path = "../../mmm-index/src/minimizer/model.rs"]
mod sketch_model;

/// Lane-boundary lengths every run must cover (the off-by-one surface of
/// the 16/32/64-lane kernels), before the random sizes start.
const EDGE_LENS: [usize; 10] = [1, 2, 15, 16, 17, 31, 32, 33, 63, 65];

/// Lengths past which `Engine` stops handing a problem to a narrower tier
/// (its longest diagonal fills eight 32- resp. 64-lane vectors): without
/// these the stream would only ever run the 128-bit kernels.
const LONG_LENS: [usize; 3] = [300, 560, 700];

struct Case {
    target: Vec<u8>,
    query: Vec<u8>,
}

fn random_seq(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.random_range(0u32..4) as u8).collect()
}

/// A query derived from the target by point edits — realistic long-read
/// noise, which exercises match/mismatch/gap paths far more evenly than an
/// unrelated random pair.
fn mutate(rng: &mut StdRng, target: &[u8]) -> Vec<u8> {
    let mut q = Vec::with_capacity(target.len() + 8);
    for &b in target {
        let roll: f64 = rng.random();
        if roll < 0.05 {
            q.push(rng.random_range(0u32..4) as u8); // substitution
        } else if roll < 0.08 {
            continue; // deletion
        } else if roll < 0.11 {
            q.push(b);
            q.push(rng.random_range(0u32..4) as u8); // insertion
        } else {
            q.push(b);
        }
    }
    if q.is_empty() {
        q.push(rng.random_range(0u32..4) as u8);
    }
    q
}

fn make_cases(cases: usize, seed: u64) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(cases);
    for i in 0..cases {
        let long = i
            .checked_sub(EDGE_LENS.len())
            .and_then(|k| LONG_LENS.get(k));
        let tlen = match (EDGE_LENS.get(i), long) {
            (Some(&len), _) | (_, Some(&len)) => len,
            _ => rng.random_range(1usize..160),
        };
        let target = random_seq(&mut rng, tlen);
        let query = if long.is_some() || rng.random_bool(0.75) {
            mutate(&mut rng, &target)
        } else {
            let qlen = rng.random_range(1usize..160);
            random_seq(&mut rng, qlen)
        };
        out.push(Case { target, query });
    }
    out
}

fn describe(i: usize, case: &Case, engine: Engine) -> String {
    format!(
        "case {i} (|T|={}, |Q|={}) on {}",
        case.target.len(),
        case.query.len(),
        engine.label()
    )
}

fn diff(i: usize, case: &Case, engine: Engine, got: &AlignResult, want: &AlignResult) -> String {
    format!(
        "{}: differs from scalar manymap gold\n  gold: score={} cigar={:?}\n  got:  score={} cigar={:?}",
        describe(i, case, engine),
        want.score,
        want.cigar.as_ref().map(|c| c.to_string()),
        got.score,
        got.cigar.as_ref().map(|c| c.to_string()),
    )
}

/// Tight, minimap2's default and disabled: the extension stops on a
/// different diagonal under each.
const ZDROPS: [i32; 3] = [50, 400, i32::MAX];

/// Extension of case `i` on `engine`, with a path and score-only.
fn extend_both(
    i: usize,
    case: &Case,
    engine: Engine,
    sc: &Scoring,
    scratch: &mut AlignScratch,
) -> (ExtendResult, ExtendResult) {
    let zdrop = ZDROPS[i % ZDROPS.len()];
    let mut run = |with_path| {
        engine.extend_zdrop_with_scratch(&case.target, &case.query, sc, zdrop, with_path, scratch)
    };
    (run(true), run(false))
}

/// Run the oracle. Returns a one-line summary on success and a full
/// reproduction recipe (case index, seed, engine) on the first divergence.
pub fn run(cases: usize, seed: u64) -> Result<String, String> {
    let stream = make_cases(cases, seed);
    let engines: Vec<Engine> = Engine::all()
        .into_iter()
        .filter(Engine::is_available)
        .collect();
    let gold_engine = Engine::new(Layout::Manymap, Width::Scalar);
    let sc = Scoring::MAP_ONT;

    // Pass 1: differential check, one persistent scratch per engine.
    let mut scratches: Vec<AlignScratch> = engines.iter().map(|_| AlignScratch::new()).collect();
    let mut golds: Vec<AlignResult> = Vec::with_capacity(stream.len());
    let mut gold_scratch = AlignScratch::new();
    for (i, case) in stream.iter().enumerate() {
        let gold = gold_engine.align(&case.target, &case.query, &sc, true);
        let gold_ext = extend_both(i, case, gold_engine, &sc, &mut gold_scratch);
        for (engine, scratch) in engines.iter().zip(scratches.iter_mut()) {
            let ext = extend_both(i, case, *engine, &sc, scratch);
            if ext != gold_ext {
                return Err(format!(
                    "{}: z-drop extension differs from the scalar kernel\n  gold: {:?}\n  got:  {:?}",
                    describe(i, case, *engine),
                    gold_ext,
                    ext
                ));
            }
            scratch.recycle(ext.0.cigar);
            let got = engine.align_with_scratch(
                &case.target,
                &case.query,
                &sc,
                AlignMode::Global,
                true,
                scratch,
            );
            if got != gold {
                return Err(diff(i, case, *engine, &got, &gold));
            }
            // Score-only kernels take a different code path; their score
            // must match the with-path run.
            let score_only = engine.align_with_scratch(
                &case.target,
                &case.query,
                &sc,
                AlignMode::Global,
                false,
                scratch,
            );
            if score_only.score != gold.score {
                return Err(format!(
                    "{}: score-only path disagrees (got {}, want {})",
                    describe(i, case, *engine),
                    score_only.score,
                    gold.score
                ));
            }
        }
        golds.push(gold);
    }

    // Pass 2: replay against the warmed arenas — results must be identical
    // (scratch reuse is observationally pure), and replaying the identical
    // stream must leave `heap_bytes` exactly where pass 1 left it. The
    // buffers (direction rows included) report capacity, which is grow-only,
    // so any hot-path allocation during the replay shows up as end-state
    // growth.
    let high_water: Vec<usize> = scratches.iter().map(AlignScratch::heap_bytes).collect();
    for (i, case) in stream.iter().enumerate() {
        for (engine, scratch) in engines.iter().zip(scratches.iter_mut()) {
            let got = engine.align_with_scratch(
                &case.target,
                &case.query,
                &sc,
                AlignMode::Global,
                true,
                scratch,
            );
            if got != golds[i] {
                return Err(format!(
                    "{}: replay with a warmed scratch changed the result",
                    describe(i, case, *engine)
                ));
            }
            let (ext, _) = extend_both(i, case, *engine, &sc, scratch);
            scratch.recycle(ext.cigar);
        }
    }
    for ((engine, scratch), hw) in engines.iter().zip(&scratches).zip(&high_water) {
        let now = scratch.heap_bytes();
        if now != *hw {
            return Err(format!(
                "{}: scratch footprint moved across a full replay ({hw} -> {now} bytes) — \
                 the zero-allocation steady state is broken",
                engine.label()
            ));
        }
    }

    // Pass 4: bit-packed resident storage vs. the flat/allocating gold.
    let packed_note = packed_crosscheck(seed)?;

    // Pass 3: the same stream through the batched `AlignBackend` seam.
    // Every backend session must hand back results bit-identical to the
    // scalar gold, per job, in job order — including the gpu-sim session on
    // a shrunken device, where part of the stream crosses the
    // oversized-pair boundary and is routed through the CPU fallback while
    // the rest stays on-device.
    let backend_note = backend_crosscheck(&stream, &golds, &sc)?;

    // Pass 5: the sketcher against its brute-force model.
    let sketch_note = sketch_crosscheck(seed)?;

    // Pass 6: the chaining DP against its reference loop.
    let chain_note = chain_crosscheck(seed)?;

    let labels: Vec<String> = engines
        .iter()
        .zip(&high_water)
        .map(|(e, hw)| format!("{} ({hw} B)", e.label()))
        .collect();
    Ok(format!(
        "{} cases x {} engines agree with scalar manymap gold; steady-state scratch: {}; backends: {}; {}; {}; {}",
        stream.len(),
        engines.len(),
        labels.join(", "),
        backend_note,
        packed_note,
        sketch_note,
        chain_note
    ))
}

/// The chaining pass: `chain_anchors` against `chain_anchors_gold` on the
/// anchors of a P2-shaped input (an `mmm-simreads` genome with the default
/// `repeat_frac` 0.1, ONT reads), each read seeded forward and reverse
/// complemented, under the `map-ont` and `map-pb` presets. The first read
/// whose chains differ is reported with both chain lists.
fn chain_crosscheck(seed: u64) -> Result<String, String> {
    use manymap::chain::{chain_anchors, chain_anchors_gold};
    use manymap::index::MinimizerIndex;
    use manymap::seq::{nt4_decode, revcomp4, SeqRecord};
    use manymap::MapOpts;
    use mmm_simreads::{generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts};

    let genome = generate_genome(&GenomeOpts {
        len: 300_000,
        seed,
        ..Default::default()
    });
    let sim = SimOpts {
        platform: Platform::Nanopore,
        num_reads: 24,
        seed,
    };
    let reads = simulate_reads(&genome, &sim);
    let refs = [SeqRecord::new("chr1", nt4_decode(&genome))];
    let (mut anchors_seen, mut chains_seen) = (0usize, 0usize);
    for (preset, opts) in [
        ("map-ont", MapOpts::map_ont()),
        ("map-pb", MapOpts::map_pb()),
    ] {
        let index = MinimizerIndex::build(&refs, &opts.idx, 2)
            .map_err(|e| format!("chain crosscheck: {preset} index build failed: {e}"))?;
        for (i, read) in reads.iter().enumerate() {
            for (strand, query) in [
                ("forward", read.seq.clone()),
                ("reverse", revcomp4(&read.seq)),
            ] {
                let anchors = index.collect_anchors(&query);
                anchors_seen += anchors.len();
                let (want, _) = chain_anchors_gold(anchors.clone(), &opts.chain);
                let got = chain_anchors(anchors, &opts.chain);
                if got != want {
                    return Err(format!(
                        "chain crosscheck: {preset}, read {i} ({strand}, {} bases, seed {seed}): \
                         chain_anchors differs from chain_anchors_gold\n  gold: {want:?}\n  got:  {got:?}",
                        query.len()
                    ));
                }
                chains_seen += got.len();
            }
        }
    }
    if chains_seen == 0 {
        return Err("chain crosscheck: no read chained — the comparison checked nothing".into());
    }
    Ok(format!(
        "chains: {} reads x 2 strands x 2 presets equal the reference loop \
         ({anchors_seen} anchors, {chains_seen} chains)",
        reads.len()
    ))
}

/// `(k, w, hpc)`: the map-ont and map-pb presets, and HPC at map-ont's k.
const SKETCH_PARAMS: [(usize, usize, bool); 3] = [(15, 10, false), (19, 10, true), (15, 10, true)];

/// The sketch differential pass: `minimizers`/`minimizers_hpc` against the
/// brute-force model on the FASTA/FASTQ reads the fuzzer generates (random
/// bases with `N`s, each read alone and each file's reads joined), and on
/// lengths either side of the sketcher's block boundary.
fn sketch_crosscheck(seed: u64) -> Result<String, String> {
    use manymap::seq::FastxReader;

    let mut rng = crate::fuzz::Rng::new(seed);
    let mut seqs: Vec<Vec<u8>> = Vec::new();
    for case in 0..64 {
        let text = crate::fuzz::valid_fastx(&mut rng, case)?;
        let records = FastxReader::new(std::io::Cursor::new(text))
            .read_all()
            .map_err(|e| format!("sketch pass: case {case}: {e}"))?;
        seqs.extend(records.iter().map(|r| r.nt4()));
        seqs.push(records.iter().flat_map(|r| r.nt4()).collect());
    }
    // At w = 10 the first block holds 9 + SKETCH_BLOCK positions, each
    // later one SKETCH_BLOCK more.
    let first = 9 + SKETCH_BLOCK;
    for (i, len) in [first - 1, first, first + 1, first + SKETCH_BLOCK]
        .into_iter()
        .enumerate()
    {
        seqs.push(sketch_model::random_seq(seed ^ i as u64, len));
        seqs.push(sketch_model::hostile_seq(seed ^ i as u64, 4 * len));
    }
    let mut emitted = 0;
    for seq in &seqs {
        for (k, w, hpc) in SKETCH_PARAMS {
            let got = if hpc {
                minimizers_hpc(seq, k, w)
            } else {
                minimizers(seq, k, w)
            };
            if got != sketch_model::sketch(seq, k, w, hpc) {
                return Err(format!(
                    "sketch (k={k}, w={w}, hpc={hpc}) of a {}-base sequence differs \
                     from the brute-force model (seed {seed})",
                    seq.len()
                ));
            }
            emitted += got.len();
        }
    }
    Ok(format!(
        "sketch: {} sequences x {} parameter sets equal the model ({emitted} minimizers)",
        seqs.len(),
        SKETCH_PARAMS.len()
    ))
}

/// The packed-storage differential pass: every layer that decodes packed
/// bits must agree bit-exactly with its gold.
///
/// (a) Every bucket of an index over a multi-chromosome reference: the
///     streaming cursor vs. `hit_count`, and the bucket's deltas re-packed
///     by `write_fields` and read back by `read_field`, the cursor's step.
///     (b) Packed reference windows of 0–8 000 bases, at every start offset
///     mod 4, vs. the source bases. (c) End-to-end: mapping the same reads
///     with every available engine must produce byte-identical PAF.
fn packed_crosscheck(seed: u64) -> Result<String, String> {
    use manymap::index::{unpack, IdxOpts, MinimizerIndex};
    use manymap::seq::nt4_decode;
    use manymap::seq::SeqRecord;
    use manymap::{paf_line, MapOpts, Mapper};

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);

    // (a) Every bucket of a multi-chromosome index.
    // Repeat-bearing on purpose, or nearly every bucket is a singleton
    // with nothing to unpack: chr1 repeats its own head (small deltas) and
    // chr2 is a noisy copy of chr0 (deltas that span reference ids).
    let mut genomes: Vec<Vec<u8>> = (0..2).map(|_| random_seq(&mut rng, 30_000)).collect();
    let head = genomes[1][..5_000].to_vec();
    genomes[1].extend(head);
    genomes.push(mutate(&mut rng, &genomes[0]));
    let refs: Vec<SeqRecord> = genomes
        .iter()
        .enumerate()
        .map(|(c, g)| SeqRecord::new(format!("chr{c}"), nt4_decode(g)))
        .collect();
    let packed = MinimizerIndex::build(&refs, &IdxOpts::MAP_ONT, 1)
        .map_err(|e| format!("packed_crosscheck: index build failed: {e}"))?;
    for h in packed.hashes() {
        let streamed: Vec<u64> = packed.hit_cursor(h).collect();
        if packed.hit_count(h) != streamed.len() {
            return Err(format!(
                "packed_crosscheck: hit_count disagrees with the cursor for hash {h:#x}"
            ));
        }
        // The bucket's deltas, re-packed at their minimal width the way the
        // builder packs them, must read back field by field.
        let deltas: Vec<u64> = streamed.windows(2).map(|w| w[1] - w[0]).collect();
        let Some(&widest) = deltas.iter().max() else {
            continue;
        };
        let width = (64 - widest.leading_zeros()).max(1);
        let mut words = vec![0u64; unpack::words_for(deltas.len() as u64, width) as usize];
        unpack::write_fields(&mut words, 0, width, &deltas);
        let back = (0..deltas.len()).map(|i| unpack::read_field(&words, i * width as usize, width));
        if !back.eq(deltas.iter().copied()) {
            return Err(format!(
                "packed_crosscheck: read_field diverges on the {}-hit, \
                 {width}-bit bucket of hash {h:#x}",
                streamed.len()
            ));
        }
    }
    let flat_bytes = packed.num_positions() * 8;
    if packed.posting_bytes() >= flat_bytes {
        return Err(format!(
            "packed_crosscheck: packed postings ({} B) are no smaller than \
             8 bytes per hit ({flat_bytes} B)",
            packed.posting_bytes()
        ));
    }

    // (b) Packed reference windows vs. the source bases: the edge lengths
    // of the table decoder's head/body/tail split, then random lengths up
    // to 8 000, each at all four start offsets within a packed byte.
    let mut win = Vec::new();
    for (rid, g) in genomes.iter().enumerate() {
        let mut lens = vec![0usize, 1, 2, 3, 4, 5, 7, 8, 9, 8_000];
        lens.extend((0..16).map(|_| rng.random_range(0usize..8_001)));
        for len in lens {
            let base = 4 * rng.random_range(0usize..(g.len() - len - 4) / 4);
            for start in base..base + 4 {
                let end = start + len;
                packed.ref_window_into(rid as u32, start, end, &mut win);
                if win != g[start..end] {
                    return Err(format!(
                        "packed_crosscheck: ref_window_into(chr{rid}, {start}, {end}) \
                         diverges from the source bases"
                    ));
                }
            }
        }
    }

    // (c) End-to-end: same reads, every engine — byte-identical PAF.
    let reads: Vec<(String, Vec<u8>)> = (0..10)
        .map(|i| {
            let g = &genomes[i % genomes.len()];
            let start = rng.random_range(0usize..g.len() - 2_500);
            let read = mutate(&mut rng, &g[start..start + 2_000]);
            (format!("read{i}"), read)
        })
        .collect();
    let engines: Vec<Engine> = Engine::all()
        .into_iter()
        .filter(Engine::is_available)
        .collect();
    let (n_keys, posting_bytes) = (packed.num_minimizers(), packed.posting_bytes());
    // Mapped as every front end maps: through the one index type.
    let index = manymap::index::ShardedIndex::from(packed);
    let rids = 0..index.num_seqs() as u32;
    let tnames: Vec<&str> = rids.clone().map(|r| index.seq_name(r)).collect();
    let tlens: Vec<usize> = rids.map(|r| index.seq_len(r)).collect();
    let map_all = |engine: Engine| -> String {
        let mapper = Mapper::new(&index, MapOpts::map_ont().with_engine(engine));
        let mut out = String::new();
        for (name, read) in &reads {
            for m in mapper.map_read(read) {
                out.push_str(&paf_line(
                    name,
                    read.len(),
                    tnames[m.rid as usize],
                    tlens[m.rid as usize],
                    &m,
                ));
                out.push('\n');
            }
        }
        out
    };
    let gold = map_all(engines[0]);
    if gold.is_empty() {
        return Err(format!(
            "packed_crosscheck: no read mapped on {} — the end-to-end \
             comparison checked nothing",
            engines[0].label()
        ));
    }
    for &engine in &engines[1..] {
        let got = map_all(engine);
        if got != gold {
            return Err(format!(
                "packed_crosscheck: PAF output diverges between engines:\n{}:\n{gold}\n{}:\n{got}",
                engines[0].label(),
                engine.label()
            ));
        }
    }
    Ok(format!(
        "packed ok ({n_keys} hashes, {} mapping(s) x {} engines, postings {flat_bytes} -> \
         {posting_bytes} B)",
        gold.lines().count(),
        engines.len(),
    ))
}

/// Device memory for the shrunken gpu-sim session: small enough that the
/// larger with-path pairs in the stream overflow it (routing them to the
/// CPU fallback), large enough that the lane-edge cases still fit
/// on-device — so one batch exercises both sides of the boundary.
const TINY_DEVICE_MEM: u64 = 16_384;

fn backend_crosscheck(
    stream: &[Case],
    golds: &[AlignResult],
    sc: &Scoring,
) -> Result<String, String> {
    let jobs = || -> Vec<AlignJob> {
        stream
            .iter()
            .map(|c| AlignJob::global(c.target.clone(), c.query.clone(), true))
            .collect()
    };
    let mut opts = BackendOptions::new(*sc);
    opts.threads = 2;
    let sessions: [(&str, BackendKind, Option<u64>); 3] = [
        ("cpu", BackendKind::Cpu, None),
        ("gpu-sim", BackendKind::GpuSim, None),
        ("gpu-sim/tiny", BackendKind::GpuSim, Some(TINY_DEVICE_MEM)),
    ];
    let mut notes = Vec::new();
    for (label, kind, device_mem) in sessions {
        let mut opts = opts.clone();
        opts.device_mem = device_mem;
        let backend =
            prepare(kind, &opts).map_err(|e| format!("backend {label}: prepare failed: {e}"))?;
        let (results, stats) = backend
            .submit(jobs())
            .map_err(|e| format!("backend {label}: submit failed: {e}"))?;
        if results.len() != stream.len() {
            return Err(format!(
                "backend {label}: {} results for {} jobs",
                results.len(),
                stream.len()
            ));
        }
        for (i, (got, want)) in results.iter().zip(golds).enumerate() {
            if got != want {
                return Err(format!(
                    "backend {label}, case {i} (|T|={}, |Q|={}): diverges from scalar gold\n  \
                     gold: score={}\n  got:  score={}",
                    stream[i].target.len(),
                    stream[i].query.len(),
                    want.score,
                    got.score,
                ));
            }
        }
        if device_mem.is_some() {
            // The shrunken device must actually straddle the boundary:
            // some jobs routed to the CPU fallback, some still on-device.
            if stats.fallbacks == 0 {
                return Err(format!(
                    "backend {label}: shrunken device produced no CPU fallbacks — \
                     the oversized-pair boundary was not exercised"
                ));
            }
            if stats.fallbacks >= stats.jobs {
                return Err(format!(
                    "backend {label}: every job fell back ({} of {}) — \
                     nothing ran on-device",
                    stats.fallbacks, stats.jobs
                ));
            }
        }
        notes.push(format!("{label} ok ({} fallbacks)", stats.fallbacks));
    }
    notes.push(scheduled_crosscheck(&jobs(), golds, sc)?);
    notes.push(group_crosscheck(sc)?);
    notes.push(extension_crosscheck(sc)?);
    Ok(notes.join(", "))
}

/// Z-drop extension jobs through the backend seam (DESIGN.md §9.2), per
/// available tier: pairs with an empty side, tails homologous to the end,
/// tails whose homology a junk stretch interrupts under a tight z-drop (the
/// run-on extension would bridge it) and unrelated pairs, each with and
/// without a path, submitted to `cpu`, `gpu-sim` and 16 KiB `gpu-sim`
/// sessions and to a supervised 16 KiB `gpu-sim` one. Every result must
/// carry the scalar extension's score, consumed extents and CIGAR.
fn extension_crosscheck(sc: &Scoring) -> Result<String, String> {
    use mmm_exec::{prepare_supervised, JobOutcome, SupervisorConfig};
    let mut rng = StdRng::seed_from_u64(0xE87E);
    let mut jobs = Vec::new();
    for i in 0..40 {
        let tlen = rng.random_range(1usize..400);
        let mut target = random_seq(&mut rng, tlen);
        let mut query = mutate(&mut rng, &target);
        let zdrop = match i % 5 {
            0 => {
                target.clear();
                400
            }
            1 => {
                query.clear();
                400
            }
            2 => 400,
            3 => {
                let again = random_seq(&mut rng, 200);
                target.extend(random_seq(&mut rng, 60).into_iter().chain(again.clone()));
                query.extend(random_seq(&mut rng, 60));
                query.extend(mutate(&mut rng, &again));
                50
            }
            _ => {
                query = random_seq(&mut rng, tlen / 2 + 1);
                ZDROPS[i % ZDROPS.len()]
            }
        };
        for with_path in [true, false] {
            jobs.push(AlignJob::extend(
                target.clone(),
                query.clone(),
                zdrop,
                with_path,
            ));
        }
    }
    let gold_engine = Engine::new(Layout::Manymap, Width::Scalar);
    let mut scratch = AlignScratch::new();
    let mut extend = |j: &AlignJob, zdrop| {
        let (t, q) = (&j.target, &j.query);
        gold_engine.extend_zdrop_with_scratch(t, q, sc, zdrop, j.with_path, &mut scratch)
    };
    // Pairs where z-drop moved the best cell against a run-on extension.
    let mut fired = 0;
    let golds: Vec<AlignResult> = jobs
        .iter()
        .map(|j| {
            let mmm_align::AlignMode::Extend { zdrop } = j.mode else {
                unreachable!("the stream holds extension jobs only")
            };
            let e = extend(j, zdrop);
            fired += usize::from(e != extend(j, i32::MAX));
            AlignResult {
                score: e.score,
                cigar: j.with_path.then_some(e.cigar),
                cells: j.cells(),
                t_consumed: e.t_consumed,
                q_consumed: e.q_consumed,
            }
        })
        .collect();
    if fired == 0 || fired == jobs.len() {
        return Err(format!(
            "extension jobs: z-drop moved {fired} of {}",
            jobs.len()
        ));
    }
    let (mut tiers, mut fallbacks) = (Vec::new(), 0);
    for engine in Width::ALL.map(|w| Engine::new(Layout::Manymap, w)) {
        if !engine.is_available() {
            continue;
        }
        for (kind, device_mem, supervised) in [
            (BackendKind::Cpu, None, false),
            (BackendKind::GpuSim, None, false),
            (BackendKind::GpuSim, Some(TINY_DEVICE_MEM), false),
            (BackendKind::GpuSim, Some(TINY_DEVICE_MEM), true),
        ] {
            let label = format!(
                "{} {kind:?} {device_mem:?} supervised={supervised}",
                engine.label()
            );
            let mut opts = BackendOptions::new(*sc);
            (opts.engine, opts.threads, opts.device_mem) = (engine, 2, device_mem);
            let got: Vec<Option<AlignResult>> = if supervised {
                prepare_supervised(kind, &opts, SupervisorConfig::default())
                    .and_then(|b| b.submit_supervised(jobs.clone()))
                    .map(|(outcomes, _)| {
                        outcomes
                            .into_iter()
                            .map(|o| match o {
                                JobOutcome::Done(r) => Some(r),
                                JobOutcome::Quarantined { .. } => None,
                            })
                            .collect()
                    })
            } else {
                prepare(kind, &opts)
                    .and_then(|b| b.submit(jobs.clone()))
                    .map(|(rs, stats)| {
                        fallbacks += stats.fallbacks;
                        rs.into_iter().map(Some).collect()
                    })
            }
            .map_err(|e| format!("extension jobs on {label}: {e}"))?;
            if got.len() != jobs.len() {
                return Err(format!("extension jobs on {label}: {} results", got.len()));
            }
            if let Some(i) = (0..jobs.len()).find(|&i| got[i].as_ref() != Some(&golds[i])) {
                return Err(format!(
                    "extension jobs on {label}, job {i} (|T|={}, |Q|={}): diverges from the \
                     scalar extension\n  gold: {:?}\n  got:  {:?}",
                    jobs[i].target.len(),
                    jobs[i].query.len(),
                    golds[i],
                    got[i]
                ));
            }
        }
        tiers.push(engine.width.label());
    }
    if fallbacks == 0 {
        return Err("extension jobs: the 16 KiB device ran every extension".into());
    }
    Ok(format!(
        "extension jobs ok ({} jobs, z-drop moved {fired}, {fallbacks} fallbacks at 16 KiB; {})",
        jobs.len(),
        tiers.join(", ")
    ))
}

/// A query with one long indel: 10–30 bases cut out of `target`'s middle,
/// or as many random bases put in, then point edits — the path a lane's
/// traceback walks through one long gap run.
fn long_indel(rng: &mut StdRng, target: &[u8]) -> Vec<u8> {
    let (len, at) = (rng.random_range(10usize..31), target.len() / 3);
    let mut q = target[..at].to_vec();
    if rng.random::<bool>() && target.len() > at + len {
        q.extend_from_slice(&target[at + len..]);
    } else {
        q.extend(random_seq(rng, len));
        q.extend_from_slice(&target[at..]);
    }
    mutate(rng, &q)
}

/// The CPU backend's lane groups (DESIGN.md §4.1c): per available group
/// tier, a session at that tier takes gap-fill-shaped global jobs — two
/// full groups plus a three-quarter leftover, paths mixed, then a group's
/// worth of long-indel pairs — and must return the scalar gold per job,
/// having grouped at least the two full groups.
fn group_crosscheck(sc: &Scoring) -> Result<String, String> {
    let mut rng = StdRng::seed_from_u64(0x6A0E);
    let gold_engine = Engine::new(Layout::Manymap, Width::Scalar);
    let mut notes = Vec::new();
    for width in [Width::Sse, Width::Avx2, Width::Avx512] {
        let engine = Engine::new(Layout::Manymap, width);
        if !engine.is_available() {
            continue;
        }
        let lanes = width.lanes();
        let noisy = 2 * lanes + 3 * lanes / 4;
        let jobs: Vec<AlignJob> = (0..noisy + lanes)
            .map(|i| {
                let tlen = rng.random_range(8usize..64);
                let target = random_seq(&mut rng, tlen);
                let query = if i < noisy {
                    mutate(&mut rng, &target)
                } else {
                    long_indel(&mut rng, &target)
                };
                AlignJob::global(target, query, i % 5 != 0)
            })
            .collect();
        let mut opts = BackendOptions::new(*sc);
        opts.engine = engine;
        opts.threads = 2;
        let label = engine.label();
        let (results, stats) = prepare(BackendKind::Cpu, &opts)
            .and_then(|b| b.submit(jobs.clone()))
            .map_err(|e| format!("lane groups on {label}: {e}"))?;
        for (i, (got, job)) in results.iter().zip(&jobs).enumerate() {
            let want = gold_engine.align(&job.target, &job.query, sc, job.with_path);
            if *got != want {
                return Err(format!(
                    "lane groups on {label}, job {i} (|T|={}, |Q|={}): diverges from scalar gold\n  \
                     gold: score={}\n  got:  score={}",
                    job.target.len(),
                    job.query.len(),
                    want.score,
                    got.score,
                ));
            }
        }
        if results.len() != jobs.len() || stats.lane_groups < 2 {
            return Err(format!(
                "lane groups on {label}: {} results for {} jobs, {} groups — \
                 the full groups did not run grouped",
                results.len(),
                jobs.len(),
                stats.lane_groups
            ));
        }
        notes.push(format!(
            "{} {}/{} grouped",
            width.label(),
            stats.grouped_jobs,
            jobs.len()
        ));
    }
    Ok(format!("lane groups ok ({})", notes.join(", ")))
}

/// The same stream through the length-binned scheduler (DESIGN.md §11):
/// a supervised gpu-sim session on the shrunken device, dispatched in
/// binned batches — including a seeded adversarial permutation of the
/// batch order — must scatter outcomes back bit-identical to the scalar
/// gold. This is the scheduler's ordering guarantee, enforced on the same
/// oracle stream the engines answer for.
fn scheduled_crosscheck(
    jobs: &[AlignJob],
    golds: &[AlignResult],
    sc: &Scoring,
) -> Result<String, String> {
    use mmm_exec::{prepare_supervised, JobOutcome, SchedConfig, SchedMode, SupervisorConfig};
    let mut opts = BackendOptions::new(*sc);
    opts.threads = 2;
    opts.device_mem = Some(TINY_DEVICE_MEM);
    let sup = prepare_supervised(BackendKind::GpuSim, &opts, SupervisorConfig::default())
        .map_err(|e| format!("scheduled crosscheck: prepare failed: {e}"))?;
    let mut host_routed = 0u64;
    for permute_seed in [None, Some(0xAC1E), Some(7)] {
        let cfg = SchedConfig {
            mode: SchedMode::Bins,
            max_batch_jobs: 8,
            permute_seed,
            ..SchedConfig::default()
        };
        let (outcomes, stats) = sup
            .submit_scheduled(jobs.to_vec(), &cfg)
            .map_err(|e| format!("scheduled crosscheck (seed {permute_seed:?}): {e}"))?;
        if outcomes.len() != golds.len() {
            return Err(format!(
                "scheduled crosscheck (seed {permute_seed:?}): {} outcomes for {} jobs",
                outcomes.len(),
                golds.len()
            ));
        }
        for (i, (o, want)) in outcomes.iter().zip(golds).enumerate() {
            match o {
                JobOutcome::Done(got) if got == want => {}
                JobOutcome::Done(got) => {
                    return Err(format!(
                        "scheduled crosscheck (seed {permute_seed:?}), case {i}: diverges \
                         from scalar gold (score {} vs {})",
                        got.score, want.score
                    ));
                }
                JobOutcome::Quarantined { reason } => {
                    return Err(format!(
                        "scheduled crosscheck (seed {permute_seed:?}), case {i}: \
                         quarantined on a clean run: {reason}"
                    ));
                }
            }
        }
        if stats.sched_batches == 0 {
            return Err("scheduled crosscheck: bins mode produced no binned batches".into());
        }
        host_routed = stats.sched_host_jobs;
    }
    if host_routed == 0 {
        return Err(
            "scheduled crosscheck: shrunken device routed nothing to the host — \
             the pre-batch routing path was not exercised"
                .into(),
        );
    }
    Ok(format!("scheduled ok ({host_routed} host-routed)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_passes_on_this_machine() {
        if let Err(e) = run(24, 0x5EED) {
            panic!("oracle failed: {e}");
        }
    }

    #[test]
    fn case_stream_is_deterministic() {
        let a = make_cases(12, 7);
        let b = make_cases(12, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.target, y.target);
            assert_eq!(x.query, y.query);
        }
    }
}
