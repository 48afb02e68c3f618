//! The chaining DP against its reference loop (DESIGN.md §4.3).
//!
//! Builds the P2 and P3 probe sets in memory, exactly as `simreads`
//! writes them (P2: `--genome 2000000 --reads 500 --platform ont --seed
//! 5`; P3: `--genome 64000000 --chroms 8`, same reads), collects every
//! read's anchors at `map-ont`, and then times `chain_anchors` and
//! `chain_anchors_gold` over the whole anchor set in pairs of passes. A
//! pair runs both functions read by read, alternating which goes first,
//! so the host's clock changes fall on both sides alike. Each side's
//! seconds over the pairs give a median and quartiles; the counts
//! (anchors, the reference loop's predecessor visits, chains) repeat
//! exactly, and the two functions' chains are compared read by read
//! before anything is timed.
//! [`run_with_json`] serializes the result for the committed
//! `BENCH_chain_dp.json`.

use std::hint::black_box;
use std::time::Instant;

use manymap::MapOpts;
use mmm_chain::{chain_anchors, chain_anchors_gold, Anchor, ChainOpts};
use mmm_index::{IdxOpts, MinimizerIndex};
use mmm_seq::{nt4_decode, SeqRecord};
use mmm_simreads::{generate_chromosomes, simulate_reads, GenomeOpts, Platform, SimOpts};

use crate::format_table;

/// Alternating pairs per probe set.
const PAIRS: usize = 10;

/// One probe set's shape, as `simreads` flags.
struct Shape {
    label: &'static str,
    genome: usize,
    chroms: usize,
    reads: usize,
    seed: u64,
}

const P2: Shape = Shape {
    label: "P2",
    genome: 2_000_000,
    chroms: 1,
    reads: 500,
    seed: 5,
};

const P3: Shape = Shape {
    label: "P3",
    genome: 64_000_000,
    chroms: 8,
    reads: 500,
    seed: 5,
};

/// What `simreads --platform ont` writes for `shape`: the chromosomes and
/// the reads (nt4), reads dealt to chromosomes in proportion to length.
fn simulate(shape: &Shape) -> (Vec<SeqRecord>, Vec<Vec<u8>>) {
    let chroms = generate_chromosomes(
        &GenomeOpts {
            len: shape.genome,
            seed: shape.seed,
            ..Default::default()
        },
        shape.chroms,
    );
    let mut reads = Vec::with_capacity(shape.reads);
    for (ci, g) in chroms.iter().enumerate() {
        let quota = if ci == chroms.len() - 1 {
            shape.reads - reads.len()
        } else {
            shape.reads * g.len() / shape.genome
        };
        let sim = SimOpts {
            platform: Platform::Nanopore,
            num_reads: quota,
            seed: shape.seed.wrapping_add(ci as u64),
        };
        reads.extend(simulate_reads(g, &sim).into_iter().map(|r| r.seq));
    }
    let refs = chroms
        .iter()
        .enumerate()
        .map(|(ci, g)| SeqRecord::new(format!("chr{}", ci + 1), nt4_decode(g)))
        .collect();
    (refs, reads)
}

/// Median and quartiles of one side's passes, in seconds.
pub(crate) struct Spread {
    pub(crate) runs: Vec<f64>,
    pub(crate) q1: f64,
    pub(crate) median: f64,
    pub(crate) q3: f64,
}

impl Spread {
    pub(crate) fn of(runs: Vec<f64>) -> Spread {
        let mut sorted = runs.clone();
        sorted.sort_by(f64::total_cmp);
        // Linear interpolation between closest ranks.
        let at = |p: f64| {
            let x = p * (sorted.len() - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (x - lo as f64)
        };
        Spread {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            runs,
        }
    }

    pub(crate) fn json(&self) -> String {
        let runs: Vec<String> = self.runs.iter().map(|r| format!("{r:.6}")).collect();
        format!(
            "{{\"median\": {:.6}, \"q1\": {:.6}, \"q3\": {:.6}, \"runs\": [{}]}}",
            self.median,
            self.q1,
            self.q3,
            runs.join(", ")
        )
    }
}

/// One probe set's result.
struct Row {
    label: &'static str,
    reads: usize,
    anchors: usize,
    visits: u64,
    chains: usize,
    gold: Spread,
    new: Spread,
    /// Pairs the new loop finished first.
    won: usize,
}

/// One pair: both functions over every read's anchors (each call on its
/// own copy, made before either clock starts), read by read, the reference
/// loop first on reads of parity `p` and second on the others, so a
/// change of clock speed during the pass lands on both sides alike.
/// Returns the seconds each side spent.
fn pair(sets: &[Vec<Anchor>], opts: &ChainOpts, p: usize) -> (f64, f64) {
    let timed = |chain: &dyn Fn(Vec<Anchor>) -> usize, anchors: Vec<Anchor>| {
        let t = Instant::now();
        let chains = chain(black_box(anchors));
        (black_box(chains), t.elapsed().as_secs_f64())
    };
    let gold = |a: Vec<Anchor>| chain_anchors_gold(a, opts).0.len();
    let new = |a: Vec<Anchor>| chain_anchors(a, opts).len();
    let (mut gold_s, mut new_s) = (0.0, 0.0);
    for (k, (g, n)) in sets.iter().cloned().zip(sets.iter().cloned()).enumerate() {
        let ((_, gs), (_, ns)) = if k % 2 == p {
            let g = timed(&gold, g);
            (g, timed(&new, n))
        } else {
            let n = timed(&new, n);
            (timed(&gold, g), n)
        };
        gold_s += gs;
        new_s += ns;
    }
    (gold_s, new_s)
}

fn measure(shape: &Shape) -> Result<Row, String> {
    let (refs, reads) = simulate(shape);
    let index = MinimizerIndex::build(&refs, &IdxOpts::MAP_ONT, 2)
        .map_err(|e| format!("{}: index build failed: {e}", shape.label))?;
    let sets: Vec<Vec<Anchor>> = reads.iter().map(|r| index.collect_anchors(r)).collect();
    drop(index);
    let opts = MapOpts::map_ont().chain;

    let (mut visits, mut chains) = (0u64, 0usize);
    for (i, anchors) in sets.iter().enumerate() {
        let (want, v) = chain_anchors_gold(anchors.clone(), &opts);
        let got = chain_anchors(anchors.clone(), &opts);
        if got != want {
            return Err(format!(
                "{}: read {i}: chain_anchors differs from the reference loop",
                shape.label
            ));
        }
        visits += v;
        chains += got.len();
    }

    // One untimed pair, so both start warm.
    pair(&sets, &opts, 0);
    let (mut gold, mut new, mut won) = (Vec::new(), Vec::new(), 0);
    for p in 0..PAIRS {
        let (g, n) = pair(&sets, &opts, p % 2);
        won += usize::from(n < g);
        gold.push(g);
        new.push(n);
    }
    Ok(Row {
        label: shape.label,
        reads: reads.len(),
        anchors: sets.iter().map(Vec::len).sum(),
        visits,
        chains,
        gold: Spread::of(gold),
        new: Spread::of(new),
        won,
    })
}

/// Run the comparison (P2 only when `quick`); returns the table and the
/// JSON document, or the first read whose chains differ.
pub fn run_with_json(quick: bool) -> Result<(String, String), String> {
    let shapes: &[Shape] = if quick { &[P2] } else { &[P2, P3] };
    let rows = shapes.iter().map(measure).collect::<Result<Vec<_>, _>>()?;
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                r.anchors.to_string(),
                r.visits.to_string(),
                r.chains.to_string(),
                format!("{:.3} ({:.3}–{:.3})", r.gold.median, r.gold.q1, r.gold.q3),
                format!("{:.3} ({:.3}–{:.3})", r.new.median, r.new.q1, r.new.q3),
                format!("×{:.2}", r.new.median / r.gold.median),
                format!("{}/{PAIRS}", r.won),
            ]
        })
        .collect();
    let table = format_table(
        "chain_anchors vs the reference loop, map-ont, one thread (seconds per pass: median (quartiles))",
        &[
            "set", "anchors", "visits", "chains", "gold s", "new s", "new/gold", "new won",
        ],
        &table_rows,
    );
    let sets: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"label\": \"{}\",\n      \"reads\": {},\n      \"anchors\": {},\n      \
                 \"visits\": {},\n      \"chains\": {},\n      \"identical\": true,\n      \
                 \"gold_s\": {},\n      \"new_s\": {},\n      \"ratio_median\": {:.4},\n      \
                 \"new_won\": {}\n    }}",
                r.label,
                r.reads,
                r.anchors,
                r.visits,
                r.chains,
                r.gold.json(),
                r.new.json(),
                r.new.median / r.gold.median,
                r.won,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"chain_dp\",\n  \"quick\": {quick},\n  \"pairs\": {PAIRS},\n  \
         \"sets\": [\n{}\n  ]\n}}\n",
        sets.join(",\n")
    );
    Ok((table, json))
}
