//! The paper's macro workload in miniature: map a simulated PacBio dataset
//! the way `manymap map` and `mmm-serve` do — a `MapSession`'s plan →
//! dispatch → finalize stages on the batched 3-thread pipeline — and report
//! accuracy plus the stage overlap statistics.
//!
//! ```sh
//! cargo run --release --example pacbio_pipeline
//! ```
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::{Arc, Mutex};

use manymap::session::{self, Planned};
use manymap::{ExecConfig, MapOpts, MapSession};
use mmm_align::{AlignResult, AlignScratch};
use mmm_index::{AnyIndex, IdxOpts, MinimizerIndex};
use mmm_pipeline::try_run_three_thread_batched_with_state;
use mmm_seq::{nt4_decode, SeqRecord};
use mmm_simreads::{
    evaluate, generate_genome, simulate_reads, GenomeOpts, MappingCall, Platform, SimOpts,
};

fn main() {
    let genome = generate_genome(&GenomeOpts {
        len: 1_000_000,
        seed: 11,
        ..Default::default()
    });
    let index = MinimizerIndex::build(
        &[SeqRecord::new("chr1", nt4_decode(&genome))],
        &IdxOpts::MAP_PB,
    )
    .unwrap();
    let reads = simulate_reads(
        &genome,
        &SimOpts {
            platform: Platform::PacBio,
            num_reads: 300,
            seed: 3,
        },
    );
    println!(
        "dataset: {} reads, {} bases",
        reads.len(),
        reads.iter().map(|r| r.seq.len()).sum::<usize>()
    );

    let opts = MapOpts::map_pb();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let exec = ExecConfig::new(&opts, threads).open().unwrap();
    let session = Arc::new(MapSession::new(0, AnyIndex::Flat(index), opts));

    // Feed the pipeline in batches of ~64 reads, named by read id.
    let mut batches: Vec<Vec<SeqRecord>> = reads
        .chunks(64)
        .enumerate()
        .map(|(b, c)| {
            c.iter()
                .enumerate()
                .map(|(i, r)| SeqRecord::new((b * 64 + i).to_string(), nt4_decode(&r.seq)))
                .collect()
        })
        .collect();
    batches.reverse();

    let paf = Mutex::new(String::new());
    let stats = try_run_three_thread_batched_with_state(
        move || Ok(batches.pop()),
        |_worker| AlignScratch::new(),
        |_: &mut AlignScratch, rec: &SeqRecord| session.plan(rec),
        |plans| session::dispatch(plans, &exec),
        |scratch: &mut AlignScratch, rec: &SeqRecord, p: &Planned, results: &Vec<AlignResult>| {
            session::finalize(p, rec, results, scratch, false)
                .unwrap_or_else(|_| session::unmapped_record(rec, false))
        },
        |rec| rec.len(),
        |lines| {
            paf.lock().unwrap().extend(lines);
            Ok(())
        },
        None,
        threads,
    )
    .unwrap();

    // A read's first primary PAF record is its mapping call.
    let paf = paf.into_inner().unwrap();
    let mut calls: Vec<MappingCall> = Vec::new();
    for line in paf.lines().filter(|l| l.contains("tp:A:P")) {
        let f: Vec<&str> = line.split('\t').collect();
        let read_id = f[0].parse().unwrap();
        if calls.last().is_some_and(|c| c.read_id == read_id) {
            continue;
        }
        calls.push(MappingCall {
            read_id,
            rid: 0,
            ref_start: f[7].parse().unwrap(),
            ref_end: f[8].parse().unwrap(),
            rev: f[4] == "-",
            mapq: f[11].parse().unwrap(),
        });
    }

    let truths: Vec<_> = reads.iter().map(|r| r.origin).collect();
    let summary = evaluate(&calls, &truths);
    println!(
        "pipeline: {} batches, {:.2}s wall ({:.2}s compute, {:.2}s I/O overlap)",
        stats.batches,
        stats.wall_seconds,
        stats.compute_seconds,
        stats.in_seconds + stats.out_seconds
    );
    println!(
        "accuracy: {}/{} mapped, error rate {:.3}%",
        summary.mapped,
        summary.total_reads,
        summary.error_rate_pct()
    );
}
