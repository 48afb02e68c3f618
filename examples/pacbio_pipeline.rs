//! The paper's macro workload in miniature: map a simulated PacBio dataset
//! the way `manymap map` does — `session::map_reads`, a `MapSession`'s plan
//! → dispatch → finalize stages on the batched 3-thread pipeline — and
//! report accuracy plus the per-stage times.
//!
//! ```sh
//! cargo run --release --example pacbio_pipeline
//! ```
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use manymap::session::map_reads;
use manymap::{ExecConfig, MapOpts, MapSession};
use mmm_index::{IdxOpts, ShardedIndex};
use mmm_seq::{nt4_decode, write_fasta, SeqRecord};
use mmm_simreads::{
    evaluate, generate_genome, simulate_reads, GenomeOpts, MappingCall, Platform, SimOpts,
};

fn main() {
    let genome = generate_genome(&GenomeOpts {
        len: 1_000_000,
        seed: 11,
        ..Default::default()
    });
    let index = ShardedIndex::build(
        &[SeqRecord::new("chr1", nt4_decode(&genome))],
        &IdxOpts::MAP_PB,
        1,
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
    let session = Arc::new(MapSession::new(0, index, opts));

    // The reads as FASTA, named by read id.
    let recs: Vec<SeqRecord> = reads
        .iter()
        .enumerate()
        .map(|(i, r)| SeqRecord::new(i.to_string(), nt4_decode(&r.seq)))
        .collect();
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &recs, 0).unwrap();
    let mut paf = Vec::new();
    let run = map_reads(&fasta[..], &mut paf, &session, &exec, false, None).unwrap();

    // A read's first primary PAF record is its mapping call.
    let paf = String::from_utf8(paf).unwrap();
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
    let s = run.stats;
    println!(
        "pipeline: {} batch(es), {:.2}s wall; compute {:.2}s (plan {:.2}s, dispatch {:.2}s, \
         finalize {:.2}s), I/O {:.2}s overlapped",
        s.batches,
        s.wall_seconds,
        s.compute_seconds,
        s.plan_seconds,
        s.dispatch_seconds,
        s.finalize_seconds,
        s.in_seconds + s.out_seconds
    );
    println!(
        "accuracy: {}/{} mapped, error rate {:.3}%",
        summary.mapped,
        summary.total_reads,
        summary.error_rate_pct()
    );
}
