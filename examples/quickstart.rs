//! Quickstart: index a reference, map reads, print PAF.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
#![allow(clippy::unwrap_used, clippy::expect_used)]

use manymap::{paf_line, MapOpts, Mapper};
use mmm_index::{IdxOpts, MinimizerIndex, ShardedIndex};
use mmm_seq::{nt4_decode, SeqRecord};
use mmm_simreads::{generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts};

fn main() {
    // 1. A synthetic 500 kb reference (stand-in for a FASTA file).
    let genome = generate_genome(&GenomeOpts {
        len: 500_000,
        seed: 42,
        ..Default::default()
    });
    let reference = SeqRecord::new("chr1", nt4_decode(&genome));

    // 2. Build the minimizer index (the equivalent of `minimap2 -d ref.mmi`).
    let index = MinimizerIndex::build(&[reference], &IdxOpts::MAP_ONT, 1).unwrap();
    println!(
        "indexed {} bp: {} minimizers, {} positions, occ cutoff {}",
        genome.len(),
        index.num_minimizers(),
        index.num_positions(),
        index.max_occ
    );
    // Built in memory, it is a one-shard index, as a `.mmx` file opens.
    let index = ShardedIndex::from(index);

    // 3. Simulate a handful of Nanopore reads with known origins.
    let reads = simulate_reads(
        &genome,
        &SimOpts {
            platform: Platform::Nanopore,
            num_reads: 5,
            seed: 7,
        },
    );

    // 4. Map them (the equivalent of `minimap2 -ax map-ont ref.mmi reads.fq`).
    let mapper = Mapper::new(&index, MapOpts::map_ont());
    for r in &reads {
        for m in mapper.map_read(&r.seq) {
            println!(
                "{}",
                paf_line(
                    &r.name,
                    r.seq.len(),
                    index.seq_name(m.rid),
                    genome.len(),
                    &m
                )
            );
        }
        println!(
            "#   truth: {}..{} strand {}",
            r.origin.start,
            r.origin.end,
            if r.origin.rev { '-' } else { '+' }
        );
    }
}
