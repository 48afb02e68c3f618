//! Structural-variant detection — the downstream task long-read mappers
//! are judged on (and the motivation behind tools like NGMLR).
//!
//! A donor genome is derived from the reference by planting one deletion
//! and one insertion. Reads simulated from the donor are mapped back to
//! the reference; mappings whose CIGARs contain long indel runs vote for
//! SV breakpoints.
//!
//! ```sh
//! cargo run --release --example sv_detection
//! ```
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;

use manymap::{MapOpts, Mapper};
use mmm_align::CigarOp;
use mmm_index::ShardedIndex;
use mmm_seq::{nt4_decode, SeqRecord};
use mmm_simreads::{generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts};

const DEL_POS: usize = 150_000;
const DEL_LEN: usize = 150;
const INS_POS: usize = 300_000;
const INS_LEN: usize = 200;

fn main() {
    let reference = generate_genome(&GenomeOpts {
        len: 450_000,
        repeat_frac: 0.0,
        seed: 2024,
        ..Default::default()
    });

    // Donor: reference with a deletion at DEL_POS and an insertion at INS_POS.
    let mut donor = reference.clone();
    donor.splice(DEL_POS..DEL_POS + DEL_LEN, std::iter::empty());
    let novel: Vec<u8> = (0..INS_LEN).map(|i| ((i * 13 + 5) % 4) as u8).collect();
    let ins_pos_in_donor = INS_POS - DEL_LEN;
    donor.splice(ins_pos_in_donor..ins_pos_in_donor, novel);
    println!("planted truth: DEL {DEL_LEN} bp @ ref:{DEL_POS}, INS {INS_LEN} bp @ ref:{INS_POS}");

    // Index the reference; sequence the donor.
    let opts = MapOpts::map_ont();
    let index = ShardedIndex::build(
        &[SeqRecord::new("ref", nt4_decode(&reference))],
        &opts.idx,
        1,
    )
    .unwrap();
    let mapper = Mapper::new(&index, opts);
    let reads = simulate_reads(
        &donor,
        &SimOpts {
            platform: Platform::Nanopore,
            num_reads: 250,
            seed: 31,
        },
    );

    // Collect long-gap evidence from the CIGARs.
    let mut votes: HashMap<(char, u32), u32> = HashMap::new(); // (kind, pos/100) -> count
    for r in &reads {
        for m in mapper.map_read(&r.seq).iter().filter(|m| m.primary) {
            let Some(c) = &m.cigar else { continue };
            let mut rpos = m.ref_start;
            for &(op, len) in c.runs() {
                match op {
                    CigarOp::Del => {
                        if len >= 50 {
                            *votes.entry(('D', rpos / 100)).or_default() += 1;
                        }
                        rpos += len;
                    }
                    CigarOp::Ins => {
                        if len >= 50 {
                            *votes.entry(('I', rpos / 100)).or_default() += 1;
                        }
                    }
                    CigarOp::Match => rpos += len,
                    CigarOp::SoftClip => {}
                }
            }
        }
    }

    // Report loci with ≥3 supporting reads.
    let mut calls: Vec<((char, u32), u32)> = votes.into_iter().filter(|&(_, n)| n >= 3).collect();
    calls.sort();
    println!("\nSV calls (kind, ~position, support):");
    let mut found_del = false;
    let mut found_ins = false;
    for ((kind, bucket), support) in &calls {
        let pos = bucket * 100;
        println!("  {kind} @ ~{pos}  ({support} reads)");
        if *kind == 'D' && (pos as i64 - DEL_POS as i64).abs() < 500 {
            found_del = true;
        }
        if *kind == 'I' && (pos as i64 - INS_POS as i64).abs() < 500 {
            found_ins = true;
        }
    }
    println!("\ndeletion recovered: {found_del};  insertion recovered: {found_ins}");
}
