//! Homopolymer-compressed seeding through the whole mapper: the map-pb
//! preset (HPC on) must anchor insertion-heavy PacBio reads at least as
//! well as plain seeding, and mapping results must stay coordinate-correct.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use manymap::{MapOpts, Mapper};
use mmm_index::{IdxOpts, ShardedIndex};
use mmm_seq::{nt4_decode, SeqRecord};
use mmm_simreads::{generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts};

fn genome() -> Vec<u8> {
    generate_genome(&GenomeOpts {
        len: 250_000,
        repeat_frac: 0.0,
        seed: 55,
        ..Default::default()
    })
}

#[test]
fn map_pb_preset_uses_hpc_and_maps_pacbio_reads() {
    let g = genome();
    let opts = MapOpts::map_pb();
    assert!(opts.idx.hpc, "map-pb must enable HPC, like minimap2 -H");
    let index =
        ShardedIndex::build(&[SeqRecord::new("chr1", nt4_decode(&g))], &opts.idx, 1).unwrap();
    assert!(index.hpc());
    let mapper = Mapper::new(&index, opts);
    let reads = simulate_reads(
        &g,
        &SimOpts {
            platform: Platform::PacBio,
            num_reads: 30,
            seed: 9,
        },
    );
    let mut correct = 0;
    for r in &reads {
        if let Some(m) = mapper.map_read(&r.seq).into_iter().find(|m| m.primary) {
            let inter = m
                .ref_end
                .min(r.origin.end)
                .saturating_sub(m.ref_start.max(r.origin.start));
            if m.rev == r.origin.rev && 2 * inter > r.origin.end - r.origin.start {
                correct += 1;
            }
        }
    }
    assert!(correct >= 26, "correct={correct}/30");
}

#[test]
fn hpc_seeding_anchors_at_least_as_many_pacbio_reads() {
    let g = genome();
    let rec = SeqRecord::new("chr1", nt4_decode(&g));
    let plain = ShardedIndex::build(
        std::slice::from_ref(&rec),
        &IdxOpts {
            k: 19,
            w: 10,
            occ_frac: 2e-4,
            hpc: false,
        },
        1,
    )
    .unwrap();
    let hpc = ShardedIndex::build(
        &[rec],
        &IdxOpts {
            k: 19,
            w: 10,
            occ_frac: 2e-4,
            hpc: true,
        },
        1,
    )
    .unwrap();
    let reads = simulate_reads(
        &g,
        &SimOpts {
            platform: Platform::PacBio,
            num_reads: 40,
            seed: 4,
        },
    );
    let (mut plain_anchors, mut hpc_anchors) = (0usize, 0usize);
    for r in &reads {
        plain_anchors += plain.collect_anchors(&r.seq).unwrap().len();
        hpc_anchors += hpc.collect_anchors(&r.seq).unwrap().len();
    }
    // PacBio CLR errors are dominated by 1-base insertions, many of which
    // extend homopolymers — invisible to compressed k-mers. HPC must
    // recover a clearly larger anchor yield at the same k.
    assert!(
        hpc_anchors as f64 > 1.2 * plain_anchors as f64,
        "hpc {hpc_anchors} vs plain {plain_anchors}"
    );
}

#[test]
fn hpc_mappings_are_coordinate_exact_on_clean_reads() {
    let g = genome();
    let opts = MapOpts::map_pb();
    let index =
        ShardedIndex::build(&[SeqRecord::new("chr1", nt4_decode(&g))], &opts.idx, 1).unwrap();
    let mapper = Mapper::new(&index, opts);
    // Error-free extracts, forward and reverse-complement.
    let fwd = g[60_000..66_000].to_vec();
    let rev = mmm_seq::revcomp4(&g[120_000..126_000]);
    let mf = &mapper.map_read(&fwd)[0];
    assert_eq!((mf.ref_start, mf.ref_end), (60_000, 66_000));
    assert_eq!(mf.cigar.as_ref().unwrap().to_string(), "6000M");
    let mr = &mapper.map_read(&rev)[0];
    assert!(mr.rev);
    assert_eq!((mr.ref_start, mr.ref_end), (120_000, 126_000));
}
