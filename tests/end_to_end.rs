//! End-to-end integration: genome → index → serialize → map → evaluate.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use manymap::{MapOpts, Mapper};
use mmm_index::{save_index, MinimizerIndex, ShardOpenOpts, ShardedIndex};
use mmm_seq::{nt4_decode, SeqRecord};
use mmm_simreads::{
    evaluate, generate_genome, simulate_reads, GenomeOpts, MappingCall, Platform, SimOpts,
};

fn dataset(platform: Platform, n: usize) -> (Vec<u8>, Vec<mmm_simreads::SimulatedRead>) {
    let genome = generate_genome(&GenomeOpts {
        len: 300_000,
        repeat_frac: 0.05,
        seed: 99,
        ..Default::default()
    });
    let reads = simulate_reads(
        &genome,
        &SimOpts {
            platform,
            num_reads: n,
            seed: 5,
        },
    );
    (genome, reads)
}

fn map_all(mapper: &Mapper<'_>, reads: &[mmm_simreads::SimulatedRead]) -> Vec<MappingCall> {
    reads
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            mapper
                .map_read(&r.seq)
                .into_iter()
                .find(|m| m.primary)
                .map(|m| MappingCall {
                    read_id: i,
                    rid: m.rid,
                    ref_start: m.ref_start,
                    ref_end: m.ref_end,
                    rev: m.rev,
                    mapq: m.mapq,
                })
        })
        .collect()
}

#[test]
fn pacbio_reads_map_accurately() {
    let (genome, reads) = dataset(Platform::PacBio, 60);
    let opts = MapOpts::map_pb();
    let index =
        ShardedIndex::build(&[SeqRecord::new("chr1", nt4_decode(&genome))], &opts.idx, 1).unwrap();
    let mapper = Mapper::new(&index, opts);
    let calls = map_all(&mapper, &reads);
    let truths: Vec<_> = reads.iter().map(|r| r.origin).collect();
    let s = evaluate(&calls, &truths);
    assert!(
        s.mapped_frac() > 0.9,
        "mapped {}/{}",
        s.mapped,
        s.total_reads
    );
    assert!(
        s.error_rate_pct() < 5.0,
        "error rate {:.2}%",
        s.error_rate_pct()
    );
}

#[test]
fn nanopore_reads_map_accurately() {
    let (genome, reads) = dataset(Platform::Nanopore, 60);
    let opts = MapOpts::map_ont();
    let index =
        ShardedIndex::build(&[SeqRecord::new("chr1", nt4_decode(&genome))], &opts.idx, 1).unwrap();
    let mapper = Mapper::new(&index, opts);
    let calls = map_all(&mapper, &reads);
    let truths: Vec<_> = reads.iter().map(|r| r.origin).collect();
    let s = evaluate(&calls, &truths);
    assert!(
        s.mapped_frac() > 0.9,
        "mapped {}/{}",
        s.mapped,
        s.total_reads
    );
    assert!(
        s.error_rate_pct() < 5.0,
        "error rate {:.2}%",
        s.error_rate_pct()
    );
}

#[test]
fn serialized_index_maps_identically() {
    let (genome, reads) = dataset(Platform::PacBio, 15);
    let opts = MapOpts::map_pb();
    let index = MinimizerIndex::build(&[SeqRecord::new("chr1", nt4_decode(&genome))], &opts.idx, 1)
        .unwrap();
    let path = std::env::temp_dir().join(format!("e2e-idx-{}.mmx", std::process::id()));
    save_index(&index, &path).unwrap();
    let mapped = ShardedIndex::open(&path, ShardOpenOpts::default()).unwrap();
    std::fs::remove_file(&path).unwrap();
    // A single-file index opens whole, as one shard: the shape of the
    // index built in memory.
    assert_eq!(mapped.num_shards(), 1);
    let index = ShardedIndex::from(index);

    let m0 = Mapper::new(&index, opts);
    let m1 = Mapper::new(&mapped, opts);
    for r in &reads {
        let a = m0.map_read(&r.seq);
        let b = m1.map_read(&r.seq);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.align_score, y.align_score);
            assert_eq!(x.cigar, y.cigar);
        }
    }
}

#[test]
fn every_kernel_engine_maps_identically() {
    use mmm_align::Engine;
    let (genome, reads) = dataset(Platform::PacBio, 8);
    let base_opts = MapOpts::map_pb();
    let index = ShardedIndex::build(
        &[SeqRecord::new("chr1", nt4_decode(&genome))],
        &base_opts.idx,
        1,
    )
    .unwrap();
    let reference = Mapper::new(&index, base_opts);
    let ref_maps: Vec<_> = reads.iter().map(|r| reference.map_read(&r.seq)).collect();
    for e in Engine::all().into_iter().filter(|e| e.is_available()) {
        let m = Mapper::new(&index, base_opts.with_engine(e));
        for (r, expect) in reads.iter().zip(&ref_maps) {
            let got = m.map_read(&r.seq);
            assert_eq!(got.len(), expect.len(), "{}", e.label());
            for (g, x) in got.iter().zip(expect) {
                assert_eq!(g.align_score, x.align_score, "{}", e.label());
                assert_eq!(g.cigar, x.cigar, "{}", e.label());
                assert_eq!(
                    (g.ref_start, g.ref_end),
                    (x.ref_start, x.ref_end),
                    "{}",
                    e.label()
                );
            }
        }
    }
}

#[test]
fn paf_output_is_well_formed() {
    let (genome, reads) = dataset(Platform::Nanopore, 10);
    let opts = MapOpts::map_ont();
    let index =
        ShardedIndex::build(&[SeqRecord::new("chr1", nt4_decode(&genome))], &opts.idx, 1).unwrap();
    let mapper = Mapper::new(&index, opts);
    for r in &reads {
        for m in mapper.map_read(&r.seq) {
            let line = manymap::paf_line(&r.name, r.seq.len(), "chr1", genome.len(), &m);
            let cols: Vec<&str> = line.split('\t').collect();
            assert!(cols.len() >= 12, "{line}");
            let qs: usize = cols[2].parse().unwrap();
            let qe: usize = cols[3].parse().unwrap();
            let ts: usize = cols[7].parse().unwrap();
            let te: usize = cols[8].parse().unwrap();
            assert!(qs < qe && qe <= r.seq.len(), "{line}");
            assert!(ts < te && te <= genome.len(), "{line}");
            let matches: u64 = cols[9].parse().unwrap();
            let block: u64 = cols[10].parse().unwrap();
            assert!(matches <= block, "{line}");
        }
    }
}
