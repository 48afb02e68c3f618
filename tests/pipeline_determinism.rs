//! The production pipeline (`session::run`: plan → dispatch → finalize on
//! the batched 3-thread pipeline) must produce PAF byte-identical to a
//! serial run, regardless of thread count or of the longest-first order it
//! processes each batch in.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use manymap::session::{self, Degraded};
use manymap::{write_paf, ExecConfig, MapOpts, MapSession, Mapper};
use mmm_index::ShardedIndex;
use mmm_seq::{nt4_decode, SeqRecord};
use mmm_simreads::{generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts};

fn workload() -> (Arc<MapSession>, Vec<SeqRecord>) {
    let genome = generate_genome(&GenomeOpts {
        len: 200_000,
        repeat_frac: 0.0,
        seed: 31,
        ..Default::default()
    });
    let opts = MapOpts::map_ont();
    let index =
        ShardedIndex::build(&[SeqRecord::new("chr1", nt4_decode(&genome))], &opts.idx, 1).unwrap();
    let reads = simulate_reads(
        &genome,
        &SimOpts {
            platform: Platform::Nanopore,
            num_reads: 40,
            seed: 13,
        },
    );
    let reads = reads
        .into_iter()
        .map(|r| SeqRecord::new(r.name, nt4_decode(&r.seq)))
        .collect();
    let session = MapSession::new(0, index, opts);
    (Arc::new(session), reads)
}

/// The serial reference: `map_read` (host-inline execution), one read at a
/// time.
fn serial_paf(session: &MapSession, reads: &[SeqRecord]) -> String {
    let mapper = Mapper::new(session.index(), MapOpts::map_ont());
    let (tnames, tlens) = session.targets();
    let mut out = Vec::new();
    for rec in reads {
        let nt4 = rec.nt4();
        let ms = mapper.map_read(&nt4);
        write_paf(&mut out, &rec.name, nt4.len(), tnames, tlens, &ms).unwrap();
    }
    String::from_utf8(out).unwrap()
}

/// The reads through the session's runner, in batches of `batch` reads.
fn pipeline_paf(
    session: &Arc<MapSession>,
    reads: &[SeqRecord],
    threads: usize,
    batch: usize,
) -> String {
    let mut batches: Vec<Vec<SeqRecord>> = reads.chunks(batch).map(|c| c.to_vec()).collect();
    batches.reverse();
    let exec = ExecConfig::new(&MapOpts::map_ont(), threads)
        .open()
        .unwrap();
    let mut out = String::new();
    session::run(
        || Arc::clone(session),
        &exec,
        false,
        None,
        move || Ok(batches.pop()),
        |rec: &SeqRecord, why: Degraded<'_>| panic!("read {} degraded: {why:?}", rec.name),
        |records| {
            out.extend(records.into_iter().map(|((), lines)| lines));
            Ok(())
        },
    )
    .unwrap();
    out
}

#[test]
fn thread_count_does_not_change_paf() {
    let (session, reads) = workload();
    let expect = serial_paf(&session, &reads);
    assert!(
        expect.lines().count() >= reads.len() / 2,
        "workload must map"
    );
    for threads in [1, 4] {
        assert_eq!(
            pipeline_paf(&session, &reads, threads, 7),
            expect,
            "threads={threads}"
        );
    }
}

/// Every batch is processed longest first; output order is input order
/// whether a batch holds a few reads or all of them.
#[test]
fn batch_sorting_does_not_change_paf() {
    let (session, reads) = workload();
    let expect = serial_paf(&session, &reads);
    for batch in [7, reads.len()] {
        // The sort must really reorder something for this to mean anything.
        assert!(
            reads
                .chunks(batch)
                .any(|c| c.windows(2).any(|w| w[0].len() < w[1].len())),
            "batch={batch} is already longest first"
        );
        assert_eq!(
            pipeline_paf(&session, &reads, 4, batch),
            expect,
            "batch={batch}"
        );
    }
}
