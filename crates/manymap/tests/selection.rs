//! Chain selection through the whole mapper, on a `simreads` genome with
//! planted 2 kb repeat copies: the chains selection keeps are exactly the
//! records the mapper prints, the chains it drops cost no gap fill, and
//! every printed record is self-consistent against the reference.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use manymap::{MapOpts, Mapper, Mapping};
use mmm_chain::{chain_anchors, select_chains, SelectOpts};
use mmm_index::ShardedIndex;
use mmm_seq::{nt4_decode, revcomp4, SeqRecord};
use mmm_simreads::{generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts};

/// Query-overlap fraction of two records, of the shorter one.
fn query_overlap(a: &Mapping, b: &Mapping) -> f64 {
    let inter = a
        .q_end
        .min(b.q_end)
        .saturating_sub(a.q_start.max(b.q_start));
    let shorter = (a.q_end - a.q_start).min(b.q_end - b.q_start).max(1);
    f64::from(inter) / f64::from(shorter)
}

#[test]
fn selected_chains_are_the_printed_and_the_aligned_ones() {
    let genome = generate_genome(&GenomeOpts {
        len: 400_000,
        repeat_frac: 0.1,
        seed: 42,
        ..Default::default()
    });
    let opts = MapOpts::map_pb();
    let index =
        ShardedIndex::build(&[SeqRecord::new("chr1", nt4_decode(&genome))], &opts.idx, 1).unwrap();
    let mapper = Mapper::new(&index, opts);
    // No overlap exceeds the whole shorter chain, so this mapper masks
    // nothing: it selects, and plans gap fills for, every chain.
    let unmasked = Mapper::new(
        &index,
        MapOpts {
            select: SelectOpts {
                mask_level: 1.0,
                ..opts.select
            },
            ..opts
        },
    );
    let reads = simulate_reads(
        &genome,
        &SimOpts {
            platform: Platform::PacBio,
            num_reads: 60,
            seed: 7,
        },
    );

    let (mut all_chains, mut records, mut all_jobs, mut planned_jobs) = (0, 0, 0, 0);
    for r in &reads {
        let ms = mapper.map_read(&r.seq);
        let plan = mapper.plan_read(&r.seq).unwrap();

        // Selected = printed.
        let chains = chain_anchors(index.collect_anchors(&r.seq).unwrap(), &opts.chain);
        all_chains += chains.len();
        let mut printed: Vec<_> = ms.iter().map(|m| (m.rid, m.rev, m.chain_score)).collect();
        let mut chosen: Vec<_> = select_chains(chains, &opts.select)
            .iter()
            .map(|s| (s.chain.rid, s.chain.rev, s.chain.score))
            .collect();
        printed.sort_unstable();
        chosen.sort_unstable();
        assert_eq!(printed, chosen, "{}", r.name);
        records += ms.len();
        planned_jobs += plan.jobs.len();
        all_jobs += unmasked.plan_read(&r.seq).unwrap().jobs.len();

        // At most one primary per disjoint query span.
        let primaries: Vec<&Mapping> = ms.iter().filter(|m| m.primary).collect();
        for (i, a) in primaries.iter().enumerate() {
            for b in &primaries[..i] {
                let f = query_overlap(a, b);
                assert!(
                    f <= 0.5,
                    "{}: two primaries share {f:.2} of the query",
                    r.name
                );
            }
        }

        let q_rc = revcomp4(&r.seq);
        for m in &ms {
            let cigar = m.cigar.as_ref().unwrap();
            // The CIGAR consumes exactly the spans the record reports.
            assert!(m.ref_end as usize <= genome.len() && m.q_end as usize <= r.seq.len());
            assert_eq!(cigar.target_len(), u64::from(m.ref_end - m.ref_start));
            assert_eq!(cigar.query_len(), u64::from(m.q_end - m.q_start));
            // AS is the CIGAR re-scored against the reference.
            let target = &genome[m.ref_start as usize..m.ref_end as usize];
            let query = if m.rev {
                let n = r.seq.len();
                &q_rc[n - m.q_end as usize..n - m.q_start as usize]
            } else {
                &r.seq[m.q_start as usize..m.q_end as usize]
            };
            assert_eq!(
                cigar.score(target, query, &opts.scoring),
                m.align_score,
                "{}: {cigar}",
                r.name
            );
        }
    }
    // The fixture must exercise selection: repeat copies chain and are
    // dropped, and their gap fills are never planned.
    assert!(records >= reads.len() * 9 / 10, "{records} records");
    assert!(
        all_chains > records,
        "{all_chains} chains, {records} records"
    );
    assert!(planned_jobs < all_jobs, "{planned_jobs} of {all_jobs} jobs");
}
