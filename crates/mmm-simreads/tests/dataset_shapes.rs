//! Dataset-level shape checks: the synthetic generators must keep the
//! statistical properties the experiments rely on (Table 4's profile
//! contrasts), across seeds — not just for the single seed the unit tests
//! pin.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmm_simreads::{
    evaluate, generate_genome, simulate_reads, GenomeOpts, MappingCall, Platform, SimOpts,
};

#[test]
fn pacbio_and_nanopore_contrast_holds_across_seeds() {
    let genome = generate_genome(&GenomeOpts {
        len: 400_000,
        repeat_frac: 0.0,
        ..Default::default()
    });
    for seed in [1u64, 17, 99] {
        let pb = simulate_reads(
            &genome,
            &SimOpts {
                platform: Platform::PacBio,
                num_reads: 800,
                seed,
            },
        );
        let ont = simulate_reads(
            &genome,
            &SimOpts {
                platform: Platform::Nanopore,
                num_reads: 800,
                seed,
            },
        );
        let mean = |rs: &[mmm_simreads::SimulatedRead]| {
            rs.iter().map(|r| r.seq.len()).sum::<usize>() as f64 / rs.len() as f64
        };
        let max =
            |rs: &[mmm_simreads::SimulatedRead]| rs.iter().map(|r| r.seq.len()).max().unwrap();
        // PacBio: longer mean; Nanopore: much longer tail relative to mean.
        assert!(mean(&pb) > mean(&ont), "seed={seed}");
        assert!(
            max(&ont) as f64 / mean(&ont) > max(&pb) as f64 / mean(&pb),
            "seed={seed}: tail ratio"
        );
    }
}

#[test]
fn pacbio_reads_are_net_longer_than_their_template() {
    // Insertion-dominant errors ⇒ read length > template length on average.
    let genome = generate_genome(&GenomeOpts {
        len: 300_000,
        repeat_frac: 0.0,
        ..Default::default()
    });
    let reads = simulate_reads(
        &genome,
        &SimOpts {
            platform: Platform::PacBio,
            num_reads: 400,
            seed: 3,
        },
    );
    let net: f64 = reads
        .iter()
        .map(|r| r.seq.len() as f64 / (r.origin.end - r.origin.start) as f64)
        .sum::<f64>()
        / reads.len() as f64;
    assert!(net > 1.02, "net={net}");

    // Nanopore is deletion-biased ⇒ slightly shorter than template.
    let reads = simulate_reads(
        &genome,
        &SimOpts {
            platform: Platform::Nanopore,
            num_reads: 400,
            seed: 3,
        },
    );
    let net: f64 = reads
        .iter()
        .map(|r| r.seq.len() as f64 / (r.origin.end - r.origin.start) as f64)
        .sum::<f64>()
        / reads.len() as f64;
    assert!(net < 1.0, "net={net}");
}

#[test]
fn origins_cover_the_genome_roughly_uniformly() {
    let genome = generate_genome(&GenomeOpts {
        len: 200_000,
        repeat_frac: 0.0,
        ..Default::default()
    });
    let reads = simulate_reads(
        &genome,
        &SimOpts {
            platform: Platform::Nanopore,
            num_reads: 2_000,
            seed: 8,
        },
    );
    // Bucket start positions into 10 deciles; no decile may be empty or
    // hold more than 3× the uniform share.
    let mut buckets = [0usize; 10];
    for r in &reads {
        buckets[(r.origin.start as usize * 10 / genome.len()).min(9)] += 1;
    }
    for (i, &b) in buckets.iter().enumerate() {
        assert!(b > 0, "decile {i} empty");
        assert!(b < 3 * reads.len() / 10, "decile {i} overloaded: {b}");
    }
}

#[test]
fn evaluate_is_exactly_the_papers_error_rate_definition() {
    // error rate = wrong / mapped (not / total): unmapped reads must not
    // change it.
    let truths = vec![
        mmm_simreads::TrueOrigin {
            rid: 0,
            start: 0,
            end: 1000,
            rev: false
        };
        10
    ];
    let calls: Vec<MappingCall> = (0..4)
        .map(|i| MappingCall {
            read_id: i,
            rid: 0,
            ref_start: if i < 3 { 0 } else { 500_000 },
            ref_end: if i < 3 { 1000 } else { 501_000 },
            rev: false,
            mapq: 60,
        })
        .collect();
    let s = evaluate(&calls, &truths);
    assert_eq!(s.mapped, 4);
    assert_eq!(s.wrong, 1);
    assert!((s.error_rate_pct() - 25.0).abs() < 1e-9);
    assert!((s.mapped_frac() - 0.4).abs() < 1e-9);
}
