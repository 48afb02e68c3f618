//! Shared support for the table/figure reproduction harnesses.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §5 for the index). This library holds the common pieces:
//! workload generation (the paper's 1 k–32 k bp micro-benchmark pairs and
//! the scaled macro datasets), median-of-N timing, per-read cost metering
//! for the machine-model simulators, and table printing.

use std::time::Instant;

use mmm_align::{AlignMode, AlignScratch, Engine, Scoring};

/// The paper's micro-benchmark lengths (§5.1.2: "6 workloads of lengths
/// from 1 thousand to 32 thousand bp").
pub const MICRO_LENGTHS: [usize; 6] = [1_000, 2_000, 4_000, 8_000, 16_000, 32_000];

/// Scale factor notes printed by every macro harness: the paper maps
/// ~0.9 M reads against hg38 (3.1 Gbp); we run the same pipeline on a
/// synthetic Mbp-scale genome and thousands of reads.
pub const SCALE_NOTE: &str = "(scaled workload: synthetic Mbp genome; shapes, not absolute \
     seconds, are the reproduction target — see EXPERIMENTS.md)";

/// Deterministic noisy pair: a random target and a query derived from it
/// with ~12% edits — the profile of the paper's dumped PacBio alignment
/// workloads.
pub fn noisy_pair(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let t: Vec<u8> = (0..len).map(|_| (rnd() % 4) as u8).collect();
    let mut q = t.clone();
    for _ in 0..len / 8 {
        let p = rnd() % q.len();
        match rnd() % 3 {
            0 => q[p] = (rnd() % 4) as u8,
            1 => q.insert(p, (rnd() % 4) as u8),
            _ => {
                q.remove(p);
            }
        }
    }
    q.truncate(len);
    (t, q)
}

/// Median-of-`samples` GCUPS of `engine` on one pair.
pub fn measure_gcups(
    engine: Engine,
    t: &[u8],
    q: &[u8],
    sc: &Scoring,
    with_path: bool,
    samples: usize,
) -> f64 {
    let cells = t.len() as f64 * q.len() as f64;
    // One arena reused across samples: after the first call the kernel
    // runs allocation-free, so the median measures compute, not malloc.
    let mut scratch = AlignScratch::new();
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(engine.align_with_scratch(
                t,
                q,
                sc,
                AlignMode::Global,
                with_path,
                &mut scratch,
            ));
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    cells / times[times.len() / 2] / 1e9
}

/// Samples per point, scaled down for big problems so harnesses stay fast.
pub fn samples_for(len: usize, with_path: bool) -> usize {
    let base = match len {
        0..=2_000 => 7,
        2_001..=8_000 => 5,
        _ => 3,
    };
    if with_path {
        (base / 2).max(1)
    } else {
        base
    }
}

/// Render one figure/table as aligned columns.
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = format!("\n=== {title} ===\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Mapping records in a PAF stream: every line but the unmapped
/// placeholders of degraded reads.
pub fn mapped_records(paf: &[u8]) -> usize {
    paf.split(|&b| b == b'\n')
        .filter(|l| !l.is_empty() && !l.ends_with(b"tp:A:U"))
        .count()
}

pub mod experiments;

/// Macro-dataset bundle shared by the Table 2/5 and Figure 9/10/11 bins.
pub mod macrodata {
    use mmm_seq::{nt4_decode, SeqRecord};
    use mmm_simreads::{
        generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts, SimulatedRead,
    };

    /// Scaled stand-ins for Table 4's two datasets.
    pub struct MacroDataset {
        pub label: &'static str,
        pub platform: Platform,
        pub genome: Vec<u8>,
        pub reads: Vec<SimulatedRead>,
    }

    /// The simulated-PacBio dataset (scaled).
    pub fn pacbio(genome_len: usize, num_reads: usize) -> MacroDataset {
        let genome = generate_genome(&GenomeOpts {
            len: genome_len,
            seed: 42,
            ..Default::default()
        });
        let reads = simulate_reads(
            &genome,
            &SimOpts {
                platform: Platform::PacBio,
                num_reads,
                seed: 7,
            },
        );
        MacroDataset {
            label: "Simulated (PacBio)",
            platform: Platform::PacBio,
            genome,
            reads,
        }
    }

    /// The real-Nanopore-like dataset (scaled).
    pub fn nanopore(genome_len: usize, num_reads: usize) -> MacroDataset {
        let genome = generate_genome(&GenomeOpts {
            len: genome_len,
            seed: 43,
            ..Default::default()
        });
        let reads = simulate_reads(
            &genome,
            &SimOpts {
                platform: Platform::Nanopore,
                num_reads,
                seed: 8,
            },
        );
        MacroDataset {
            label: "Real (Nanopore)",
            platform: Platform::Nanopore,
            genome,
            reads,
        }
    }

    impl MacroDataset {
        /// The genome as a reference record.
        pub fn reference(&self) -> SeqRecord {
            SeqRecord::new("chr1", nt4_decode(&self.genome))
        }

        /// The reads as an in-memory FASTA, the input `session::map_reads`
        /// takes in place of a reads file.
        pub fn reads_fasta(&self) -> std::io::Result<Vec<u8>> {
            let recs: Vec<SeqRecord> = self
                .reads
                .iter()
                .map(|r| SeqRecord::new(r.name.clone(), nt4_decode(&r.seq)))
                .collect();
            let mut fasta = Vec::new();
            mmm_seq::write_fasta(&mut fasta, &recs, 0)?;
            Ok(fasta)
        }
    }
}

/// Meter per-read reference-core costs for the machine-model simulators.
pub mod meter {
    use std::time::Instant;

    use manymap::Mapper;
    use mmm_exec::align_jobs_with_scratch;
    use mmm_knl::WorkBatch;

    /// Measure per-read seed+chain and align costs (single-thread, host
    /// core) and package them as simulator batches of `batch_size` reads.
    /// The split is the production one: `plan_read` is the chain cost,
    /// host-engine job execution plus finalize the align cost.
    pub fn meter_batches(
        mapper: &Mapper<'_>,
        reads: &[Vec<u8>],
        batch_size: usize,
        in_cost_per_base: f64,
        out_cost_per_read: f64,
    ) -> Vec<WorkBatch> {
        let (engine, sc) = (mapper.opts.engine, mapper.opts.scoring);
        let mut batches = Vec::new();
        let mut scratch = mmm_align::AlignScratch::new();
        for chunk in reads.chunks(batch_size.max(1)) {
            let mut chain = Vec::with_capacity(chunk.len());
            let mut align = Vec::with_capacity(chunk.len());
            let mut bases = 0usize;
            for read in chunk {
                bases += read.len();
                let t0 = Instant::now();
                let plan = mapper.plan_read(read);
                chain.push(t0.elapsed().as_secs_f64());
                let t1 = Instant::now();
                if let Ok(plan) = &plan {
                    let fills = align_jobs_with_scratch(engine, &plan.jobs, &sc, &mut scratch);
                    std::hint::black_box(mapper.finalize_read_with_scratch(
                        read,
                        plan,
                        &fills,
                        &mut scratch,
                    ));
                }
                align.push(t1.elapsed().as_secs_f64());
            }
            batches.push(WorkBatch {
                chain_cost: chain,
                align_cost: align,
                in_cost: bases as f64 * in_cost_per_base,
                out_cost: chunk.len() as f64 * out_cost_per_read,
            });
        }
        batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noisy_pair_is_deterministic_and_sized() {
        let (t1, q1) = noisy_pair(1000, 5);
        let (t2, q2) = noisy_pair(1000, 5);
        assert_eq!(t1, t2);
        assert_eq!(q1, q2);
        assert_eq!(t1.len(), 1000);
        assert!(q1.len() <= 1000);
        let (t3, _) = noisy_pair(1000, 6);
        assert_ne!(t1, t3);
    }

    #[test]
    fn micro_lengths_match_paper() {
        assert_eq!(MICRO_LENGTHS[0], 1_000);
        assert_eq!(MICRO_LENGTHS[5], 32_000);
    }

    #[test]
    fn measure_gcups_positive() {
        use mmm_align::{Layout, Width};
        let (t, q) = noisy_pair(300, 1);
        let g = measure_gcups(
            Engine::new(Layout::Manymap, Width::Scalar),
            &t,
            &q,
            &Scoring::MAP_ONT,
            false,
            3,
        );
        assert!(g > 0.0);
    }
}
