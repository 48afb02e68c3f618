//! Seeded input generation for the four workloads.
//!
//! Everything here is a pure function of `--seed`: the programs under test
//! receive only the files written below, and the ground truth stays in this
//! process for the accuracy check.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use mmm_seq::{nt4_decode, revcomp4, write_fasta, SeqRecord};
use mmm_simreads::{
    generate_chromosomes, generate_genome, simulate_reads, ErrorProfile, GenomeOpts, Platform,
    SimOpts, TrueOrigin,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const WORKLOADS: [&str; 4] = ["pb_repeat", "ont_unique", "frag_screen", "serve_mix"];

/// Fragment and decoy length of `frag_screen` and of `serve_mix`'s short
/// tenant.
const FRAG_LEN: usize = 1_000;

/// One read file plus the ground truth of every read in it (`None` for a
/// decoy, which has no true origin and must get no call).
pub struct ReadSet {
    pub path: PathBuf,
    pub recs: Vec<SeqRecord>,
    pub truths: Vec<Option<TrueOrigin>>,
}

impl ReadSet {
    pub fn bases(&self) -> u64 {
        self.recs.iter().map(|r| r.len() as u64).sum()
    }

    /// `reads, bases, median length, max length, decoy share` — the input
    /// summary line printed per workload.
    pub fn describe(&self) -> String {
        let mut lens: Vec<usize> = self.recs.iter().map(SeqRecord::len).collect();
        lens.sort_unstable();
        let decoys = self.truths.iter().filter(|t| t.is_none()).count();
        format!(
            "{} reads, {} bases, length median {} max {}, decoy share {:.3}",
            lens.len(),
            self.bases(),
            lens.get(lens.len() / 2).copied().unwrap_or(0),
            lens.last().copied().unwrap_or(0),
            decoys as f64 / lens.len().max(1) as f64
        )
    }
}

impl Inputs {
    /// Whether the workload asks `manymap map` for SAM.
    pub fn sam(&self) -> bool {
        self.map_args.contains(&"--sam")
    }
}

/// The generated inputs of one workload.
pub struct Inputs {
    pub ref_fa: PathBuf,
    pub index: PathBuf,
    /// Extra arguments of `manymap index` (preset, shard count).
    pub index_args: Vec<&'static str>,
    /// Extra arguments of `manymap map` / `mmm-serve daemon`.
    pub map_args: Vec<&'static str>,
    /// Draw a new data set for every timed pass (see `generate_pass`).
    pub fresh_each_pass: bool,
    pub tnames: Vec<String>,
    pub tlens: Vec<usize>,
    /// One set for a map workload; one per tenant (`long`, `short`) for
    /// `serve_mix`.
    pub sets: Vec<ReadSet>,
}

/// Drawn ONT reads outside this length range are skipped: below it a read
/// may not map at all, which the harness would count as failed, and above it
/// one seed's length tail can move a whole pass.
const ONT_READ_LEN: std::ops::RangeInclusive<usize> = 500..=60_000;

struct Pool {
    chroms: Vec<Vec<u8>>,
    /// nt4 reads with their origins, drawn per chromosome in proportion to
    /// its length.
    reads: Vec<(Vec<u8>, TrueOrigin)>,
}

/// `pb_repeat`'s genome and reads, on a fixed layout.
///
/// With reads sampled at random, a pass's time is set by how many of its
/// few reads happen to touch a repeat copy (each one that does is chained
/// to every copy and extended over its whole tail), and swings several-fold
/// between seeds. So the layout is fixed and the seed draws only what lies
/// on it: the genome's bases, each read's strand and its PacBio errors.
///
/// `PB_FAMILIES` repeat families of `PB_COPIES` copies of a `PB_UNIT`-base
/// unit each (the simreads default unit; 48 copies cover 9.6 % of the
/// genome, the simreads default `repeat_frac`) sit one per slot, families
/// interleaved. Every third read covers one whole copy plus unique flanks,
/// with the copy at one of three offsets, and is chained to every copy of
/// its family; the others are unique sequence. What a copy-covering read
/// costs varies two-fold with where its chains end inside the unit, which
/// is mostly a property of the unit: hence several families, and 24 such
/// reads per pass.
///
/// The first read is a chimera: `PB_READ / 3` genome bases, then four times
/// as many unrelated ones. Its right extension asks for the largest
/// direction matrix of the pass, first, so the process's peak RSS is the
/// same on every seed; without it the peak depends on whether some chain of
/// some read ended early, and doubles on a third of the seeds.
fn pb_repeat_pool(seed: u64) -> Pool {
    const PB_GENOME: usize = 1_000_000;
    const PB_READS: usize = 72;
    const PB_UNIT: usize = 2_000;
    const PB_FAMILIES: usize = 6;
    const PB_COPIES: usize = 8;
    const PB_READ: usize = 3_000;
    let mut g = generate_genome(&GenomeOpts {
        len: PB_GENOME,
        repeat_frac: 0.0,
        seed,
        ..Default::default()
    });
    let slot = PB_GENOME / (PB_FAMILIES * PB_COPIES);
    // Copy `c` of family `f` starts here; copy 0 is the family's source.
    let copy_at = |f: usize, c: usize| (c * PB_FAMILIES + f) * slot + slot / 2;
    for f in 0..PB_FAMILIES {
        let unit = g[copy_at(f, 0)..copy_at(f, 0) + PB_UNIT].to_vec();
        for c in 1..PB_COPIES {
            g[copy_at(f, c)..copy_at(f, c) + PB_UNIT].copy_from_slice(&unit);
        }
    }
    let mut rng = StdRng::seed_from_u64(mix(seed, 1));
    let mut read_at = |start: usize, len: usize| {
        let rev = rng.random::<bool>();
        let template = if rev {
            revcomp4(&g[start..start + len])
        } else {
            g[start..start + len].to_vec()
        };
        let origin = TrueOrigin {
            rid: 0,
            start: start as u32,
            end: (start + len) as u32,
            rev,
        };
        (corrupt(&template, &ErrorProfile::PACBIO, &mut rng), origin)
    };

    let (mut chimera, origin) = read_at(slot / 4, PB_READ / 3);
    let junk = generate_genome(&GenomeOpts {
        len: 4 * PB_READ / 3,
        repeat_frac: 0.0,
        seed: mix(seed, 2),
        ..Default::default()
    });
    // A forward read's tail follows its genome part; a reverse read is
    // the reverse complement, so there the junk has to lead.
    if origin.rev {
        chimera.splice(0..0, junk);
    } else {
        chimera.extend(junk);
    }
    let mut reads = vec![(chimera, origin)];
    reads.extend((0..PB_READS).map(|r| {
        // Every family in turn, a different copy and offset each round.
        let (f, round) = ((r / 3) % PB_FAMILIES, r / 3 / PB_FAMILIES);
        let copy = copy_at(f, (2 * round + f) % PB_COPIES);
        if r % 3 == 0 {
            read_at(copy - [250, 500, 750][round % 3], PB_READ)
        } else if r % 3 == 1 {
            // Unique sequence of the same slot, after the copy or before.
            read_at(copy + PB_UNIT + 600, PB_READ)
        } else {
            read_at(copy - PB_READ - 1_500, PB_READ)
        }
    }));
    Pool {
        chroms: vec![g],
        reads,
    }
}

/// The simreads error model (`mmm_simreads::pbsim`, whose own copy is
/// private): per template base, geometric insertions, then a deletion, a
/// substitution or the base itself.
fn corrupt(template: &[u8], e: &ErrorProfile, rng: &mut StdRng) -> Vec<u8> {
    let mut out = Vec::with_capacity(template.len() + template.len() / 8);
    for &b in template {
        while rng.random::<f64>() < e.ins {
            out.push(rng.random_range(0..4u8));
        }
        let r: f64 = rng.random();
        if r >= e.del + e.sub {
            out.push(b);
        } else if r >= e.del {
            out.push((b + rng.random_range(1..4u8)) % 4);
        }
    }
    out
}

/// SplitMix64 finalizer: derived seeds must be mixed, not offset, because
/// the vendored `StdRng` steps its state by a constant (see
/// `mmm_simreads::genome::mix64`).
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A repeat-free genome of `genome` bases in `n_chroms` chromosomes, and
/// simulated ONT reads from it until their bases reach `read_bases`.
fn ont_pool(genome: usize, n_chroms: usize, read_bases: usize, seed: u64) -> Pool {
    let chroms = generate_chromosomes(
        &GenomeOpts {
            len: genome,
            repeat_frac: 0.0,
            seed,
            ..Default::default()
        },
        n_chroms,
    );
    let mut reads = Vec::new();
    for (ci, g) in chroms.iter().enumerate() {
        let quota = read_bases * g.len() / genome;
        // Draw twice what the mean read length asks for, then keep a
        // prefix: the simulator takes a read count, the workload wants a
        // base count.
        let drawn = simulate_reads(
            g,
            &SimOpts {
                platform: Platform::Nanopore,
                num_reads: quota / 2_000 + 16,
                seed: mix(seed, 1 + ci as u64),
            },
        );
        let mut bases = 0usize;
        for r in drawn {
            if bases >= quota {
                break;
            }
            if !ONT_READ_LEN.contains(&r.seq.len()) {
                continue;
            }
            bases += r.seq.len();
            let origin = TrueOrigin {
                rid: ci as u32,
                ..r.origin
            };
            reads.push((r.seq, origin));
        }
    }
    Pool { chroms, reads }
}

/// Chop a read into `FRAG_LEN` pieces (the tail shorter than that is
/// dropped). Each piece inherits a proportional, strand-aware slice of the
/// parent's origin.
fn fragments(seq: &[u8], origin: &TrueOrigin) -> Vec<(Vec<u8>, TrueOrigin)> {
    let len = seq.len() as f64;
    let span = (origin.end - origin.start) as f64;
    seq.chunks_exact(FRAG_LEN)
        .enumerate()
        .map(|(k, piece)| {
            let (a, b) = (
                (k * FRAG_LEN) as f64 / len,
                ((k + 1) * FRAG_LEN) as f64 / len,
            );
            // A reverse read is the reverse complement of its template, so
            // read offset 0 is the template's end.
            let (lo, hi) = if origin.rev {
                (1.0 - b, 1.0 - a)
            } else {
                (a, b)
            };
            let o = TrueOrigin {
                start: origin.start + (lo * span) as u32,
                end: origin.start + (hi * span) as u32,
                ..*origin
            };
            (piece.to_vec(), o)
        })
        .collect()
}

fn write_set(
    path: PathBuf,
    reads: Vec<(String, Vec<u8>, Option<TrueOrigin>)>,
) -> std::io::Result<ReadSet> {
    let mut recs = Vec::with_capacity(reads.len());
    let mut truths = Vec::with_capacity(reads.len());
    for (name, nt4, truth) in reads {
        recs.push(SeqRecord::new(name, nt4_decode(&nt4)));
        truths.push(truth);
    }
    let mut w = BufWriter::new(File::create(&path)?);
    write_fasta(&mut w, &recs, 80)?;
    w.flush()?;
    Ok(ReadSet { path, recs, truths })
}

/// The inputs of timed pass `pass` of a run at `seed`. Only `pb_repeat`
/// redraws: what one of its 73-read sets costs swings by a fifth with the
/// set's content (a handful of chains per set get a second, full-length
/// alignment), far more than a code change worth catching would move it,
/// so one run measures a new set per pass and reports the median set.
pub fn generate_pass(
    workload: &str,
    seed: u64,
    pass: usize,
    dir: &Path,
) -> std::io::Result<Inputs> {
    let seed = if pass == 0 {
        seed
    } else {
        mix(seed, 1_000 + pass as u64)
    };
    generate(workload, seed, dir)
}

/// Generate every input file of `workload` under `dir`.
pub fn generate(workload: &str, seed: u64, dir: &Path) -> std::io::Result<Inputs> {
    std::fs::create_dir_all(dir)?;
    // The issue's sizes (40 PacBio reads, 16 Mbases of ONT, 46 k fragments)
    // cut in proportion, so that a pass takes about a second and a dozen
    // fit the driver's `run_seconds`; see README.md "Sizing".
    let pool = match workload {
        "pb_repeat" => pb_repeat_pool(seed),
        "frag_screen" => ont_pool(8_000_000, 4, 1_500_000, seed),
        // ont_unique and serve_mix share a reference and a read pool.
        _ => ont_pool(2_000_000, 1, 2_000_000, seed),
    };
    let refs: Vec<SeqRecord> = pool
        .chroms
        .iter()
        .enumerate()
        .map(|(i, g)| SeqRecord::new(format!("chr{}", i + 1), nt4_decode(g)))
        .collect();
    let ref_fa = dir.join("ref.fa");
    {
        let mut w = BufWriter::new(File::create(&ref_fa)?);
        write_fasta(&mut w, &refs, 80)?;
        w.flush()?;
    }
    let named = |prefix: &str, reads: Vec<(Vec<u8>, TrueOrigin)>| {
        reads
            .into_iter()
            .enumerate()
            .map(|(i, (s, o))| (format!("{prefix}{i:06}"), s, Some(o)))
            .collect::<Vec<_>>()
    };
    let reads_fa = dir.join("reads.fa");
    let (index_args, map_args, sets): (Vec<&str>, Vec<&str>, Vec<ReadSet>) = match workload {
        "pb_repeat" => (
            vec!["--preset", "map-pb"],
            vec!["--preset", "map-pb", "--threads", "2"],
            vec![write_set(reads_fa, named("read", pool.reads))?],
        ),
        "ont_unique" => (
            vec![],
            vec!["--sam", "--threads", "1"],
            vec![write_set(reads_fa, named("read", pool.reads))?],
        ),
        "frag_screen" => {
            let frags: Vec<_> = pool
                .reads
                .iter()
                .flat_map(|(s, o)| fragments(s, o))
                .collect();
            // Three decoys per fragment, cut from an unrelated random
            // genome and interleaved so every batch has the same mix.
            let decoy_genome = generate_genome(&GenomeOpts {
                len: 3 * FRAG_LEN * frags.len(),
                repeat_frac: 0.0,
                seed: mix(seed, 99),
                ..Default::default()
            });
            let mut decoys = decoy_genome.chunks_exact(FRAG_LEN);
            let mut reads = Vec::with_capacity(4 * frags.len());
            for (i, (s, o)) in frags.into_iter().enumerate() {
                reads.push((format!("frag{i:06}"), s, Some(o)));
                for (j, d) in decoys.by_ref().take(3).enumerate() {
                    reads.push((format!("decoy{i:06}_{j}"), d.to_vec(), None));
                }
            }
            (
                vec!["--shards", "4"],
                vec!["--no-cigar", "--threads", "2"],
                vec![write_set(reads_fa, reads)?],
            )
        }
        "serve_mix" => {
            let mut long = pool.reads;
            let short_parents = long.split_off(long.len() / 2);
            let short: Vec<_> = short_parents
                .iter()
                .flat_map(|(s, o)| fragments(s, o))
                .collect();
            (
                vec![],
                vec!["--threads", "2"],
                vec![
                    write_set(dir.join("long.fa"), named("long", long))?,
                    write_set(dir.join("short.fa"), named("short", short))?,
                ],
            )
        }
        other => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unknown workload {other:?} (expected one of {WORKLOADS:?})"),
            ))
        }
    };
    Ok(Inputs {
        ref_fa,
        index: dir.join("ref.mmx"),
        index_args,
        map_args,
        fresh_each_pass: workload == "pb_repeat",
        tnames: refs.iter().map(|r| r.name.clone()).collect(),
        tlens: refs.iter().map(SeqRecord::len).collect(),
        sets,
    })
}
