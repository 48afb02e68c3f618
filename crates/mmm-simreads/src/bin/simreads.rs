//! `simreads` — generate a synthetic reference and long-read dataset.
//!
//! ```sh
//! simreads [--genome 1000000] [--reads 2000] [--platform pacbio|ont|nanopore]
//!          [--out-ref ref.fa] [--out-reads reads.fa] [--seed 42] [--chroms 1]
//! ```
//!
//! Read names encode the ground truth as
//! `read{N}!{rname}!{start}!{end}!{+|-}` so `mapeval` can score any PAF
//! produced from them (the convention of pbsim + paftools mapeval).
//!
//! `--chroms N` splits the genome into N independent chromosomes
//! (`chr1..chrN`, lengths summing to `--genome`) with reads sampled from
//! each in proportion to its length — the fixture the sharded-index suite
//! uses, since shards split on sequence boundaries (DESIGN.md §15).
//!
//! The command line is checked against one flag table before anything is
//! generated or written: an unknown flag, a flag with no value or given
//! twice, a malformed number, a zero count or an unknown platform is
//! `simreads: …` on stderr and exit 1; `--help` prints the usage and exits 0.

use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;

use mmm_seq::{nt4_decode, write_fasta, DatasetStats, SeqRecord};
use mmm_simreads::{generate_chromosomes, simulate_reads, GenomeOpts, Platform, SimOpts};

const USAGE: &str = "usage: simreads [--genome BASES] [--reads N] \
    [--platform pacbio|ont|nanopore] [--seed N] [--chroms N] \
    [--out-ref ref.fa] [--out-reads reads.fa]";

/// Every flag, each taking one value, with its default.
const FLAGS: [(&str, &str); 7] = [
    ("genome", "1000000"),
    ("reads", "2000"),
    ("platform", "pacbio"),
    ("seed", "42"),
    ("chroms", "1"),
    ("out-ref", "ref.fa"),
    ("out-reads", "reads.fa"),
];

/// What to generate and where to write it.
struct Opts {
    genome_len: usize,
    n_reads: usize,
    platform: Platform,
    seed: u64,
    n_chroms: usize,
    out_ref: String,
    out_reads: String,
}

/// `Ok(None)` is `--help`.
fn parse(argv: impl IntoIterator<Item = String>) -> Result<Option<Opts>, String> {
    let mut values = FLAGS.map(|(_, default)| default.to_string());
    let mut given = [false; FLAGS.len()];
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        if a == "--help" {
            return Ok(None);
        }
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        let Some(slot) = FLAGS.iter().position(|f| f.0 == name) else {
            return Err(format!("unknown flag {a}"));
        };
        values[slot] = it.next().ok_or_else(|| format!("{a}: missing value"))?;
        if std::mem::replace(&mut given[slot], true) {
            return Err(format!("{a}: given more than once"));
        }
    }
    let [genome, reads, platform, seed, chroms, out_ref, out_reads] = values;
    // A count: a positive integer.
    let count = |flag: &str, v: &str| match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("--{flag} {v:?}: expected an integer >= 1")),
    };
    Ok(Some(Opts {
        genome_len: count("genome", &genome)?,
        n_reads: count("reads", &reads)?,
        platform: match platform.as_str() {
            "pacbio" => Platform::PacBio,
            "ont" | "nanopore" => Platform::Nanopore,
            v => {
                return Err(format!(
                    "--platform {v:?}: expected pacbio, ont or nanopore"
                ))
            }
        },
        seed: seed
            .parse()
            .map_err(|_| format!("--seed {seed:?}: not a number"))?,
        n_chroms: count("chroms", &chroms)?,
        out_ref,
        out_reads,
    }))
}

fn main() -> ExitCode {
    let o = match parse(std::env::args().skip(1)) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("simreads: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let (genome_len, n_reads, platform, seed) = (o.genome_len, o.n_reads, o.platform, o.seed);
    let (out_ref, out_reads) = (o.out_ref, o.out_reads);

    let chroms = generate_chromosomes(
        &GenomeOpts {
            len: genome_len,
            seed,
            ..Default::default()
        },
        o.n_chroms,
    );

    // Reads per chromosome, proportional to its length (the remainder
    // lands on the last one); read numbering is global so names stay
    // unique across chromosomes.
    let ref_recs: Vec<SeqRecord> = chroms
        .iter()
        .enumerate()
        .map(|(ci, g)| SeqRecord::new(format!("chr{}", ci + 1), nt4_decode(g)))
        .collect();
    let mut read_recs: Vec<SeqRecord> = Vec::with_capacity(n_reads);
    let mut assigned = 0usize;
    for (ci, g) in chroms.iter().enumerate() {
        let quota = if ci == chroms.len() - 1 {
            n_reads - assigned
        } else {
            n_reads * g.len() / genome_len.max(1)
        };
        assigned += quota;
        let reads = simulate_reads(
            g,
            &SimOpts {
                platform,
                num_reads: quota,
                seed: seed.wrapping_add(ci as u64),
            },
        );
        let base = read_recs.len();
        read_recs.extend(reads.iter().enumerate().map(|(i, r)| {
            let name = format!(
                "read{}!chr{}!{}!{}!{}",
                base + i,
                ci + 1,
                r.origin.start,
                r.origin.end,
                if r.origin.rev { '-' } else { '+' }
            );
            SeqRecord::new(name, nt4_decode(&r.seq))
        }));
    }

    let write = |path: &str, recs: &[SeqRecord]| -> std::io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        write_fasta(&mut w, recs, 80)
    };
    if let Err(e) = write(&out_ref, &ref_recs) {
        eprintln!("simreads: writing {out_ref}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = write(&out_reads, &read_recs) {
        eprintln!("simreads: writing {out_reads}: {e}");
        return ExitCode::FAILURE;
    }

    let stats = DatasetStats::from_records(&read_recs);
    eprintln!(
        "[simreads] {} ({:?}): {} reads, mean {:.0} bp, max {} bp, {} total bases -> {out_reads}; {} bp reference in {} chromosome(s) -> {out_ref}",
        platform_label(platform),
        seed,
        stats.num_reads,
        stats.mean_len,
        stats.max_len,
        stats.total_bases,
        genome_len,
        ref_recs.len(),
    );
    ExitCode::SUCCESS
}

fn platform_label(p: Platform) -> &'static str {
    match p {
        Platform::PacBio => "PacBio SMRT",
        Platform::Nanopore => "Nanopore",
    }
}
