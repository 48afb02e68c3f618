//! Instrumented end-to-end runs — the measurement harness behind Table 2
//! and Figure 11.
//!
//! [`profile_run`] is the third client of [`MapSession`] (after `manymap
//! map` and the daemon): it runs the session's stages single-threaded, one
//! read batch at a time in input order — so its output is `manymap map`'s
//! stdout — and charges each to the paper's five-way
//! breakdown: *Load Index* (the one mmap loader), *Load Query* (FASTA/FASTQ
//! parsing), *Seed & Chain* ([`MapSession::plan`]: nt4 encoding, seeding,
//! chaining, job planning), *Align* ([`session::dispatch`] through the
//! configured backend plus [`session::finalize_mappings`]), *Output*
//! ([`session::format_records`] and the write).

use std::path::Path;
use std::sync::Arc;

use mmm_align::AlignScratch;
use mmm_exec::BackendStats;
use mmm_io::{Stage, StageTimer};
use mmm_pipeline::{lock_unpoisoned, PipelineError};
use mmm_seq::FastxReader;

use crate::error::MapError;
use crate::opts::MapOpts;
use crate::session::{self, load_index_any, ExecConfig, MapSession, Planned, MAP_BATCH_BASES};

/// Which variant of the pipeline to profile.
#[derive(Clone, Debug)]
pub struct ProfileConfig {
    pub opts: MapOpts,
    /// Backend, supervisor and scheduler settings, exactly as `manymap map`
    /// would run them.
    pub exec: ExecConfig,
}

/// Outcome of a profiled run.
#[derive(Debug)]
pub struct ProfileResult {
    pub timer: StageTimer,
    pub reads: usize,
    pub mappings: usize,
    /// The PAF stream: what `manymap map` writes to stdout for these reads.
    pub output: Vec<u8>,
    /// Bytes of index image (the paper's "Index Size").
    pub index_bytes: usize,
    /// Execution counters merged across every dispatch.
    pub backend_stats: BackendStats,
}

/// Run the whole pipeline over a serialized index and a FASTA/FASTQ byte
/// buffer, timing each stage.
pub fn profile_run(
    index_path: &Path,
    query_fastx: &[u8],
    cfg: &ProfileConfig,
) -> Result<ProfileResult, MapError> {
    let mut timer = StageTimer::new();
    let exec = cfg.exec.open()?;

    let index = timer.time(Stage::LoadIndex, || {
        load_index_any(index_path, &cfg.opts, cfg.exec.shard_open_opts())
    })?;
    let index_bytes = index.as_index_ref().image_len();
    let session = Arc::new(MapSession::new(0, index, cfg.opts));

    let mut reader = FastxReader::new(std::io::Cursor::new(query_fastx));
    let (mut reads, mut mappings) = (0usize, 0usize);
    let mut output: Vec<u8> = Vec::new();
    // Single-threaded run: one scratch arena serves every chain walk.
    let mut scratch = AlignScratch::new();
    loop {
        let batch = timer
            .time(Stage::LoadQuery, || reader.next_batch(MAP_BATCH_BASES))
            .map_err(|e| MapError::Seq {
                path: "<query buffer>".into(),
                source: e,
            })?;
        if batch.is_empty() {
            break;
        }
        reads += batch.len();

        let plans: Vec<Planned> = timer.time(Stage::SeedChain, || {
            batch.iter().map(|rec| session.plan(rec)).collect()
        });
        let dealt = timer
            .time(Stage::Align, || session::dispatch(plans, &exec))
            .map_err(|e| MapError::Pipeline(PipelineError::Dispatch(e)))?;
        for (rec, (planned, results)) in batch.iter().zip(dealt) {
            // A rejected plan or a quarantined job degrades the read to an
            // unmapped record, as in `cmd_map`.
            let ms = timer.time(Stage::Align, || {
                let results = results.ok()?;
                session::finalize_mappings(&planned, &results, &mut scratch).ok()
            });
            timer.time(Stage::Output, || {
                let lines = match &ms {
                    Some(ms) => session::format_records(&planned, rec, ms, false),
                    None => session::unmapped_record(rec, false),
                };
                output.extend_from_slice(lines.as_bytes());
            });
            mappings += ms.map_or(0, |ms| ms.len());
        }
    }

    let backend_stats = *lock_unpoisoned(&exec.stats);
    Ok(ProfileResult {
        timer,
        reads,
        mappings,
        output,
        index_bytes,
        backend_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_exec::{BackendKind, SchedMode};
    use mmm_index::{save_index, IdxOpts, MinimizerIndex};
    use mmm_seq::{nt4_decode, write_fasta, SeqRecord};
    use mmm_simreads::{generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts};

    /// A saved ONT index plus ten simulated reads as a FASTA buffer.
    fn fixture(tag: &str) -> (std::path::PathBuf, Vec<SeqRecord>, Vec<u8>) {
        let g = generate_genome(&GenomeOpts {
            len: 120_000,
            repeat_frac: 0.0,
            seed: 21,
            ..Default::default()
        });
        let idx =
            MinimizerIndex::build(&[SeqRecord::new("chr1", nt4_decode(&g))], &IdxOpts::MAP_ONT)
                .unwrap();
        let path =
            std::env::temp_dir().join(format!("manymap-prof-{tag}-{}.mmx", std::process::id()));
        save_index(&idx, &path).unwrap();
        let reads = simulate_reads(
            &g,
            &SimOpts {
                platform: Platform::Nanopore,
                num_reads: 10,
                seed: 2,
            },
        );
        let recs: Vec<SeqRecord> = reads
            .iter()
            .map(|r| SeqRecord::new(r.name.clone(), nt4_decode(&r.seq)))
            .collect();
        let mut fasta = Vec::new();
        write_fasta(&mut fasta, &recs, 0).unwrap();
        (path, recs, fasta)
    }

    fn config(opts: MapOpts) -> ProfileConfig {
        ProfileConfig {
            opts,
            exec: ExecConfig::new(&opts, 1),
        }
    }

    #[test]
    fn profiles_all_stages() {
        let (path, _, fasta) = fixture("stages");
        let cpu = config(MapOpts::map_ont());
        let gold = profile_run(&path, &fasta, &cpu).unwrap();
        assert_eq!(gold.reads, 10);
        assert!(gold.mappings >= 8, "mappings={}", gold.mappings);
        assert!(!gold.output.is_empty());
        assert!(gold.index_bytes > 0);
        assert!(gold.timer.total().as_secs_f64() > 0.0);
        // Align must dominate Load Query for this workload.
        assert!(gold.timer.get(Stage::Align) > gold.timer.get(Stage::LoadQuery));

        // Every execution configuration a user can pick produces the same
        // stream and reports its execution counters.
        let mut gpu = cpu.clone();
        gpu.exec.kind = BackendKind::GpuSim;
        let mut gpu_bins = gpu.clone();
        gpu_bins.exec.sched.mode = SchedMode::Bins;
        for (tag, cfg) in [
            ("cpu", &cpu),
            ("gpu-sim", &gpu),
            ("gpu-sim+bins", &gpu_bins),
        ] {
            let res = profile_run(&path, &fasta, cfg).unwrap();
            assert_eq!(res.mappings, gold.mappings, "{tag}");
            assert_eq!(res.output, gold.output, "{tag}");
            let bstats = res.backend_stats;
            assert!(bstats.jobs > 0, "{tag} must execute jobs");
            // A clean run needs no interventions.
            assert!(!bstats.supervised_activity(), "{tag}: {bstats:?}");
            if cfg.exec.sched.mode == SchedMode::Bins {
                assert!(bstats.sched_batches > 0, "{tag}: {bstats:?}");
            } else {
                assert_eq!(bstats.sched_batches, 0, "{tag}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// A read the plan stage rejects still leaves a record: one per input
    /// read, as `manymap map` emits `paf_unmapped`.
    #[test]
    fn rejected_read_is_emitted_unmapped() {
        let (path, recs, fasta) = fixture("reject");
        let mut lens: Vec<usize> = recs.iter().map(SeqRecord::len).collect();
        lens.sort_unstable();
        assert!(lens[8] < lens[9], "fixture needs one strictly longest read");
        let mut opts = MapOpts::map_ont();
        opts.max_read_len = lens[9] - 1;
        let res = profile_run(&path, &fasta, &config(opts)).unwrap();
        std::fs::remove_file(&path).unwrap();

        let out = String::from_utf8(res.output).unwrap();
        let names: std::collections::HashSet<&str> =
            out.lines().map(|l| l.split('\t').next().unwrap()).collect();
        assert_eq!(res.reads, 10);
        assert_eq!(names.len(), res.reads, "every read leaves a record");
        let longest = recs.iter().max_by_key(|r| r.len()).unwrap();
        let unmapped: Vec<&str> = out.lines().filter(|l| l.ends_with("tp:A:U")).collect();
        assert_eq!(unmapped.len(), 1, "{out}");
        assert!(unmapped[0].starts_with(&format!("{}\t", longest.name)));
    }
}
