//! Instrumented end-to-end runs — the measurement harness behind Table 2
//! and Figure 11.
//!
//! [`profile_run`] executes the full pipeline single-threaded and charges
//! each stage to the paper's five-way breakdown: *Load Index* (either I/O
//! path), *Load Query* (FASTA parsing + encoding), *Seed & Chain*, *Align*,
//! *Output* (PAF formatting and writing).

use std::path::Path;

use mmm_exec::{
    prepare, prepare_supervised, AlignBackend, BackendKind, BackendOptions, BackendStats,
    JobOutcome, SchedConfig, SchedMode, SupervisedBackend, SupervisorConfig,
};
use mmm_index::ShardOpenOpts;
use mmm_io::{Stage, StageTimer};
use mmm_seq::FastxReader;

use crate::error::MapError;
use crate::mapper::Mapper;
use crate::opts::MapOpts;
use crate::session::{load_index_any, target_tables};

/// Which variant of the pipeline to profile.
#[derive(Clone, Copy, Debug)]
pub struct ProfileConfig {
    pub opts: MapOpts,
    /// Load the index through `mmap` (manymap, §4.4.2) instead of
    /// fragmented buffered reads (minimap2).
    pub use_mmap: bool,
    /// Sort each batch by descending read length before aligning
    /// (manymap's load-balance tweak, §4.4.4).
    pub sort_by_length: bool,
    /// Route the gap-fill alignment work through an [`AlignBackend`]
    /// session (`Some`) instead of inline host-engine calls (`None`). With
    /// a backend, *Seed & Chain* covers planning and *Align* covers the
    /// batched submission plus finalization — output is bit-identical
    /// either way.
    ///
    /// [`AlignBackend`]: mmm_exec::AlignBackend
    pub backend: Option<BackendKind>,
    /// Wrap the backend session in the supervisor (retry/deadline/breaker,
    /// DESIGN.md §10), as the CLI does — measures the wrapper's overhead on
    /// a clean run. Ignored when `backend` is `None`.
    pub supervised: bool,
    /// Dispatch through the length-binned batch scheduler (DESIGN.md §11)
    /// instead of fifo submission. Requires `supervised` (the scheduler is
    /// a supervisor entry point); ignored when `backend` is `None`.
    pub sched: bool,
    /// Override the simulated device's global memory (bytes) — the bench
    /// uses a shrunken device to surface the oversized-pair fallback path.
    /// `None` keeps the default device.
    pub device_mem: Option<u64>,
}

/// Outcome of a profiled run.
#[derive(Debug)]
pub struct ProfileResult {
    pub timer: StageTimer,
    pub reads: usize,
    pub mappings: usize,
    pub output_bytes: usize,
    /// Bytes of index state resident after loading.
    pub index_bytes: usize,
    /// Execution counters when a backend was configured.
    pub backend_stats: Option<BackendStats>,
}

/// Run the whole pipeline over a serialized index and a FASTA/FASTQ byte
/// buffer, timing each stage.
pub fn profile_run(
    index_path: &Path,
    query_fastx: &[u8],
    cfg: &ProfileConfig,
) -> Result<ProfileResult, MapError> {
    let mut timer = StageTimer::new();

    let index = timer.time(Stage::LoadIndex, || {
        load_index_any(
            index_path,
            &cfg.opts,
            ShardOpenOpts::default(),
            cfg.use_mmap,
        )
    })?;
    let iref = index.as_index_ref();

    let mut reads = timer
        .time(Stage::LoadQuery, || {
            FastxReader::new(std::io::Cursor::new(query_fastx))
                .read_all()
                .map(|rs| {
                    rs.iter()
                        .map(|r| (r.name.clone(), r.nt4()))
                        .collect::<Vec<_>>()
                })
        })
        .map_err(|e| MapError::Seq {
            path: "<query buffer>".into(),
            source: e,
        })?;

    if cfg.sort_by_length {
        reads.sort_by_key(|(_, s)| std::cmp::Reverse(s.len()));
    }

    let mapper = Mapper::new(iref, cfg.opts);
    let (tnames, tlens) = target_tables(iref);

    // Stand up the backend session once, like the CLI does per run. The
    // supervised session stays concrete so the scheduler entry point
    // (`submit_scheduled`, an inherent method) is reachable.
    enum Session {
        Plain(Box<dyn AlignBackend>),
        Supervised(Box<SupervisedBackend>),
    }
    let backend: Option<Session> = cfg
        .backend
        .map(|kind| {
            let mut bopts = BackendOptions::new(cfg.opts.scoring);
            bopts.engine = cfg.opts.engine;
            bopts.device_mem = cfg.device_mem;
            if cfg.supervised {
                prepare_supervised(kind, &bopts, SupervisorConfig::default())
                    .map(|b| Session::Supervised(Box::new(b)))
            } else {
                prepare(kind, &bopts).map(Session::Plain)
            }
        })
        .transpose()
        .map_err(|e| MapError::Usage(e.to_string()))?;
    let sched_cfg = SchedConfig {
        mode: if cfg.sched {
            SchedMode::Bins
        } else {
            SchedMode::Fifo
        },
        ..SchedConfig::default()
    };
    let mut backend_stats = backend.as_ref().map(|_| BackendStats::default());

    let mut mappings = 0usize;
    let mut sink: Vec<u8> = Vec::new();
    // Single-threaded run: one scratch arena serves every alignment.
    let mut scratch = mmm_align::AlignScratch::new();
    for (name, seq) in &reads {
        let ms = match &backend {
            None => {
                let chained = timer.time(Stage::SeedChain, || mapper.seed_chain(seq));
                timer.time(Stage::Align, || {
                    mapper.extend_with_scratch(seq, &chained, &mut scratch)
                })
            }
            Some(backend) => {
                let plan = timer.time(Stage::SeedChain, || mapper.plan_read(seq));
                let Ok(mut plan) = plan else {
                    continue; // a rejected read maps to nothing
                };
                let ms = timer.time(Stage::Align, || {
                    let jobs = std::mem::take(&mut plan.jobs);
                    let (results, bstats) = match backend {
                        Session::Plain(b) => match b.submit(jobs) {
                            Ok(r) => r,
                            Err(e) => return Err(MapError::Usage(e.to_string())),
                        },
                        Session::Supervised(b) => {
                            let (outcomes, bstats) = match b.submit_scheduled(jobs, &sched_cfg) {
                                Ok(r) => r,
                                Err(e) => return Err(MapError::Usage(e.to_string())),
                            };
                            // Profiled runs are clean by construction: a
                            // quarantine here is a harness bug, not data.
                            let mut results = Vec::with_capacity(outcomes.len());
                            for o in outcomes {
                                match o {
                                    JobOutcome::Done(r) => results.push(r),
                                    JobOutcome::Quarantined { reason } => {
                                        return Err(MapError::Usage(format!(
                                            "profiled run quarantined a job: {reason}"
                                        )))
                                    }
                                }
                            }
                            (results, bstats)
                        }
                    };
                    if let Some(acc) = backend_stats.as_mut() {
                        acc.merge(&bstats);
                    }
                    Ok(mapper.finalize_read_with_scratch(seq, &plan, &results, &mut scratch))
                });
                ms?
            }
        };
        mappings += ms.len();
        timer
            .time(Stage::Output, || {
                crate::paf::write_paf(&mut sink, name, seq.len(), &tnames, &tlens, &ms)
            })
            .map_err(|e| MapError::Io {
                path: "<output buffer>".into(),
                source: e,
            })?;
    }

    Ok(ProfileResult {
        timer,
        reads: reads.len(),
        mappings,
        output_bytes: sink.len(),
        index_bytes: iref.heap_bytes(),
        backend_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_index::{save_index, IdxOpts, MinimizerIndex};
    use mmm_seq::{nt4_decode, write_fasta, SeqRecord};
    use mmm_simreads::{generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts};

    #[test]
    fn profiles_all_stages() {
        let g = generate_genome(&GenomeOpts {
            len: 120_000,
            repeat_frac: 0.0,
            seed: 21,
            ..Default::default()
        });
        let idx =
            MinimizerIndex::build(&[SeqRecord::new("chr1", nt4_decode(&g))], &IdxOpts::MAP_ONT)
                .unwrap();
        let path = std::env::temp_dir().join(format!("manymap-prof-{}.mmx", std::process::id()));
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

        for use_mmap in [false, true] {
            let cfg = ProfileConfig {
                opts: MapOpts::map_ont(),
                use_mmap,
                sort_by_length: true,
                backend: None,
                supervised: false,
                sched: false,
                device_mem: None,
            };
            let res = profile_run(&path, &fasta, &cfg).unwrap();
            assert_eq!(res.reads, 10);
            assert!(res.mappings >= 8, "mappings={}", res.mappings);
            assert!(res.output_bytes > 0);
            assert!(res.index_bytes > 0);
            assert!(res.backend_stats.is_none());
            let total = res.timer.total().as_secs_f64();
            assert!(total > 0.0);
            // Align must dominate Load Query for this workload.
            assert!(res.timer.get(Stage::Align) > res.timer.get(Stage::LoadQuery));
        }

        // Backend-routed runs must produce identical output and report
        // their execution counters.
        let inline = profile_run(
            &path,
            &fasta,
            &ProfileConfig {
                opts: MapOpts::map_ont(),
                use_mmap: false,
                sort_by_length: true,
                backend: None,
                supervised: false,
                sched: false,
                device_mem: None,
            },
        )
        .unwrap();
        for kind in [mmm_exec::BackendKind::Cpu, mmm_exec::BackendKind::GpuSim] {
            for (supervised, sched) in [(false, false), (true, false), (true, true)] {
                let cfg = ProfileConfig {
                    opts: MapOpts::map_ont(),
                    use_mmap: false,
                    sort_by_length: true,
                    backend: Some(kind),
                    supervised,
                    sched,
                    device_mem: None,
                };
                let res = profile_run(&path, &fasta, &cfg).unwrap();
                let tag = format!("{} supervised={supervised} sched={sched}", kind.label());
                assert_eq!(res.mappings, inline.mappings, "{tag}");
                assert_eq!(res.output_bytes, inline.output_bytes, "{tag}");
                let bstats = res.backend_stats.unwrap();
                assert!(bstats.jobs > 0, "{tag} must execute jobs");
                if supervised {
                    // A clean run needs no interventions.
                    assert!(!bstats.supervised_activity(), "{tag}: {bstats:?}");
                }
                if sched {
                    assert!(bstats.sched_batches > 0, "{tag}: {bstats:?}");
                } else {
                    assert_eq!(bstats.sched_batches, 0, "{tag}");
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}
