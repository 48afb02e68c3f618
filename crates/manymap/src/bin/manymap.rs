//! The `manymap` command-line aligner.
//!
//! A minimap2-style interface over the library:
//!
//! ```sh
//! manymap index  ref.fa ref.mmx [--preset map-pb|map-ont] [--shards N] [--threads N]
//! manymap map    ref.mmx reads.fq [shared flags] [--sam] [--fail-fast]
//!                [--inject-panic <read-name>]
//! manymap map    ref.fa  reads.fq   # index built on the fly
//! ```
//!
//! The shared flags are `manymap::session::SHARED_FLAGS`, the one table
//! `mmm-serve daemon` parses too: `--preset map-pb|map-ont`, `--engine
//! mm2|manymap`, `--no-cigar`, `--max-read-len N`, `--threads N` (1 to
//! `session::MAX_THREADS`), `--backend cpu|gpu-sim`,
//! `--inject-backend-fault <plan>`, `--backend-retries N`,
//! `--batch-deadline-ms N` (≥ 1). Each subcommand is
//! parsed against its own table (`index`: `session::INDEX_FLAGS`, which is
//! `--preset`, `--shards N` and `--threads N`; `map`: the shared table plus
//! `session::MAP_FLAGS`): any other `--flag`, a value flag with no value, a
//! flag given twice, or a malformed number is a usage error naming the flag
//! (exit 1). Flags are the only configuration channel.
//!
//! `index` takes a FASTA reference and writes one kind of file: the
//! section-checksummed `MMXS` container around the one image version (v2,
//! bit-packed postings), published atomically (temp file + rename: a file
//! is replaced, never rewritten, so a running `map` or daemon keeps the
//! generation it mapped). It builds on `--threads N` workers — `map`'s
//! parser, bound and default (every core) — and writes the same bytes at
//! every `N`; `map ref.fa` builds its in-memory index on its own
//! `--threads`. `map` memory-maps an index, checksums every byte
//! and validates every offset before following any, then queries the
//! mapping where it lies — opening copies nothing: a damaged file is a fatal
//! error naming the section, and a file of another version — or a bare
//! image with no container, as earlier builds wrote — is a typed "rebuild
//! with `manymap index`" error. A reference is an index iff it starts with
//! `MMX`, whatever its name; anything else is read as FASTA/FASTQ.
//!
//! Sharded indexes (DESIGN.md §15): `index --shards N` splits the
//! reference into `N` contiguous target ranges, one container each, behind
//! a v3 manifest. `map` opens either shape transparently (the leading magic
//! says which); over a manifest, shards mmap on first touch and stay
//! mapped (residency is the page cache's business: there is no budget flag),
//! and each shard is its own storage fault domain — a corrupt or missing shard quarantines with a
//! typed reason and only the reads whose seeds touch it degrade to
//! unmapped records. Compute is not sharded: the run has one
//! backend session whatever the shard count. Shard chaos runs through the same
//! `--inject-backend-fault` plan string using the shard rule classes
//! (`corrupt-section`/`missing-shard`/`torn-tail`/`slow-io`, keyed by
//! `shards=`), bridged into the shard loader.
//!
//! Output (PAF by default, SAM with `--sam`) goes to stdout; stage timings
//! and a per-backend execution summary to stderr.
//!
//! Backend selection: `--backend` routes the batched gap-fill alignment
//! work to the CPU SIMD executor or the simulated GPU/SIMT runner. All
//! backends are bit-identical, so the choice never changes stdout. The
//! environment variables `MMM_GPU_MEM` (bytes) and `MMM_GPU_STREAMS` size
//! the simulated device (there is no flag for either) — useful to force
//! the oversized-pair CPU fallback path.
//!
//! Fault behavior: fatal input problems (unreadable files, corrupt index,
//! a byte stream dying mid-file) abort with a nonzero exit and a message
//! naming the file and byte offset. Per-read problems (an oversized read, a
//! worker panic) degrade that read to an unmapped record, are counted, and
//! reported on stderr; the run still exits 0, as it does when the reader of
//! stdout closes it early (`manymap map … | head`). `--inject-panic <read-name>`
//! triggers a deliberate worker panic on the named read, for exercising the
//! degradation path end-to-end.
//!
//! Supervised execution (DESIGN.md §10): the run opens one backend session,
//! before it reads the index (so a bad backend fails first), and every
//! dispatch goes through it under the `mmm-exec` supervisor — a failed
//! submission is split in halves on the backend serving it, and a single
//! job that still fails is retried alone with backoff, up to
//! `--backend-retries N` attempts,
//! hung submissions are killed by a watchdog (`--batch-deadline-ms N`), and
//! a repeatedly failing device backend is demoted to the CPU by a circuit
//! breaker. Jobs that fail everywhere quarantine their read to an unmapped
//! record. `--fail-fast` restores the old fatal behaviour.
//! `--inject-backend-fault <plan>` installs a deterministic fault schedule,
//! e.g. `launch-fail:batches=0..2` or `hang:ms=500:every=3` — see
//! `mmm_exec::FaultPlan` for the grammar.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use manymap::session::{self, Args, MapSession, INDEX_FLAGS, MAP_FLAGS, SHARED_FLAGS};
use manymap::{load_index_any, MapError};
use mmm_exec::{StatsReport, StderrSink};
use mmm_index::{build_sharded, save_index, MinimizerIndex};
use mmm_pipeline::{lock_unpoisoned, PipelineError};

/// The `index` summary line. The compaction ratio is only meaningful when
/// both sides are nonzero: an empty reference (no minimizers) has no flat
/// baseline, and an all-singleton reference stores every hit inline in the
/// bucket map (zero posting-pool bytes) — both print `n/a` instead of a
/// divide-by-zero artifact.
fn index_report(output: &str, idx: &MinimizerIndex) -> String {
    let posting_bytes = idx.posting_bytes();
    let flat_bytes = idx.num_positions() * 8;
    let shrink = if posting_bytes > 0 && flat_bytes > 0 {
        format!("{:.2}x vs flat", flat_bytes as f64 / posting_bytes as f64)
    } else {
        "n/a vs flat".to_string()
    };
    format!(
        "[manymap] wrote {output}: {} minimizers over {} sequence(s); \
         packed postings, {posting_bytes} posting byte(s) ({shrink}), \
         decode tier {}",
        idx.num_minimizers(),
        idx.num_seqs(),
        mmm_index::unpack::best_tier_label(),
    )
}

fn cmd_index(args: &Args) -> Result<(), MapError> {
    let [input, output] = &args.positional[1..] else {
        return Err(MapError::Usage(
            "usage: manymap index <ref.fa> <out.mmx> [--preset map-pb|map-ont] [--shards N] \
             [--threads N]"
                .into(),
        ));
    };
    let opts = session::map_opts(args)?;
    let threads = session::threads(args)?;
    // `--shards N` writes a manifest and N shard files, even at N = 1;
    // without it, one container.
    let n_shards = match args.num("shards")? {
        Some(0) => {
            return Err(MapError::Usage(
                "--shards 0: expected an integer >= 1".into(),
            ))
        }
        n => n,
    };
    if session::is_index_file(Path::new(input))? {
        return Err(MapError::Usage(format!(
            "{input}: index needs a FASTA reference, not an existing index"
        )));
    }
    let refs = session::read_refs(Path::new(input))?;
    if let Some(n_shards) = n_shards {
        eprintln!(
            "[manymap] indexing {} reference sequence(s) into {n_shards} shard(s)...",
            refs.len()
        );
        let report = build_sharded(&refs, &opts.idx, n_shards, threads, Path::new(output))
            .map_err(|e| MapError::Index {
                path: output.to_string(),
                source: e,
            })?;
        let shard_bytes: u64 = report.shard_bytes.iter().sum();
        eprintln!(
            "[manymap] wrote {output}: {} shard(s) over {} sequence(s), \
             global occurrence cutoff {}, {shard_bytes} shard byte(s) + \
             {} manifest byte(s)",
            report.n_shards, report.n_seqs, report.max_occ, report.manifest_bytes,
        );
        return Ok(());
    }
    let idx = MinimizerIndex::build(&refs, &opts.idx, threads).map_err(|e| MapError::Index {
        path: input.to_string(),
        source: e,
    })?;
    save_index(&idx, Path::new(output)).map_err(|e| MapError::Io {
        path: output.to_string(),
        source: e,
    })?;
    eprintln!("{}", index_report(output, &idx));
    Ok(())
}

fn cmd_map(args: &Args) -> Result<(), MapError> {
    let [ref_path, reads_path] = &args.positional[1..] else {
        return Err(MapError::Usage(
            "usage: manymap map <ref.mmx|ref.fa> <reads.fq>".into(),
        ));
    };
    let (opts, mut exec_cfg) = session::map_config(args)?;
    exec_cfg.supervisor.fail_fast = args.has("fail-fast");
    let threads = exec_cfg.backend.threads;
    let sam = args.has("sam");
    let inject_panic = args.get("inject-panic");
    // The run's one backend session, opened first: a backend that cannot
    // be prepared fails before the index is read.
    let exec = exec_cfg.open()?;

    let index = load_index_any(
        Path::new(ref_path),
        &opts,
        exec_cfg.shard_open_opts(),
        threads,
    )?;
    if index.has_manifest() {
        eprintln!(
            "[manymap] opened shard manifest: {} shard(s) over {} sequence(s)",
            index.num_shards(),
            index.num_seqs()
        );
    }
    let session = Arc::new(MapSession::new(0, index, opts));

    let f = File::open(reads_path).map_err(|e| MapError::Io {
        path: reads_path.to_string(),
        source: e,
    })?;
    let run = session::map_reads(
        BufReader::new(f),
        std::io::stdout(),
        &session,
        &exec,
        sam,
        inject_panic,
    );
    let run = match run {
        // The reader of stdout has all it wanted (`manymap map … | head`).
        Err(MapError::OutputClosed) => return Ok(()),
        // A mid-file read error (device fault, malformed record) aborts the
        // run naming the file and position — it is never EOF.
        Err(MapError::Pipeline(PipelineError::Read(e))) => {
            let named = format!("{reads_path}: {e}").into();
            return Err(MapError::Pipeline(PipelineError::Read(named)));
        }
        r => r?,
    };
    let stats = run.stats;

    // The run summary is assembled into one report and delivered as a
    // single stderr write (DESIGN.md §12): concurrent sessions sharing a
    // stderr serialize at report granularity instead of interleaving lines.
    let mut report = StatsReport::new("[manymap] ");
    report.line(format!(
        "mapped {} reads in {:.2}s wall ({} threads; compute {:.2}s, I/O {:.2}s; \
         plan {:.2}s, dispatch {:.2}s, finalize {:.2}s)",
        stats.items,
        stats.wall_seconds,
        threads,
        stats.compute_seconds,
        stats.in_seconds + stats.out_seconds,
        stats.plan_seconds,
        stats.dispatch_seconds,
        stats.finalize_seconds,
    ));
    report.backend_block(&lock_unpoisoned(&exec.stats), exec.backend.label());
    session.shard_report(&mut report);
    if run.degraded() > 0 {
        report.line(format!(
            "{} read(s) degraded to unmapped: {} over the length limit, \
             {} alignment-rejected, {} worker panic(s), {} backend-quarantined, \
             {} on quarantined shard(s)",
            run.degraded(),
            run.too_long,
            run.align_rejected,
            run.panicked,
            run.backend_quarantined,
            run.shard_degraded,
        ));
    }
    report.emit(&StderrSink);
    Ok(())
}

fn main() -> ExitCode {
    // The subcommand comes first and names the table its flags are
    // checked against; it stays `positional[0]`.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("index") => Args::parse(argv, &[INDEX_FLAGS]).and_then(|a| cmd_index(&a)),
        Some("map") => Args::parse(argv, &[SHARED_FLAGS, MAP_FLAGS]).and_then(|a| cmd_map(&a)),
        _ => Err(MapError::Usage(
            "usage: manymap <index|map> ... (see crate docs)".into(),
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("manymap: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_seq::{nt4_decode, SeqRecord};
    use mmm_simreads::{generate_genome, GenomeOpts};

    /// Regression: the shrink-vs-flat fragment used to print a meaningless
    /// ratio (or divide by zero) on an empty or all-singleton reference.
    #[test]
    fn index_report_guards_zero_denominators() {
        // Empty: a reference shorter than k yields zero minimizers, so the
        // flat baseline is zero bytes.
        let empty = MinimizerIndex::build(
            &[SeqRecord::new("tiny", nt4_decode(b"ACGTACGT"))],
            &mmm_index::IdxOpts::MAP_ONT,
            1,
        )
        .unwrap();
        assert_eq!(empty.num_positions(), 0);
        let line = index_report("out.mmx", &empty);
        assert!(line.contains("n/a vs flat"), "{line}");
        assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");

        // All-singleton: every minimizer occurs once, so the packed format
        // stores every hit inline and the posting pool is empty.
        let g = generate_genome(&GenomeOpts {
            len: 5_000,
            repeat_frac: 0.0,
            seed: 41,
            ..Default::default()
        });
        let single = MinimizerIndex::build(
            &[SeqRecord::new("chr1", g)],
            &mmm_index::IdxOpts::MAP_ONT,
            1,
        )
        .unwrap();
        let line = index_report("out.mmx", &single);
        assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");
        if single.posting_bytes() == 0 {
            assert!(line.contains("n/a vs flat"), "{line}");
        }

        // A healthy reference still reports a real ratio.
        let g = generate_genome(&GenomeOpts {
            len: 200_000,
            repeat_frac: 0.3,
            seed: 42,
            ..Default::default()
        });
        let normal = MinimizerIndex::build(
            &[SeqRecord::new("chr1", g)],
            &mmm_index::IdxOpts::MAP_ONT,
            1,
        )
        .unwrap();
        if normal.posting_bytes() > 0 {
            let line = index_report("out.mmx", &normal);
            assert!(line.contains("x vs flat"), "{line}");
        }
    }
}
