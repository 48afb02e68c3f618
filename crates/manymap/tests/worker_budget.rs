//! A mapping run computes on its `--threads` workers and no more: the
//! pipeline plans and finalizes on the backend session's worker pool, whose
//! worker 0 is the pipeline's compute thread, so `map_reads` at `threads =
//! t` spawns `t − 1` compute threads beside its reader and writer.
//!
//! The count is the operating system's — the entries of `/proc/self/task`
//! — taken on every write to the output, while the run is in flight. This
//! test is alone in its binary, and the sessions set no watchdog deadline
//! (no runner thread), so every thread that appears while a session runs
//! is the reader, the writer or a worker.
#![cfg(target_os = "linux")]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{self, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use manymap::session::{map_reads, MAP_BATCH_BASES};
use manymap::{ExecConfig, MapOpts, MapSession};
use mmm_index::ShardedIndex;
use mmm_seq::{nt4_decode, write_fasta, SeqRecord};
use mmm_simreads::{generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts};

/// `map_reads`' own threads besides the workers: its read-ahead parser and
/// the pipeline's writer.
const IO_THREADS: usize = 2;

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// An output that keeps the most threads alive at any of its writes.
struct PeakThreads(usize);

impl Write for PeakThreads {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 = self.0.max(live_threads());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_run_computes_on_its_sessions_threads() {
    let opts = MapOpts::map_ont();
    let g = generate_genome(&GenomeOpts {
        len: 500_000,
        repeat_frac: 0.0,
        seed: 17,
        ..Default::default()
    });
    let idx = ShardedIndex::build(&[SeqRecord::new("chr1", nt4_decode(&g))], &opts.idx, 1).unwrap();
    let reads: Vec<SeqRecord> = simulate_reads(
        &g,
        &SimOpts {
            platform: Platform::Nanopore,
            num_reads: 400,
            seed: 4,
        },
    )
    .into_iter()
    .map(|r| SeqRecord::new(r.name, nt4_decode(&r.seq)))
    .collect();
    // Enough batches that the reader is still parsing when the first ones
    // are written.
    let bases: usize = reads.iter().map(SeqRecord::len).sum();
    assert!(bases > 6 * MAP_BATCH_BASES, "{bases} bases");
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &reads, 0).unwrap();
    let session = Arc::new(MapSession::new(0, idx, opts));

    let base = live_threads();
    for threads in [1, 2] {
        // Joining a dropped session's workers may return a moment before
        // their entries leave `/proc/self/task`.
        let start = Instant::now();
        while live_threads() > base {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "workers outlived their session"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let cfg = ExecConfig::new(&opts, threads);
        assert_eq!(
            cfg.supervisor.batch_deadline, None,
            "a watchdog would add a thread"
        );
        let before = live_threads();
        let exec = cfg.open().unwrap();
        let mut out = PeakThreads(0);
        let run = map_reads(&fasta[..], &mut out, &session, &exec, false, None).unwrap();
        assert_eq!((run.stats.items, run.degraded()), (reads.len(), 0));
        assert!(run.stats.batches > 6, "{run:?}");
        let workers = out.0.saturating_sub(before + IO_THREADS);
        assert!(
            workers < threads,
            "{workers} spawned compute threads at --threads {threads}"
        );
    }
}
