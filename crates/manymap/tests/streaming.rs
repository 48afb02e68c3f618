//! `session::map_reads` streams: records leave as each read batch is
//! finalized, not when the input ends, and the heap it needs follows the
//! batch size (`MAP_BATCH_BASES`), not the input length.
//!
//! A counting global allocator tracks live heap bytes and their peak. It is
//! process-wide, so the tests of this file take turns ([`SERIAL`]).
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![expect(unsafe_code, reason = "a counting allocator forwarding to `System`")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, BufRead, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use manymap::session::{map_reads, MAP_BATCH_BASES};
use manymap::{ExecConfig, MapOpts, MapSession};
use mmm_index::ShardedIndex;
use mmm_seq::{nt4_decode, write_fasta, SeqRecord};
use mmm_simreads::{generate_genome, simulate_reads, GenomeOpts, Platform, SimOpts};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: pure pass-through to `System` plus counter updates — every
// allocator contract obligation is delegated unchanged, and the
// caller-supplied layout/pointer invariants are forwarded verbatim.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same layout the caller passed, forwarded to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from a matching `alloc` on `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from a matching `alloc` on `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Held by each test for its whole run: the heap counters are global.
static SERIAL: Mutex<()> = Mutex::new(());

/// A session over a 1 Mbp repeat-free genome and `4 * n` simulated ONT
/// reads, where the first `n` hold more than two batches of bases.
fn fixture() -> (Arc<MapSession>, Vec<SeqRecord>, usize) {
    let opts = MapOpts::map_ont();
    let g = generate_genome(&GenomeOpts {
        len: 1_000_000,
        repeat_frac: 0.0,
        seed: 31,
        ..Default::default()
    });
    let idx = ShardedIndex::build(&[SeqRecord::new("chr1", nt4_decode(&g))], &opts.idx, 1).unwrap();
    // Reads over 50 kb are dropped so that no single read is a batch.
    let reads: Vec<SeqRecord> = simulate_reads(
        &g,
        &SimOpts {
            platform: Platform::Nanopore,
            num_reads: 1_000,
            seed: 8,
        },
    )
    .into_iter()
    .filter(|r| r.seq.len() <= 50_000)
    .map(|r| SeqRecord::new(r.name, nt4_decode(&r.seq)))
    .collect();
    let mut bases = 0;
    let n = 1 + reads
        .iter()
        .position(|r| {
            bases += r.len();
            bases > 5 * MAP_BATCH_BASES / 2
        })
        .unwrap();
    assert!(4 * n <= reads.len(), "simulate more reads: need {}", 4 * n);
    let session = Arc::new(MapSession::new(0, idx, opts));
    (session, reads[..4 * n].to_vec(), n)
}

fn fasta(reads: &[SeqRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    write_fasta(&mut out, reads, 0).unwrap();
    out
}

/// How long the reader waits for a first record before it gives up.
const FIRST_RECORD_WAIT: Duration = Duration::from_secs(5);

/// Serves `data` up to `gate`, then nothing more until the output has
/// received a record (or [`FIRST_RECORD_WAIT`] passes, which it notes).
struct GatedReader<'a> {
    data: &'a [u8],
    pos: usize,
    gate: usize,
    first_record: Option<Receiver<()>>,
    gave_up: &'a AtomicBool,
}

impl BufRead for GatedReader<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.gate {
            if let Some(rx) = self.first_record.take() {
                if rx.recv_timeout(FIRST_RECORD_WAIT).is_err() {
                    self.gave_up.store(true, Ordering::SeqCst);
                }
            }
        }
        let end = match self.first_record {
            Some(_) => self.gate,
            None => self.data.len(),
        };
        Ok(&self.data[self.pos..end])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

impl Read for GatedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// Keeps what it is written and signals once it has a whole line.
struct SignallingWriter {
    out: Vec<u8>,
    first_record: Option<Sender<()>>,
}

impl Write for SignallingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out.extend_from_slice(buf);
        if self.out.contains(&b'\n') {
            if let Some(tx) = self.first_record.take() {
                let _ = tx.send(());
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The reader holds back everything after the first batch (and the next
/// record, which ends it) until a record has reached the output. A
/// pipeline that writes only at the end of its input would wait for the
/// reader while the reader waits for it; here the reader gives up after
/// [`FIRST_RECORD_WAIT`] and the test fails instead of hanging.
#[test]
fn first_batch_records_are_written_before_the_input_ends() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (session, reads, n) = fixture();
    let reads = &reads[..n];
    let data = fasta(reads);
    // The batch reader stops after the read that reaches the batch size; it
    // knows that read has ended once it sees the next header, so the gate
    // sits at the start of the read after that one.
    let mut bases = 0;
    let last = reads
        .iter()
        .position(|r| {
            bases += r.len();
            bases >= MAP_BATCH_BASES
        })
        .unwrap();
    let gate = fasta(&reads[..last + 2]).len();
    assert!(
        gate < data.len(),
        "the fixture must outlast its first batch"
    );

    let opts = MapOpts::map_ont();
    let exec = ExecConfig::new(&opts, 2).open().unwrap();
    let (tx, rx) = channel();
    let gave_up = AtomicBool::new(false);
    let reader = GatedReader {
        data: &data,
        pos: 0,
        gate,
        first_record: Some(rx),
        gave_up: &gave_up,
    };
    let mut writer = SignallingWriter {
        out: Vec::new(),
        first_record: Some(tx),
    };
    let run = map_reads(reader, &mut writer, &session, &exec, false, 2, None).unwrap();
    assert!(
        !gave_up.load(Ordering::SeqCst),
        "no record was written within {FIRST_RECORD_WAIT:?} of the first batch being read"
    );
    assert!(run.stats.batches >= 2, "{run:?}");

    let mut plain = Vec::new();
    map_reads(&data[..], &mut plain, &session, &exec, false, 2, None).unwrap();
    assert_eq!(writer.out, plain, "gating the input changed the output");
}

/// Peak live heap during `map_reads` over `reads`, from a fresh backend
/// session, with the output counted and dropped.
fn peak_heap(session: &Arc<MapSession>, reads: &[SeqRecord]) -> usize {
    let data = fasta(reads);
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let exec = ExecConfig::new(&MapOpts::map_ont(), 2).open().unwrap();
    let run = map_reads(&data[..], io::sink(), session, &exec, true, 2, None).unwrap();
    assert_eq!((run.stats.items, run.degraded()), (reads.len(), 0));
    PEAK.load(Ordering::SeqCst) - base
}

/// Four times the reads need about the same heap, because at most a fixed
/// number of batches is in flight.
#[test]
fn peak_heap_follows_the_batch_not_the_input() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (session, reads, n) = fixture();
    let one = peak_heap(&session, &reads[..n]);
    let four = peak_heap(&session, &reads);
    assert!(
        (four as f64) < 1.5 * one as f64,
        "peak heap over {} reads is {four} bytes, over {n} reads {one} bytes",
        reads.len()
    );
}
