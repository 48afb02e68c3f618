//! File-level round trips through real temp files (the unit tests use
//! in-memory buffers; these exercise the OS path end to end).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs::File;
use std::io::{BufReader, BufWriter};

use mmm_seq::{write_fasta, write_fastq, DatasetStats, FastxFormat, FastxReader, SeqRecord};

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mmm-seq-it-{name}-{}", std::process::id()))
}

fn sample_records(n: usize) -> Vec<SeqRecord> {
    (0..n)
        .map(|i| {
            let len = 50 + (i * 37) % 400;
            let seq: Vec<u8> = (0..len).map(|k| b"ACGT"[(k * 7 + i) % 4]).collect();
            SeqRecord {
                name: format!("read{i:04}"),
                comment: (i % 3 == 0).then(|| format!("batch={}", i / 3)),
                seq,
                qual: None,
            }
        })
        .collect()
}

#[test]
fn fasta_file_round_trip_with_wrapping() {
    let recs = sample_records(64);
    let p = tmp("fasta");
    {
        let mut w = BufWriter::new(File::create(&p).unwrap());
        write_fasta(&mut w, &recs, 60).unwrap();
    }
    let mut r = FastxReader::new(BufReader::new(File::open(&p).unwrap()));
    let back = r.read_all().unwrap();
    assert_eq!(r.format(), Some(FastxFormat::Fasta));
    assert_eq!(back, recs);
    std::fs::remove_file(&p).unwrap();
}

#[test]
fn fastq_file_round_trip() {
    let mut recs = sample_records(32);
    for (i, r) in recs.iter_mut().enumerate() {
        r.qual = Some(vec![b'!' + (i % 40) as u8; r.seq.len()]);
    }
    let p = tmp("fastq");
    {
        let mut w = BufWriter::new(File::create(&p).unwrap());
        write_fastq(&mut w, &recs).unwrap();
    }
    let back = FastxReader::new(BufReader::new(File::open(&p).unwrap()))
        .read_all()
        .unwrap();
    assert_eq!(back, recs);
    std::fs::remove_file(&p).unwrap();
}

#[test]
fn batched_reading_covers_the_whole_file_once() {
    let recs = sample_records(100);
    let p = tmp("batched");
    {
        let mut w = BufWriter::new(File::create(&p).unwrap());
        write_fasta(&mut w, &recs, 0).unwrap();
    }
    let mut r = FastxReader::new(BufReader::new(File::open(&p).unwrap()));
    let mut names = Vec::new();
    loop {
        let batch = r.next_batch(5_000).unwrap();
        if batch.is_empty() {
            break;
        }
        names.extend(batch.into_iter().map(|x| x.name));
    }
    assert_eq!(names.len(), 100);
    assert_eq!(
        names,
        recs.iter().map(|r| r.name.clone()).collect::<Vec<_>>()
    );
    std::fs::remove_file(&p).unwrap();
}

#[test]
fn stats_survive_the_file_round_trip() {
    let recs = sample_records(40);
    let before = DatasetStats::from_records(&recs);
    let p = tmp("stats");
    {
        let mut w = BufWriter::new(File::create(&p).unwrap());
        write_fasta(&mut w, &recs, 70).unwrap();
    }
    let back = FastxReader::new(BufReader::new(File::open(&p).unwrap()))
        .read_all()
        .unwrap();
    assert_eq!(DatasetStats::from_records(&back), before);
    std::fs::remove_file(&p).unwrap();
}
