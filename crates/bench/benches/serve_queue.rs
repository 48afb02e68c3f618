//! Throughput of the `mmm-serve` ingestion spine: the bounded MPMC queue
//! every tenant session sits behind, and the deficit-round-robin pull the
//! shared pipeline takes its batches with. Plain timing harness — no external
//! bench crates.
//!
//! Run `cargo bench -p bench --bench serve_queue`. Writes the
//! machine-readable baseline to `BENCH_serve_queue.json` (override the
//! path with `BENCH_JSON_OUT`; set it empty to skip). Set `BENCH_QUICK=1`
//! for a fast smoke run.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use bench::format_table;
use manymap::serve::{DrrConfig, DrrScheduler, ServeItem, TenantRegistry};
use mmm_pipeline::BoundedQueue;
use mmm_seq::SeqRecord;

/// Push `n` items through a queue with `producers`×`consumers` threads;
/// returns million items per second (push-to-drain, close-and-drain exit).
fn queue_mops(cap: usize, producers: usize, consumers: usize, n: usize) -> f64 {
    let q: BoundedQueue<usize> = BoundedQueue::new(cap);
    let q = &q;
    let start = Instant::now();
    std::thread::scope(|s| {
        let pushers: Vec<_> = (0..producers)
            .map(|p| {
                s.spawn(move || {
                    for i in (p..n).step_by(producers) {
                        let _ = q.push(i);
                    }
                })
            })
            .collect();
        let poppers: Vec<_> = (0..consumers)
            .map(|_| {
                s.spawn(move || {
                    let mut got = 0usize;
                    while q.pop().is_some() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        for h in pushers {
            let _ = h.join();
        }
        q.close();
        let total: usize = poppers.into_iter().map(|h| h.join().unwrap_or(0)).sum();
        assert_eq!(total, n, "queue lost or duplicated items");
    });
    n as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Pull every read of `tenants` backlogs of `reads_per` reads each (mixed
/// lengths) through the DRR scheduler, as the daemon's compute stage does,
/// acking each read as sent so the credit gate keeps granting; returns
/// million reads scheduled per second.
fn drr_mops(tenants: usize, reads_per: usize) -> f64 {
    let reg = TenantRegistry::new(tenants, reads_per, 256);
    let mut ts = Vec::new();
    for i in 0..tenants {
        let t = reg.admit(&format!("t{i}")).unwrap();
        for j in 0..reads_per {
            // Length mix: alternate short and long so DRR has work to do.
            let len = if j % 4 == 0 { 4_000 } else { 500 };
            let item = ServeItem {
                tenant: t.id,
                rec: SeqRecord::new(format!("r{j}"), vec![b'A'; len]),
                accepted_at: Instant::now(),
            };
            let _ = t.inq.push(item);
        }
        t.ended.store(true, Ordering::Release);
        ts.push(t);
    }
    let n = tenants * reads_per;
    let mut sched = DrrScheduler::new(DrrConfig {
        quantum_bases: 100_000,
        batch_bases: 1_000_000,
    });

    let start = Instant::now();
    let mut got = 0usize;
    while let Some(batch) = sched.pull(&reg, || true, Duration::from_millis(1)) {
        for item in batch {
            ts[item.tenant].sent.fetch_add(1, Ordering::AcqRel);
            got += 1;
        }
        reg.wake();
    }
    assert_eq!(got, n, "scheduler lost reads");
    n as f64 / start.elapsed().as_secs_f64() / 1e6
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok();
    let (queue_items, reads_per) = if quick {
        (100_000, 2_000)
    } else {
        (1_000_000, 20_000)
    };

    // (stage, items, mops) — one row per table line and JSON entry.
    let mut stages: Vec<(String, usize, f64)> = Vec::new();
    for (producers, consumers) in [(1usize, 1usize), (4, 4)] {
        let mops = queue_mops(512, producers, consumers, queue_items);
        stages.push((
            format!("queue {producers}p/{consumers}c"),
            queue_items,
            mops,
        ));
    }
    for tenants in [1usize, 4, 16] {
        let mops = drr_mops(tenants, reads_per);
        stages.push((
            format!("drr {tenants} tenant(s)"),
            tenants * reads_per,
            mops,
        ));
    }

    let rows: Vec<Vec<String>> = stages
        .iter()
        .map(|(stage, items, mops)| {
            vec![
                stage.clone(),
                format!("{items} items"),
                format!("{mops:.2} M/s"),
            ]
        })
        .collect();
    print!(
        "{}",
        format_table("serve/ingestion", &["stage", "work", "rate"], &rows)
    );

    let entries: Vec<String> = stages
        .iter()
        .map(|(stage, items, mops)| {
            format!(
                "    {{\n      \"stage\": \"{stage}\",\n      \"items\": {items},\n      \
                 \"mops\": {mops:.2}\n    }}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"serve_queue\",\n  \"quick\": {quick},\n  \
         \"stages\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    // `cargo bench` runs with the package dir as cwd; anchor the default
    // at the workspace root so the baseline lands next to the others.
    let out = std::env::var("BENCH_JSON_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve_queue.json").into()
    });
    if out.is_empty() {
        return;
    }
    match std::fs::write(&out, &json) {
        Ok(()) => eprintln!("wrote {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}
