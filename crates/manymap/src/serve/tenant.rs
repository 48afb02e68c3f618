//! Per-tenant session state: queues, admission, and SLO metrics.
//!
//! Each connected tenant owns two bounded queues — reads in, formatted
//! records out — and a set of counters the stats endpoint reports. The
//! queues are the backpressure story (DESIGN.md §12):
//!
//! * the **input queue** bounds reads accepted but not yet scheduled; when
//!   it fills, the session thread blocks in `push`, the socket buffer
//!   fills, and the *client* stalls — the daemon's memory stays bounded;
//! * the **output queue** bounds records finalized but not yet sent. The
//!   scheduler only takes a read from a tenant when that tenant has output
//!   credit (`outq` capacity minus in-flight reads), so the pipeline's
//!   writer never blocks on a slow consumer and one stalled tenant cannot
//!   wedge the shared pipeline.
//!
//! The registry also carries the daemon's **wake signal**, an epoch under a
//! mutex plus a condvar. The pipeline's pull waits on it when nothing is
//! schedulable; whoever may have made something schedulable bumps it: a
//! session reader that queued a read or ended, a session writer that freed
//! output credit, a `DRAIN`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mmm_pipeline::{lock_unpoisoned, BoundedQueue};
use mmm_seq::SeqRecord;

use crate::session::Item;

/// One read travelling through the shared pipeline, tagged with its tenant
/// and acceptance time (for the latency histogram).
pub struct ServeItem {
    pub tenant: usize,
    pub rec: SeqRecord,
    pub accepted_at: Instant,
}

/// The pipeline routes each record by its tenant and stamps its latency
/// from its acceptance time.
impl Item for ServeItem {
    type Tag = (usize, Instant);
    fn record(&self) -> &SeqRecord {
        &self.rec
    }
    fn tag(&self) -> (usize, Instant) {
        (self.tenant, self.accepted_at)
    }
}

/// A fixed-size log₂ latency histogram: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` microseconds. Lock-free recording; quantiles are
/// bucket-upper-bound estimates, plenty for p50/p99 SLO reporting.
pub struct LatencyHistogram {
    buckets: [AtomicU64; 40],
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    pub fn record_micros(&self, micros: u64) {
        let b = (64 - micros.max(1).leading_zeros() as usize - 1).min(self.buckets.len() - 1);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The upper bound (µs) of the bucket containing quantile `q` (0..=1),
    /// or `None` before any sample.
    pub fn quantile_micros(&self, q: f64) -> Option<u64> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(1u64 << (i + 1));
            }
        }
        Some(1u64 << self.buckets.len())
    }

    /// `"p50 ≤2.0ms, p99 ≤16.4ms"`, or `"no samples"` before any read.
    pub fn slo_summary(&self) -> String {
        match (self.quantile_micros(0.50), self.quantile_micros(0.99)) {
            (Some(p50), Some(p99)) => format!(
                "p50 <={:.1}ms, p99 <={:.1}ms",
                p50 as f64 / 1000.0,
                p99 as f64 / 1000.0
            ),
            _ => "no samples".to_string(),
        }
    }
}

/// Everything the daemon tracks for one tenant session.
pub struct TenantState {
    pub id: usize,
    pub name: String,
    /// Reads accepted from the socket, waiting for the fair scheduler.
    pub inq: BoundedQueue<ServeItem>,
    /// Formatted records waiting for the session writer to send.
    pub outq: BoundedQueue<String>,
    /// Reads accepted from the client.
    pub accepted: AtomicU64,
    /// Reads handed to the pipeline by the scheduler.
    pub scheduled: AtomicU64,
    /// Records actually written to the tenant's socket by its session
    /// writer.
    pub sent: AtomicU64,
    /// Reads degraded to unmapped because the backend quarantined a job.
    pub quarantined: AtomicU64,
    /// Reads degraded for any other reason (panic, over length limit).
    pub degraded: AtomicU64,
    /// The client sent END (or the daemon is draining): no more reads.
    pub ended: AtomicBool,
    /// Accept-to-deliver latency per read.
    pub latency: LatencyHistogram,
}

impl TenantState {
    pub fn new(id: usize, name: String, inq_reads: usize, outq_records: usize) -> Self {
        TenantState {
            id,
            name,
            inq: BoundedQueue::new(inq_reads),
            outq: BoundedQueue::new(outq_records),
            accepted: AtomicU64::new(0),
            scheduled: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            ended: AtomicBool::new(false),
            latency: LatencyHistogram::default(),
        }
    }

    /// Reads scheduled but not yet *sent to the socket* — the scheduler's
    /// credit gate. Measured against `sent`, not against what reached
    /// `outq`: records can pile up in `outq` behind a client that stops
    /// reading, and each such record still occupies the output slot its
    /// scheduling reserved. With
    /// `in_flight` capped at `outq.capacity()`, the pipeline writer's push
    /// into `outq` always finds room, so a slow consumer starves only
    /// itself — never the shared pipeline.
    pub fn in_flight(&self) -> u64 {
        self.scheduled
            .load(Ordering::Acquire)
            .saturating_sub(self.sent.load(Ordering::Acquire))
    }

    /// One stats line for the report / DONE summary.
    pub fn summary(&self) -> String {
        format!(
            "tenant {}: {} accepted, {} sent, {} in flight, {} quarantined, \
             {} degraded, latency {}",
            self.name,
            self.accepted.load(Ordering::Relaxed),
            self.sent.load(Ordering::Relaxed),
            self.in_flight(),
            self.quarantined.load(Ordering::Relaxed),
            self.degraded.load(Ordering::Relaxed),
            self.latency.slo_summary()
        )
    }
}

/// The tenant registry: admission control, the stats snapshot, and the
/// wake signal.
pub struct TenantRegistry {
    tenants: Mutex<Vec<Arc<TenantState>>>,
    /// The wake epoch: bumped by every [`wake`](Self::wake).
    wake: Mutex<u64>,
    wake_cv: Condvar,
    pub max_tenants: usize,
    pub inq_reads: usize,
    pub outq_records: usize,
}

impl TenantRegistry {
    pub fn new(max_tenants: usize, inq_reads: usize, outq_records: usize) -> Self {
        TenantRegistry {
            tenants: Mutex::new(Vec::new()),
            wake: Mutex::new(0),
            wake_cv: Condvar::new(),
            max_tenants: max_tenants.max(1),
            inq_reads: inq_reads.max(1),
            outq_records: outq_records.max(1),
        }
    }

    /// Admit a new tenant, or refuse when the live-session cap is reached.
    /// Ended tenants stay in the registry for stats but do not count
    /// against admission.
    pub fn admit(&self, name: &str) -> Result<Arc<TenantState>, String> {
        let mut g = lock_unpoisoned(&self.tenants);
        let live = g
            .iter()
            .filter(|t| !t.ended.load(Ordering::Acquire))
            .count();
        if live >= self.max_tenants {
            return Err(format!(
                "admission denied: {live} live tenant(s) at the --max-tenants cap"
            ));
        }
        let t = Arc::new(TenantState::new(
            g.len(),
            name.to_string(),
            self.inq_reads,
            self.outq_records,
        ));
        g.push(t.clone());
        Ok(t)
    }

    /// Snapshot of every tenant ever admitted (live and ended).
    pub fn snapshot(&self) -> Vec<Arc<TenantState>> {
        lock_unpoisoned(&self.tenants).clone()
    }

    pub fn get(&self, id: usize) -> Option<Arc<TenantState>> {
        lock_unpoisoned(&self.tenants).get(id).cloned()
    }

    /// Something a waiting pull may be waiting for happened: a read was
    /// queued, output credit was freed, a session ended, a drain began.
    pub fn wake(&self) {
        *lock_unpoisoned(&self.wake) += 1;
        self.wake_cv.notify_all();
    }

    /// The current wake epoch. Read it *before* scanning the queues and
    /// hand it to [`wait_for_wake`](Self::wait_for_wake): a wake that lands
    /// between the scan and the wait has already moved the epoch, so the
    /// wait returns at once instead of sleeping through it.
    pub fn wake_epoch(&self) -> u64 {
        *lock_unpoisoned(&self.wake)
    }

    /// Block until the wake epoch moves past `seen`, or `timeout` passes.
    pub fn wait_for_wake(&self, seen: u64, timeout: Duration) {
        let parked = self
            .wake_cv
            .wait_timeout_while(lock_unpoisoned(&self.wake), timeout, |e| *e == seen);
        drop(parked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record_micros(1_000); // ~1ms
        }
        h.record_micros(1_000_000); // one 1s outlier
        let p50 = h.quantile_micros(0.50).unwrap();
        let p99 = h.quantile_micros(0.99).unwrap();
        assert!((1_000..=2_048).contains(&p50), "p50 {p50}");
        assert!(p99 <= 2_048, "p99 {p99} should exclude the 1% outlier");
        assert!(h.quantile_micros(1.0).unwrap() >= 1_000_000);
        assert!(h.slo_summary().starts_with("p50"));
    }

    #[test]
    fn admission_caps_live_tenants_only() {
        let reg = TenantRegistry::new(2, 4, 4);
        let a = reg.admit("a").unwrap();
        let _b = reg.admit("b").unwrap();
        let err = match reg.admit("c") {
            Ok(_) => panic!("third tenant admitted past the cap"),
            Err(e) => e,
        };
        assert!(err.contains("admission denied"), "{err}");
        // An ended session frees its slot but stays visible in stats.
        a.ended.store(true, Ordering::Release);
        let _c = reg.admit("c").unwrap();
        assert_eq!(reg.snapshot().len(), 3);
    }

    /// A wake between reading the epoch and waiting is not lost, and a
    /// wait with no wake ends at its timeout.
    #[test]
    fn wait_for_wake_returns_once_the_epoch_moved() {
        let reg = TenantRegistry::new(1, 1, 1);
        let seen = reg.wake_epoch();
        reg.wake();
        let t0 = Instant::now();
        reg.wait_for_wake(seen, Duration::from_secs(10));
        assert!(t0.elapsed() < Duration::from_secs(5), "the wake was lost");
        let t0 = Instant::now();
        reg.wait_for_wake(reg.wake_epoch(), Duration::from_millis(20));
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn in_flight_tracks_counters() {
        let t = TenantState::new(0, "t".into(), 4, 4);
        t.accepted.store(3, Ordering::Release);
        t.scheduled.store(3, Ordering::Release);
        t.sent.store(1, Ordering::Release);
        t.ended.store(true, Ordering::Release);
        // Two records delivered to the output queue but unread by the
        // client still count as in flight: their output slots are held.
        assert_eq!(t.in_flight(), 2);
    }
}
