//! Fair scheduling across tenants: deficit round robin in bases.
//!
//! The daemon runs ONE shared pipeline over ONE shared backend session, so
//! whatever order reads leave the tenant input queues *is* the service
//! policy. Plain round robin in reads would let a tenant with long reads
//! monopolize the backend (alignment cost scales with bases, not reads);
//! deficit round robin charges each tenant for the bases it ships:
//!
//! * tenants take turns; at the start of its turn a backlogged tenant's
//!   deficit grows by the quantum;
//! * the tenant dequeues reads while its deficit lasts, paying each read's
//!   length (one read of overshoot is allowed — the input queue, a
//!   [`mmm_pipeline::BoundedQueue`], has no peek, and bounding overshoot by
//!   the max read length keeps long-run fairness intact);
//! * a tenant with an empty queue loses its deficit (standard DRR: credit
//!   does not accrue while idle);
//! * a tenant without **output credit** (its in-flight count has reached
//!   its output queue's capacity) is skipped entirely: a slow consumer
//!   stops being scheduled instead of wedging the shared pipeline writer.
//!
//! The scheduler has no thread of its own: the shared pipeline's compute
//! stage calls [`DrrScheduler::pull`] each time it is free for a batch, and
//! the pull takes what is queued, up to `batch_bases`, in DRR order. A read
//! that arrives while a batch computes waits in its tenant's queue and
//! joins the next batch, so a busy daemon forms full batches rather than
//! one-read ones. When nothing is schedulable the pull sleeps on the
//! registry's wake signal; the cursor and the deficits carry from one pull
//! to the next, so fairness in bases does not depend on where batches end.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use super::tenant::{ServeItem, TenantRegistry, TenantState};

/// Scheduler tuning. Defaults match the CLI's batch geometry: batches of
/// [`MAP_BATCH_BASES`](crate::session::MAP_BATCH_BASES), so a backlogged
/// daemon streams records as the CLI does, and a quantum of about four
/// batches, so one turn moves a few batches of a backlogged tenant.
#[derive(Clone, Copy, Debug)]
pub struct DrrConfig {
    /// Bases added to a backlogged tenant's deficit at the start of its
    /// turn.
    pub quantum_bases: usize,
    /// Target bases per pipeline batch.
    pub batch_bases: usize,
}

impl Default for DrrConfig {
    fn default() -> Self {
        DrrConfig {
            quantum_bases: 1_000_000,
            batch_bases: crate::session::MAP_BATCH_BASES,
        }
    }
}

/// The deficit ledger and the round-robin cursor, owned by the pipeline's
/// compute thread.
pub struct DrrScheduler {
    cfg: DrrConfig,
    deficits: Vec<usize>,
    /// The tenant whose turn it is. A turn cut short by a full batch
    /// carries over to the next pull.
    next: usize,
    /// The tenant at `next` has been granted this turn's quantum.
    granted: bool,
}

impl DrrScheduler {
    pub fn new(cfg: DrrConfig) -> Self {
        DrrScheduler {
            cfg,
            deficits: Vec::new(),
            next: 0,
            granted: false,
        }
    }

    /// Output credit: how many more reads this tenant may have in flight
    /// before its (bounded) output queue could fill.
    fn credit(t: &TenantState) -> u64 {
        (t.outq.capacity() as u64).saturating_sub(t.in_flight())
    }

    /// Take one batch from `tenants`' input queues in DRR order: turns go
    /// round until the batch holds `batch_bases` or every tenant in a row
    /// had nothing schedulable. Empty when nothing is.
    fn next_batch(&mut self, tenants: &[Arc<TenantState>]) -> Vec<ServeItem> {
        let n = tenants.len();
        if self.deficits.len() < n {
            self.deficits.resize(n, 0);
        }
        let mut batch: Vec<ServeItem> = Vec::new();
        let mut bases = 0usize;
        let mut idle_turns = 0;
        while idle_turns < n {
            let t = &tenants[self.next % n];
            let d = &mut self.deficits[t.id];
            let mut credit = Self::credit(t);
            let mut moved = false;
            if t.inq.is_empty() {
                *d = 0; // idle flows do not accrue credit
            } else if credit > 0 {
                if !self.granted {
                    *d = d.saturating_add(self.cfg.quantum_bases);
                    self.granted = true;
                }
                while *d > 0 && credit > 0 {
                    let Some(item) = t.inq.try_pop() else {
                        *d = 0;
                        break;
                    };
                    let len = item.rec.len();
                    *d = d.saturating_sub(len.max(1));
                    credit -= 1;
                    t.scheduled.fetch_add(1, Ordering::AcqRel);
                    bases += len;
                    batch.push(item);
                    moved = true;
                    if bases >= self.cfg.batch_bases {
                        return batch; // the turn goes on next pull
                    }
                }
            }
            self.next = (self.next + 1) % n;
            self.granted = false;
            idle_turns = if moved { 0 } else { idle_turns + 1 };
        }
        batch
    }

    /// The shared pipeline's input: block until a batch is schedulable and
    /// return it, or return `None` once `stop()` holds and every input
    /// queue is empty — the drain guarantee: every accepted read is
    /// scheduled before the pipeline ends.
    ///
    /// When nothing is schedulable the pull waits on the registry's wake
    /// signal, whose epoch it read before scanning; `poll` bounds the wait
    /// so a stop that nobody signals (SIGTERM) is still seen.
    pub fn pull(
        &mut self,
        registry: &TenantRegistry,
        stop: impl Fn() -> bool,
        poll: Duration,
    ) -> Option<Vec<ServeItem>> {
        loop {
            let seen = registry.wake_epoch();
            let tenants = registry.snapshot();
            let batch = self.next_batch(&tenants);
            if !batch.is_empty() {
                return Some(batch);
            }
            if stop() && tenants.iter().all(|t| t.inq.is_empty()) {
                return None;
            }
            registry.wait_for_wake(seen, poll);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_seq::SeqRecord;
    use std::time::Instant;

    fn item(tenant: usize, len: usize) -> ServeItem {
        ServeItem {
            tenant,
            rec: SeqRecord::new(format!("r{len}"), vec![b'A'; len]),
            accepted_at: Instant::now(),
        }
    }

    fn registry_with(lens: &[&[usize]]) -> (TenantRegistry, Vec<Arc<TenantState>>) {
        // Queue bounds sized above every backlog below: `inq.push` blocks
        // when full, and no scheduler is draining yet during setup.
        let reg = TenantRegistry::new(16, 256, 64);
        let mut ts = Vec::new();
        for (i, tenant_lens) in lens.iter().enumerate() {
            let t = reg.admit(&format!("t{i}")).unwrap();
            for &l in *tenant_lens {
                assert!(t.inq.push(item(t.id, l)).is_ok());
            }
            ts.push(t);
        }
        (reg, ts)
    }

    /// Every batch up to the end of the backlog, each read acked as sent
    /// so output credit never runs out.
    fn drain_batches(s: &mut DrrScheduler, ts: &[Arc<TenantState>]) -> Vec<Vec<ServeItem>> {
        let batches = std::iter::from_fn(|| Some(s.next_batch(ts)).filter(|b| !b.is_empty()));
        batches
            .inspect(|b| {
                for it in b {
                    ts[it.tenant].sent.fetch_add(1, Ordering::AcqRel);
                }
            })
            .collect()
    }

    /// Equal backlogs get near-equal base shares per batch, regardless of
    /// read length mix.
    #[test]
    fn drr_shares_bases_not_reads() {
        // Tenant 0 ships 10k-base reads, tenant 1 ships 1k-base reads.
        let (_reg, ts) = registry_with(&[&[10_000; 20], &[1_000; 200]]);
        let mut s = DrrScheduler::new(DrrConfig {
            quantum_bases: 10_000,
            batch_bases: 40_000,
        });
        // One quantum per turn: ~1 long read per ~10 short ones.
        for batch in drain_batches(&mut s, &ts).iter().take(4) {
            let mut by_tenant = [0usize; 2];
            for it in batch {
                by_tenant[it.tenant] += it.rec.len();
            }
            let (a, b) = (by_tenant[0] as f64, by_tenant[1] as f64);
            assert!(a > 0.0 && b > 0.0, "{by_tenant:?}");
            assert!(
                (a / b) < 2.5 && (b / a) < 2.5,
                "base shares too skewed: {by_tenant:?}"
            );
        }
    }

    /// A turn cut short by a full batch resumes at the next pull: the same
    /// tenant leads it, on the quantum it was already granted.
    #[test]
    fn a_full_batch_carries_the_turn_to_the_next_pull() {
        let (_reg, ts) = registry_with(&[&[100; 10], &[100; 10]]);
        let mut s = DrrScheduler::new(DrrConfig {
            quantum_bases: 500,
            batch_bases: 300,
        });
        let tenants = |b: &[ServeItem]| b.iter().map(|i| i.tenant).collect::<Vec<_>>();
        assert_eq!(tenants(&s.next_batch(&ts)), [0, 0, 0]);
        assert_eq!(tenants(&s.next_batch(&ts)), [0, 0, 1]);
        assert_eq!(tenants(&s.next_batch(&ts)), [1, 1, 1]);
        assert_eq!(tenants(&s.next_batch(&ts)), [1, 0, 0]);
    }

    /// A tenant without output credit is skipped; others still progress.
    #[test]
    fn slow_consumer_is_skipped_not_blocking() {
        let (_reg, ts) = registry_with(&[&[100; 8], &[100; 8]]);
        // Tenant 0 is "slow": its output queue is already fully committed.
        ts[0].scheduled.store(64, Ordering::Release);
        let mut s = DrrScheduler::new(DrrConfig::default());
        let batch = s.next_batch(&ts);
        assert_eq!(batch.len(), 8, "only the healthy tenant was scheduled");
        assert!(batch.iter().all(|i| i.tenant == 1));
        assert_eq!(ts[0].inq.len(), 8, "slow tenant's backlog is untouched");
        assert!(s.next_batch(&ts).is_empty());
    }

    /// Batches respect the base budget (with single-read overshoot).
    #[test]
    fn batches_split_at_the_base_budget() {
        let (_reg, ts) = registry_with(&[&[600; 10]]);
        let mut s = DrrScheduler::new(DrrConfig {
            quantum_bases: 100_000,
            batch_bases: 1_000,
        });
        let sizes: Vec<usize> = drain_batches(&mut s, &ts)
            .iter()
            .map(|b| b.iter().map(|i| i.rec.len()).sum())
            .collect();
        assert!(sizes.len() >= 5, "{sizes:?}");
        for s in &sizes {
            assert!(
                *s <= 1_000 + 600,
                "batch of {s} bases exceeds budget+overshoot"
            );
        }
    }

    /// `pull` hands out every queued read after `stop` flips, then ends
    /// with `None` — the drain contract.
    #[test]
    fn pull_drains_then_ends() {
        let (reg, ts) = registry_with(&[&[50; 30], &[50; 30]]);
        for t in &ts {
            t.ended.store(true, Ordering::Release);
        }
        let mut s = DrrScheduler::new(DrrConfig {
            quantum_bases: 1_000,
            batch_bases: 500,
        });
        let poll = Duration::from_millis(1);
        let mut total = 0;
        while let Some(b) = s.pull(&reg, || true, poll) {
            total += b.len();
        }
        assert_eq!(total, 60, "every accepted read was pulled");
    }

    /// A pull with nothing queued sleeps until a reader queues a read and
    /// wakes it, far sooner than its poll timeout.
    #[test]
    fn a_pull_wakes_when_a_read_is_queued() {
        let (reg, ts) = registry_with(&[&[]]);
        let mut s = DrrScheduler::new(DrrConfig::default());
        let poll = Duration::from_secs(30);
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                assert!(ts[0].inq.push(item(0, 70)).is_ok());
                reg.wake();
            });
            let batch = s.pull(&reg, || false, poll).unwrap();
            assert_eq!(batch.len(), 1);
        });
        assert!(t0.elapsed() < Duration::from_secs(10));
    }
}
