//! Fair scheduling across tenants: deficit round robin in bases.
//!
//! The daemon runs ONE shared pipeline over ONE shared backend session, so
//! whatever order reads leave the tenant input queues *is* the service
//! policy. Plain round robin in reads would let a tenant with long reads
//! monopolize the backend (alignment cost scales with bases, not reads);
//! deficit round robin charges each tenant for the bases it ships:
//!
//! * every round, each backlogged tenant's deficit grows by the quantum;
//! * the tenant dequeues reads while its deficit lasts, paying each read's
//!   length (one read of overshoot is allowed — [`BoundedQueue`] has no
//!   peek, and bounding overshoot by the max read length keeps long-run
//!   fairness intact);
//! * a tenant with an empty queue loses its deficit (standard DRR: credit
//!   does not accrue while idle);
//! * a tenant without **output credit** (its in-flight count has reached
//!   its output queue's capacity) is skipped entirely: a slow consumer
//!   stops being scheduled instead of wedging the shared pipeline writer.
//!
//! Dequeued reads are packed into batches of at most `batch_bases` and
//! pushed to the pipeline's input queue — a blocking push, so the pipeline
//! itself backpressures the scheduler.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use mmm_pipeline::BoundedQueue;

use super::tenant::{ServeItem, TenantRegistry, TenantState};

/// Scheduler tuning. Defaults match the CLI's batch geometry: batches of
/// [`MAP_BATCH_BASES`](crate::session::MAP_BATCH_BASES), so a backlogged
/// daemon streams records as the CLI does, and a quantum of about four
/// batches, so one round moves a few batches per backlogged tenant.
#[derive(Clone, Copy, Debug)]
pub struct DrrConfig {
    /// Bases added to each backlogged tenant's deficit per round.
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

/// Per-round scheduler state (the deficit ledger), separate from the
/// registry so only the scheduler thread touches it.
pub struct DrrScheduler {
    cfg: DrrConfig,
    deficits: Vec<usize>,
    /// Round-robin cursor so the same tenant does not lead every round.
    next: usize,
}

impl DrrScheduler {
    pub fn new(cfg: DrrConfig) -> Self {
        DrrScheduler {
            cfg,
            deficits: Vec::new(),
            next: 0,
        }
    }

    /// Output credit: how many more reads this tenant may have in flight
    /// before its (bounded) output queue could fill.
    fn credit(t: &TenantState) -> u64 {
        (t.outq.capacity() as u64).saturating_sub(t.in_flight())
    }

    /// Run one DRR round over `tenants`, pushing full batches into
    /// `pipe_in`. Returns the number of reads scheduled this round.
    ///
    /// `pipe_in.push` blocks when the pipeline is behind; that is the
    /// intended backpressure edge, not a failure. A closed pipeline queue
    /// ends the round early (daemon shutdown).
    pub fn round(
        &mut self,
        tenants: &[Arc<TenantState>],
        pipe_in: &BoundedQueue<Vec<ServeItem>>,
    ) -> usize {
        if self.deficits.len() < tenants.len() {
            self.deficits.resize(tenants.len(), 0);
        }
        let n = tenants.len();
        if n == 0 {
            return 0;
        }
        let mut batch: Vec<ServeItem> = Vec::new();
        let mut batch_bases = 0usize;
        let mut scheduled = 0usize;
        let start = self.next % n;
        self.next = self.next.wrapping_add(1);
        for k in 0..n {
            let t = &tenants[(start + k) % n];
            let d = &mut self.deficits[t.id];
            if t.inq.is_empty() {
                *d = 0; // idle flows do not accrue credit
                continue;
            }
            *d = d.saturating_add(self.cfg.quantum_bases);
            let mut credit = Self::credit(t);
            while *d > 0 && credit > 0 {
                let Some(item) = t.inq.try_pop() else {
                    *d = 0;
                    break;
                };
                let len = item.rec.len();
                *d = d.saturating_sub(len.max(1));
                credit -= 1;
                t.scheduled.fetch_add(1, Ordering::AcqRel);
                batch_bases += len;
                batch.push(item);
                scheduled += 1;
                if batch_bases >= self.cfg.batch_bases {
                    if pipe_in.push(std::mem::take(&mut batch)).is_err() {
                        return scheduled; // pipeline shut down
                    }
                    batch_bases = 0;
                }
            }
        }
        if !batch.is_empty() {
            let _ = pipe_in.push(batch);
        }
        scheduled
    }

    /// The blocking scheduler loop. Runs until `stop()` goes true *and*
    /// every tenant queue has been flushed, then closes `pipe_in` so the
    /// pipeline drains and returns — the SIGTERM guarantee: every accepted
    /// read is flushed before exit.
    pub fn run(
        &mut self,
        registry: &TenantRegistry,
        pipe_in: &BoundedQueue<Vec<ServeItem>>,
        stop: impl Fn() -> bool,
    ) {
        loop {
            // A closed pipeline queue means the pipeline itself is gone
            // (fatal dispatch error): stop scheduling instead of pushing
            // into the void.
            if pipe_in.is_closed() {
                return;
            }
            let tenants = registry.snapshot();
            let moved = self.round(&tenants, pipe_in);
            if moved == 0 {
                if stop() && tenants.iter().all(|t| t.inq.is_empty()) {
                    break;
                }
                // Idle: nothing schedulable (no input, or no output credit).
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        pipe_in.close();
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

    /// Equal backlogs get near-equal base shares per round, regardless of
    /// read length mix.
    #[test]
    fn drr_shares_bases_not_reads() {
        // Tenant 0 ships 10k-base reads, tenant 1 ships 1k-base reads.
        let (_reg, ts) = registry_with(&[&[10_000; 20], &[1_000; 200]]);
        let pipe: BoundedQueue<Vec<ServeItem>> = BoundedQueue::new(64);
        let mut s = DrrScheduler::new(DrrConfig {
            quantum_bases: 10_000,
            batch_bases: 1_000_000,
        });
        s.round(&ts, &pipe);
        // One round, one quantum each: ~1 long read vs ~10 short reads.
        let mut by_tenant = [0usize; 2];
        while let Some(b) = pipe.try_pop() {
            for it in b {
                by_tenant[it.tenant] += it.rec.len();
            }
        }
        let (a, b) = (by_tenant[0] as f64, by_tenant[1] as f64);
        assert!(a > 0.0 && b > 0.0);
        assert!(
            (a / b) < 2.5 && (b / a) < 2.5,
            "base shares too skewed: {by_tenant:?}"
        );
    }

    /// A tenant without output credit is skipped; others still progress.
    #[test]
    fn slow_consumer_is_skipped_not_blocking() {
        let (_reg, ts) = registry_with(&[&[100; 8], &[100; 8]]);
        // Tenant 0 is "slow": its output queue is already fully committed.
        ts[0].scheduled.store(64, Ordering::Release);
        let pipe: BoundedQueue<Vec<ServeItem>> = BoundedQueue::new(64);
        let mut s = DrrScheduler::new(DrrConfig::default());
        let n = s.round(&ts, &pipe);
        assert_eq!(n, 8, "only the healthy tenant was scheduled");
        let batch = pipe.try_pop().unwrap();
        assert!(batch.iter().all(|i| i.tenant == 1));
        assert_eq!(ts[0].inq.len(), 8, "slow tenant's backlog is untouched");
    }

    /// Batches respect the base budget (with single-read overshoot).
    #[test]
    fn batches_split_at_the_base_budget() {
        let (_reg, ts) = registry_with(&[&[600; 10]]);
        let pipe: BoundedQueue<Vec<ServeItem>> = BoundedQueue::new(64);
        let mut s = DrrScheduler::new(DrrConfig {
            quantum_bases: 100_000,
            batch_bases: 1_000,
        });
        s.round(&ts, &pipe);
        let mut sizes = Vec::new();
        while let Some(b) = pipe.try_pop() {
            sizes.push(b.iter().map(|i| i.rec.len()).sum::<usize>());
        }
        assert!(sizes.len() >= 5, "{sizes:?}");
        for s in &sizes {
            assert!(
                *s <= 1_000 + 600,
                "batch of {s} bases exceeds budget+overshoot"
            );
        }
    }

    /// `run` flushes every queued read after `stop` flips, then closes the
    /// pipeline queue — the drain contract.
    #[test]
    fn run_drains_then_closes() {
        let (reg, ts) = registry_with(&[&[50; 30], &[50; 30]]);
        for t in &ts {
            t.ended.store(true, Ordering::Release);
        }
        let pipe: BoundedQueue<Vec<ServeItem>> = BoundedQueue::new(64);
        let mut s = DrrScheduler::new(DrrConfig::default());
        s.run(&reg, &pipe, || true);
        let mut total = 0;
        while let Some(b) = pipe.try_pop() {
            total += b.len();
        }
        assert_eq!(total, 60, "every accepted read was flushed");
        assert!(pipe.is_closed());
    }
}
