//! The length-binned batch scheduler (DESIGN.md §11).
//!
//! Batch kernels stay full only when the work they execute is similarly
//! sized: one oversized pair in a SIMT batch stalls every stream behind it
//! or forces a serial host fallback. This module reorders a submission's
//! [`AlignJob`]s *before* they reach a backend: jobs are binned by DP-matrix
//! size ([`AlignJob::cells`], log2 buckets), bins are chunked into batches
//! under a per-batch cell and job budget, and each batch is routed to the
//! backend that fits it best — device-eligible bins to the primary,
//! statically ineligible giants straight to the host executor, pre-batch.
//!
//! Scheduling is pure *reordering*: every input index appears in exactly
//! one scheduled batch, and the executor scatters per-job outcomes back to
//! their original positions, so callers observe the same one-result-per-job
//! in-order contract as an unscheduled submit. Output (PAF/SAM) is
//! byte-identical by construction; the xtask oracle and `tests/sched.rs`
//! enforce it.
//!
//! The scheduler is library-only: `manymap map` and `mmm-serve` submit
//! through [`SupervisedBackend::submit_supervised`] directly, since lane
//! groups fill best from one unbinned batch. The benchmark harness's trace
//! still times a binned submission against it.
//!
//! [`SupervisedBackend::submit_supervised`]: crate::SupervisedBackend::submit_supervised

use crate::job::AlignJob;
use crate::{splitmix64_mix, SPLITMIX64_GAMMA};

/// Scheduling policy for a supervised submission.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedMode {
    /// Legacy passthrough: one batch, input order, no routing. The default.
    #[default]
    Fifo,
    /// Length-binned batches with per-backend routing.
    Bins,
}

/// Scheduler tuning. The defaults keep batches large enough to amortize
/// dispatch overhead while bounding the cell spread any single batch can
/// carry.
#[derive(Clone, Debug)]
pub struct SchedConfig {
    pub mode: SchedMode,
    /// Cell budget per scheduled batch; a batch closes when the next job
    /// would push it past this (a single job larger than the budget still
    /// gets its own batch).
    pub max_batch_cells: u64,
    /// Job-count budget per scheduled batch.
    pub max_batch_jobs: usize,
    /// Test-only knob: deterministically permute the order scheduled
    /// batches are *dispatched* in (seeded Fisher–Yates). Output must not
    /// change — this is how the property tests prove the ordering
    /// guarantee. `None` in production.
    pub permute_seed: Option<u64>,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            mode: SchedMode::default(),
            max_batch_cells: 64_000_000,
            max_batch_jobs: 512,
            permute_seed: None,
        }
    }
}

/// Which executor a scheduled batch is routed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// The primary backend (device path, under the full supervisor ladder).
    Primary,
    /// The host executor, pre-batch: the primary reported the jobs
    /// statically ineligible, so sending them through it would only force
    /// its internal fallback onto the batch's critical path.
    Host,
}

/// One scheduled batch: the route plus the *original* indices of its jobs.
#[derive(Clone, Debug)]
pub struct SchedBatch {
    pub route: Route,
    pub indices: Vec<usize>,
}

/// The schedule for one submission. Every input index appears in exactly
/// one batch, exactly once.
#[derive(Clone, Debug, Default)]
pub struct SchedulePlan {
    pub batches: Vec<SchedBatch>,
}

impl SchedulePlan {
    /// Total jobs routed to the host executor.
    pub fn host_jobs(&self) -> usize {
        self.batches
            .iter()
            .filter(|b| b.route == Route::Host)
            .map(|b| b.indices.len())
            .sum()
    }
}

/// log2 size class of a job — jobs in one bin differ by at most 2x in DP
/// cells, which keeps stream occupancy even within a device batch.
fn size_class(cells: u64) -> u32 {
    64 - cells.max(1).leading_zeros()
}

/// Bin jobs by size class, chunk the bins under the batch budgets, and
/// route each batch. `eligible` is the primary backend's
/// [`device_eligible`](crate::AlignBackend::device_eligible) answer per
/// job; ineligible jobs are collected into host-routed batches.
pub fn plan_schedule<F: Fn(&AlignJob) -> bool>(
    jobs: &[AlignJob],
    eligible: F,
    cfg: &SchedConfig,
) -> SchedulePlan {
    let mut host: Vec<usize> = Vec::new();
    // Bins keyed by size class; within a bin, original order is preserved
    // (the sort below is stable), so equal-sized jobs dispatch in input
    // order and schedules are deterministic.
    let mut device: Vec<usize> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        if eligible(job) {
            device.push(i);
        } else {
            host.push(i);
        }
    }
    device.sort_by_key(|&i| size_class(jobs[i].cells()));

    let mut plan = SchedulePlan::default();
    for (route, indices) in [(Route::Primary, device), (Route::Host, host)] {
        let mut batch: Vec<usize> = Vec::new();
        let mut batch_cells = 0u64;
        let mut batch_class = 0u32;
        for i in indices {
            let cells = jobs[i].cells();
            let class = size_class(cells);
            let full = !batch.is_empty()
                && (batch.len() >= cfg.max_batch_jobs.max(1)
                    || batch_cells + cells > cfg.max_batch_cells
                    // A batch never spans size classes: mixing a bin
                    // boundary would reintroduce the stragglers binning
                    // exists to remove. Host batches are exempt — they run
                    // on the CPU executor, which sorts internally.
                    || (route == Route::Primary && class != batch_class));
            if full {
                plan.batches.push(SchedBatch {
                    route,
                    indices: std::mem::take(&mut batch),
                });
                batch_cells = 0;
            }
            batch_class = class;
            batch_cells += cells;
            batch.push(i);
        }
        if !batch.is_empty() {
            plan.batches.push(SchedBatch {
                route,
                indices: batch,
            });
        }
    }

    if let Some(seed) = cfg.permute_seed {
        permute(&mut plan.batches, seed);
    }
    debug_assert_eq!(
        plan.batches.iter().map(|b| b.indices.len()).sum::<usize>(),
        jobs.len(),
        "schedule must cover every job exactly once"
    );
    plan
}

/// Seeded Fisher–Yates over the batch order (test-only dispatch shuffling).
fn permute(batches: &mut [SchedBatch], seed: u64) {
    let mut state = seed;
    for k in (1..batches.len()).rev() {
        state = splitmix64_mix(state.wrapping_add(SPLITMIX64_GAMMA));
        let j = (state % (k as u64 + 1)) as usize;
        batches.swap(k, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(tlen: usize, qlen: usize) -> AlignJob {
        AlignJob::global(vec![0u8; tlen], vec![1u8; qlen], true)
    }

    fn covered_indices(plan: &SchedulePlan, n: usize) {
        let mut seen = vec![0usize; n];
        for b in &plan.batches {
            for &i in &b.indices {
                seen[i] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "schedule must cover every index exactly once: {seen:?}"
        );
    }

    #[test]
    fn every_index_scheduled_exactly_once() {
        let jobs: Vec<AlignJob> = (0..50).map(|k| job(10 + k * 7, 5 + k * 3)).collect();
        for seed in [None, Some(1), Some(0xBEEF)] {
            let cfg = SchedConfig {
                mode: SchedMode::Bins,
                max_batch_jobs: 4,
                max_batch_cells: 5_000,
                permute_seed: seed,
            };
            let plan = plan_schedule(&jobs, |_| true, &cfg);
            covered_indices(&plan, jobs.len());
        }
    }

    #[test]
    fn ineligible_jobs_route_to_host() {
        let jobs: Vec<AlignJob> = (0..10).map(|k| job(20 + k, 20)).collect();
        // Every third job "too big" for the device.
        let plan = plan_schedule(
            &jobs,
            |j| j.target.len() % 3 != 0,
            &SchedConfig {
                mode: SchedMode::Bins,
                ..Default::default()
            },
        );
        covered_indices(&plan, jobs.len());
        let host: Vec<usize> = plan
            .batches
            .iter()
            .filter(|b| b.route == Route::Host)
            .flat_map(|b| b.indices.iter().copied())
            .collect();
        let expect: Vec<usize> = (0..10).filter(|i| (20 + i) % 3 == 0).collect();
        assert_eq!(host, expect);
        assert_eq!(plan.host_jobs(), expect.len());
    }

    #[test]
    fn primary_batches_never_span_size_classes() {
        let jobs: Vec<AlignJob> = (0..30)
            .map(|k| if k % 2 == 0 { job(8, 8) } else { job(512, 512) })
            .collect();
        let plan = plan_schedule(
            &jobs,
            |_| true,
            &SchedConfig {
                mode: SchedMode::Bins,
                ..Default::default()
            },
        );
        for b in &plan.batches {
            let classes: std::collections::BTreeSet<u32> = b
                .indices
                .iter()
                .map(|&i| size_class(jobs[i].cells()))
                .collect();
            assert_eq!(classes.len(), 1, "batch mixes size classes: {b:?}");
        }
    }

    #[test]
    fn budgets_bound_batches_and_giants_still_schedule() {
        let jobs = vec![job(4, 4), job(4, 4), job(4, 4), job(4_000, 4_000)];
        let cfg = SchedConfig {
            mode: SchedMode::Bins,
            max_batch_jobs: 2,
            max_batch_cells: 100, // smaller than the giant alone
            permute_seed: None,
        };
        let plan = plan_schedule(&jobs, |_| true, &cfg);
        covered_indices(&plan, jobs.len());
        for b in &plan.batches {
            assert!(b.indices.len() <= 2);
        }
    }

    #[test]
    fn permutation_is_deterministic_per_seed() {
        let jobs: Vec<AlignJob> = (0..40).map(|k| job(10 + 11 * k, 10 + 5 * k)).collect();
        let cfg = |seed| SchedConfig {
            mode: SchedMode::Bins,
            max_batch_jobs: 3,
            max_batch_cells: 10_000,
            permute_seed: seed,
        };
        let a = plan_schedule(&jobs, |_| true, &cfg(Some(7)));
        let b = plan_schedule(&jobs, |_| true, &cfg(Some(7)));
        let orders = |p: &SchedulePlan| -> Vec<Vec<usize>> {
            p.batches.iter().map(|b| b.indices.clone()).collect()
        };
        assert_eq!(orders(&a), orders(&b), "same seed must replay");
        let c = plan_schedule(&jobs, |_| true, &cfg(Some(8)));
        assert_ne!(orders(&a), orders(&c), "different seed should shuffle");
    }
}
