//! Per-backend execution statistics.
//!
//! Every [`submit`](crate::AlignBackend::submit) returns the stats for that
//! batch; callers accumulate them with [`BackendStats::merge`] and print
//! one [`summary`](BackendStats::summary) line at the end of a run.

/// Counters from one batch (or, after merging, a whole run).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BackendStats {
    /// Batches submitted.
    pub batches: u64,
    /// Jobs executed.
    pub jobs: u64,
    /// Total DP cells across all jobs.
    pub cells: u64,
    /// Jobs whose kernel does not fit device memory, so the device model
    /// leaves them to the host (§4.5.2). Always zero for the CPU backend.
    pub fallbacks: u64,
    /// Peak concurrently-executing kernels observed on the device.
    pub max_stream_concurrency: usize,
    /// Bytes served from the device memory pool.
    pub bytes_pooled: u64,
    /// Pool requests too large for a per-stream slab.
    pub pool_rejections: u64,
    /// Simulated device wall time, seconds.
    pub device_seconds: f64,
    /// Supervisor: resubmissions after a failure, whether halves of a split
    /// set or single-job repeats, on either backend.
    pub retries: u64,
    /// Supervisor: jobs served by a resubmission or by the standby.
    pub retried_ok: u64,
    /// Supervisor: jobs rerouted from the primary to the standby backend.
    pub rerouted: u64,
    /// Supervisor: jobs that failed on every backend and were quarantined.
    pub quarantined: u64,
    /// Supervisor: circuit-breaker Closed→Open transitions (demotions).
    pub breaker_trips: u64,
    /// Supervisor: batches abandoned by the deadline watchdog.
    pub deadline_kills: u64,
    /// Supervisor: results that arrived after their slot was poisoned and
    /// were discarded.
    pub late_results: u64,
    /// Scheduler: length-binned batches a scheduled submission was split
    /// into (zero on fifo/unscheduled submissions).
    pub sched_batches: u64,
    /// Scheduler: jobs routed pre-batch to the host executor because the
    /// primary reported them statically ineligible (footprints past device
    /// memory). Distinct from `fallbacks` (detected inside a device submit)
    /// and `rerouted` (a supervisor *recovery* action).
    pub sched_host_jobs: u64,
    /// Host executor: jobs aligned in lane groups, one job per vector lane.
    pub grouped_jobs: u64,
    /// Host executor: lane groups run.
    pub lane_groups: u64,
    /// Host executor: cells the lane groups computed, padding included
    /// (`lanes × max|T| × max|Q|` per group).
    pub lane_cells: u64,
    /// Host executor: live cells of the grouped jobs (`Σ |T|·|Q|`); over
    /// `lane_cells` it is the groups' occupancy.
    pub grouped_cells: u64,
}

impl BackendStats {
    /// Fold another batch's counters into this accumulator.
    pub fn merge(&mut self, other: &BackendStats) {
        self.batches += other.batches;
        self.jobs += other.jobs;
        self.cells += other.cells;
        self.fallbacks += other.fallbacks;
        self.max_stream_concurrency = self
            .max_stream_concurrency
            .max(other.max_stream_concurrency);
        self.bytes_pooled += other.bytes_pooled;
        self.pool_rejections += other.pool_rejections;
        self.device_seconds += other.device_seconds;
        self.retries += other.retries;
        self.retried_ok += other.retried_ok;
        self.rerouted += other.rerouted;
        self.quarantined += other.quarantined;
        self.breaker_trips += other.breaker_trips;
        self.deadline_kills += other.deadline_kills;
        self.late_results += other.late_results;
        self.sched_batches += other.sched_batches;
        self.sched_host_jobs += other.sched_host_jobs;
        self.grouped_jobs += other.grouped_jobs;
        self.lane_groups += other.lane_groups;
        self.lane_cells += other.lane_cells;
        self.grouped_cells += other.grouped_cells;
    }

    /// Did the supervisor intervene at all during the run?
    pub fn supervised_activity(&self) -> bool {
        self.retries
            + self.retried_ok
            + self.rerouted
            + self.quarantined
            + self.breaker_trips
            + self.deadline_kills
            + self.late_results
            > 0
    }

    /// One stderr-ready line, e.g. for the CLI's run summary.
    pub fn summary(&self, label: &str) -> String {
        let mut line = format!(
            "backend {label}: {} jobs in {} batches, {:.2} Gcells",
            self.jobs,
            self.batches,
            self.cells as f64 / 1e9
        );
        if label != "cpu" {
            line.push_str(&format!(
                ", {} cpu-fallbacks, peak {} concurrent kernels, {:.1} MB pooled ({} slab rejections)",
                self.fallbacks,
                self.max_stream_concurrency,
                self.bytes_pooled as f64 / 1e6,
                self.pool_rejections,
            ));
        }
        if self.sched_batches > 0 {
            line.push_str(&format!(
                ", scheduler: {} binned batch(es), {} host-routed job(s)",
                self.sched_batches, self.sched_host_jobs,
            ));
        }
        if self.lane_groups > 0 {
            line.push_str(&format!(
                ", {} jobs in {} lane groups (occupancy {:.1} %)",
                self.grouped_jobs,
                self.lane_groups,
                100.0 * self.grouped_cells as f64 / self.lane_cells as f64,
            ));
        }
        line
    }

    /// Supervisor activity line, or `None` when the run needed no
    /// intervention (keeps clean-run stderr identical to pre-supervisor
    /// output).
    pub fn supervisor_summary(&self, label: &str) -> Option<String> {
        if !self.supervised_activity() {
            return None;
        }
        Some(format!(
            "supervisor {label}: {} retries ({} jobs recovered), {} rerouted, \
             {} quarantined, {} breaker-trips, {} deadline-kills, {} late-results",
            self.retries,
            self.retried_ok,
            self.rerouted,
            self.quarantined,
            self.breaker_trips,
            self.deadline_kills,
            self.late_results,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counts_and_maxes_concurrency() {
        let mut a = BackendStats {
            batches: 1,
            jobs: 10,
            cells: 100,
            fallbacks: 1,
            max_stream_concurrency: 4,
            bytes_pooled: 50,
            pool_rejections: 0,
            device_seconds: 0.5,
            retries: 2,
            quarantined: 1,
            ..Default::default()
        };
        let b = BackendStats {
            batches: 2,
            jobs: 5,
            cells: 10,
            fallbacks: 0,
            max_stream_concurrency: 9,
            bytes_pooled: 25,
            pool_rejections: 3,
            device_seconds: 0.25,
            retries: 3,
            breaker_trips: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.batches, 3);
        assert_eq!(a.jobs, 15);
        assert_eq!(a.cells, 110);
        assert_eq!(a.fallbacks, 1);
        assert_eq!(a.max_stream_concurrency, 9);
        assert_eq!(a.bytes_pooled, 75);
        assert_eq!(a.pool_rejections, 3);
        assert_eq!(a.retries, 5);
        assert_eq!(a.quarantined, 1);
        assert_eq!(a.breaker_trips, 1);
    }

    #[test]
    fn summary_mentions_fallbacks_for_device_backends() {
        let s = BackendStats {
            fallbacks: 2,
            ..Default::default()
        };
        assert!(s.summary("gpu-sim").contains("2 cpu-fallbacks"));
        assert!(!s.summary("cpu").contains("fallbacks"));
    }

    #[test]
    fn summary_reports_scheduler_activity_only_when_present() {
        let mut s = BackendStats {
            sched_batches: 3,
            sched_host_jobs: 2,
            ..Default::default()
        };
        let line = s.summary("gpu-sim");
        assert!(line.contains("3 binned batch(es)"), "{line}");
        assert!(line.contains("2 host-routed job(s)"), "{line}");
        assert!(!BackendStats::default()
            .summary("gpu-sim")
            .contains("scheduler"));
        let other = BackendStats {
            sched_batches: 1,
            sched_host_jobs: 4,
            ..Default::default()
        };
        s.merge(&other);
        assert_eq!(s.sched_batches, 4);
        assert_eq!(s.sched_host_jobs, 6);
    }

    #[test]
    fn lane_group_counters_merge_and_render() {
        let mut s = BackendStats {
            grouped_jobs: 100,
            lane_groups: 2,
            lane_cells: 8_000,
            grouped_cells: 7_000,
            ..Default::default()
        };
        s.merge(&BackendStats {
            grouped_jobs: 28,
            lane_groups: 1,
            lane_cells: 2_000,
            grouped_cells: 1_000,
            ..Default::default()
        });
        assert_eq!(
            (s.grouped_jobs, s.lane_groups, s.lane_cells, s.grouped_cells),
            (128, 3, 10_000, 8_000)
        );
        let line = s.summary("cpu");
        assert!(
            line.ends_with(", 128 jobs in 3 lane groups (occupancy 80.0 %)"),
            "{line}"
        );
        assert!(!BackendStats::default()
            .summary("cpu")
            .contains("lane groups"));
    }

    #[test]
    fn supervisor_summary_is_silent_on_clean_runs() {
        assert_eq!(BackendStats::default().supervisor_summary("cpu"), None);
        let s = BackendStats {
            retries: 4,
            retried_ok: 2,
            quarantined: 1,
            ..Default::default()
        };
        let line = s.supervisor_summary("gpu-sim").unwrap();
        assert!(line.contains("4 retries"), "{line}");
        assert!(line.contains("2 jobs recovered"), "{line}");
        assert!(line.contains("1 quarantined"), "{line}");
    }
}
