//! `StatsSink` — atomic delivery of assembled stats reports.
//!
//! The CLI's run summary used to be several independent `eprintln!` calls.
//! One process, one run: fine. Concurrent sessions sharing a stderr (the
//! `mmm-serve` daemon, parallel test harnesses) interleave those lines into
//! garbage. The fix is structural: a report is *assembled first* — every
//! line collected into a [`StatsReport`] — and then *delivered once*,
//! through a [`StatsSink`], as a single write. Sinks decide where the bytes
//! go (stderr, a capture buffer, a tenant's stats response); the report
//! renders byte-identically to the old per-line output, so existing
//! stderr-parsing tests and operators see no change.

use std::io::Write;
use std::sync::Mutex;

use mmm_pipeline::lock_unpoisoned;

use crate::stats::BackendStats;

/// Destination for fully-assembled stats reports. Implementations must
/// deliver each report atomically with respect to other reports — one
/// report never interleaves with another.
pub trait StatsSink: Send + Sync {
    /// Deliver one rendered report (may span multiple lines; includes its
    /// trailing newline) in a single write.
    fn write_report(&self, report: &str);
}

/// Production sink: one locked `write_all` to stderr per report. The lock
/// spans the whole report, so concurrent sessions' reports serialize at
/// report granularity instead of shredding line by line.
#[derive(Clone, Copy, Debug, Default)]
pub struct StderrSink;

impl StatsSink for StderrSink {
    fn write_report(&self, report: &str) {
        let mut err = std::io::stderr().lock();
        // Stats are best-effort diagnostics: a dead stderr must not take
        // the run down with it.
        let _ = err.write_all(report.as_bytes());
        let _ = err.flush();
    }
}

/// Capturing sink: reports accumulate in memory. Used by tests asserting
/// report contents and by `mmm-serve`'s stats endpoint, which renders the
/// captured reports into a protocol response instead of a terminal.
#[derive(Debug, Default)]
pub struct BufferSink {
    reports: Mutex<Vec<String>>,
}

impl BufferSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// All reports delivered so far, in delivery order.
    pub fn reports(&self) -> Vec<String> {
        lock_unpoisoned(&self.reports).clone()
    }

    /// Drain the captured reports.
    pub fn take(&self) -> Vec<String> {
        std::mem::take(&mut lock_unpoisoned(&self.reports))
    }
}

impl StatsSink for BufferSink {
    fn write_report(&self, report: &str) {
        lock_unpoisoned(&self.reports).push(report.to_string());
    }
}

/// A multi-line stats report under one line prefix. Lines are collected,
/// then rendered and emitted in a single [`StatsSink::write_report`] call.
///
/// Rendering is byte-identical to the historical per-line output: each line
/// becomes `{prefix}{line}\n`.
#[derive(Clone, Debug)]
pub struct StatsReport {
    prefix: String,
    lines: Vec<String>,
}

impl StatsReport {
    /// A report whose lines all start with `prefix` (e.g. `"[manymap] "`).
    pub fn new(prefix: impl Into<String>) -> Self {
        StatsReport {
            prefix: prefix.into(),
            lines: Vec::new(),
        }
    }

    /// Append one line (without prefix or newline).
    pub fn line(&mut self, line: impl Into<String>) -> &mut Self {
        self.lines.push(line.into());
        self
    }

    /// Append a line when present (e.g. the supervisor's clean-run-silent
    /// summary).
    pub fn maybe_line(&mut self, line: Option<String>) -> &mut Self {
        if let Some(l) = line {
            self.lines.push(l);
        }
        self
    }

    /// Append the standard backend block for `stats`: the always-present
    /// execution summary plus the supervisor line when it intervened.
    pub fn backend_block(&mut self, stats: &BackendStats, label: &str) -> &mut Self {
        self.line(stats.summary(label));
        self.maybe_line(stats.supervisor_summary(label))
    }

    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Render to the exact bytes the old `eprintln!`-per-line code wrote.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(&self.prefix);
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// Deliver through `sink` as one write; empty reports emit nothing.
    pub fn emit(&self, sink: &dyn StatsSink) {
        if !self.is_empty() {
            sink.write_report(&self.render());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_matches_eprintln_per_line_bytes() {
        let mut r = StatsReport::new("[manymap] ");
        r.line("mapped 10 reads");
        r.line("backend cpu: 5 jobs");
        assert_eq!(
            r.render(),
            "[manymap] mapped 10 reads\n[manymap] backend cpu: 5 jobs\n"
        );
    }

    #[test]
    fn empty_report_emits_nothing() {
        let sink = BufferSink::new();
        StatsReport::new("[x] ").emit(&sink);
        assert!(sink.reports().is_empty());
        let mut r = StatsReport::new("[x] ");
        r.maybe_line(None);
        r.emit(&sink);
        assert!(sink.reports().is_empty());
    }

    #[test]
    fn buffer_sink_captures_whole_reports() {
        let sink = BufferSink::new();
        let mut a = StatsReport::new("[a] ");
        a.line("one").line("two");
        a.emit(&sink);
        let mut b = StatsReport::new("[b] ");
        b.line("three");
        b.emit(&sink);
        assert_eq!(sink.reports(), vec!["[a] one\n[a] two\n", "[b] three\n"]);
        assert_eq!(sink.take().len(), 2);
        assert!(sink.reports().is_empty());
    }

    #[test]
    fn backend_block_is_summary_plus_optional_supervisor() {
        let clean = BackendStats::default();
        let mut r = StatsReport::new("");
        r.backend_block(&clean, "cpu");
        assert_eq!(r.lines.len(), 1, "clean run has no supervisor line");

        let busy = BackendStats {
            retries: 2,
            ..Default::default()
        };
        let mut r = StatsReport::new("");
        r.backend_block(&busy, "gpu-sim");
        assert_eq!(r.lines.len(), 2);
        assert!(r.render().contains("2 retries"));
    }

    /// The atomicity contract: many threads emitting multi-line reports
    /// through one sink never interleave lines across reports.
    #[test]
    fn concurrent_reports_never_interleave() {
        let sink = std::sync::Arc::new(BufferSink::new());
        std::thread::scope(|s| {
            for t in 0..8 {
                let sink = sink.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        let mut r = StatsReport::new(format!("[t{t}] "));
                        r.line(format!("first {i}"));
                        r.line(format!("second {i}"));
                        r.emit(&*sink);
                    }
                });
            }
        });
        let reports = sink.reports();
        assert_eq!(reports.len(), 8 * 50);
        for rep in &reports {
            let lines: Vec<&str> = rep.lines().collect();
            assert_eq!(lines.len(), 2, "{rep:?}");
            // Both lines belong to the same thread's same iteration.
            let tag = lines[0].split_whitespace().next().unwrap();
            let n = lines[0].rsplit(' ').next().unwrap();
            assert_eq!(lines[1].split_whitespace().next().unwrap(), tag);
            assert_eq!(lines[1].rsplit(' ').next().unwrap(), n);
        }
    }
}
