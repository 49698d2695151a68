//! Differential trace profiling for the `gnnavigate trace-diff` gate.
//!
//! [`diff_traces`] aligns two journal snapshots (typically imported
//! from saved `--trace-out` files) by folded span path on the **sim
//! clock** and attributes the total regression to specific spans:
//! per-path inclusive/exclusive deltas, appeared/disappeared paths,
//! and a total-time row. Mirrors [`diff`](crate::diff) for metric
//! snapshots.
//!
//! Gating rules (what exits non-zero):
//!
//! - An existing path whose inclusive sim time **grew** more than the
//!   threshold is a breach; shrinking is reported as an improvement
//!   but never fails (a faster run should not break the gate).
//! - An **appeared** path is a breach when its inclusive time exceeds
//!   the threshold as a share of the baseline total (new incidental
//!   spans stay informational; a new stall does not).
//! - A **disappeared** path is informational: spans vanish when work
//!   gets faster or instrumentation moves, and the metrics-diff gate
//!   already guards lost instrumentation.
//! - The **total** row (sum of root spans) gates like any path.
//! - A truncated input ([`JournalSnapshot::dropped`] > 0 on either
//!   side) makes the comparison unsound — missing spans read as
//!   improvements. [`TraceDiffReport::truncated`] is surfaced by the
//!   CLI as a distinct exit code (2) and no gate verdict is issued.

use crate::journal::JournalSnapshot;
use crate::tree::{Clock, PathAgg, SpanForest};

/// One aligned span path.
#[derive(Debug, Clone)]
pub struct TraceDiffRow {
    /// Folded span path (`track;frames…`).
    pub path: String,
    /// Baseline aggregate (`None` when the path appeared).
    pub baseline: Option<PathAgg>,
    /// Current aggregate (`None` when the path disappeared).
    pub current: Option<PathAgg>,
    /// Relative inclusive-time change in percent (`None` when not
    /// computable).
    pub delta_pct: Option<f64>,
    /// Whether this row fails the gate at the report threshold.
    pub breach: bool,
}

impl TraceDiffRow {
    fn sort_key(&self) -> f64 {
        match self.delta_pct {
            Some(d) => d.abs(),
            None if self.breach => f64::INFINITY,
            None => -1.0,
        }
    }
}

/// The outcome of [`diff_traces`].
#[derive(Debug, Clone)]
pub struct TraceDiffReport {
    /// The gate threshold, in percent.
    pub threshold_pct: f64,
    /// Baseline total inclusive sim time (root spans), microseconds.
    pub baseline_total_us: f64,
    /// Current total inclusive sim time (root spans), microseconds.
    pub current_total_us: f64,
    /// Relative total change in percent, when computable.
    pub total_delta_pct: Option<f64>,
    /// Events the baseline journal ring dropped.
    pub baseline_dropped: u64,
    /// Events the current journal ring dropped.
    pub current_dropped: u64,
    /// Per-path rows, sorted by |delta| descending.
    pub rows: Vec<TraceDiffRow>,
}

impl TraceDiffReport {
    /// Whether either input lost events to ring eviction, making the
    /// gate verdict unsound.
    pub fn truncated(&self) -> bool {
        self.baseline_dropped > 0 || self.current_dropped > 0
    }

    /// Whether the total-time row breaches the threshold.
    pub(crate) fn total_breach(&self) -> bool {
        self.total_delta_pct.is_some_and(|d| d > self.threshold_pct)
    }

    /// Number of breaching path rows (excludes the total row).
    pub(crate) fn breaches(&self) -> usize {
        self.rows.iter().filter(|r| r.breach).count()
    }

    /// Whether anything (path or total) fails the gate.
    pub fn has_breach(&self) -> bool {
        self.total_breach() || self.rows.iter().any(|r| r.breach)
    }

    /// Renders the regression table, worst offenders first.
    pub fn to_table(&self) -> String {
        let secs = |us: f64| format!("{:.6}", us / 1e6);
        let mut out = format!(
            "trace-diff (sim clock): {} paths compared, {} breach(es) at +{}% threshold\n",
            self.rows.len(),
            self.breaches() + usize::from(self.total_breach()),
            self.threshold_pct
        );
        if self.truncated() {
            out.push_str(&format!(
                "WARNING: truncated input (baseline dropped {}, current dropped {}): \
                 comparison is partial, refusing to gate\n",
                self.baseline_dropped, self.current_dropped
            ));
        }
        let total_delta = match self.total_delta_pct {
            Some(d) => format!("{d:+.1}%"),
            None => "n/a".to_string(),
        };
        out.push_str(&format!(
            "{:<8} total inclusive sim time: baseline {} s, current {} s ({})\n",
            if self.total_breach() { "BREACH" } else { "total" },
            secs(self.baseline_total_us),
            secs(self.current_total_us),
            total_delta,
        ));
        out.push_str(&format!(
            "{:<8} {:>12} {:>12} {:>9} {:>12} {:>12}  {}\n",
            "status", "base incl s", "cur incl s", "delta", "base excl s", "cur excl s", "path"
        ));
        for row in &self.rows {
            let status = if row.breach { "BREACH" } else { "ok" };
            let side = |agg: Option<PathAgg>, f: fn(&PathAgg) -> f64| match agg {
                Some(ref a) => secs(f(a)),
                None => "-".to_string(),
            };
            let delta = match row.delta_pct {
                Some(d) => format!("{d:+.1}%"),
                None if row.current.is_none() => "gone".to_string(),
                None if row.baseline.is_none() => "new".to_string(),
                None => "n/a".to_string(),
            };
            out.push_str(&format!(
                "{status:<8} {:>12} {:>12} {delta:>9} {:>12} {:>12}  {}\n",
                side(row.baseline, |a| a.inclusive_us),
                side(row.current, |a| a.inclusive_us),
                side(row.baseline, |a| a.exclusive_us),
                side(row.current, |a| a.exclusive_us),
                row.path,
            ));
        }
        out
    }
}

/// Compares `current` against `baseline` on the sim clock at
/// `threshold_pct`.
pub fn diff_traces(
    baseline: &JournalSnapshot,
    current: &JournalSnapshot,
    threshold_pct: f64,
) -> TraceDiffReport {
    let base_forest = SpanForest::build(baseline, Clock::Sim);
    let cur_forest = SpanForest::build(current, Clock::Sim);
    let base_paths = base_forest.aggregate_paths();
    let cur_paths = cur_forest.aggregate_paths();
    let baseline_total_us = base_forest.total_inclusive_us();
    let current_total_us = cur_forest.total_inclusive_us();

    let mut names: Vec<&String> = base_paths.keys().chain(cur_paths.keys()).collect();
    names.sort();
    names.dedup();

    let mut rows = Vec::new();
    for name in names {
        let b = base_paths.get(name.as_str()).copied();
        let c = cur_paths.get(name.as_str()).copied();
        // An appeared path (or one growing from zero) gates on its
        // share of the baseline total: there is no per-path baseline
        // to take a percentage of.
        let share_breach = |cur_incl: f64| {
            baseline_total_us > 0.0 && cur_incl / baseline_total_us * 100.0 > threshold_pct
        };
        let (delta_pct, breach) = match (b, c) {
            (Some(b), Some(c)) => {
                if b.inclusive_us == 0.0 {
                    (None, c.inclusive_us > 0.0 && share_breach(c.inclusive_us))
                } else {
                    let d = (c.inclusive_us - b.inclusive_us) / b.inclusive_us * 100.0;
                    (Some(d), d > threshold_pct)
                }
            }
            (Some(_), None) => (None, false), // disappeared: informational
            (None, Some(c)) => (None, share_breach(c.inclusive_us)),
            (None, None) => continue,
        };
        rows.push(TraceDiffRow { path: name.clone(), baseline: b, current: c, delta_pct, breach });
    }
    rows.sort_by(|a, b| b.sort_key().total_cmp(&a.sort_key()).then_with(|| a.path.cmp(&b.path)));

    let total_delta_pct = (baseline_total_us > 0.0)
        .then(|| (current_total_us - baseline_total_us) / baseline_total_us * 100.0);
    TraceDiffReport {
        threshold_pct,
        baseline_total_us,
        current_total_us,
        total_delta_pct,
        baseline_dropped: baseline.dropped,
        current_dropped: current.dropped,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Journal;

    fn run(phases: &[(&'static str, f64)]) -> JournalSnapshot {
        let j = Journal::new();
        j.enable(true);
        let total: f64 = phases.iter().map(|(_, d)| d).sum();
        j.span_complete("epoch", "backend", 0.0, Some(1.0), Some(0.0), Some(total), Vec::new());
        let mut t = 0.0;
        for &(name, dur) in phases {
            let track: String = format!("phase.{name}");
            j.span_complete(name, track, 0.0, None, Some(t), Some(dur), Vec::new());
            t += dur;
        }
        j.snapshot()
    }

    #[test]
    fn self_diff_is_clean_with_zero_deltas() {
        let snap = run(&[("sample", 30.0), ("compute", 70.0)]);
        let report = diff_traces(&snap, &snap, 20.0);
        assert!(!report.has_breach(), "{}", report.to_table());
        assert_eq!(report.breaches(), 0);
        assert_eq!(report.total_delta_pct, Some(0.0));
        for row in &report.rows {
            assert_eq!(row.delta_pct, Some(0.0), "{}", row.path);
        }
    }

    #[test]
    fn inflated_phase_is_attributed_and_breaches() {
        let base = run(&[("sample", 30.0), ("transfer", 10.0), ("compute", 70.0)]);
        let cur = run(&[("sample", 30.0), ("transfer", 50.0), ("compute", 70.0)]);
        let report = diff_traces(&base, &cur, 20.0);
        assert!(report.has_breach());
        assert!(report.total_breach(), "total 220 -> 300 is +36%");
        let worst = &report.rows[0];
        assert_eq!(worst.path, "phase.transfer;transfer");
        assert!(worst.breach);
        assert!((worst.delta_pct.unwrap() - 400.0).abs() < 1e-9);
        // Untouched phases pass.
        let sample = report.rows.iter().find(|r| r.path.contains("sample")).expect("row");
        assert!(!sample.breach);
        assert!(report.to_table().contains("BREACH"));
    }

    #[test]
    fn improvement_never_breaches() {
        let base = run(&[("compute", 100.0)]);
        let cur = run(&[("compute", 10.0)]);
        let report = diff_traces(&base, &cur, 20.0);
        assert!(!report.has_breach(), "{}", report.to_table());
        let row = report.rows.iter().find(|r| r.path.contains("compute")).expect("row");
        assert!(row.delta_pct.unwrap() < -80.0);
    }

    #[test]
    fn appeared_path_gates_on_share_of_baseline_total() {
        let base = run(&[("compute", 100.0)]);
        // A new phase worth 50% of the old total: breach at 20%.
        let cur = run(&[("compute", 100.0), ("migration", 100.0)]);
        let report = diff_traces(&base, &cur, 20.0);
        let row = report.rows.iter().find(|r| r.path.contains("migration")).expect("row");
        assert!(row.breach && row.baseline.is_none());
        assert!(report.to_table().contains("new"));
        // A tiny new path stays informational.
        let cur_small = run(&[("compute", 100.0), ("migration", 1.0)]);
        let report = diff_traces(&base, &cur_small, 20.0);
        let row = report.rows.iter().find(|r| r.path.contains("migration")).expect("row");
        assert!(!row.breach);
    }

    #[test]
    fn disappeared_path_is_informational() {
        let base = run(&[("sample", 50.0), ("compute", 100.0)]);
        let cur = run(&[("compute", 100.0)]);
        let report = diff_traces(&base, &cur, 20.0);
        let row = report.rows.iter().find(|r| r.path.contains("sample")).expect("row");
        assert!(!row.breach && row.current.is_none());
        assert!(report.to_table().contains("gone"));
    }

    #[test]
    fn truncated_inputs_are_flagged() {
        let j = Journal::new();
        j.enable(true);
        j.span_complete("b", "t", 0.0, None, Some(10.0), Some(10.0), Vec::new());
        let mut truncated = j.snapshot();
        truncated.dropped = 1;
        let clean = run(&[("compute", 10.0)]);
        let report = diff_traces(&truncated, &clean, 20.0);
        assert!(report.truncated());
        assert!(report.to_table().contains("refusing to gate"));
        assert!(!diff_traces(&clean, &clean, 20.0).truncated());
    }
}
