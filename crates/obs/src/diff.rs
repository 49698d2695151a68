//! Snapshot comparison for the `gnnavigate metrics-diff` perf gate.
//!
//! [`diff_snapshots`] compares two [`Snapshot`]s series-by-series and
//! produces a [`DiffReport`]: one row per series, sorted by magnitude
//! of relative change, with a breach flag per row. CI commits baseline
//! snapshots (`BENCH_backend.json`, `BENCH_explorer.json`), regenerates
//! the current ones with a fixed seed, and fails the build when any
//! gated series moved more than the threshold.
//!
//! Gating rules (what can fail the build):
//!
//! - **Counters** are gated: they count deterministic work (batches
//!   run, candidates evaluated, cache hits), so any drift beyond the
//!   threshold is a real behaviour change.
//! - **Gauges** are gated unless their name contains `"wall"`:
//!   simulated times, hit rates, and model-quality figures are
//!   deterministic under a fixed seed, while wall-clock gauges vary
//!   with machine load.
//! - **Histograms** are compared on their mean but never gated — every
//!   histogram in the registry today records wall seconds.
//! - A gated series that **disappears** from the current snapshot is a
//!   breach (instrumentation silently lost is a regression too); a
//!   series **new** in the current snapshot is reported but never
//!   fails the gate, so adding instrumentation does not require a
//!   lockstep baseline update.

use crate::Snapshot;
use std::collections::BTreeMap;

/// Which metric family a [`DiffRow`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotonic counter.
    Counter,
    /// Last-write-wins gauge.
    Gauge,
    /// Histogram (compared on its mean).
    Histogram,
}

impl SeriesKind {
    fn label(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Histogram => "histogram",
        }
    }
}

/// One compared series.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Metric family.
    pub kind: SeriesKind,
    /// Series name.
    pub name: String,
    /// Baseline value (`None` when the series is new).
    pub baseline: Option<f64>,
    /// Current value (`None` when the series disappeared).
    pub current: Option<f64>,
    /// Relative change in percent (`None` when not computable: a
    /// missing side, or a zero baseline).
    pub delta_pct: Option<f64>,
    /// Whether this series can fail the gate.
    pub gated: bool,
    /// Whether this row fails the gate at the report's threshold.
    pub breach: bool,
}

impl DiffRow {
    fn sort_key(&self) -> f64 {
        match self.delta_pct {
            Some(d) => d.abs(),
            // Disappeared gated series outrank everything; other
            // incomparable rows (new series, zero baselines) sink to
            // the bottom of the table.
            None if self.breach => f64::INFINITY,
            None => -1.0,
        }
    }
}

/// The outcome of [`diff_snapshots`].
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The gate threshold, in percent.
    pub threshold_pct: f64,
    /// All compared rows, sorted by `|delta|` descending.
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// Number of rows failing the gate.
    pub(crate) fn breaches(&self) -> usize {
        self.rows.iter().filter(|r| r.breach).count()
    }

    /// Whether any row fails the gate.
    pub fn has_breach(&self) -> bool {
        self.rows.iter().any(|r| r.breach)
    }

    /// Renders the regression table, worst offenders first.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "metrics-diff: {} series compared, {} breach(es) at ±{}% threshold\n",
            self.rows.len(),
            self.breaches(),
            self.threshold_pct
        );
        out.push_str(&format!(
            "{:<9} {:<10} {:<44} {:>14} {:>14} {:>9}\n",
            "status", "kind", "series", "baseline", "current", "delta"
        ));
        for row in &self.rows {
            let status = if row.breach {
                "BREACH"
            } else if row.gated {
                "ok"
            } else {
                "info"
            };
            let fmt_side = |v: Option<f64>| match v {
                Some(v) => fmt_value(v),
                None => "-".to_string(),
            };
            let delta = match row.delta_pct {
                Some(d) => format!("{d:+.1}%"),
                None if row.current.is_none() => "gone".to_string(),
                None if row.baseline.is_none() => "new".to_string(),
                None => "n/a".to_string(),
            };
            out.push_str(&format!(
                "{status:<9} {:<10} {:<44} {:>14} {:>14} {:>9}\n",
                row.kind.label(),
                row.name,
                fmt_side(row.baseline),
                fmt_side(row.current),
                delta,
            ));
        }
        out
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e12 {
        format!("{v:.0}")
    } else if v.abs() >= 1e-4 && v.abs() < 1e7 {
        format!("{v:.6}")
    } else {
        format!("{v:.4e}")
    }
}

fn is_gated(kind: SeriesKind, name: &str) -> bool {
    match kind {
        SeriesKind::Counter => true,
        SeriesKind::Gauge => !name.contains("wall"),
        SeriesKind::Histogram => false,
    }
}

fn diff_family(
    kind: SeriesKind,
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    threshold_pct: f64,
    rows: &mut Vec<DiffRow>,
) {
    let mut names: Vec<&String> = baseline.keys().chain(current.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let b = baseline.get(name.as_str()).copied();
        let c = current.get(name.as_str()).copied();
        let gated = is_gated(kind, name);
        let (delta_pct, breach) = match (b, c) {
            (Some(b), Some(c)) => {
                if b == 0.0 {
                    // No percentage exists; any movement on a gated
                    // zero-baseline series fails the gate.
                    (None, gated && c != 0.0)
                } else {
                    let d = (c - b) / b.abs() * 100.0;
                    (Some(d), gated && d.abs() > threshold_pct)
                }
            }
            // Lost instrumentation on a gated series is a regression.
            (Some(_), None) => (None, gated),
            // New series never fail the gate.
            (None, Some(_)) => (None, false),
            (None, None) => continue,
        };
        rows.push(DiffRow {
            kind,
            name: name.clone(),
            baseline: b,
            current: c,
            delta_pct,
            gated,
            breach,
        });
    }
}

/// Compares `current` against `baseline` at `threshold_pct`.
pub fn diff_snapshots(baseline: &Snapshot, current: &Snapshot, threshold_pct: f64) -> DiffReport {
    let mut rows = Vec::new();
    let counters = |s: &Snapshot| {
        s.counters.iter().map(|(k, v)| (k.clone(), *v as f64)).collect::<BTreeMap<_, _>>()
    };
    let hist_means = |s: &Snapshot| {
        s.histograms.iter().map(|(k, h)| (k.clone(), h.mean())).collect::<BTreeMap<_, _>>()
    };
    diff_family(
        SeriesKind::Counter,
        &counters(baseline),
        &counters(current),
        threshold_pct,
        &mut rows,
    );
    diff_family(SeriesKind::Gauge, &baseline.gauges, &current.gauges, threshold_pct, &mut rows);
    diff_family(
        SeriesKind::Histogram,
        &hist_means(baseline),
        &hist_means(current),
        threshold_pct,
        &mut rows,
    );
    rows.sort_by(|a, b| b.sort_key().total_cmp(&a.sort_key()).then_with(|| a.name.cmp(&b.name)));
    DiffReport { threshold_pct, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn snap(build: impl Fn(&Registry)) -> Snapshot {
        let r = Registry::new();
        r.enable(true);
        build(&r);
        r.snapshot()
    }

    #[test]
    fn within_threshold_passes() {
        let base = snap(|r| {
            r.add("c", 100);
            r.gauge_set("g", 10.0);
        });
        let cur = snap(|r| {
            r.add("c", 110);
            r.gauge_set("g", 9.5);
        });
        let report = diff_snapshots(&base, &cur, 20.0);
        assert!(!report.has_breach(), "{}", report.to_table());
        assert_eq!(report.breaches(), 0);
    }

    #[test]
    fn counter_regression_breaches_and_sorts_first() {
        let base = snap(|r| {
            r.add("cache.hits", 100);
            r.add("batches", 50);
        });
        let cur = snap(|r| {
            r.add("cache.hits", 10); // -90%
            r.add("batches", 55); // +10%
        });
        let report = diff_snapshots(&base, &cur, 20.0);
        assert_eq!(report.breaches(), 1);
        assert_eq!(report.rows[0].name, "cache.hits");
        assert!(report.rows[0].breach);
        assert!(report.to_table().contains("BREACH"));
    }

    #[test]
    fn wall_gauges_are_informational_only() {
        let base = snap(|r| r.gauge_set("backend.wall.train_s", 1.0));
        let cur = snap(|r| r.gauge_set("backend.wall.train_s", 50.0));
        let report = diff_snapshots(&base, &cur, 20.0);
        assert!(!report.has_breach());
        assert!(!report.rows[0].gated);
    }

    #[test]
    fn histograms_reported_but_never_gated() {
        let base = snap(|r| r.observe("h", 1.0));
        let cur = snap(|r| r.observe("h", 100.0));
        let report = diff_snapshots(&base, &cur, 20.0);
        assert!(!report.has_breach());
        assert_eq!(report.rows[0].kind, SeriesKind::Histogram);
        assert!(report.rows[0].delta_pct.unwrap() > 1000.0);
    }

    #[test]
    fn disappeared_gated_series_is_a_breach_new_series_is_not() {
        let base = snap(|r| r.add("gone", 5));
        let cur = snap(|r| r.add("fresh", 5));
        let report = diff_snapshots(&base, &cur, 20.0);
        assert_eq!(report.breaches(), 1);
        let gone = report.rows.iter().find(|r| r.name == "gone").expect("gone row");
        assert!(gone.breach && gone.current.is_none());
        let fresh = report.rows.iter().find(|r| r.name == "fresh").expect("fresh row");
        assert!(!fresh.breach && fresh.baseline.is_none());
        // Disappearances sort above ordinary rows.
        assert_eq!(report.rows[0].name, "gone");
        let table = report.to_table();
        assert!(table.contains("gone"));
        assert!(table.contains("new"));
    }

    #[test]
    fn zero_baseline_movement_breaches() {
        let base = snap(|r| r.add("z", 0));
        let cur = snap(|r| r.add("z", 3));
        let report = diff_snapshots(&base, &cur, 20.0);
        assert!(report.has_breach());
        let row = &report.rows[0];
        assert!(row.delta_pct.is_none());
        // And zero-to-zero passes.
        let report = diff_snapshots(&base, &base.clone(), 20.0);
        assert!(!report.has_breach());
    }

    #[test]
    fn exact_threshold_is_not_a_breach() {
        let base = snap(|r| r.add("c", 100));
        let cur = snap(|r| r.add("c", 120));
        let report = diff_snapshots(&base, &cur, 20.0);
        assert!(!report.has_breach(), "20% move at 20% threshold passes");
        let report = diff_snapshots(&base, &cur, 19.9);
        assert!(report.has_breach());
    }
}
