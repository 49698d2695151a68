//! **gnnav-obs** — dependency-light observability for the GNNavigator
//! runtime.
//!
//! Three aggregate primitives plus a timeline, one registry:
//!
//! - **Counters** — monotonically increasing `u64` (cache hits/misses,
//!   candidates evaluated, profiled records, ...).
//! - **Gauges** — last-write-wins `f64` (per-phase epoch time, MAPE,
//!   Pareto-front size, ...).
//! - **Histograms** — streaming summaries of `f64` observations with
//!   fixed log-spaced buckets, so snapshots report p50/p95/p99 next to
//!   count/sum/min/max; span timers record wall seconds here.
//! - **[`Journal`]** — a bounded ring of time-ordered events (spans,
//!   instants, counter samples) with dual wall/simulated timestamps,
//!   exportable as Chrome trace-event JSON (see [`journal`]).
//!
//! On top of the journal sit the trace analytics: [`tree`] rebuilds
//! the span forest (from a live snapshot or a saved `--trace-out`
//! file), [`critical`] extracts the critical path and per-epoch phase
//! attribution behind `gnnavigate --trace-summary`, [`flame`] exports
//! flamegraph folded stacks, and [`tracediff`] powers the
//! `gnnavigate trace-diff` regression gate. [`alloc`] meters the
//! process allocator behind the same enable switch.
//!
//! [`Registry::span`] gives hierarchical RAII wall-clock timers: spans
//! started while another span is open on the same thread record under
//! the dotted path of their ancestors (`backend.execute.epoch`).
//! Worker threads have their own (empty) span stacks, so code that
//! fans out uses [`Registry::span_under`] to re-anchor spans beneath
//! an explicit parent path.
//!
//! A registry is **disabled by default** and every recording call
//! starts with one relaxed atomic load, so instrumentation compiled
//! into hot paths costs near zero until someone opts in (the
//! `obs_overhead` bench in `gnnav-bench` pins this). On the enabled
//! path every call takes the registry's one lock over plain values,
//! as the journal does, and copies a name only when its series is
//! created. No per-thread cache sits in front of it: histograms are
//! observed once per epoch, decision, served response or span, never
//! per batch. Snapshots export as deterministic, sorted-key JSON via
//! [`Snapshot::to_json`], parse back with [`Snapshot::from_json`], and
//! diff against a baseline with [`diff::diff_snapshots`] — the
//! machinery behind the `gnnavigate metrics-diff` regression gate.
//!
//! # Example
//!
//! ```
//! use gnnav_obs::global;
//!
//! global().enable(true);
//! global().add("demo.events", 3);
//! global().gauge_set("demo.level", 0.75);
//! {
//!     let _t = global().span("demo.work");
//!     // ... timed region ...
//! }
//! let snap = global().snapshot();
//! assert_eq!(snap.counters["demo.events"], 3);
//! assert!(snap.to_json().contains("\"demo.level\""));
//! # global().reset();
//! # global().enable(false);
//! ```

#![warn(missing_docs)]

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

pub mod alloc;
pub mod critical;
pub mod diff;
pub mod flame;
pub mod journal;
pub mod json;
pub mod names;
pub mod tracediff;
pub mod tree;

pub use journal::{ArgValue, Event, EventKind, Journal, JournalSnapshot};

// --- histogram buckets ----------------------------------------------
//
// Fixed log-spaced buckets covering 1e-9 ..= 1e9 (attoseconds-to-years
// when observing seconds; bytes-to-gigabytes when observing sizes)
// with 8 buckets per decade, so neighbouring bucket bounds differ by
// 10^(1/8) ≈ 1.33 and log-interpolated quantiles are accurate to a
// few percent. Observations below the floor (including zero and
// negatives) land in an underflow cell and report `min`; observations
// at or above the ceiling land in an overflow cell and report `max`.

const BUCKET_FLOOR: f64 = 1e-9;
const BUCKET_CEIL: f64 = 1e9;
const BUCKETS_PER_DECADE: usize = 8;
const BUCKET_DECADES: usize = 18;
const NUM_RANGE_BUCKETS: usize = BUCKETS_PER_DECADE * BUCKET_DECADES;
const NUM_CELLS: usize = NUM_RANGE_BUCKETS + 2; // + underflow + overflow

fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v < BUCKET_FLOOR {
        return 0; // underflow (also zero, negatives, NaN)
    }
    if v >= BUCKET_CEIL {
        return NUM_CELLS - 1;
    }
    let i = ((v / BUCKET_FLOOR).log10() * BUCKETS_PER_DECADE as f64).floor();
    (1 + (i as usize)).min(NUM_CELLS - 2)
}

fn bucket_lower_bound(cell: usize) -> f64 {
    debug_assert!((1..=NUM_RANGE_BUCKETS).contains(&cell));
    BUCKET_FLOOR * 10f64.powf((cell - 1) as f64 / BUCKETS_PER_DECADE as f64)
}

/// Streaming summary of one histogram series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Most recent observation.
    pub last: f64,
    /// Median (log-interpolated from the fixed buckets).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl HistogramSummary {
    /// Mean observation (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct HistogramData {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
    buckets: Vec<u64>, // NUM_CELLS entries, allocated on first observe
}

impl HistogramData {
    fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
            self.buckets = vec![0; NUM_CELLS];
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.last = v;
        self.buckets[bucket_index(v)] += 1;
    }

    /// Log-interpolated quantile estimate, clamped to `[min, max]`.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (cell, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            if cum >= rank {
                if cell == 0 {
                    return self.min;
                }
                if cell == NUM_CELLS - 1 {
                    return self.max;
                }
                let lo = bucket_lower_bound(cell);
                let step = 10f64.powf(1.0 / BUCKETS_PER_DECADE as f64);
                let into = (rank - (cum - c)) as f64 / c as f64;
                return (lo * step.powf(into)).clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            last: self.last,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramData>,
}

/// The value of the series `name` in `map`, created (and its name
/// copied) only if it is new.
fn series<'m, V: Default>(map: &'m mut BTreeMap<String, V>, name: &str) -> &'m mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), V::default());
    }
    map.get_mut(name).expect("inserted above")
}

/// A metrics registry: the shared sink all instrumentation writes to.
///
/// Cloneless sharing happens through [`global`]; isolated registries
/// (tests, embedders) are created with [`Registry::new`].
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
    journal: Journal,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<Cow<'static, str>>> = const { RefCell::new(Vec::new()) };
}

impl Registry {
    /// Creates a disabled registry.
    pub fn new() -> Self {
        Registry {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(Inner::default()),
            journal: Journal::new(),
        }
    }

    /// Turns recording on or off. While off, every recording method
    /// returns after a single relaxed atomic load. The [`Journal`] has
    /// its own switch ([`Journal::enable`]).
    ///
    /// On the [`global`] registry this also toggles the process-wide
    /// allocation tracker ([`alloc::set_tracking`]); isolated
    /// registries leave process state alone.
    pub fn enable(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
        if std::ptr::eq(self, global()) {
            alloc::set_tracking(on);
        }
    }

    /// Whether recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The event journal attached to this registry.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The series maps. A poisoned lock is taken over: no update can
    /// panic halfway, so the maps are valid whoever held the lock.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Adds `delta` to the counter `name`.
    #[inline]
    pub fn add(&self, name: &str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock();
        let count = series(&mut inner.counters, name);
        *count = count.wrapping_add(delta);
    }

    /// Sets the gauge `name` to `value`.
    #[inline]
    pub fn gauge_set(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        *series(&mut self.lock().gauges, name) = value;
    }

    /// Records `value` into the histogram `name`.
    #[inline]
    pub fn observe(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        series(&mut self.lock().histograms, name).observe(value);
    }

    /// Records `d` (in seconds) into the histogram `name`.
    #[inline]
    pub fn observe_duration(&self, name: &str, d: Duration) {
        self.observe(name, d.as_secs_f64());
    }

    /// Starts a hierarchical wall-clock span. The elapsed time lands
    /// in a histogram named after the dotted path of enclosing spans
    /// when the guard drops. Inert (no clock read) while disabled.
    #[inline]
    pub fn span<'r>(&'r self, name: &'static str) -> Span<'r> {
        if !self.is_enabled() {
            return Span { registry: self, start: None, path: String::new(), pushed: 0 };
        }
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(Cow::Borrowed(name));
            stack.join(".")
        });
        Span { registry: self, start: Some(Instant::now()), path, pushed: 1 }
    }

    /// Starts a span anchored beneath an explicit `parent` path
    /// instead of (only) the current thread's span stack.
    ///
    /// The span stack is thread-local, so a span opened on a spawned
    /// worker thread records at the top level even while its logical
    /// parent is open on the spawning thread. `span_under` closes that
    /// blindspot: the worker passes the parent's dotted path (see
    /// [`Span::path`]) and both this span and any span nested inside
    /// it on the same thread record under `parent.…`. An empty
    /// `parent`, or one that is already this thread's current path
    /// (the caller *is* the thread the parent is open on), behaves
    /// exactly like [`Registry::span`].
    #[inline]
    pub fn span_under<'r>(&'r self, parent: &str, name: &'static str) -> Span<'r> {
        if !self.is_enabled() {
            return Span { registry: self, start: None, path: String::new(), pushed: 0 };
        }
        let (path, pushed) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let mut pushed = 1usize;
            if !parent.is_empty() && stack.join(".") != parent {
                stack.push(Cow::Owned(parent.to_string()));
                pushed = 2;
            }
            stack.push(Cow::Borrowed(name));
            (stack.join("."), pushed)
        });
        Span { registry: self, start: Some(Instant::now()), path, pushed }
    }

    /// Takes a consistent point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            enabled: self.is_enabled(),
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.iter().map(|(k, h)| (k.clone(), h.summary())).collect(),
        }
    }

    /// Drops every metric series and journal event (the enabled flags
    /// are untouched).
    pub fn reset(&self) {
        *self.lock() = Inner::default();
        self.journal.reset();
    }
}

/// RAII wall-clock timer returned by [`Registry::span`] and
/// [`Registry::span_under`].
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct Span<'r> {
    registry: &'r Registry,
    start: Option<Instant>,
    path: String,
    pushed: usize,
}

impl std::fmt::Debug for Span<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("path", &self.path)
            .field("active", &self.start.is_some())
            .finish()
    }
}

impl Span<'_> {
    /// Elapsed time so far (zero for inert spans).
    pub fn elapsed(&self) -> Duration {
        self.start.map_or(Duration::ZERO, |s| s.elapsed())
    }

    /// The dotted series path this span will record under (empty for
    /// inert spans). Hand this to [`Registry::span_under`] on worker
    /// threads to keep their spans parented.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                for _ in 0..self.pushed {
                    stack.pop();
                }
            });
            self.registry.observe(&self.path, start.elapsed().as_secs_f64());
        }
    }
}

/// Point-in-time copy of a registry, exportable as JSON or a table.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Whether the source registry was recording.
    pub enabled: bool,
    /// All counters.
    pub counters: BTreeMap<String, u64>,
    /// All gauges.
    pub gauges: BTreeMap<String, f64>,
    /// All histogram summaries.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// Adaptive value formatting for tables: plain fixed-point inside
/// `[1e-4, 1e7)`, scientific notation outside it (byte counts stay
/// readable, tiny simulated times keep their precision), bare `0` for
/// zero.
fn fmt_adaptive(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if (1e-4..1e7).contains(&a) {
        format!("{v:.6}")
    } else {
        format!("{v:.6e}")
    }
}

impl Snapshot {
    /// Serializes as pretty-printed JSON with deterministically sorted
    /// keys. Schema:
    ///
    /// ```json
    /// {
    ///   "version": 2,
    ///   "enabled": true,
    ///   "counters": { "name": 42 },
    ///   "gauges": { "name": 1.5 },
    ///   "histograms": {
    ///     "name": {"count": 3, "sum": 0.9, "min": 0.1, "max": 0.5,
    ///              "mean": 0.3, "last": 0.2,
    ///              "p50": 0.3, "p95": 0.5, "p99": 0.5}
    ///   }
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"version\": 2,\n  \"enabled\": ");
        out.push_str(if self.enabled { "true" } else { "false" });
        out.push_str(",\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            json::push_string(&mut out, k);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            json::push_string(&mut out, k);
            out.push_str(": ");
            json::push_f64(&mut out, *v);
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            json::push_string(&mut out, k);
            out.push_str(": {");
            out.push_str(&format!("\"count\": {}, \"sum\": ", h.count));
            json::push_f64(&mut out, h.sum);
            for (label, v) in [
                ("min", h.min),
                ("max", h.max),
                ("mean", h.mean()),
                ("last", h.last),
                ("p50", h.p50),
                ("p95", h.p95),
                ("p99", h.p99),
            ] {
                out.push_str(&format!(", \"{label}\": "));
                json::push_f64(&mut out, v);
            }
            out.push('}');
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a snapshot back from its [`Snapshot::to_json`] form.
    /// Accepts schema versions 1 and 2 (v1 carries no percentiles;
    /// they read back as 0).
    ///
    /// # Errors
    ///
    /// Returns a [`json::ParseError`] on malformed JSON or a document
    /// that is not a snapshot.
    pub fn from_json(text: &str) -> Result<Snapshot, json::ParseError> {
        use json::Value;
        let doc = json::parse(text)?;
        let schema_err = |message: &str| json::ParseError { message: message.into(), offset: 0 };
        let version = doc.get("version").and_then(Value::as_f64).unwrap_or(0.0);
        if !(version == 1.0 || version == 2.0) {
            return Err(schema_err("unsupported snapshot version"));
        }
        let enabled = matches!(doc.get("enabled"), Some(Value::Bool(true)));
        let section = |key: &str| -> Result<BTreeMap<String, Value>, json::ParseError> {
            match doc.get(key) {
                Some(Value::Obj(m)) => Ok(m.clone()),
                _ => Err(schema_err(&format!("missing `{key}` object"))),
            }
        };
        let counters = section("counters")?
            .into_iter()
            .map(|(k, v)| (k, v.as_f64().unwrap_or(0.0) as u64))
            .collect();
        let gauges = section("gauges")?
            .into_iter()
            .map(|(k, v)| (k, v.as_f64().unwrap_or(f64::NAN)))
            .collect();
        let histograms = section("histograms")?
            .into_iter()
            .map(|(k, v)| {
                let field = |f: &str| v.get(f).and_then(Value::as_f64).unwrap_or(0.0);
                let summary = HistogramSummary {
                    count: field("count") as u64,
                    sum: field("sum"),
                    min: field("min"),
                    max: field("max"),
                    last: field("last"),
                    p50: field("p50"),
                    p95: field("p95"),
                    p99: field("p99"),
                };
                (k, summary)
            })
            .collect();
        Ok(Snapshot { enabled, counters, gauges, histograms })
    }

    /// A copy keeping only the series whose name satisfies `keep`
    /// (used to strip wall-clock series out of committed baselines).
    pub fn filtered<F: Fn(&str) -> bool>(&self, keep: F) -> Snapshot {
        Snapshot {
            enabled: self.enabled,
            counters: self.counters.iter().filter(|(k, _)| keep(k)).map(clone_kv).collect(),
            gauges: self.gauges.iter().filter(|(k, _)| keep(k)).map(clone_kv).collect(),
            histograms: self.histograms.iter().filter(|(k, _)| keep(k)).map(clone_kv).collect(),
        }
    }

    /// Renders a human-readable table (the CLI's `--verbose` output).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<44} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<44} {}\n", fmt_adaptive(*v)));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (count / mean / p50 / p95 / p99 / min / max):\n");
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "  {k:<44} {} / {} / {} / {} / {} / {} / {}\n",
                    h.count,
                    fmt_adaptive(h.mean()),
                    fmt_adaptive(h.p50),
                    fmt_adaptive(h.p95),
                    fmt_adaptive(h.p99),
                    fmt_adaptive(h.min),
                    fmt_adaptive(h.max),
                ));
            }
        }
        out
    }
}

fn clone_kv<K: Clone, V: Clone>((k, v): (&K, &V)) -> (K, V) {
    (k.clone(), v.clone())
}

/// The process-wide registry all built-in instrumentation writes to.
/// Disabled until someone calls `global().enable(true)`.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        r.add("c", 5);
        r.gauge_set("g", 1.0);
        r.observe("h", 2.0);
        {
            let _s = r.span("s");
        }
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(!snap.enabled);
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let r = Registry::new();
        r.enable(true);
        r.add("c", 2);
        r.add("c", 3);
        r.gauge_set("g", 1.0);
        r.gauge_set("g", -4.5);
        let snap = r.snapshot();
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.gauges["g"], -4.5);
    }

    #[test]
    fn histogram_summary_tracks_extremes() {
        let r = Registry::new();
        r.enable(true);
        for v in [3.0, 1.0, 2.0] {
            r.observe("h", v);
        }
        let h = r.snapshot().histograms["h"];
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
        assert_eq!(h.last, 2.0);
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentiles_from_log_buckets() {
        let r = Registry::new();
        r.enable(true);
        // 99 observations at 1ms, one at 1s: p50/p95 sit at ~1ms,
        // p99 catches the outlier's bucket.
        for _ in 0..99 {
            r.observe("lat", 1e-3);
        }
        r.observe("lat", 1.0);
        let h = r.snapshot().histograms["lat"];
        assert!((0.5e-3..2e-3).contains(&h.p50), "p50 {}", h.p50);
        assert!((0.5e-3..2e-3).contains(&h.p95), "p95 {}", h.p95);
        assert!(h.p99 <= 1.0 + 1e-12);
        // Percentiles are order statistics: monotone and inside range.
        assert!(h.p50 <= h.p95 && h.p95 <= h.p99);
        assert!(h.p50 >= h.min && h.p99 <= h.max);
    }

    #[test]
    fn histogram_percentiles_handle_underflow_and_overflow() {
        let r = Registry::new();
        r.enable(true);
        for v in [0.0, -5.0, 1e-12] {
            r.observe("u", v); // all below the bucket floor
        }
        let u = r.snapshot().histograms["u"];
        assert_eq!(u.p50, u.min);
        assert_eq!(u.p99, u.min);
        r.observe("o", 1e12);
        r.observe("o", 1e13);
        let o = r.snapshot().histograms["o"];
        assert_eq!(o.p99, o.max);
    }

    #[test]
    fn percentile_accuracy_within_bucket_resolution() {
        let r = Registry::new();
        r.enable(true);
        for i in 1..=1000 {
            r.observe("h", i as f64 * 1e-3); // 1ms .. 1s uniform
        }
        let h = r.snapshot().histograms["h"];
        // One bucket spans a 10^(1/8) ≈ 1.33x range; allow 2 buckets.
        assert!((0.28..0.9).contains(&h.p50), "p50 {}", h.p50);
        assert!((0.7..=1.0).contains(&h.p95), "p95 {}", h.p95);
    }

    #[test]
    fn quantiles_on_empty_histogram_are_zero() {
        // A registered but never-observed histogram must not divide by
        // its zero count.
        let r = Registry::new();
        r.enable(true);
        series(&mut r.lock().histograms, "empty");
        let h = r.snapshot().histograms["empty"];
        assert_eq!(h.count, 0);
        assert_eq!((h.p50, h.p95, h.p99), (0.0, 0.0, 0.0));
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantiles_on_single_sample_return_it() {
        let r = Registry::new();
        r.enable(true);
        r.observe("one", 0.125);
        let h = r.snapshot().histograms["one"];
        assert_eq!(h.count, 1);
        // Every quantile of a one-sample distribution is the sample,
        // up to one bucket (10^(1/8) ≈ 1.33x) of interpolation.
        for q in [h.p50, h.p95, h.p99] {
            assert!((0.125..=0.125 * 1.34).contains(&q), "{q}");
            assert!(q >= h.min && q <= h.max);
        }
    }

    #[test]
    fn quantiles_on_saturated_single_bucket_stay_in_bucket() {
        // Many observations of one value land in one bucket; all
        // quantiles must stay inside it (clamped to [min, max]).
        let r = Registry::new();
        r.enable(true);
        for _ in 0..10_000 {
            r.observe("flat", 2e-3);
        }
        let h = r.snapshot().histograms["flat"];
        assert_eq!(h.count, 10_000);
        assert_eq!(h.min, 2e-3);
        assert_eq!(h.max, 2e-3);
        for q in [h.p50, h.p95, h.p99] {
            assert_eq!(q, 2e-3, "clamped to the degenerate [min, max]");
        }
    }

    #[test]
    fn edge_case_histograms_round_trip_v2_and_v1() {
        let r = Registry::new();
        r.enable(true);
        series(&mut r.lock().histograms, "edge.empty");
        r.observe("edge.one", 0.125);
        for _ in 0..100 {
            r.observe("edge.flat", 2e-3);
        }
        let snap = r.snapshot();
        // v2: lossless for the summary fields.
        let back = Snapshot::from_json(&snap.to_json()).expect("v2 parse");
        assert_eq!(back, snap);
        // v1 (no percentile fields): counts and extremes survive,
        // percentiles read back as zero.
        let v1 = snap
            .to_json()
            .replace("\"version\": 2", "\"version\": 1")
            .replace(", \"p50\": ", ", \"q50\": ")
            .replace(", \"p95\": ", ", \"q95\": ")
            .replace(", \"p99\": ", ", \"q99\": ");
        let old = Snapshot::from_json(&v1).expect("v1 parse");
        assert_eq!(old.histograms["edge.one"].count, 1);
        assert_eq!(old.histograms["edge.one"].min, 0.125);
        assert_eq!(old.histograms["edge.one"].p50, 0.0);
        assert_eq!(old.histograms["edge.flat"].count, 100);
        assert_eq!(old.histograms["edge.empty"].count, 0);
    }

    #[test]
    fn spans_nest_into_dotted_paths() {
        let r = Registry::new();
        r.enable(true);
        {
            let _outer = r.span("outer");
            {
                let _inner = r.span("inner");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let snap = r.snapshot();
        assert!(snap.histograms.contains_key("outer"), "{:?}", snap.histograms);
        assert!(snap.histograms.contains_key("outer.inner"));
        assert!(snap.histograms["outer"].sum >= snap.histograms["outer.inner"].sum);
        // The stack unwound: a fresh span is top-level again.
        {
            let _again = r.span("again");
        }
        assert!(r.snapshot().histograms.contains_key("again"));
    }

    #[test]
    fn span_under_reparents_worker_threads() {
        // Regression: spans opened on spawned threads lost their
        // parent because SPAN_STACK is thread-local. span_under
        // re-anchors them (and their nested children) explicitly.
        let r = std::sync::Arc::new(Registry::new());
        r.enable(true);
        {
            let sweep = r.span("sweep");
            assert_eq!(sweep.path(), "sweep");
            let parent = sweep.path().to_string();
            let rr = std::sync::Arc::clone(&r);
            std::thread::spawn(move || {
                let _cfg = rr.span_under(&parent, "config");
                let _nested = rr.span("execute");
            })
            .join()
            .expect("join");
        }
        let snap = r.snapshot();
        assert!(snap.histograms.contains_key("sweep.config"), "{:?}", snap.histograms);
        assert!(snap.histograms.contains_key("sweep.config.execute"));
        // The worker stack fully unwound.
        {
            let _top = r.span("top");
        }
        assert!(r.snapshot().histograms.contains_key("top"));
    }

    #[test]
    fn span_under_on_the_parents_own_thread_is_plain_span() {
        // A fan-out of one runs on the thread that opened the parent:
        // same paths as a worker thread records, parent not repeated.
        let r = Registry::new();
        r.enable(true);
        {
            let _outer = r.span("prepare");
            let sweep = r.span("sweep");
            let parent = sweep.path().to_string();
            let _cfg = r.span_under(&parent, "config");
            let _nested = r.span("execute");
        }
        let snap = r.snapshot();
        let paths: Vec<_> = snap.histograms.keys().map(String::as_str).collect();
        assert_eq!(
            paths,
            ["prepare", "prepare.sweep", "prepare.sweep.config", "prepare.sweep.config.execute"]
        );
    }

    #[test]
    fn span_under_empty_parent_is_plain_span() {
        let r = Registry::new();
        r.enable(true);
        {
            let _s = r.span_under("", "solo");
        }
        assert!(r.snapshot().histograms.contains_key("solo"));
    }

    #[test]
    fn tls_cache_survives_reset_correctly() {
        let r = Registry::new();
        r.enable(true);
        r.observe("h", 1.0);
        r.observe("h", 2.0); // cached-path hit
        assert_eq!(r.snapshot().histograms["h"].count, 2);
        r.reset();
        // A stale thread-local cell must not swallow this observation.
        r.observe("h", 3.0);
        let snap = r.snapshot();
        assert_eq!(snap.histograms["h"].count, 1);
        assert_eq!(snap.histograms["h"].last, 3.0);
    }

    #[test]
    fn json_snapshot_is_sorted_and_parsable_shape() {
        let r = Registry::new();
        r.enable(true);
        r.add("b.count", 1);
        r.add("a.count", 2);
        r.gauge_set("z.value", 0.5);
        r.observe("t.hist", 1.25);
        let json = r.snapshot().to_json();
        assert!(json.starts_with("{\n  \"version\": 2"));
        assert!(json.find("\"a.count\"").unwrap() < json.find("\"b.count\"").unwrap());
        assert!(json.contains("\"z.value\": 0.5"));
        assert!(json.contains("\"count\": 1, \"sum\": 1.25"));
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("\"p99\":"));
        assert!(json.trim_end().ends_with('}'));
        // Balanced braces (cheap structural sanity check).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn json_escapes_and_non_finite_values() {
        let r = Registry::new();
        r.enable(true);
        r.gauge_set("weird\"name\\with\tescapes", f64::NAN);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"weird\\\"name\\\\with\\tescapes\": null"));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = Registry::new();
        r.enable(true);
        r.add("c.one", 3);
        r.gauge_set("g.level", -0.125);
        for v in [0.1, 0.2, 0.4] {
            r.observe("h.lat", v);
        }
        let snap = r.snapshot();
        let back = Snapshot::from_json(&snap.to_json()).expect("parse");
        assert_eq!(back, snap);
    }

    #[test]
    fn json_numeric_edge_cases_round_trip() {
        // Negative zero, subnormals, and values straddling the 1e15
        // integral-formatting cutoff must survive the exporter
        // bit-for-bit and stay valid JSON.
        let mut snap = Snapshot {
            enabled: true,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };
        let cases = [
            ("neg_zero", -0.0),
            ("subnormal", 5e-324),
            ("subnormal_mid", f64::MIN_POSITIVE / 2.0),
            ("below_cutoff", 999_999_999_999_999.0),
            ("cutoff", 1e15),
            ("above_cutoff", 1e15 + 2.0),
            ("fractional_large", 999_999_999_999_999.9),
            ("max", f64::MAX),
            ("min_positive", f64::MIN_POSITIVE),
        ];
        for (name, v) in cases {
            snap.gauges.insert(name.to_string(), v);
        }
        let text = snap.to_json();
        json::parse(&text).expect("well-formed JSON");
        let back = Snapshot::from_json(&text).expect("snapshot parse");
        for (name, v) in cases {
            let got = back.gauges[name];
            assert_eq!(got.to_bits(), v.to_bits(), "{name}: {v} -> {got}");
        }
        // Non-finite gauges degrade to null, not malformed tokens.
        snap.gauges.insert("nan".into(), f64::NAN);
        snap.gauges.insert("inf".into(), f64::INFINITY);
        let text = snap.to_json();
        assert!(!text.contains("inf") || text.contains("\"inf\""), "{text}");
        json::parse(&text).expect("still well-formed");
    }

    #[test]
    fn filtered_keeps_matching_series_only() {
        let r = Registry::new();
        r.enable(true);
        r.add("keep.c", 1);
        r.add("drop.wall.c", 1);
        r.gauge_set("keep.g", 1.0);
        r.observe("drop.wall.h", 1.0);
        let snap = r.snapshot().filtered(|name| !name.contains("wall"));
        assert!(snap.counters.contains_key("keep.c"));
        assert!(!snap.counters.contains_key("drop.wall.c"));
        assert!(snap.gauges.contains_key("keep.g"));
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn reset_clears_series() {
        let r = Registry::new();
        r.enable(true);
        r.add("c", 1);
        r.journal().enable(true);
        r.journal().instant("e", "t", None, Vec::new());
        r.reset();
        assert_eq!(r.snapshot().counters.get("c"), None);
        assert!(r.is_enabled(), "reset must not flip the enabled bit");
        assert!(r.journal().is_empty(), "reset clears the journal");
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let r = std::sync::Arc::new(Registry::new());
        r.enable(true);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = std::sync::Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    r.add("par", 1);
                }
            }));
        }
        for h in handles {
            h.join().expect("join");
        }
        assert_eq!(r.snapshot().counters["par"], 8000);
    }

    #[test]
    fn concurrent_observations_are_lossless() {
        let r = std::sync::Arc::new(Registry::new());
        r.enable(true);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = std::sync::Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    r.observe("par.h", 1e-3 * (1 + i % 7) as f64);
                }
            }));
        }
        for h in handles {
            h.join().expect("join");
        }
        assert_eq!(r.snapshot().histograms["par.h"].count, 4000);
    }

    #[test]
    fn table_rendering_mentions_every_series() {
        let r = Registry::new();
        r.enable(true);
        r.add("events", 7);
        r.gauge_set("level", 0.25);
        r.observe("latency", 0.5);
        let table = r.snapshot().to_table();
        assert!(table.contains("events"));
        assert!(table.contains("level"));
        assert!(table.contains("latency"));
    }

    #[test]
    fn table_formats_adaptively() {
        // Regression: `{v:.6}` rendered byte counts as
        // `25000000000.000000` and tiny values as `0.000000`.
        let r = Registry::new();
        r.enable(true);
        r.gauge_set("bytes", 2.5e10);
        r.gauge_set("tiny", 3.2e-7);
        r.gauge_set("mid", 1.5);
        r.gauge_set("zero", 0.0);
        let table = r.snapshot().to_table();
        assert!(table.contains("2.500000e10"), "{table}");
        assert!(table.contains("3.200000e-7"), "{table}");
        assert!(table.contains("1.500000"), "{table}");
        assert!(!table.contains("25000000000.000000"), "{table}");
        assert!(!table.contains("0.000000\n"), "{table}");
        let zero_line = table.lines().find(|l| l.contains("zero")).expect("zero row");
        assert!(zero_line.trim_end().ends_with(" 0"), "{zero_line}");
    }
}
