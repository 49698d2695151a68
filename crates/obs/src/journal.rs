//! Time-ordered event journal with dual clocks.
//!
//! Aggregate counters answer "how much"; the journal answers "what
//! happened *when*". It is a bounded ring buffer of structured
//! [`Event`]s — completed spans, instant markers, counter samples —
//! each stamped with a **wall-clock** timestamp (microseconds since
//! the journal epoch) and optionally a **simulated-clock** timestamp
//! (microseconds of `gnnav-hwsim` `SimTime`, passed in as raw `f64`
//! so this crate stays dependency-free). Snapshots export as Chrome
//! trace-event JSON loadable in Perfetto / `chrome://tracing`, with
//! one process per clock (`wall`, `sim`) and one track per event
//! `track` name, so simulated phase timelines and real overheads sit
//! side by side in the same view.
//!
//! Recording is off by default; while off every call returns after a
//! single relaxed atomic load. When the ring fills, the oldest events
//! are dropped and counted in [`JournalSnapshot::dropped`].

use crate::json;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Ring-buffer capacity (events).
pub(crate) const DEFAULT_CAPACITY: usize = 65_536;

/// A typed argument attached to an event (rendered into the Chrome
/// trace `args` object).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A string argument.
    Str(String),
    /// A float argument.
    F64(f64),
    /// An integer argument.
    U64(u64),
    /// A boolean argument.
    Bool(bool),
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

/// Event argument list.
pub type Args = Vec<(Cow<'static, str>, ArgValue)>;

/// What kind of event this is.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A completed span. At least one duration is present: `wall_dur_us`
    /// for measured regions, `sim_dur_us` for simulated phases, both
    /// for regions that exist on the two clocks at once.
    Span {
        /// Wall-clock duration in microseconds, if measured.
        wall_dur_us: Option<f64>,
        /// Simulated duration in microseconds, if simulated.
        sim_dur_us: Option<f64>,
    },
    /// An instantaneous marker.
    Instant,
    /// A sampled counter value (rendered as a Chrome `C` counter track).
    Counter {
        /// The sampled value.
        value: f64,
    },
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name (Chrome trace `name`).
    pub name: Cow<'static, str>,
    /// Track the event belongs to; one Chrome trace thread per track.
    pub track: Cow<'static, str>,
    /// Wall-clock timestamp, microseconds since the journal epoch.
    pub wall_us: f64,
    /// Simulated-clock timestamp in microseconds, when the event has a
    /// position on the simulated timeline.
    pub sim_us: Option<f64>,
    /// Kind and durations.
    pub kind: EventKind,
    /// Structured arguments.
    pub args: Args,
}

#[derive(Debug, Default)]
struct JournalInner {
    events: VecDeque<Event>,
    dropped: u64,
}

/// The bounded event journal. Usually reached through
/// [`Registry::journal`](crate::Registry::journal).
#[derive(Debug)]
pub struct Journal {
    enabled: AtomicBool,
    epoch: OnceLock<Instant>,
    inner: Mutex<JournalInner>,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new()
    }
}

impl Journal {
    /// Creates a disabled journal whose ring holds 65 536 events.
    pub fn new() -> Self {
        Journal {
            enabled: AtomicBool::new(false),
            epoch: OnceLock::new(),
            inner: Mutex::new(JournalInner::default()),
        }
    }

    /// Turns event recording on or off. While off, every recording
    /// call returns after one relaxed atomic load.
    pub fn enable(&self, on: bool) {
        if on {
            // Pin the epoch before the first event so timestamps are
            // non-negative.
            let _ = self.epoch.get_or_init(Instant::now);
        }
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether event recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Microseconds of wall clock since the journal epoch (initializes
    /// the epoch on first use).
    pub fn now_us(&self) -> f64 {
        self.epoch.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
    }

    /// Appends `event`, evicting the oldest entry when full.
    pub(crate) fn push(&self, event: Event) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.events.len() >= DEFAULT_CAPACITY {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }

    /// Records an instant marker at the current wall time.
    pub fn instant(
        &self,
        name: impl Into<Cow<'static, str>>,
        track: impl Into<Cow<'static, str>>,
        sim_us: Option<f64>,
        args: Args,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(Event {
            name: name.into(),
            track: track.into(),
            wall_us: self.now_us(),
            sim_us,
            kind: EventKind::Instant,
            args,
        });
    }

    /// Records a completed span with explicit timestamps. Pass
    /// `wall_dur_us: None` for simulated-only phases and
    /// `sim_*: None` for wall-only regions.
    #[allow(clippy::too_many_arguments)]
    pub fn span_complete(
        &self,
        name: impl Into<Cow<'static, str>>,
        track: impl Into<Cow<'static, str>>,
        wall_us: f64,
        wall_dur_us: Option<f64>,
        sim_us: Option<f64>,
        sim_dur_us: Option<f64>,
        args: Args,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(Event {
            name: name.into(),
            track: track.into(),
            wall_us,
            sim_us,
            kind: EventKind::Span { wall_dur_us, sim_dur_us },
            args,
        });
    }

    /// Records a counter sample at the current wall time.
    pub fn counter(
        &self,
        name: impl Into<Cow<'static, str>>,
        track: impl Into<Cow<'static, str>>,
        value: f64,
        sim_us: Option<f64>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(Event {
            name: name.into(),
            track: track.into(),
            wall_us: self.now_us(),
            sim_us,
            kind: EventKind::Counter { value },
            args: Vec::new(),
        });
    }

    /// Takes a point-in-time copy of the journal, ordered by wall
    /// timestamp.
    pub fn snapshot(&self) -> JournalSnapshot {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut events: Vec<Event> = inner.events.iter().cloned().collect();
        events.sort_by(|a, b| a.wall_us.total_cmp(&b.wall_us));
        JournalSnapshot { events, dropped: inner.dropped }
    }

    /// Drops every recorded event (enabled flag and epoch untouched).
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        *inner = JournalInner::default();
    }

    /// Number of buffered events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).events.len()
    }

    /// Whether the journal holds no events.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Point-in-time copy of a [`Journal`].
#[derive(Debug, Clone, PartialEq)]
pub struct JournalSnapshot {
    /// Buffered events, ordered by wall timestamp.
    pub events: Vec<Event>,
    /// Events evicted because the ring was full.
    pub dropped: u64,
}

/// Chrome trace process id of the wall clock.
const PID_WALL: u64 = 1;
/// Chrome trace process id of the simulated clock.
const PID_SIM: u64 = 2;

impl JournalSnapshot {
    /// Serializes as Chrome trace-event JSON (the object form, with a
    /// `traceEvents` array), loadable in Perfetto or `chrome://tracing`.
    ///
    /// Two trace processes separate the clocks: `wall` (pid 1) carries
    /// every event at its wall timestamp; `sim` (pid 2) carries the
    /// events that also have simulated timestamps, positioned on the
    /// simulated timeline. Within each process, one named thread per
    /// event `track`.
    pub fn to_chrome_trace(&self) -> String {
        // Stable track -> tid mapping, sorted by name.
        let mut tids: BTreeMap<&str, u64> = BTreeMap::new();
        for e in &self.events {
            let next = tids.len() as u64 + 1;
            tids.entry(e.track.as_ref()).or_insert(next);
        }

        let mut out = String::with_capacity(4096 + self.events.len() * 160);
        out.push_str("{\n\"traceEvents\": [\n");
        let mut first = true;
        let mut emit = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };

        // Metadata: process and thread names.
        for (pid, label) in [(PID_WALL, "wall"), (PID_SIM, "sim")] {
            emit(
                format!(
                    "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {pid}, \"tid\": 0, \
                     \"args\": {{\"name\": \"{label} clock\"}}}}"
                ),
                &mut out,
            );
            for (track, tid) in &tids {
                let mut line = format!(
                    "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": {pid}, \"tid\": {tid}, \
                     \"args\": {{\"name\": "
                );
                json::push_string(&mut line, track);
                line.push_str("}}");
                emit(line, &mut out);
            }
        }

        for e in &self.events {
            let tid = tids[e.track.as_ref()];
            match &e.kind {
                EventKind::Span { wall_dur_us, sim_dur_us } => {
                    if let Some(dur) = wall_dur_us {
                        emit(complete_event(e, PID_WALL, tid, e.wall_us, *dur), &mut out);
                    }
                    if let (Some(ts), Some(dur)) = (e.sim_us, sim_dur_us) {
                        emit(complete_event(e, PID_SIM, tid, ts, *dur), &mut out);
                    }
                }
                EventKind::Instant => {
                    emit(instant_event(e, PID_WALL, tid, e.wall_us), &mut out);
                    if let Some(ts) = e.sim_us {
                        emit(instant_event(e, PID_SIM, tid, ts), &mut out);
                    }
                }
                EventKind::Counter { value } => {
                    emit(counter_event(e, PID_WALL, tid, e.wall_us, *value), &mut out);
                    if let Some(ts) = e.sim_us {
                        emit(counter_event(e, PID_SIM, tid, ts, *value), &mut out);
                    }
                }
            }
        }
        out.push_str("\n],\n\"displayTimeUnit\": \"ms\",\n\"droppedEvents\": ");
        out.push_str(&self.dropped.to_string());
        out.push_str("\n}\n");
        out
    }
}

fn event_head(e: &Event, ph: char, pid: u64, tid: u64, ts: f64) -> String {
    let mut line = String::with_capacity(128);
    line.push_str("{\"ph\": \"");
    line.push(ph);
    line.push_str("\", \"name\": ");
    json::push_string(&mut line, &e.name);
    line.push_str(&format!(", \"pid\": {pid}, \"tid\": {tid}, \"ts\": "));
    json::push_f64(&mut line, ts);
    line
}

fn push_args(line: &mut String, args: &Args) {
    line.push_str(", \"args\": {");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        json::push_string(line, k);
        line.push_str(": ");
        match v {
            ArgValue::Str(s) => json::push_string(line, s),
            ArgValue::F64(f) => json::push_f64(line, *f),
            ArgValue::U64(u) => line.push_str(&u.to_string()),
            ArgValue::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
        }
    }
    line.push('}');
}

fn complete_event(e: &Event, pid: u64, tid: u64, ts: f64, dur: f64) -> String {
    let mut line = event_head(e, 'X', pid, tid, ts);
    line.push_str(", \"dur\": ");
    json::push_f64(&mut line, dur);
    push_args(&mut line, &e.args);
    line.push('}');
    line
}

fn instant_event(e: &Event, pid: u64, tid: u64, ts: f64) -> String {
    let mut line = event_head(e, 'i', pid, tid, ts);
    line.push_str(", \"s\": \"t\"");
    push_args(&mut line, &e.args);
    line.push('}');
    line
}

fn counter_event(e: &Event, pid: u64, tid: u64, ts: f64, value: f64) -> String {
    let mut line = event_head(e, 'C', pid, tid, ts);
    line.push_str(", \"args\": {\"value\": ");
    json::push_f64(&mut line, value);
    line.push_str("}}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn args(pairs: &[(&'static str, f64)]) -> Args {
        pairs.iter().map(|(k, v)| (Cow::Borrowed(*k), ArgValue::F64(*v))).collect()
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let j = Journal::new();
        j.instant("a", "t", None, Vec::new());
        j.counter("c", "t", 1.0, None);
        j.span_complete("s", "t", 0.0, Some(1.0), None, None, Vec::new());
        assert!(j.is_empty());
        assert_eq!(j.snapshot().events.len(), 0);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let j = Journal::new();
        j.enable(true);
        for i in 0..DEFAULT_CAPACITY + 2 {
            j.span_complete("e", "t", i as f64, Some(1.0), None, None, Vec::new());
        }
        let snap = j.snapshot();
        assert_eq!(snap.events.len(), DEFAULT_CAPACITY);
        assert_eq!(snap.dropped, 2);
        // Oldest evicted: timestamps 2, 3, 4 remain.
        assert_eq!(snap.events[0].wall_us, 2.0);
    }

    #[test]
    fn snapshot_orders_by_wall_time() {
        let j = Journal::new();
        j.enable(true);
        j.span_complete("b", "t", 5.0, Some(1.0), None, None, Vec::new());
        j.span_complete("a", "t", 1.0, Some(1.0), None, None, Vec::new());
        let snap = j.snapshot();
        assert_eq!(snap.events[0].name, "a");
        assert_eq!(snap.events[1].name, "b");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_both_clocks() {
        let j = Journal::new();
        j.enable(true);
        j.span_complete(
            "epoch",
            "backend",
            10.0,
            Some(50.0),
            Some(0.0),
            Some(1500.0),
            args(&[("batches", 4.0)]),
        );
        j.span_complete("sample", "phase.sample", 10.0, None, Some(0.0), Some(400.0), Vec::new());
        j.instant("reject", "explorer", None, Vec::new());
        j.counter("hit_rate", "cache", 0.75, Some(1500.0));
        let trace = j.snapshot().to_chrome_trace();
        let doc = parse(&trace).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_arr).expect("traceEvents array");
        // Find at least one X event on each clock pid.
        let phase = |e: &Value| e.get("ph").and_then(Value::as_str).map(str::to_string);
        let pid = |e: &Value| e.get("pid").and_then(Value::as_f64);
        assert!(events.iter().any(|e| phase(e).as_deref() == Some("X") && pid(e) == Some(1.0)));
        assert!(events.iter().any(|e| phase(e).as_deref() == Some("X") && pid(e) == Some(2.0)));
        assert!(events.iter().any(|e| phase(e).as_deref() == Some("i")));
        assert!(events.iter().any(|e| phase(e).as_deref() == Some("C")));
        // Thread-name metadata names each track on both processes.
        let names: Vec<_> = events
            .iter()
            .filter(|e| phase(e).as_deref() == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str().map(str::to_string))
            .collect();
        assert!(names.iter().any(|n| n == "backend"));
        assert!(names.iter().any(|n| n == "phase.sample"));
        assert!(names.iter().any(|n| n == "wall clock"));
        assert!(names.iter().any(|n| n == "sim clock"));
        // Every X event carries a duration.
        for e in events.iter().filter(|e| phase(e).as_deref() == Some("X")) {
            assert!(e.get("dur").and_then(Value::as_f64).is_some());
        }
    }

    #[test]
    fn sim_only_span_skips_wall_process() {
        let j = Journal::new();
        j.enable(true);
        j.span_complete("p", "t", 3.0, None, Some(7.0), Some(2.0), Vec::new());
        let trace = j.snapshot().to_chrome_trace();
        let doc = parse(&trace).expect("valid");
        let xs: Vec<_> = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 1);
        assert_eq!(xs[0].get("pid").and_then(Value::as_f64), Some(2.0));
        assert_eq!(xs[0].get("ts").and_then(Value::as_f64), Some(7.0));
    }

    #[test]
    fn hostile_names_survive_chrome_export() {
        // Escaping audit: every string that reaches the exporter —
        // span names, track names, arg keys, arg string values —
        // must be escaped, or one hostile name corrupts the whole
        // trace file.
        let hostile = "q\"uote\\back\nnew\tta\u{1}b";
        let j = Journal::new();
        j.enable(true);
        let args: Args = vec![
            (Cow::Owned(format!("k{hostile}")), ArgValue::Str(format!("v{hostile}"))),
            (Cow::Borrowed("n"), ArgValue::F64(0.5)),
        ];
        j.span_complete(
            format!("span{hostile}"),
            format!("track{hostile}"),
            0.0,
            Some(1.0),
            Some(0.0),
            Some(2.0),
            args.clone(),
        );
        j.instant(format!("i{hostile}"), format!("track{hostile}"), None, args);
        j.counter(format!("c{hostile}"), format!("track{hostile}"), 1.0, None);
        let trace = j.snapshot().to_chrome_trace();
        let doc = parse(&trace).expect("hostile names must still parse");
        let events = doc.get("traceEvents").and_then(Value::as_arr).expect("array");
        // The hostile content round-trips intact through the escape.
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .expect("span event");
        assert_eq!(
            span.get("name").and_then(Value::as_str),
            Some(format!("span{hostile}").as_str())
        );
        let arg = span
            .get("args")
            .and_then(|a| a.get(&format!("k{hostile}")))
            .and_then(Value::as_str)
            .expect("hostile arg key");
        assert_eq!(arg, format!("v{hostile}"));
        // Track name appears escaped in thread metadata.
        let thread_names: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str().map(str::to_string))
            .collect();
        assert!(thread_names.iter().any(|n| n == &format!("track{hostile}")), "{thread_names:?}");
    }

    #[test]
    fn hostile_names_round_trip_through_importer() {
        let hostile = "a\"b\\c\nd";
        let j = Journal::new();
        j.enable(true);
        j.span_complete(
            format!("s{hostile}"),
            format!("t{hostile}"),
            0.0,
            None,
            Some(0.0),
            Some(5.0),
            Vec::new(),
        );
        let imported =
            crate::tree::import_chrome_trace(&j.snapshot().to_chrome_trace()).expect("import");
        assert_eq!(imported.events.len(), 1);
        assert_eq!(imported.events[0].name, format!("s{hostile}"));
        assert_eq!(imported.events[0].track, format!("t{hostile}"));
    }
}
