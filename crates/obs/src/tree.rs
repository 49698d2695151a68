//! Span-forest reconstruction from journal snapshots.
//!
//! Spans in the [`Journal`](crate::Journal) carry no parent ids: the
//! runtime emits *completed* spans with timestamps and durations only.
//! `SpanForest::build` recovers the hierarchy per track and per
//! clock by interval containment — a span is a child of the innermost
//! span on the same track whose interval contains it — which is exact
//! for single-timeline tracks like the backend's epoch/phase spans and
//! degrades gracefully (partial overlaps become siblings) for
//! pipelined phases that spill past their epoch.
//!
//! The forest is the substrate of the trace analytics built on top:
//! [`critical`](crate::critical) (critical path + per-epoch phase
//! attribution), [`flame`](crate::flame) (folded-stacks export), and
//! [`tracediff`](crate::tracediff) (differential profiling). Saved
//! `--trace-out` files round-trip back into a [`JournalSnapshot`]
//! through [`import_chrome_trace`], so every analysis works on live
//! journals and on-disk traces alike.

use crate::journal::{ArgValue, Args, Event, EventKind, JournalSnapshot};
use crate::json::{self, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Which timeline a forest is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Measured wall-clock time. Varies run to run; never gated.
    Wall,
    /// Simulated time. Deterministic for a fixed `(seed, plan,
    /// GNNAV_THREADS)`, so it is the clock every gated report uses.
    Sim,
}

impl Clock {
    /// Lowercase label used in report headers.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Sim => "sim",
        }
    }
}

/// One reconstructed span with its children.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Event name.
    pub name: String,
    /// Track the span was recorded on.
    pub track: String,
    /// Folded path `track;ancestors…;name` — the flamegraph frame key
    /// and the alignment key of `trace-diff`. Frames are sanitized
    /// (`;` and whitespace replaced) so the folded-stack grammar stays
    /// unambiguous under hostile names.
    pub path: String,
    /// Start timestamp on the forest's clock, microseconds.
    pub start_us: f64,
    /// Inclusive duration (self plus descendants), microseconds.
    pub inclusive_us: f64,
    /// Exclusive duration (inclusive minus children), microseconds,
    /// clamped at zero.
    pub exclusive_us: f64,
    /// Structured arguments copied from the journal event.
    pub args: Args,
    /// Child spans ordered by start time.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Looks up a numeric argument by key (`U64` and `F64` both
    /// answer; imported traces store integral numbers as `U64`).
    pub(crate) fn arg_f64(&self, key: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
            ArgValue::F64(f) => Some(*f),
            ArgValue::U64(u) => Some(*u as f64),
            _ => None,
        })
    }
}

/// Aggregate statistics of one track.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackRollup {
    /// Track name.
    pub track: String,
    /// Total spans on the track.
    pub spans: u64,
    /// Root spans (not contained by any other span).
    pub roots: u64,
    /// Sum of root inclusive durations, microseconds.
    pub inclusive_us: f64,
}

/// Aggregate of all spans sharing one folded path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PathAgg {
    /// Number of spans.
    pub count: u64,
    /// Summed inclusive duration, microseconds.
    pub inclusive_us: f64,
    /// Summed exclusive duration, microseconds.
    pub exclusive_us: f64,
}

/// A per-track span hierarchy on one clock.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanForest {
    /// The clock the forest was built on.
    pub clock: Clock,
    /// Root spans per track, ordered by start time.
    pub tracks: BTreeMap<String, Vec<SpanNode>>,
    /// Span events skipped because they carry no duration on this
    /// clock (e.g. wall-only profiler spans in a sim forest).
    pub skipped_spans: u64,
    /// Events the journal ring evicted before the snapshot was taken
    /// (propagated so downstream reports can refuse to gate).
    pub dropped: u64,
}

impl SpanForest {
    /// Reconstructs the span forest of `snapshot` on `clock`.
    ///
    /// Deterministic regardless of event order in the snapshot: spans
    /// are re-sorted per track by `(start asc, end desc, name asc)`,
    /// so two snapshots of the same simulated timeline produce
    /// identical forests even though their wall timestamps differ.
    pub(crate) fn build(snapshot: &JournalSnapshot, clock: Clock) -> SpanForest {
        let mut per_track: BTreeMap<&str, Vec<(f64, f64, &Event)>> = BTreeMap::new();
        let mut skipped = 0u64;
        for e in &snapshot.events {
            let EventKind::Span { wall_dur_us, sim_dur_us } = &e.kind else { continue };
            let picked = match clock {
                Clock::Wall => wall_dur_us.map(|d| (e.wall_us, d)),
                Clock::Sim => match (e.sim_us, sim_dur_us) {
                    (Some(ts), Some(d)) => Some((ts, *d)),
                    _ => None,
                },
            };
            match picked {
                Some((ts, dur)) if ts.is_finite() && dur.is_finite() && dur >= 0.0 => {
                    per_track.entry(e.track.as_ref()).or_default().push((ts, ts + dur, e));
                }
                _ => skipped += 1,
            }
        }
        let mut tracks = BTreeMap::new();
        for (track, mut spans) in per_track {
            // Outer spans first: start ascending, longer first. The
            // name breaks exact interval ties so rebuilds do not
            // depend on the snapshot's (wall-ordered) event order.
            spans.sort_by(|a, b| {
                a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)).then_with(|| a.2.name.cmp(&b.2.name))
            });
            tracks.insert(track.to_string(), nest(track, &spans));
        }
        SpanForest { clock, tracks, skipped_spans: skipped, dropped: snapshot.dropped }
    }

    /// Per-track aggregates, sorted by track name.
    pub(crate) fn rollups(&self) -> Vec<TrackRollup> {
        fn count(nodes: &[SpanNode], spans: &mut u64) {
            for n in nodes {
                *spans += 1;
                count(&n.children, spans);
            }
        }
        self.tracks
            .iter()
            .map(|(track, roots)| {
                let mut spans = 0u64;
                count(roots, &mut spans);
                TrackRollup {
                    track: track.clone(),
                    spans,
                    roots: roots.len() as u64,
                    inclusive_us: roots.iter().map(|r| r.inclusive_us).sum(),
                }
            })
            .collect()
    }

    /// Sum of root inclusive durations across every track,
    /// microseconds — "all the time the trace accounts for".
    pub(crate) fn total_inclusive_us(&self) -> f64 {
        self.tracks.values().flatten().map(|r| r.inclusive_us).sum()
    }

    /// Visits every span (tracks in name order, spans pre-order) with
    /// its depth.
    pub(crate) fn visit<F: FnMut(&SpanNode, usize)>(&self, mut f: F) {
        fn walk<F: FnMut(&SpanNode, usize)>(nodes: &[SpanNode], depth: usize, f: &mut F) {
            for n in nodes {
                f(n, depth);
                walk(&n.children, depth + 1, f);
            }
        }
        for roots in self.tracks.values() {
            walk(roots, 0, &mut f);
        }
    }

    /// Aggregates every span by folded path.
    pub(crate) fn aggregate_paths(&self) -> BTreeMap<String, PathAgg> {
        let mut map: BTreeMap<String, PathAgg> = BTreeMap::new();
        self.visit(|node, _| {
            let agg = map.entry(node.path.clone()).or_default();
            agg.count += 1;
            agg.inclusive_us += node.inclusive_us;
            agg.exclusive_us += node.exclusive_us;
        });
        map
    }
}

/// Sanitizes a name into a folded-stack frame: `;` separates frames
/// and the final space separates the weight, so neither may appear
/// inside one.
fn frame(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            ';' => ':',
            c if c.is_whitespace() => '_',
            c if (c as u32) < 0x20 => '_',
            c => c,
        })
        .collect()
}

struct Open {
    node: SpanNode,
    end: f64,
    child_inclusive: f64,
}

fn close(open: Open, stack: &mut [Open], roots: &mut Vec<SpanNode>) {
    let mut node = open.node;
    node.exclusive_us = (node.inclusive_us - open.child_inclusive).max(0.0);
    match stack.last_mut() {
        Some(parent) => {
            parent.child_inclusive += node.inclusive_us;
            parent.node.children.push(node);
        }
        None => roots.push(node),
    }
}

/// Stack-based containment nesting over spans sorted outer-first.
fn nest(track: &str, spans: &[(f64, f64, &Event)]) -> Vec<SpanNode> {
    let mut roots = Vec::new();
    let mut stack: Vec<Open> = Vec::new();
    for &(start, end, event) in spans {
        while stack.last().is_some_and(|top| start >= top.end) {
            let open = stack.pop().expect("non-empty stack");
            close(open, &mut stack, &mut roots);
        }
        // A span that straddles the open one (starts inside, ends
        // outside — pipelined phases do this) cannot be its child:
        // flush until it fits, then treat it as a sibling.
        while stack.last().is_some_and(|top| end > top.end) {
            let open = stack.pop().expect("non-empty stack");
            close(open, &mut stack, &mut roots);
        }
        let path = match stack.last() {
            Some(top) => format!("{};{}", top.node.path, frame(&event.name)),
            None => format!("{};{}", frame(track), frame(&event.name)),
        };
        stack.push(Open {
            node: SpanNode {
                name: event.name.to_string(),
                track: track.to_string(),
                path,
                start_us: start,
                inclusive_us: end - start,
                exclusive_us: 0.0,
                args: event.args.clone(),
                children: Vec::new(),
            },
            end,
            child_inclusive: 0.0,
        });
    }
    while let Some(open) = stack.pop() {
        close(open, &mut stack, &mut roots);
    }
    roots
}

/// Parses a saved `--trace-out` Chrome trace back into a
/// [`JournalSnapshot`].
///
/// Inverse of [`JournalSnapshot::to_chrome_trace`] up to clock
/// splitting: a dual-clock span exports as two `X` events (one per
/// clock process) and imports as two single-clock events, which is
/// equivalent for per-clock forests. Instants and counter samples are
/// taken from the wall process only (the exporter mirrors them onto
/// both); integral non-negative numeric args come back as `U64`. The
/// top-level `droppedEvents` count is preserved so truncation stays
/// loud after a round trip.
///
/// # Errors
///
/// Returns a [`json::ParseError`] on malformed JSON or a document
/// without a `traceEvents` array.
pub fn import_chrome_trace(text: &str) -> Result<JournalSnapshot, json::ParseError> {
    let doc = json::parse(text)?;
    let schema = |msg: &str| json::ParseError { message: msg.into(), offset: 0 };
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| schema("missing `traceEvents` array"))?;

    // (pid, tid) -> track name, from thread_name metadata.
    let mut tracks: BTreeMap<(u64, u64), String> = BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(Value::as_str) == Some("M")
            && e.get("name").and_then(Value::as_str) == Some("thread_name")
        {
            let pid = e.get("pid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
            let tid = e.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
            if let Some(name) = e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str) {
                tracks.insert((pid, tid), name.to_string());
            }
        }
    }

    let mut out = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).unwrap_or("");
        if ph == "M" {
            continue;
        }
        let pid = e.get("pid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let tid = e.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let Some(ts) = e.get("ts").and_then(Value::as_f64) else { continue };
        let name = e.get("name").and_then(Value::as_str).unwrap_or("").to_string();
        let track = tracks.get(&(pid, tid)).cloned().unwrap_or_else(|| format!("tid-{tid}"));
        let sim = pid == 2; // PID_SIM in the exporter
        match ph {
            "X" => {
                let Some(dur) = e.get("dur").and_then(Value::as_f64) else { continue };
                out.push(Event {
                    name: name.into(),
                    track: track.into(),
                    wall_us: if sim { 0.0 } else { ts },
                    sim_us: sim.then_some(ts),
                    kind: EventKind::Span {
                        wall_dur_us: (!sim).then_some(dur),
                        sim_dur_us: sim.then_some(dur),
                    },
                    args: import_args(e.get("args")),
                });
            }
            "i" if !sim => {
                out.push(Event {
                    name: name.into(),
                    track: track.into(),
                    wall_us: ts,
                    sim_us: None,
                    kind: EventKind::Instant,
                    args: import_args(e.get("args")),
                });
            }
            "C" if !sim => {
                let value = e
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0);
                out.push(Event {
                    name: name.into(),
                    track: track.into(),
                    wall_us: ts,
                    sim_us: None,
                    kind: EventKind::Counter { value },
                    args: Vec::new(),
                });
            }
            _ => {}
        }
    }
    let dropped = doc.get("droppedEvents").and_then(Value::as_f64).unwrap_or(0.0) as u64;
    Ok(JournalSnapshot { events: out, dropped })
}

fn import_args(v: Option<&Value>) -> Args {
    let Some(Value::Obj(map)) = v else { return Vec::new() };
    map.iter()
        .map(|(k, v)| {
            let val = match v {
                Value::Bool(b) => ArgValue::Bool(*b),
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9.007_199_254_740_992e15 => {
                    ArgValue::U64(*n as u64)
                }
                Value::Num(n) => ArgValue::F64(*n),
                Value::Str(s) => ArgValue::Str(s.clone()),
                _ => ArgValue::Str(String::new()),
            };
            (Cow::Owned(k.clone()), val)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Journal;

    fn sim_span(j: &Journal, name: &'static str, track: &'static str, start: f64, dur: f64) {
        j.span_complete(name, track, 0.0, None, Some(start), Some(dur), Vec::new());
    }

    #[test]
    fn containment_nesting_recovers_hierarchy() {
        let j = Journal::new();
        j.enable(true);
        sim_span(&j, "epoch", "backend", 0.0, 100.0);
        sim_span(&j, "inner", "backend", 10.0, 30.0);
        sim_span(&j, "leaf", "backend", 15.0, 5.0);
        sim_span(&j, "epoch", "backend", 100.0, 50.0);
        let f = SpanForest::build(&j.snapshot(), Clock::Sim);
        let roots = &f.tracks["backend"];
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].name, "epoch");
        assert_eq!(roots[0].children.len(), 1);
        assert_eq!(roots[0].children[0].name, "inner");
        assert_eq!(roots[0].children[0].children[0].name, "leaf");
        assert_eq!(roots[0].children[0].children[0].path, "backend;epoch;inner;leaf");
        // Exclusive = inclusive minus direct children.
        assert_eq!(roots[0].inclusive_us, 100.0);
        assert_eq!(roots[0].exclusive_us, 70.0);
        assert_eq!(roots[0].children[0].exclusive_us, 25.0);
        assert_eq!(roots[1].children.len(), 0);
        assert_eq!(roots[1].exclusive_us, 50.0);
    }

    #[test]
    fn build_is_independent_of_event_order() {
        let build = |order: &[usize]| {
            let spans = [
                ("epoch", 0.0, 100.0),
                ("inner", 10.0, 30.0),
                ("leaf", 15.0, 5.0),
                ("tail", 60.0, 20.0),
            ];
            let j = Journal::new();
            j.enable(true);
            for (i, &idx) in order.iter().enumerate() {
                let (name, start, dur) = spans[idx];
                // Vary wall timestamps with insertion order to mimic
                // scheduler-dependent snapshot ordering.
                j.span_complete(name, "t", i as f64, None, Some(start), Some(dur), Vec::new());
            }
            SpanForest::build(&j.snapshot(), Clock::Sim)
        };
        let a = build(&[0, 1, 2, 3]);
        let b = build(&[3, 2, 1, 0]);
        let c = build(&[2, 0, 3, 1]);
        assert_eq!(a.tracks, b.tracks);
        assert_eq!(a.tracks, c.tracks);
    }

    #[test]
    fn partial_overlap_becomes_sibling_not_child() {
        let j = Journal::new();
        j.enable(true);
        // Pipelined phases: the second starts inside the first but
        // ends after it.
        sim_span(&j, "a", "t", 0.0, 50.0);
        sim_span(&j, "b", "t", 30.0, 50.0);
        let f = SpanForest::build(&j.snapshot(), Clock::Sim);
        let roots = &f.tracks["t"];
        assert_eq!(roots.len(), 2, "{roots:?}");
        assert!(roots.iter().all(|r| r.children.is_empty()));
    }

    #[test]
    fn clocks_partition_spans_and_count_skips() {
        let j = Journal::new();
        j.enable(true);
        // Dual-clock span: on both forests.
        j.span_complete("both", "t", 5.0, Some(10.0), Some(0.0), Some(100.0), Vec::new());
        // Wall-only: skipped by the sim forest.
        j.span_complete("wall", "w", 0.0, Some(3.0), None, None, Vec::new());
        let sim = SpanForest::build(&j.snapshot(), Clock::Sim);
        assert_eq!(sim.tracks.len(), 1);
        assert_eq!(sim.skipped_spans, 1);
        let wall = SpanForest::build(&j.snapshot(), Clock::Wall);
        assert_eq!(wall.tracks.len(), 2);
        assert_eq!(wall.skipped_spans, 0);
    }

    #[test]
    fn rollups_and_path_aggregation() {
        let j = Journal::new();
        j.enable(true);
        sim_span(&j, "epoch", "backend", 0.0, 100.0);
        sim_span(&j, "epoch", "backend", 100.0, 60.0);
        sim_span(&j, "sample", "phase.sample", 0.0, 40.0);
        let f = SpanForest::build(&j.snapshot(), Clock::Sim);
        let rollups = f.rollups();
        assert_eq!(rollups.len(), 2);
        assert_eq!(rollups[0].track, "backend");
        assert_eq!(rollups[0].spans, 2);
        assert_eq!(rollups[0].inclusive_us, 160.0);
        assert_eq!(f.total_inclusive_us(), 200.0);
        let paths = f.aggregate_paths();
        assert_eq!(paths["backend;epoch"].count, 2);
        assert_eq!(paths["backend;epoch"].inclusive_us, 160.0);
        assert_eq!(paths["phase.sample;sample"].count, 1);
    }

    #[test]
    fn hostile_names_are_sanitized_in_paths() {
        let j = Journal::new();
        j.enable(true);
        sim_span(&j, "a;b c\td", "tr;ck", 0.0, 10.0);
        let f = SpanForest::build(&j.snapshot(), Clock::Sim);
        let (path, _) = f.aggregate_paths().into_iter().next().expect("one path");
        assert_eq!(path, "tr:ck;a:b_c_d");
    }

    #[test]
    fn chrome_trace_round_trip_preserves_forest_and_dropped() {
        let j = Journal::new();
        j.enable(true);
        j.span_complete(
            "epoch",
            "backend",
            1.0,
            Some(9.0),
            Some(0.0),
            Some(100.0),
            vec![(Cow::Borrowed("epoch"), ArgValue::U64(0))],
        );
        sim_span(&j, "sample", "phase.sample", 0.0, 40.0);
        j.instant("recovery", "backend", None, Vec::new());
        j.counter("hit_rate", "backend", 0.5, None);
        let mut snap = j.snapshot();
        snap.dropped = 1;
        let imported = import_chrome_trace(&snap.to_chrome_trace()).expect("import");
        assert_eq!(imported.dropped, 1);
        let orig = SpanForest::build(&snap, Clock::Sim);
        let back = SpanForest::build(&imported, Clock::Sim);
        assert_eq!(orig.tracks, back.tracks);
        // The epoch arg survives the round trip as a number.
        let epoch = &back.tracks["backend"][0];
        assert_eq!(epoch.arg_f64("epoch"), Some(0.0));
        // Instants and counters import once (wall process only).
        let instants =
            imported.events.iter().filter(|e| matches!(e.kind, EventKind::Instant)).count();
        assert_eq!(instants, 1);
        let counters =
            imported.events.iter().filter(|e| matches!(e.kind, EventKind::Counter { .. })).count();
        assert_eq!(counters, 1);
    }

    #[test]
    fn import_rejects_non_trace_documents() {
        assert!(import_chrome_trace("{}").is_err());
        assert!(import_chrome_trace("[1, 2]").is_err());
        assert!(import_chrome_trace("not json").is_err());
    }
}
