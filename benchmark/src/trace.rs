//! Benchmark-side span recorder.
//!
//! Spans are opened by the benchmark around its calls into each
//! layer's public functions — nothing inside the program is
//! instrumented. They are kept in memory and written out as
//! Chrome-trace JSON when the run ends. A disabled tracer records
//! nothing, so the end-to-end pass pays one branch per call site.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. `name` is `layer.op`; the layer is the crate the
/// timed call belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// The operation (navigation, wave, execute) this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// In-memory span recorder for the (single) benchmark thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every span opened from now on with operation `op`.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, child of the innermost
    /// open span.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.open.borrow().last().copied(),
                name: name.to_string(),
                start_us: self.now_us(),
                end_us: f64::NAN,
                op: self.op.get(),
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_us = self.now_us();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span, by span id: its duration minus the part
/// of its interval that its child spans cover (overlapping children
/// are counted once, and clipped to the parent).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_us.max(parent.start_us);
            let hi = s.end_us.min(parent.end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let intervals = &mut children[s.id];
            intervals.sort_by(|a, b| a.partial_cmp(b).expect("finite span times"));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in intervals.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Total self time per layer, in seconds.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(self_times_us(spans)) {
        *out.entry(s.layer().to_string()).or_insert(0.0) += self_us / 1e6;
    }
    out
}

/// Total inclusive seconds of the spans named exactly `name`.
pub fn total_seconds(spans: &[Span], name: &str) -> f64 {
    durations_seconds(spans, name).iter().sum()
}

/// Inclusive seconds of every span named exactly `name`, in order.
pub fn durations_seconds(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_us() / 1e6).collect()
}

/// Largest relative gap, over root spans, between a root's duration
/// and the summed self times of its whole subtree. Zero up to
/// rounding when the self-time arithmetic is sound.
pub fn worst_self_time_gap(spans: &[Span]) -> f64 {
    let selfs = self_times_us(spans);
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    for s in spans {
        // Parents always precede their children in opening order.
        root_of.push(s.parent.map_or(s.id, |p| root_of[p]));
    }
    let mut subtree = vec![0.0; spans.len()];
    for s in spans {
        subtree[root_of[s.id]] += selfs[s.id];
    }
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.duration_us() > 0.0)
        .map(|s| ((subtree[s.id] - s.duration_us()) / s.duration_us()).abs())
        .fold(0.0, f64::max)
}

/// Chrome trace-event JSON (`X` events, one track), loadable in
/// Perfetto or `chrome://tracing`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\
             \"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.layer(),
            s.start_us,
            s.duration_us(),
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start: f64, end: f64) -> Span {
        Span { id, parent, name: name.into(), start_us: start, end_us: end, op: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "core.op", 0.0, 100.0),
            span(1, Some(0), "store.open", 10.0, 30.0),
            // Overlaps span 1 on [20, 30): counted once.
            span(2, Some(0), "estimator.fit", 20.0, 50.0),
            span(3, Some(2), "ml.tree", 25.0, 45.0),
            // Sticks out past the parent: clipped to [90, 100).
            span(4, Some(0), "explorer.explore", 90.0, 120.0),
        ];
        let selfs = self_times_us(&spans);
        assert_eq!(selfs[0], 100.0 - 40.0 - 10.0);
        assert_eq!(selfs[1], 20.0);
        assert_eq!(selfs[2], 30.0 - 20.0);
        assert_eq!(selfs[3], 20.0);
        assert_eq!(selfs[4], 30.0);
        let layers = self_seconds_by_layer(&spans);
        assert_eq!(layers["core"], 50.0 / 1e6);
        assert_eq!(layers["estimator"], 10.0 / 1e6);
    }

    #[test]
    fn nested_spans_sum_to_their_root() {
        let t = Tracer::new(true);
        t.set_op(7);
        t.time("core.op", || {
            t.time("graph.load", || std::hint::black_box(1 + 1));
            t.time("estimator.fit", || t.time("ml.fit", || std::hint::black_box(2 + 2)));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_us >= s.start_us));
        assert!(worst_self_time_gap(&spans) < 1e-9);
        assert_eq!(total_seconds(&spans, "graph.load"), spans[1].duration_us() / 1e6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.time("core.op", || 5), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let t = Tracer::new(true);
        t.time("serve.drain", || t.time("serve.submit", || ()));
        let text = chrome_trace_json(&t.spans());
        let v = gnnavigator::obs::json::parse(&text).expect("parses");
        assert_eq!(v.get("traceEvents").and_then(|e| e.as_arr()).map(<[_]>::len), Some(2));
    }
}
