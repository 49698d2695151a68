//! Explore targets and runtime constraints (Step 1 of Fig. 2).
//!
//! User requirements are quantized into priority weights over the
//! `Perf{T, Γ, Acc}` triple ("explore targets") plus hard limits
//! ("runtime constraints") that prune the search.

use crate::audit::{Limit, Reason};
use gnnav_estimator::PerfEstimate;

/// Scalarization weights over time, memory, and accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExploreTargets {
    /// Weight on (normalized) epoch time.
    pub w_time: f64,
    /// Weight on (normalized) peak memory.
    pub w_memory: f64,
    /// Weight on (normalized) accuracy.
    pub w_accuracy: f64,
}

impl ExploreTargets {
    /// Equal weights.
    pub(crate) fn balanced() -> Self {
        ExploreTargets { w_time: 1.0, w_memory: 1.0, w_accuracy: 1.0 }
    }
}

/// The priority presets of the paper's Tab. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Priority {
    /// "Bal": balance all three metrics.
    Balance,
    /// "Ex-TM": emphasize time and memory (accuracy may drop a bit).
    ExTimeMemory,
    /// "Ex-MA": emphasize memory and accuracy.
    ExMemoryAccuracy,
    /// "Ex-TA": emphasize time and accuracy (memory may grow).
    ExTimeAccuracy,
}

impl Priority {
    /// All presets in the paper's table order.
    pub const ALL: [Priority; 4] = [
        Priority::Balance,
        Priority::ExTimeMemory,
        Priority::ExMemoryAccuracy,
        Priority::ExTimeAccuracy,
    ];

    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Balance => "Bal",
            Priority::ExTimeMemory => "Ex-TM",
            Priority::ExMemoryAccuracy => "Ex-MA",
            Priority::ExTimeAccuracy => "Ex-TA",
        }
    }

    /// The scalarization weights: emphasized metrics get weight 1,
    /// de-emphasized ones 0.15 (never zero — "extreme" guidelines
    /// still avoid pathological collapse in the ignored metric).
    pub fn targets(self) -> ExploreTargets {
        const LOW: f64 = 0.15;
        match self {
            Priority::Balance => ExploreTargets::balanced(),
            Priority::ExTimeMemory => {
                ExploreTargets { w_time: 1.0, w_memory: 1.0, w_accuracy: LOW }
            }
            Priority::ExMemoryAccuracy => {
                ExploreTargets { w_time: LOW, w_memory: 1.0, w_accuracy: 1.0 }
            }
            Priority::ExTimeAccuracy => {
                ExploreTargets { w_time: 1.0, w_memory: LOW, w_accuracy: 1.0 }
            }
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Hard application constraints; candidates predicted to violate them
/// are pruned during exploration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RuntimeConstraints {
    /// Maximum acceptable epoch time in seconds.
    pub max_time_s: Option<f64>,
    /// Maximum acceptable peak device memory in bytes.
    pub max_mem_bytes: Option<f64>,
    /// Minimum acceptable accuracy in `[0, 1]`.
    pub min_accuracy: Option<f64>,
}

impl RuntimeConstraints {
    /// No constraints.
    pub fn none() -> Self {
        RuntimeConstraints::default()
    }

    /// The first limit that is NaN or infinite, as its field name and
    /// value: no walk is started under one.
    pub fn non_finite_limit(&self) -> Option<(&'static str, f64)> {
        [
            ("max_time_s", self.max_time_s),
            ("max_mem_bytes", self.max_mem_bytes),
            ("min_accuracy", self.min_accuracy),
        ]
        .into_iter()
        .find_map(|(limit, value)| Some((limit, value.filter(|v| !v.is_finite())?)))
    }

    /// Whether an estimate satisfies every constraint.
    pub fn satisfied_by(&self, est: &PerfEstimate) -> bool {
        self.max_time_s.is_none_or(|t| est.time_s <= t)
            && self.max_mem_bytes.is_none_or(|m| est.mem_bytes <= m)
            && self.min_accuracy.is_none_or(|a| est.accuracy >= a)
    }

    /// The first constraint `est` violates, as the limit and its bound
    /// (the audit record renders the sentence from them and `est`) —
    /// `None` when all are satisfied. Feeds the explorer's decision
    /// audit trail.
    pub(crate) fn violation(&self, est: &PerfEstimate) -> Option<Reason> {
        if let Some(t) = self.max_time_s {
            if est.time_s > t {
                return Some(Reason::broke(Limit::Time, t));
            }
        }
        if let Some(m) = self.max_mem_bytes {
            if est.mem_bytes > m {
                return Some(Reason::broke(Limit::Memory, m));
            }
        }
        if let Some(a) = self.min_accuracy {
            if est.accuracy < a {
                return Some(Reason::broke(Limit::Accuracy, a));
            }
        }
        None
    }

    /// Total constraint excess of `est`: 0 when every constraint is
    /// satisfied, otherwise the sum of each breached constraint's
    /// relative overshoot. Non-finite predictions score infinity.
    /// Ranks infeasible candidates for the explorer's nearest-feasible
    /// fallback — smaller is closer to feasible.
    pub(crate) fn excess(&self, est: &PerfEstimate) -> f64 {
        if !(est.time_s.is_finite() && est.mem_bytes.is_finite() && est.accuracy.is_finite()) {
            return f64::INFINITY;
        }
        // Relative overshoot; falls back to the absolute gap when the
        // limit is 0 (a relative measure would divide by zero).
        let over = |value: f64, limit: f64| {
            let gap = value - limit;
            if gap <= 0.0 {
                0.0
            } else if limit > 0.0 {
                gap / limit
            } else {
                gap
            }
        };
        let mut total = 0.0;
        if let Some(t) = self.max_time_s {
            total += over(est.time_s, t);
        }
        if let Some(m) = self.max_mem_bytes {
            total += over(est.mem_bytes, m);
        }
        if let Some(a) = self.min_accuracy {
            total += over(a, est.accuracy);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(t: f64, m: f64, a: f64) -> PerfEstimate {
        PerfEstimate { time_s: t, mem_bytes: m, accuracy: a, batch_nodes: 0.0, hit_rate: 0.0 }
    }

    #[test]
    fn priorities_have_distinct_labels_and_weights() {
        let labels: Vec<_> = Priority::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["Bal", "Ex-TM", "Ex-MA", "Ex-TA"]);
        let tm = Priority::ExTimeMemory.targets();
        assert!(tm.w_time > tm.w_accuracy);
        let ma = Priority::ExMemoryAccuracy.targets();
        assert!(ma.w_accuracy > ma.w_time);
    }

    #[test]
    fn no_priority_fully_ignores_a_metric() {
        for p in Priority::ALL {
            let t = p.targets();
            assert!(t.w_time > 0.0 && t.w_memory > 0.0 && t.w_accuracy > 0.0, "{p}");
        }
    }

    #[test]
    fn constraints_filtering() {
        let c = RuntimeConstraints {
            max_time_s: Some(1.0),
            max_mem_bytes: Some(100.0),
            min_accuracy: Some(0.8),
        };
        assert!(c.satisfied_by(&est(0.5, 50.0, 0.9)));
        assert!(!c.satisfied_by(&est(2.0, 50.0, 0.9)));
        assert!(!c.satisfied_by(&est(0.5, 200.0, 0.9)));
        assert!(!c.satisfied_by(&est(0.5, 50.0, 0.5)));
        assert!(RuntimeConstraints::none().satisfied_by(&est(1e9, 1e18, 0.0)));
    }

    #[test]
    fn violation_names_the_breached_constraint() {
        let c = RuntimeConstraints {
            max_time_s: Some(1.0),
            max_mem_bytes: Some(100e6),
            min_accuracy: Some(0.8),
        };
        let text = |e: PerfEstimate| c.violation(&e).map(|r| r.render(Some(&e)).into_owned());
        assert_eq!(text(est(0.5, 50e6, 0.9)), None);
        let time = "predicted epoch time 2.0000s > max 1.0000s";
        assert_eq!(text(est(2.0, 50e6, 0.9)).as_deref(), Some(time));
        let memory = "predicted peak memory 200.00 MB > max 100.00 MB";
        assert_eq!(text(est(0.5, 200e6, 0.9)).as_deref(), Some(memory));
        let accuracy = "predicted accuracy 0.5000 < min 0.8000";
        assert_eq!(text(est(0.5, 50e6, 0.5)).as_deref(), Some(accuracy));
        assert!(RuntimeConstraints::none().violation(&est(1e9, 1e18, 0.0)).is_none());
        // Consistency with the boolean form.
        for e in [est(2.0, 50e6, 0.9), est(0.5, 50e6, 0.9)] {
            assert_eq!(c.satisfied_by(&e), c.violation(&e).is_none());
        }
    }

    #[test]
    fn the_first_non_finite_limit_is_named() {
        assert_eq!(RuntimeConstraints::none().non_finite_limit(), None);
        let finite = RuntimeConstraints {
            max_time_s: Some(1.0),
            max_mem_bytes: Some(0.0),
            min_accuracy: Some(-1.0),
        };
        assert_eq!(finite.non_finite_limit(), None);
        let c = RuntimeConstraints { max_mem_bytes: Some(f64::INFINITY), ..finite };
        assert_eq!(c.non_finite_limit(), Some(("max_mem_bytes", f64::INFINITY)));
        let c = RuntimeConstraints { min_accuracy: Some(f64::NAN), ..c };
        assert_eq!(c.non_finite_limit(), Some(("max_mem_bytes", f64::INFINITY)), "the first");
        let (limit, value) = RuntimeConstraints { min_accuracy: Some(f64::NAN), ..finite }
            .non_finite_limit()
            .expect("NaN is not finite");
        assert!(limit == "min_accuracy" && value.is_nan());
    }

    #[test]
    fn excess_ranks_near_misses_below_far_misses() {
        let c = RuntimeConstraints {
            max_time_s: Some(1.0),
            max_mem_bytes: Some(100e6),
            min_accuracy: Some(0.8),
        };
        assert_eq!(c.excess(&est(0.5, 50e6, 0.9)), 0.0, "feasible means zero excess");
        let near = c.excess(&est(1.1, 50e6, 0.9));
        let far = c.excess(&est(5.0, 50e6, 0.9));
        assert!(near > 0.0 && near < far);
        // Violations on several axes accumulate.
        let multi = c.excess(&est(1.1, 200e6, 0.5));
        assert!(multi > near);
        // Non-finite predictions are never "nearest".
        assert_eq!(c.excess(&est(f64::NAN, 50e6, 0.9)), f64::INFINITY);
        assert_eq!(c.excess(&est(0.5, f64::INFINITY, 0.9)), f64::INFINITY);
        // Unconstrained: everything finite has zero excess.
        assert_eq!(RuntimeConstraints::none().excess(&est(1e9, 1e18, 0.0)), 0.0);
    }
}
