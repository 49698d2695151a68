//! Decision audit trail for exploration runs.
//!
//! The DFS makes thousands of accept/reject/prune decisions per
//! exploration; aggregate counters say how many, the audit trail says
//! *why* — one [`AuditRecord`] per decision, with the candidate
//! configuration, its predicted `T`/`Γ`/`Acc` triple, and the reason
//! in plain words. The CLI dumps it via `gnnavigate --audit-out`.

use gnnav_estimator::PerfEstimate;
use gnnav_obs::json;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// What the explorer did with a candidate (or subtree).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditAction {
    /// Evaluated and kept: satisfies every runtime constraint.
    Accepted,
    /// Evaluated and discarded: violates a runtime constraint.
    Rejected,
    /// An entire subtree cut by an analytic bound, never evaluated.
    PrunedSubtree,
    /// Chosen as the final guideline by the decision maker.
    Selected,
    /// Chosen as the guideline *despite* violating a constraint: no
    /// candidate was feasible, so the explorer degraded to the
    /// nearest-feasible candidate instead of failing.
    Fallback,
    /// Adopted mid-training by the adaptive layer: the drift detector
    /// triggered a re-exploration and this candidate replaced the
    /// running guideline.
    Switched,
}

impl AuditAction {
    /// Stable lowercase label used in the JSON dump.
    pub(crate) fn label(self) -> &'static str {
        match self {
            AuditAction::Accepted => "accepted",
            AuditAction::Rejected => "rejected",
            AuditAction::PrunedSubtree => "pruned_subtree",
            AuditAction::Selected => "selected",
            AuditAction::Fallback => "fallback",
            AuditAction::Switched => "switched",
        }
    }
}

/// One explorer decision.
#[derive(Debug, Clone)]
pub struct AuditRecord {
    /// Human-readable candidate description (`TrainingConfig::summary`
    /// for evaluated leaves, the fixed axis assignment for pruned
    /// subtrees).
    pub config: String,
    /// The estimator's prediction (`None` for pruned subtrees, which
    /// are cut before estimation).
    pub estimate: Option<PerfEstimate>,
    /// What happened.
    pub action: AuditAction,
    /// Why, in plain words. Borrowed where the explorer has a fixed
    /// phrase for it, owned where the reason carries numbers; it
    /// renders and encodes as the plain string either way.
    pub reason: Cow<'static, str>,
    /// Whether the candidate came from the template seeds rather than
    /// the DFS traversal.
    pub seed_candidate: bool,
}

/// The audit trail of one exploration: the walk's records — one per
/// evaluated candidate and pruned subtree, shared (not copied) by every
/// result decided over that walk — then the decision's own record.
///
/// Reads as the plain list it used to be: `iter`, `len`, `last`, and a
/// `Debug` rendering identical to `Vec<AuditRecord>`'s.
#[derive(Clone, Default)]
pub struct AuditTrail {
    walk: Arc<Vec<AuditRecord>>,
    /// `None` only in the empty trail.
    decision: Option<AuditRecord>,
}

impl AuditTrail {
    /// The trail of `walk` followed by `decision`.
    pub fn new(walk: Arc<Vec<AuditRecord>>, decision: AuditRecord) -> Self {
        AuditTrail { walk, decision: Some(decision) }
    }

    /// The walk's records: everything but the last.
    pub fn walk(&self) -> &Arc<Vec<AuditRecord>> {
        &self.walk
    }

    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.walk.len() + usize::from(self.decision.is_some())
    }

    /// Whether the trail holds no record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The records in decision order.
    pub fn iter(&self) -> impl Iterator<Item = &AuditRecord> {
        self.walk.iter().chain(&self.decision)
    }

    /// The last record: the decision's — `Selected` or `Fallback` for
    /// an exploration; `None` in an empty trail.
    pub(crate) fn last(&self) -> Option<&AuditRecord> {
        self.decision.as_ref()
    }

    /// An owned copy of every record, for a caller that extends the
    /// trail (the CLI appends the adaptive layer's switches).
    pub fn to_vec(&self) -> Vec<AuditRecord> {
        self.iter().cloned().collect()
    }
}

impl From<Vec<AuditRecord>> for AuditTrail {
    /// Splits the last record off as the decision.
    fn from(mut records: Vec<AuditRecord>) -> Self {
        let decision = records.pop();
        AuditTrail { walk: Arc::new(records), decision }
    }
}

impl fmt::Debug for AuditTrail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Serializes an audit trail as deterministic JSON:
///
/// ```json
/// {
///   "version": 1,
///   "records": [
///     {"action": "accepted", "config": "...", "reason": "...",
///      "seed": false,
///      "predicted": {"time_s": 0.1, "mem_bytes": 1e9,
///                    "accuracy": 0.91, "hit_rate": 0.4}}
///   ]
/// }
/// ```
pub fn audit_to_json(records: &[AuditRecord]) -> String {
    let mut out = String::with_capacity(256 + records.len() * 160);
    out.push_str("{\n  \"version\": 1,\n  \"records\": [");
    for (i, r) in records.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"action\": ");
        json::push_string(&mut out, r.action.label());
        out.push_str(", \"config\": ");
        json::push_string(&mut out, &r.config);
        out.push_str(", \"reason\": ");
        json::push_string(&mut out, &r.reason);
        out.push_str(&format!(", \"seed\": {}", r.seed_candidate));
        out.push_str(", \"predicted\": ");
        match &r.estimate {
            Some(est) => {
                out.push_str("{\"time_s\": ");
                json::push_f64(&mut out, est.time_s);
                out.push_str(", \"mem_bytes\": ");
                json::push_f64(&mut out, est.mem_bytes);
                out.push_str(", \"accuracy\": ");
                json::push_f64(&mut out, est.accuracy);
                out.push_str(", \"hit_rate\": ");
                json::push_f64(&mut out, est.hit_rate);
                out.push('}');
            }
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_json_is_parsable_and_complete() {
        let records = vec![
            AuditRecord {
                config: "batch=512 \"quoted\"".into(),
                estimate: Some(PerfEstimate {
                    time_s: 0.25,
                    mem_bytes: 1e9,
                    accuracy: 0.9,
                    batch_nodes: 100.0,
                    hit_rate: 0.5,
                }),
                action: AuditAction::Accepted,
                reason: "satisfies all constraints".into(),
                seed_candidate: true,
            },
            AuditRecord {
                config: "cache_ratio=0.5".into(),
                estimate: None,
                action: AuditAction::PrunedSubtree,
                reason: "cache lower bound exceeds memory budget".into(),
                seed_candidate: false,
            },
        ];
        let text = audit_to_json(&records);
        let doc = json::parse(&text).expect("valid JSON");
        let recs = doc.get("records").and_then(|r| r.as_arr()).expect("records");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].get("action").and_then(json::Value::as_str), Some("accepted"));
        assert_eq!(
            recs[0].get("predicted").and_then(|p| p.get("time_s")).and_then(json::Value::as_f64),
            Some(0.25)
        );
        assert_eq!(recs[0].get("seed"), Some(&json::Value::Bool(true)));
        assert_eq!(recs[1].get("predicted"), Some(&json::Value::Null));
        assert_eq!(recs[1].get("action").and_then(json::Value::as_str), Some("pruned_subtree"));
    }

    #[test]
    fn a_trail_renders_and_reads_as_the_list_of_its_records() {
        let record = |config: &str, action| AuditRecord {
            config: config.into(),
            estimate: None,
            action,
            reason: "because".into(),
            seed_candidate: false,
        };
        let records = vec![
            record("a", AuditAction::Accepted),
            record("b", AuditAction::PrunedSubtree),
            record("c", AuditAction::Selected),
        ];
        let trail = AuditTrail::from(records.clone());
        assert_eq!(format!("{trail:?}"), format!("{records:?}"));
        assert_eq!(format!("{trail:#?}"), format!("{records:#?}"));
        assert_eq!(trail.len(), 3);
        assert_eq!(trail.walk().len(), 2);
        assert_eq!(trail.last().map(|r| r.config.as_str()), Some("c"));
        assert_eq!(format!("{:?}", trail.to_vec()), format!("{records:?}"));
        let empty = AuditTrail::default();
        assert!(empty.is_empty() && empty.last().is_none());
        assert_eq!(format!("{empty:?}"), "[]");
    }

    #[test]
    fn empty_trail_is_valid_json() {
        let text = audit_to_json(&[]);
        let doc = json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("records").and_then(|r| r.as_arr()).map(<[_]>::len), Some(0));
    }
}
