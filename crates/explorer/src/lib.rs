//! Application-driven design space exploration (GNNavigator §3.3).
//!
//! Automatic guideline generation: user requirements become
//! [`Priority`] weights and [`RuntimeConstraints`]; a [`DfsExplorer`]
//! walks the design space querying the gray-box estimator and pruning
//! infeasible subtrees; the decision maker reduces survivors to the
//! Pareto front over `(T, Γ, −Acc)` and scalarizes it into a
//! [`Guideline`]. [`Explorer`] wires the pipeline end to end — one
//! walk to the estimated front, then one decision per priority asked
//! for ([`Explorer::explore_all`] decides all four over a single
//! walk) — and seeds the search with the baseline templates so
//! guidelines never lose to the prior systems they generalize.
//! [`ExploreCache`] persists [`ExplorationResult`]s keyed by
//! [`explore_fingerprint`], each walk once, so a repeated invocation
//! skips the DSE entirely.

#![warn(missing_docs)]

pub mod audit;
pub mod cache;
pub mod decision;
pub mod dfs;
pub mod explorer;
pub mod pareto;
pub mod plan;
pub mod targets;

pub use audit::{audit_to_json, AuditAction, AuditRecord, AuditTrail};
pub use cache::{explore_fingerprint, ExploreCache};
pub use decision::{decide, decide_on_front, Guideline};
pub use dfs::{DfsExplorer, DfsOutcome, DfsStats, EvaluatedCandidate};
pub use explorer::{ExplorationResult, Explorer};
pub use pareto::{dominates, objectives, pareto_front_indices, ParetoFront};
pub use plan::Plan;
pub use targets::{ExploreTargets, Priority, RuntimeConstraints};

use std::error::Error;
use std::fmt;

/// Errors from guideline exploration.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExplorerError {
    /// No evaluated candidate satisfied the runtime constraints.
    NoFeasibleCandidate,
    /// The explorer was built with a leaf-evaluation budget of 0.
    ZeroBudget,
    /// A runtime constraint's limit is NaN or infinite.
    NonFiniteLimit {
        /// The constraint's field name.
        limit: &'static str,
        /// The value it was given.
        value: f64,
    },
    /// The estimator failed.
    Estimator(gnnav_estimator::EstimatorError),
}

impl fmt::Display for ExplorerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplorerError::NoFeasibleCandidate => {
                write!(f, "no candidate satisfies the runtime constraints")
            }
            ExplorerError::ZeroBudget => write!(f, "the exploration budget must be >= 1"),
            ExplorerError::NonFiniteLimit { limit, value } => {
                write!(f, "the {limit} limit must be finite, got {value}")
            }
            ExplorerError::Estimator(e) => write!(f, "estimator error: {e}"),
        }
    }
}

impl Error for ExplorerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExplorerError::Estimator(e) => Some(e),
            ExplorerError::NoFeasibleCandidate
            | ExplorerError::ZeroBudget
            | ExplorerError::NonFiniteLimit { .. } => None,
        }
    }
}

impl From<gnnav_estimator::EstimatorError> for ExplorerError {
    fn from(e: gnnav_estimator::EstimatorError) -> Self {
        ExplorerError::Estimator(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_impls() {
        fn assert_err<T: Error + Send>() {}
        assert_err::<ExplorerError>();
        assert!(ExplorerError::NoFeasibleCandidate.to_string().contains("no candidate"));
        assert!(ExplorerError::ZeroBudget.to_string().contains("budget must be >= 1"));
    }
}
