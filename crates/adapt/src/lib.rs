//! Online guideline adaptation for GNNavigator.
//!
//! The base pipeline is feed-forward: profile → fit the gray-box
//! estimator → explore → run one frozen guideline. This crate closes
//! the loop. A [`DriftDetector`] watches each epoch's observed
//! simulated time, cache hit rate, and peak memory against the
//! estimator's predictions through an EWMA band; on sustained drift
//! (or a recovery-ladder degradation) an [`AdaptiveRunner`] performs an
//! *incremental re-exploration* — it refreshes the estimator's
//! coefficient fits with the observed epochs as extra profile records
//! (warm start, no new sweep), re-runs the explorer seeded from the
//! current Pareto front under the remaining budget, and switches the
//! running guideline mid-training with an explicit [`SwitchPlan`]
//! (cache migration charged in simulated time, model weights
//! preserved).
//!
//! Everything is deterministic: the same seed, fault plan, and options
//! reproduce the same switches bit for bit, and an adaptive run that
//! never triggers is byte-identical to the static run.
#![warn(missing_docs)]

pub mod drift;
pub mod durable;
pub mod runner;

pub use drift::{DriftDetector, DriftVerdict};
pub use runner::{AdaptOptions, AdaptiveReport, AdaptiveRunner, SwitchPlan};

use std::error::Error;
use std::fmt;

/// Errors from adaptive execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum AdaptError {
    /// The backend failed (fault budgets exhausted, invalid config).
    Runtime(gnnav_runtime::RuntimeError),
    /// The warm-start refit failed.
    Estimator(gnnav_estimator::EstimatorError),
    /// The incremental re-exploration failed.
    Explorer(gnnav_explorer::ExplorerError),
    /// Inconsistent adaptive options.
    InvalidOptions(String),
}

impl fmt::Display for AdaptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdaptError::Runtime(e) => write!(f, "runtime error: {e}"),
            AdaptError::Estimator(e) => write!(f, "estimator refit error: {e}"),
            AdaptError::Explorer(e) => write!(f, "re-exploration error: {e}"),
            AdaptError::InvalidOptions(msg) => write!(f, "invalid adaptive options: {msg}"),
        }
    }
}

impl Error for AdaptError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AdaptError::Runtime(e) => Some(e),
            AdaptError::Estimator(e) => Some(e),
            AdaptError::Explorer(e) => Some(e),
            AdaptError::InvalidOptions(_) => None,
        }
    }
}

impl From<gnnav_runtime::RuntimeError> for AdaptError {
    fn from(e: gnnav_runtime::RuntimeError) -> Self {
        AdaptError::Runtime(e)
    }
}

impl From<gnnav_estimator::EstimatorError> for AdaptError {
    fn from(e: gnnav_estimator::EstimatorError) -> Self {
        AdaptError::Estimator(e)
    }
}

impl From<gnnav_explorer::ExplorerError> for AdaptError {
    fn from(e: gnnav_explorer::ExplorerError) -> Self {
        AdaptError::Explorer(e)
    }
}
