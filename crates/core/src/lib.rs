//! **GNNavigator** — adaptive training of graph neural networks via
//! automatic guideline exploration (reproduction of Qiao et al.,
//! DAC 2024).
//!
//! GNNavigator tunes GNN *training configurations* — sampling
//! strategy, device feature caching, transfer precision, pipelining,
//! batch geometry — to an application's priorities over training time
//! `T`, device memory `Γ`, and accuracy `Acc`. The pipeline:
//!
//! 1. profile the reconfigurable runtime backend over the design
//!    space ([`gnnav_runtime::DesignSpace`]),
//! 2. fit a gray-box performance estimator
//!    ([`gnnav_estimator::GrayBoxEstimator`]),
//! 3. explore with DFS + Pareto-front decision making, as one
//!    [`gnnav_explorer::Plan`]: key → cache probe → walk → commit,
//! 4. apply the resulting [`Guideline`] on the backend and verify.
//!
//! The [`Navigator`] type drives all four steps; the sub-crates are
//! re-exported as modules for a single-dependency experience.
//!
//! # Quickstart
//!
//! ```no_run
//! use gnnavigator::{Navigator, Priority, RuntimeConstraints};
//! use gnnavigator::graph::{Dataset, DatasetId};
//! use gnnavigator::hwsim::Platform;
//! use gnnavigator::nn::ModelKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = Dataset::load_scaled(DatasetId::OgbnProducts, 0.2)?;
//! let mut nav = Navigator::new(dataset, Platform::default_rtx4090(), ModelKind::Sage);
//! // No `prepare()` needed: the estimator is fitted when an exploration
//! // needs it.
//! let result = nav.generate_guideline(Priority::ExTimeMemory,
//!                                     &RuntimeConstraints::none())?;
//! println!("guideline: {}", result.guideline.config.summary());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod navigator;

/// Online guideline adaptation: drift detection + mid-training
/// switches.
pub use gnnav_adapt as adapt;
/// Device feature-cache policies.
pub use gnnav_cache as cache;
/// Gray-box performance estimator.
pub use gnnav_estimator as estimator;
/// Design space exploration.
pub use gnnav_explorer as explorer;
/// Deterministic fault injection for chaos testing.
pub use gnnav_faults as faults;
/// Graph substrate: CSR graphs, generators, dataset stand-ins.
pub use gnnav_graph as graph;
/// Heterogeneous platform simulation.
pub use gnnav_hwsim as hwsim;
/// Regression models for the estimator.
pub use gnnav_ml as ml;
/// NN substrate: tensors, GCN/SAGE/GAT, optimizers.
pub use gnnav_nn as nn;
/// Metrics/tracing registry with JSON snapshot export.
pub use gnnav_obs as obs;
/// Scoped thread pool and width-independent parallel maps.
pub use gnnav_par as par;
/// Reconfigurable runtime backend.
pub use gnnav_runtime as runtime;
/// Unified sampling abstraction.
pub use gnnav_sampler as sampler;
/// Navigation-as-a-service: multi-tenant guideline server.
pub use gnnav_serve as serve;
/// Crash-safe durable storage: WAL, checkpoints, corruption tools.
pub use gnnav_store as store;

pub use gnnav_explorer::{ExploreCache, Guideline, Priority, RuntimeConstraints};
pub use gnnav_runtime::{Template, TrainingConfig};
pub use navigator::{Navigator, NavigatorOptions};

use std::error::Error;
use std::fmt;

/// Errors from the navigator pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum NavigatorError {
    /// A backend execution failed.
    Runtime(gnnav_runtime::RuntimeError),
    /// Estimator fitting failed.
    Estimator(gnnav_estimator::EstimatorError),
    /// Guideline exploration failed.
    Explorer(gnnav_explorer::ExplorerError),
    /// Adaptive execution failed.
    Adapt(gnnav_adapt::AdaptError),
    /// A durable store (the explore cache) failed.
    Store(gnnav_store::StoreError),
}

impl fmt::Display for NavigatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NavigatorError::Runtime(e) => write!(f, "runtime error: {e}"),
            NavigatorError::Estimator(e) => write!(f, "estimator error: {e}"),
            NavigatorError::Explorer(e) => write!(f, "explorer error: {e}"),
            NavigatorError::Adapt(e) => write!(f, "adaptive execution error: {e}"),
            NavigatorError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl Error for NavigatorError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NavigatorError::Runtime(e) => Some(e),
            NavigatorError::Estimator(e) => Some(e),
            NavigatorError::Explorer(e) => Some(e),
            NavigatorError::Adapt(e) => Some(e),
            NavigatorError::Store(e) => Some(e),
        }
    }
}

impl From<gnnav_runtime::RuntimeError> for NavigatorError {
    fn from(e: gnnav_runtime::RuntimeError) -> Self {
        NavigatorError::Runtime(e)
    }
}

impl From<gnnav_estimator::EstimatorError> for NavigatorError {
    fn from(e: gnnav_estimator::EstimatorError) -> Self {
        NavigatorError::Estimator(e)
    }
}

impl From<gnnav_explorer::ExplorerError> for NavigatorError {
    fn from(e: gnnav_explorer::ExplorerError) -> Self {
        NavigatorError::Explorer(e)
    }
}

impl From<gnnav_adapt::AdaptError> for NavigatorError {
    fn from(e: gnnav_adapt::AdaptError) -> Self {
        NavigatorError::Adapt(e)
    }
}

impl From<gnnav_store::StoreError> for NavigatorError {
    fn from(e: gnnav_store::StoreError) -> Self {
        NavigatorError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_impls() {
        fn assert_err<T: Error + Send>() {}
        assert_err::<NavigatorError>();
        // An explore-cache failure arrives typed, its cause reachable
        // through `source()`.
        let e = NavigatorError::from(gnnav_store::StoreError::decode("x"));
        assert!(matches!(e, NavigatorError::Store(_)));
        assert!(e.to_string().contains("store error: decode error: x"), "{e}");
        let cause = e.source().expect("a store error has a source");
        assert_eq!(cause.to_string(), "decode error: x");
    }
}
