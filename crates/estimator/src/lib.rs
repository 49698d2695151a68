//! Gray-box GNN training performance estimator (GNNavigator §3.3).
//!
//! "The estimator predicts GNN training performance in a 'gray-box'
//! manner, combining purely theoretical analysis (white-box) and
//! machine learning methods (black-box)." This crate implements that
//! estimator:
//!
//! - [`Context`] — everything a prediction conditions on (candidate
//!   configuration, dataset statistics, platform);
//!   [`PredictionContext`] hoists the dataset statistics and the
//!   platform once for a caller with many candidates — a search
//!   asking one at a time ([`GrayBoxEstimator::predict_owned`]) or a
//!   list in hand ([`GrayBoxEstimator::predict_batch`]); both are
//!   plain serial calls, and both read `|V_i|`, the hit rate and the
//!   accuracy through the context's [`reuse`] tables, which predict
//!   each distinct component input once. Each of those three
//!   components reads one `Copy + Eq + Hash` input type (in
//!   [`features`]), the key of its table and the only thing its
//!   features are built from.
//! - [`Profiler`]/[`ProfileDb`] — ground-truth collection over the
//!   design space, with power-law data enhancement (§4.1);
//!   [`ProfileStore`] keeps records across processes and
//!   [`ExecutionTraces`] keeps executions across platforms.
//! - [`BatchSizePredictor`] — Eq. 12's analytic skeleton with a
//!   learned `f_overlapping` penalty, vs. the pure decision-tree
//!   baseline [`BlackBoxBatchSize`] (Fig. 5).
//! - [`HitRatePredictor`] + [`TimeEstimator`] — Eq. 4–8.
//! - [`MemoryEstimator`] — Eq. 9–10.
//! - [`AccuracyEstimator`] — Eq. 11.
//! - [`GrayBoxEstimator`] — the assembled model with
//!   leave-one-dataset-out validation (Tab. 2).

#![warn(missing_docs)]

pub mod accuracy;
pub mod batch_size;
pub mod context;
pub mod estimator;
pub mod features;
pub mod memory;
pub mod profile;
pub mod reuse;
pub mod store;
pub mod time;
pub mod traces;

pub use accuracy::AccuracyEstimator;
pub use batch_size::{BatchSizePredictor, BlackBoxBatchSize};
pub use context::{Context, PredictionContext};
pub use estimator::{GrayBoxEstimator, PerfEstimate, ValidationReport};
pub use memory::MemoryEstimator;
pub use profile::{ProfileDb, ProfileRecord, Profiler};
pub use store::{fingerprint_of, profile_fingerprint, ProfileStore};
pub use time::{HitRatePredictor, TimeEstimator};
pub use traces::ExecutionTraces;

use std::error::Error;
use std::fmt;

/// Errors from estimator fitting.
#[derive(Debug)]
#[non_exhaustive]
pub enum EstimatorError {
    /// The profile database had no usable records.
    EmptyProfile,
    /// An underlying regression failed.
    Ml(gnnav_ml::MlError),
}

impl fmt::Display for EstimatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimatorError::EmptyProfile => write!(f, "profile database has no usable records"),
            EstimatorError::Ml(e) => write!(f, "regression error: {e}"),
        }
    }
}

impl Error for EstimatorError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EstimatorError::Ml(e) => Some(e),
            EstimatorError::EmptyProfile => None,
        }
    }
}

impl From<gnnav_ml::MlError> for EstimatorError {
    fn from(e: gnnav_ml::MlError) -> Self {
        EstimatorError::Ml(e)
    }
}

/// `model` fitted on `table`: how every component builds its learners.
fn fitted<R: gnnav_ml::Regressor>(
    mut model: R,
    table: &gnnav_ml::Table,
) -> Result<R, EstimatorError> {
    model.fit(table)?;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_impls() {
        fn assert_err<T: Error + Send>() {}
        assert_err::<EstimatorError>();
        let e: EstimatorError = gnnav_ml::MlError::EmptyTable.into();
        assert!(e.source().is_some());
    }
}
