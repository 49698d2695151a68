//! Black-box regressors for GNNavigator's gray-box estimator.
//!
//! The paper's performance model (Eq. 4–12) has analytic skeletons
//! whose coefficient functions (`f_sample`, `f_transfer`, `f_compute`,
//! `f_replace`, `f_overlapping`, `f_accuracy`) are "estimated using a
//! pre-trained black-box model". This crate provides those learners,
//! implemented from scratch:
//!
//! - [`RidgeRegressor`] — L2 linear regression (normal equations +
//!   Cholesky), the right learner once a log transform linearizes an
//!   analytic skeleton.
//! - [`DecisionTreeRegressor`] — CART, the paper's pure-black-box
//!   baseline in Fig. 5.
//! - [`RandomForestRegressor`] — bagged CART for the noisy accuracy
//!   response.
//!
//! Plus [`Table`] data handling and [`metrics`] (R² and MSE — the
//! paper's Tab. 2 metrics).

pub mod dataset;
pub mod forest;
pub mod linear;
pub mod metrics;
pub mod regressor;
pub mod tree;

pub use dataset::Table;
pub use forest::{ForestParams, RandomForestRegressor};
pub use linear::RidgeRegressor;
pub use metrics::{mse, r2_score};
pub use regressor::Regressor;
pub use tree::{DecisionTreeRegressor, TreeParams};

use std::error::Error;
use std::fmt;

/// Errors from model fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MlError {
    /// The training table had no rows.
    EmptyTable,
    /// A feature vector did not match the table width.
    DimensionMismatch {
        /// Expected width.
        expected: usize,
        /// Provided width.
        got: usize,
    },
    /// A value was NaN or infinite.
    NonFinite,
    /// The normal-equation system was singular (degenerate features
    /// with zero regularization).
    SingularSystem,
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::EmptyTable => write!(f, "training table is empty"),
            MlError::DimensionMismatch { expected, got } => {
                write!(f, "feature dimension mismatch: expected {expected}, got {got}")
            }
            MlError::NonFinite => write!(f, "non-finite value in training data"),
            MlError::SingularSystem => write!(f, "normal-equation system is singular"),
        }
    }
}

impl Error for MlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_impls() {
        fn assert_err<T: Error + Send + Sync>() {}
        assert_err::<MlError>();
        assert!(MlError::EmptyTable.to_string().contains("empty"));
    }

    #[test]
    fn regressors_share_the_trait_object_interface() {
        let mut table = Table::with_dims(1);
        for i in 0..30 {
            table.push_row(&[i as f64], 2.0 * i as f64).expect("ok");
        }
        let mut models: Vec<Box<dyn Regressor>> = vec![
            Box::new(RidgeRegressor::new(1e-6)),
            Box::new(DecisionTreeRegressor::new(TreeParams::default())),
            Box::new(RandomForestRegressor::new(ForestParams::default())),
        ];
        for m in &mut models {
            m.fit(&table).expect("fit");
            let p = m.predict(&[10.0]);
            assert!((p - 20.0).abs() < 8.0, "{m:?} predicted {p}");
            assert_eq!(m.predict_table(&table).len(), 30);
        }
    }
}
