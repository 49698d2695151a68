//! The common regression-model interface.

use crate::dataset::Table;
use crate::MlError;

/// A trainable regression model mapping a feature vector to a scalar.
///
/// Implemented by [`RidgeRegressor`](crate::RidgeRegressor),
/// [`DecisionTreeRegressor`](crate::DecisionTreeRegressor), and
/// [`RandomForestRegressor`](crate::RandomForestRegressor).
/// The gray-box estimator holds each learner as its concrete type;
/// the trait is their shared interface, and it stays object-safe.
pub trait Regressor: std::fmt::Debug + Send {
    /// Fits the model on `table`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTable`] for empty input, or a
    /// solver-specific error.
    fn fit(&mut self, table: &Table) -> Result<(), MlError>;

    /// Predicts the target for one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if the model is unfitted or `features` has the wrong
    /// dimensionality.
    fn predict(&self, features: &[f64]) -> f64;

    /// Predicts every row of `table`, in order.
    fn predict_table(&self, table: &Table) -> Vec<f64> {
        (0..table.num_rows()).map(|i| self.predict(table.row(i))).collect()
    }
}
