//! Tabular regression dataset.

use crate::MlError;

/// A dense `(X, y)` regression table of a fixed number of feature
/// columns.
///
/// # Example
///
/// ```
/// use gnnav_ml::Table;
///
/// # fn main() -> Result<(), gnnav_ml::MlError> {
/// let mut t = Table::with_dims(2);
/// t.push_row(&[1.0, 2.0], 3.0)?;
/// t.push_row(&[2.0, 0.5], 2.5)?;
/// assert_eq!(t.num_rows(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    num_features: usize,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Table {
    /// Creates an empty table of `num_features` feature columns.
    pub fn with_dims(num_features: usize) -> Self {
        Table { num_features, x: Vec::new(), y: Vec::new() }
    }

    /// Appends one observation.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if `features.len()` does
    /// not match the table width, and [`MlError::NonFinite`] if any
    /// value is NaN or infinite.
    pub fn push_row(&mut self, features: &[f64], target: f64) -> Result<(), MlError> {
        if features.len() != self.num_features {
            return Err(MlError::DimensionMismatch {
                expected: self.num_features,
                got: features.len(),
            });
        }
        if !target.is_finite() || features.iter().any(|v| !v.is_finite()) {
            return Err(MlError::NonFinite);
        }
        self.x.extend_from_slice(features);
        self.y.push(target);
        Ok(())
    }

    /// Number of observations.
    pub fn num_rows(&self) -> usize {
        self.y.len()
    }

    /// Number of feature columns.
    pub(crate) fn num_features(&self) -> usize {
        self.num_features
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        let w = self.num_features();
        &self.x[i * w..(i + 1) * w]
    }

    /// Target of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn target(&self, i: usize) -> f64 {
        self.y[i]
    }

    /// All targets.
    pub fn targets(&self) -> &[f64] {
        &self.y
    }

    /// Mean of the targets (0 for an empty table).
    pub(crate) fn target_mean(&self) -> f64 {
        if self.y.is_empty() {
            0.0
        } else {
            self.y.iter().sum::<f64>() / self.y.len() as f64
        }
    }
}

impl Extend<(Vec<f64>, f64)> for Table {
    /// Extends the table, panicking on dimension mismatch (use
    /// [`Table::push_row`] for fallible insertion).
    fn extend<I: IntoIterator<Item = (Vec<f64>, f64)>>(&mut self, iter: I) {
        for (row, y) in iter {
            self.push_row(&row, y).expect("row matches table width");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::with_dims(2);
        t.push_row(&[1.0, 10.0], 100.0).expect("ok");
        t.push_row(&[2.0, 20.0], 200.0).expect("ok");
        t.push_row(&[3.0, 30.0], 300.0).expect("ok");
        t
    }

    #[test]
    fn push_and_access() {
        let t = table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_features(), 2);
        assert_eq!(t.row(1), &[2.0, 20.0]);
        assert_eq!(t.target(2), 300.0);
        assert_eq!(t.target_mean(), 200.0);
        assert!(!t.is_empty());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut t = Table::with_dims(2);
        let err = t.push_row(&[1.0], 0.0).unwrap_err();
        assert!(matches!(err, MlError::DimensionMismatch { expected: 2, got: 1 }));
    }

    #[test]
    fn non_finite_rejected() {
        let mut t = Table::with_dims(1);
        assert!(matches!(t.push_row(&[f64::NAN], 0.0), Err(MlError::NonFinite)));
        assert!(matches!(t.push_row(&[0.0], f64::INFINITY), Err(MlError::NonFinite)));
    }

    #[test]
    fn extend_collects_pairs() {
        let mut t = Table::with_dims(1);
        t.extend(vec![(vec![1.0], 2.0), (vec![3.0], 4.0)]);
        assert_eq!(t.num_rows(), 2);
    }
}
