//! Ridge (L2-regularized linear) regression via normal equations.

use crate::dataset::Table;
use crate::regressor::Regressor;
use crate::MlError;

/// Ridge regression: solves `(XᵀX + αI) w = Xᵀy` with a Cholesky
/// factorization. Features are standardized internally so `alpha` has
/// a consistent meaning across scales.
///
/// This is the "white-box-friendly" learner the gray-box estimator
/// uses for coefficient functions whose shape is analytically known
/// (after a log/linear feature transform).
///
/// # Example
///
/// ```
/// use gnnav_ml::{RidgeRegressor, Regressor, Table};
///
/// # fn main() -> Result<(), gnnav_ml::MlError> {
/// let mut t = Table::with_dims(1);
/// for i in 0..20 {
///     t.push_row(&[i as f64], 3.0 * i as f64 + 1.0)?;
/// }
/// let mut model = RidgeRegressor::new(1e-6);
/// model.fit(&t)?;
/// assert!((model.predict(&[10.0]) - 31.0).abs() < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RidgeRegressor {
    alpha: f64,
    weights: Vec<f64>,
    intercept: f64,
    means: Vec<f64>,
    stds: Vec<f64>,
    fitted: bool,
}

impl RidgeRegressor {
    /// Creates an unfitted ridge model with regularization `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or not finite.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be finite and >= 0");
        RidgeRegressor {
            alpha,
            weights: Vec::new(),
            intercept: 0.0,
            means: Vec::new(),
            stds: Vec::new(),
            fitted: false,
        }
    }

    /// The fitted weights in standardized feature space.
    ///
    /// # Panics
    ///
    /// Panics if the model has not been fitted.
    pub fn weights(&self) -> &[f64] {
        assert!(self.fitted, "model not fitted");
        &self.weights
    }
}

impl Regressor for RidgeRegressor {
    fn fit(&mut self, table: &Table) -> Result<(), MlError> {
        if table.is_empty() {
            return Err(MlError::EmptyTable);
        }
        let n = table.num_rows();
        let d = table.num_features();
        // Standardize features.
        let mut means = vec![0.0; d];
        let mut stds = vec![0.0; d];
        for i in 0..n {
            for (m, &v) in means.iter_mut().zip(table.row(i)) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n as f64;
        }
        for i in 0..n {
            for (j, &v) in table.row(i).iter().enumerate() {
                stds[j] += (v - means[j]).powi(2);
            }
        }
        for s in &mut stds {
            *s = (*s / n as f64).sqrt();
            if *s < 1e-12 {
                *s = 1.0; // constant column: leave unscaled
            }
        }
        let y_mean = table.target_mean();

        // Normal equations in standardized space.
        let mut xtx = vec![0.0f64; d * d];
        let mut xty = vec![0.0f64; d];
        let mut z = vec![0.0f64; d];
        for i in 0..n {
            for (j, &v) in table.row(i).iter().enumerate() {
                z[j] = (v - means[j]) / stds[j];
            }
            let yc = table.target(i) - y_mean;
            for a in 0..d {
                xty[a] += z[a] * yc;
                for b in a..d {
                    xtx[a * d + b] += z[a] * z[b];
                }
            }
        }
        for a in 0..d {
            for b in 0..a {
                xtx[a * d + b] = xtx[b * d + a];
            }
            xtx[a * d + a] += self.alpha.max(1e-10) * n as f64;
        }
        let weights = cholesky_solve(&xtx, &xty, d)?;
        self.weights = weights;
        self.intercept = y_mean;
        self.means = means;
        self.stds = stds;
        self.fitted = true;
        Ok(())
    }

    fn predict(&self, features: &[f64]) -> f64 {
        assert!(self.fitted, "model not fitted");
        assert_eq!(features.len(), self.weights.len(), "feature dim mismatch");
        let mut acc = self.intercept;
        for ((&w, &v), (&m, &s)) in
            self.weights.iter().zip(features).zip(self.means.iter().zip(&self.stds))
        {
            // Extrapolation guard: a near-constant training column can
            // place an out-of-distribution input hundreds of standard
            // deviations out; clamping the standardized value bounds
            // the damage without affecting in-distribution predictions.
            let z = ((v - m) / s).clamp(-Z_CLAMP, Z_CLAMP);
            acc += w * z;
        }
        acc
    }
}

/// Largest standardized feature magnitude the ridge will extrapolate
/// to (see the guard in `predict`).
const Z_CLAMP: f64 = 8.0;

/// Solves the symmetric positive-definite system `A x = b` (row-major
/// `d x d`) via Cholesky.
fn cholesky_solve(a: &[f64], b: &[f64], d: usize) -> Result<Vec<f64>, MlError> {
    // Factor A = L Lᵀ.
    let mut l = vec![0.0f64; d * d];
    for i in 0..d {
        for j in 0..=i {
            let mut sum = a[i * d + j];
            for k in 0..j {
                sum -= l[i * d + k] * l[j * d + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(MlError::SingularSystem);
                }
                l[i * d + j] = sum.sqrt();
            } else {
                l[i * d + j] = sum / l[j * d + j];
            }
        }
    }
    // Forward solve L z = b.
    let mut z = vec![0.0f64; d];
    for i in 0..d {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i * d + k] * z[k];
        }
        z[i] = sum / l[i * d + i];
    }
    // Back solve Lᵀ x = z.
    let mut x = vec![0.0f64; d];
    for i in (0..d).rev() {
        let mut sum = z[i];
        for k in (i + 1)..d {
            sum -= l[k * d + i] * x[k];
        }
        x[i] = sum / l[i * d + i];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_exact_linear_relation() {
        let mut t = Table::with_dims(2);
        for i in 0..50 {
            let a = i as f64;
            let b = (i % 7) as f64;
            t.push_row(&[a, b], 2.0 * a - 5.0 * b + 3.0).expect("ok");
        }
        let mut m = RidgeRegressor::new(1e-8);
        m.fit(&t).expect("fit");
        assert!((m.predict(&[10.0, 3.0]) - (20.0 - 15.0 + 3.0)).abs() < 1e-3);
    }

    #[test]
    fn regularization_shrinks_weights() {
        let mut t = Table::with_dims(1);
        for i in 0..20 {
            t.push_row(&[i as f64], 4.0 * i as f64).expect("ok");
        }
        let mut small = RidgeRegressor::new(1e-8);
        small.fit(&t).expect("fit");
        let mut big = RidgeRegressor::new(100.0);
        big.fit(&t).expect("fit");
        assert!(big.weights()[0].abs() < small.weights()[0].abs());
    }

    #[test]
    fn handles_constant_column() {
        let mut t = Table::with_dims(2);
        for i in 0..10 {
            t.push_row(&[i as f64, 1.0], i as f64).expect("ok");
        }
        let mut m = RidgeRegressor::new(1e-6);
        m.fit(&t).expect("constant column must not break the solver");
        assert!((m.predict(&[5.0, 1.0]) - 5.0).abs() < 0.1);
    }

    #[test]
    fn empty_table_rejected() {
        let mut m = RidgeRegressor::new(1.0);
        assert!(matches!(m.fit(&Table::with_dims(2)), Err(MlError::EmptyTable)));
    }

    #[test]
    #[should_panic(expected = "model not fitted")]
    fn predict_before_fit_panics() {
        let m = RidgeRegressor::new(1.0);
        let _ = m.predict(&[1.0]);
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4, 2], [2, 3]], b = [10, 8] -> x = [1.75, 1.5].
        let a = vec![4.0, 2.0, 2.0, 3.0];
        let b = vec![10.0, 8.0];
        let x = cholesky_solve(&a, &b, 2).expect("solve");
        assert!((x[0] - 1.75).abs() < 1e-12);
        assert!((x[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_non_spd() {
        let a = vec![0.0, 0.0, 0.0, 0.0];
        assert!(matches!(cholesky_solve(&a, &[1.0, 1.0], 2), Err(MlError::SingularSystem)));
    }
}
