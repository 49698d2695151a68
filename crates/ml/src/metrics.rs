//! Regression quality metrics.
//!
//! The paper validates its estimator with R² for the analytically
//! grounded predictions (time, memory) and MSE for the black-box
//! accuracy prediction (Tab. 2); both live here.

/// Coefficient of determination R².
///
/// 1 means perfect prediction, 0 means no better than predicting the
/// mean; negative values mean worse than the mean.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn r2_score(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "length mismatch");
    assert!(!truth.is_empty(), "empty input");
    let mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_res: f64 = truth.iter().zip(pred).map(|(t, p)| (t - p).powi(2)).sum();
    let ss_tot: f64 = truth.iter().map(|t| (t - mean).powi(2)).sum();
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Mean squared error.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn mse(truth: &[f64], pred: &[f64]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "length mismatch");
    assert!(!truth.is_empty(), "empty input");
    truth.iter().zip(pred).map(|(t, p)| (t - p).powi(2)).sum::<f64>() / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_r2_one() {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(r2_score(&y, &y), 1.0);
        assert_eq!(mse(&y, &y), 0.0);
    }

    #[test]
    fn mean_prediction_r2_zero() {
        let y = [1.0, 2.0, 3.0];
        let mean = [2.0, 2.0, 2.0];
        assert!(r2_score(&y, &mean).abs() < 1e-12);
    }

    #[test]
    fn bad_prediction_r2_negative() {
        let y = [1.0, 2.0, 3.0];
        let bad = [3.0, 10.0, -5.0];
        assert!(r2_score(&y, &bad) < 0.0);
    }

    #[test]
    fn constant_truth_edge_case() {
        let y = [2.0, 2.0];
        assert_eq!(r2_score(&y, &[2.0, 2.0]), 1.0);
        assert_eq!(r2_score(&y, &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn mse_values() {
        let y = [0.0, 0.0];
        let p = [1.0, -3.0];
        assert_eq!(mse(&y, &p), 5.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_checked() {
        let _ = r2_score(&[1.0], &[1.0, 2.0]);
    }
}
