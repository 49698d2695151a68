//! Losses for node classification.

use crate::tensor::Matrix;

/// Softmax cross-entropy over the rows listed in `target_rows`.
///
/// Returns the mean loss over the targets and the gradient with
/// respect to the logits (zero for non-target rows, already divided by
/// the target count).
///
/// # Panics
///
/// Panics if a target row or its label is out of range, or if
/// `target_rows` is empty.
pub fn softmax_cross_entropy(
    logits: &Matrix,
    labels: &[u16],
    target_rows: &[u32],
) -> (f32, Matrix) {
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    let loss = softmax_cross_entropy_into(logits, labels, target_rows, &mut grad);
    (loss, grad)
}

/// [`softmax_cross_entropy`] writing the gradient into a
/// caller-provided matrix (fully overwritten; typically borrowed from
/// the model's scratch arena). Allocation-free.
///
/// # Panics
///
/// Panics on the same conditions as [`softmax_cross_entropy`], or if
/// `grad` does not match the logits' shape.
pub(crate) fn softmax_cross_entropy_into(
    logits: &Matrix,
    labels: &[u16],
    target_rows: &[u32],
    grad: &mut Matrix,
) -> f32 {
    assert!(!target_rows.is_empty(), "need at least one target row");
    let classes = logits.cols();
    assert_eq!(
        (grad.rows(), grad.cols()),
        (logits.rows(), classes),
        "softmax_cross_entropy grad shape mismatch"
    );
    grad.as_mut_slice().fill(0.0);
    let inv_n = 1.0 / target_rows.len() as f32;
    let mut loss = 0.0f32;
    for &r in target_rows {
        let r = r as usize;
        let row = logits.row(r);
        let label = labels[r] as usize;
        assert!(label < classes, "label {label} out of range ({classes} classes)");
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for &x in row {
            sum += (x - max).exp();
        }
        let log_sum = sum.ln() + max;
        loss += log_sum - row[label];
        let grow = grad.row_mut(r);
        for (c, g) in grow.iter_mut().enumerate() {
            let p = (row[c] - max).exp() / sum;
            *g = (p - if c == label { 1.0 } else { 0.0 }) * inv_n;
        }
    }
    loss * inv_n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_low_loss() {
        let logits = Matrix::from_rows(&[&[10.0, -10.0], &[-10.0, 10.0]]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1], &[0, 1]);
        assert!(loss < 1e-3, "loss {loss}");
    }

    #[test]
    fn uniform_prediction_log_classes() {
        let logits = Matrix::zeros(1, 4);
        let (loss, _) = softmax_cross_entropy(&logits, &[2], &[0]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Matrix::from_rows(&[&[0.3, -0.2, 0.5]]);
        let labels = [1u16];
        let (_, grad) = softmax_cross_entropy(&logits, &labels, &[0]);
        let eps = 1e-3f32;
        for c in 0..3 {
            let mut lp = logits.clone();
            lp.set(0, c, lp.get(0, c) + eps);
            let (loss_p, _) = softmax_cross_entropy(&lp, &labels, &[0]);
            let mut lm = logits.clone();
            lm.set(0, c, lm.get(0, c) - eps);
            let (loss_m, _) = softmax_cross_entropy(&lm, &labels, &[0]);
            let fd = (loss_p - loss_m) / (2.0 * eps);
            assert!((fd - grad.get(0, c)).abs() < 1e-3, "c={c}: {fd} vs {}", grad.get(0, c));
        }
    }

    #[test]
    fn non_target_rows_get_zero_gradient() {
        let logits = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let (_, grad) = softmax_cross_entropy(&logits, &[0, 1], &[1]);
        assert_eq!(grad.row(0), &[0.0, 0.0]);
        assert!(grad.row(1).iter().any(|&g| g != 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn empty_targets_rejected() {
        let logits = Matrix::zeros(1, 2);
        let _ = softmax_cross_entropy(&logits, &[0], &[]);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        // Softmax CE gradient sums to zero across classes per target.
        let logits = Matrix::from_rows(&[&[0.1, 0.9, -0.4]]);
        let (_, grad) = softmax_cross_entropy(&logits, &[2], &[0]);
        let s: f32 = grad.row(0).iter().sum();
        assert!(s.abs() < 1e-6);
    }
}
