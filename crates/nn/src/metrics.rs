//! Classification metrics.

use crate::tensor::Matrix;

/// Fraction of `rows` whose argmax logit equals the label.
///
/// Returns 0.0 when `rows` is empty.
pub fn accuracy(logits: &Matrix, labels: &[u16], rows: &[u32]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for &r in rows {
        let row = logits.row(r as usize);
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (c, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = c;
            }
        }
        if best == labels[r as usize] as usize {
            correct += 1;
        }
    }
    correct as f64 / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 3.0], &[5.0, 4.0]]);
        let labels = [0u16, 1, 1];
        assert!((accuracy(&logits, &labels, &[0, 1, 2]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_subset_of_rows() {
        let logits = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]);
        let labels = [1u16, 1];
        assert_eq!(accuracy(&logits, &labels, &[1]), 1.0);
        assert_eq!(accuracy(&logits, &labels, &[]), 0.0);
    }
}
