//! Seeded weight initialization.

use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Glorot/Xavier-uniform initialized `rows x cols` matrix.
///
/// Entries are uniform in `±sqrt(6 / (rows + cols))`, the standard
/// initialization for tanh/ReLU GNN layers.
pub fn glorot_uniform(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let limit = (6.0 / (rows + cols) as f32).sqrt();
    let data = (0..rows * cols).map(|_| rng.gen_range(-limit..limit)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Uniform vector in `±limit`, used for attention parameter vectors.
pub(crate) fn uniform_vec(len: usize, limit: f32, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-limit..limit)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glorot_within_limit() {
        let m = glorot_uniform(10, 20, 1);
        let limit = (6.0f32 / 30.0).sqrt();
        assert!(m.as_slice().iter().all(|&x| x.abs() <= limit));
    }

    #[test]
    fn glorot_deterministic() {
        assert_eq!(glorot_uniform(4, 4, 9), glorot_uniform(4, 4, 9));
        assert_ne!(glorot_uniform(4, 4, 9), glorot_uniform(4, 4, 10));
    }

    #[test]
    fn uniform_vec_len_and_limit() {
        let v = uniform_vec(16, 0.5, 2);
        assert_eq!(v.len(), 16);
        assert!(v.iter().all(|&x| x.abs() <= 0.5));
    }
}
