//! Property-based tests for the NN substrate.

use gnnav_graph::GraphBuilder;
use gnnav_nn::loss::softmax_cross_entropy;
use gnnav_nn::tensor::Matrix;
use gnnav_nn::{Adam, GnnModel, ModelKind};
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f32..5.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn matmul_identity_is_noop(m in matrix(4, 4)) {
        let i = Matrix::eye(4);
        let left = i.matmul(&m);
        let right = m.matmul(&i);
        for (a, b) in left.as_slice().iter().zip(m.as_slice()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
        for (a, b) in right.as_slice().iter().zip(m.as_slice()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_is_involutive(m in matrix(3, 5)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn at_b_equals_explicit_transpose(a in matrix(4, 3), b in matrix(4, 2)) {
        let fast = a.matmul_at_b(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_rows_are_distributions(m in matrix(5, 7)) {
        let mut s = m;
        s.softmax_rows_inplace();
        for r in 0..5 {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative(
        logits in matrix(4, 3),
        labels in proptest::collection::vec(0u16..3, 4),
    ) {
        let (loss, grad) = softmax_cross_entropy(&logits, &labels, &[0, 1, 2, 3]);
        prop_assert!(loss >= -1e-6, "loss {loss}");
        // Per-row gradient sums to zero.
        for r in 0..4 {
            let s: f32 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn forward_output_is_finite(seed in 0u64..30, kind_idx in 0usize..3) {
        let mut b = GraphBuilder::new(6);
        for v in 0..6u32 {
            b.add_edge(v, (v + 1) % 6);
        }
        let g = b.symmetrize().build().expect("build");
        let x = gnnav_nn::init::glorot_uniform(6, 5, seed);
        let mut m = GnnModel::new(ModelKind::ALL[kind_idx], 5, 8, 3, 2, seed);
        let out = m.forward(&g, &x);
        prop_assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn adam_step_moves_weights_against_gradient(lr in 0.001f32..0.1) {
        use gnnav_nn::layers::{LinearParam, ParamRef};
        let mut p = LinearParam::new_no_bias(1, 1, 1);
        let w0 = p.w.get(0, 0);
        p.gw.set(0, 0, 1.0); // positive gradient
        let mut opt = Adam::new(lr);
        opt.step_with(|f| f(ParamRef::Linear(&mut p)));
        prop_assert!(p.w.get(0, 0) < w0, "positive grad must decrease w");
    }
}
