//! Property-based tests for the regression substrate.

use gnnav_ml::{
    mse, r2_score, DecisionTreeRegressor, Regressor, RidgeRegressor, Table, TreeParams,
};
use proptest::prelude::*;

fn table_strategy() -> impl Strategy<Value = Table> {
    proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 5..60).prop_map(|rows| {
        let mut t = Table::with_dims(1);
        for (x, y) in rows {
            t.push_row(&[x], y).expect("finite");
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn r2_of_truth_is_one(values in proptest::collection::vec(-1e6f64..1e6, 2..50)) {
        prop_assert_eq!(r2_score(&values, &values), 1.0);
        prop_assert_eq!(mse(&values, &values), 0.0);
    }

    #[test]
    fn r2_never_exceeds_one(
        truth in proptest::collection::vec(-100.0f64..100.0, 3..30),
        noise in proptest::collection::vec(-10.0f64..10.0, 3..30),
    ) {
        let n = truth.len().min(noise.len());
        let pred: Vec<f64> = truth[..n].iter().zip(&noise[..n]).map(|(t, e)| t + e).collect();
        prop_assert!(r2_score(&truth[..n], &pred) <= 1.0 + 1e-12);
    }

    #[test]
    fn tree_predictions_within_target_range(table in table_strategy()) {
        let mut tree = DecisionTreeRegressor::new(TreeParams::default());
        tree.fit(&table).expect("fit");
        let lo = table.targets().iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = table.targets().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for probe in [-1e3, -1.0, 0.0, 1.0, 1e3] {
            let p = tree.predict(&[probe]);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "prediction {p} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn ridge_recovers_exact_linear(slope in -5.0f64..5.0, intercept in -10.0f64..10.0) {
        let mut t = Table::with_dims(1);
        for i in 0..30 {
            let x = i as f64;
            t.push_row(&[x], slope * x + intercept).expect("ok");
        }
        let mut m = RidgeRegressor::new(1e-9);
        m.fit(&t).expect("fit");
        let p = m.predict(&[50.0]);
        let expected = slope * 50.0 + intercept;
        prop_assert!((p - expected).abs() < 1e-3 * (1.0 + expected.abs()), "{p} vs {expected}");
    }
}
