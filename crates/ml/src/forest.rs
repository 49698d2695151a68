//! Random-forest regression: bagged CART trees with feature
//! subsampling.
//!
//! Each tree is fitted on its own bootstrap of the rows and its own
//! subset of the columns, read straight from the caller's table
//! (`DecisionTreeRegressor::fit_bag`): no per-tree copy of the bag,
//! and the fitted tree's splits name columns of the full table. A
//! prediction therefore walks every tree over the caller's slice as
//! it is — no per-tree copy of the selected features, no allocation.
//! The walk reads the same values the projected copy held, the trees
//! are summed in the same order and the sum divided once, so every bit
//! of the result is what the projecting forest returned.

use crate::dataset::Table;
use crate::regressor::Regressor;
use crate::tree::{DecisionTreeRegressor, TreeParams};
use crate::MlError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyperparameters of a [`RandomForestRegressor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub num_trees: usize,
    /// Per-tree CART parameters.
    pub tree: TreeParams,
    /// Fraction of features each tree sees (rounded up, at least 1).
    pub feature_fraction: f64,
    /// RNG seed for bootstrap and feature subsampling.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams { num_trees: 30, tree: TreeParams::default(), feature_fraction: 0.7, seed: 0 }
    }
}

/// A bagging ensemble of [`DecisionTreeRegressor`]s; prediction is the
/// mean over trees. This is the black-box learner the gray-box
/// estimator uses for the hard-to-analyze coefficient functions
/// (notably the accuracy response, Eq. 11).
#[derive(Debug, Clone)]
pub struct RandomForestRegressor {
    params: ForestParams,
    /// The fitted trees, reading full-width rows.
    trees: Vec<DecisionTreeRegressor>,
    num_features: usize,
}

impl RandomForestRegressor {
    /// Creates an unfitted forest.
    ///
    /// # Panics
    ///
    /// Panics if `num_trees == 0`, `feature_fraction` is not in
    /// `(0, 1]`, or `tree.max_thresholds == 0`.
    pub fn new(params: ForestParams) -> Self {
        assert!(params.num_trees > 0, "at least one tree required");
        params.tree.check();
        assert!(
            params.feature_fraction > 0.0 && params.feature_fraction <= 1.0,
            "feature_fraction must be in (0, 1]"
        );
        RandomForestRegressor { params, trees: Vec::new(), num_features: 0 }
    }

    /// Number of fitted trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Predicts the target together with the ensemble's standard
    /// deviation — a cheap uncertainty signal (BOOM-Explorer-style
    /// surrogate searches use exactly this to trade exploration
    /// against exploitation).
    ///
    /// # Panics
    ///
    /// Panics if the forest is unfitted or `features` has the wrong
    /// width.
    pub fn predict_with_std(&self, features: &[f64]) -> (f64, f64) {
        assert!(!self.trees.is_empty(), "model not fitted");
        assert_eq!(features.len(), self.num_features, "feature dim mismatch");
        let preds: Vec<f64> = self.trees.iter().map(|tree| tree.walk(features)).collect();
        let mean = preds.iter().sum::<f64>() / preds.len() as f64;
        let var = preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / preds.len() as f64;
        (mean, var.sqrt())
    }
}

impl Regressor for RandomForestRegressor {
    fn fit(&mut self, table: &Table) -> Result<(), MlError> {
        if table.is_empty() {
            return Err(MlError::EmptyTable);
        }
        let n = table.num_rows();
        let d = table.num_features();
        let k = ((d as f64 * self.params.feature_fraction).ceil() as usize).clamp(1, d);
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        self.trees.clear();
        self.num_features = d;
        for _ in 0..self.params.num_trees {
            let (rows, cols) = draw_bag(&mut rng, n, d, k);
            let mut tree = DecisionTreeRegressor::new(self.params.tree);
            tree.fit_bag(table, &rows, &cols);
            self.trees.push(tree);
        }
        Ok(())
    }

    fn predict(&self, features: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "model not fitted");
        assert_eq!(features.len(), self.num_features, "feature dim mismatch");
        let mut acc = 0.0;
        for tree in &self.trees {
            acc += tree.walk(features);
        }
        acc / self.trees.len() as f64
    }
}

/// One tree's training bag: `n` bootstrap rows, then `k` of the `d`
/// columns in ascending order.
fn draw_bag(rng: &mut StdRng, n: usize, d: usize, k: usize) -> (Vec<usize>, Vec<usize>) {
    let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
    let mut cols: Vec<usize> = (0..d).collect();
    for i in (1..cols.len()).rev() {
        cols.swap(i, rng.gen_range(0..=i));
    }
    cols.truncate(k);
    cols.sort_unstable();
    (rows, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2_score;
    use crate::tree::reference::{random_table, tie_table, BoxedNode};

    fn noisy_table(seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Table::with_dims(3);
        for _ in 0..300 {
            let a: f64 = rng.gen_range(0.0..10.0);
            let b: f64 = rng.gen_range(0.0..10.0);
            let noise: f64 = rng.gen_range(-0.5..0.5);
            let junk: f64 = rng.gen_range(0.0..1.0);
            t.push_row(&[a, b, junk], a * 2.0 + b.sin() * 3.0 + noise).expect("ok");
        }
        t
    }

    #[test]
    fn forest_beats_mean_baseline() {
        let train = noisy_table(1);
        let test = noisy_table(2);
        let mut f = RandomForestRegressor::new(ForestParams::default());
        f.fit(&train).expect("fit");
        let truth: Vec<f64> = (0..test.num_rows()).map(|i| test.target(i)).collect();
        let pred: Vec<f64> = (0..test.num_rows()).map(|i| f.predict(test.row(i))).collect();
        let r2 = r2_score(&truth, &pred);
        assert!(r2 > 0.8, "forest generalization r2 = {r2}");
    }

    /// The forest as it fitted and predicted before its trees read the
    /// caller's table: each tree boxed, fitted by the reference on a
    /// copy of its bag, and fed a projected copy of the features.
    fn projecting_reference(params: ForestParams, table: &Table) -> Vec<(Vec<usize>, BoxedNode)> {
        let (n, d) = (table.num_rows(), table.num_features());
        let k = ((d as f64 * params.feature_fraction).ceil() as usize).clamp(1, d);
        let mut rng = StdRng::seed_from_u64(params.seed);
        (0..params.num_trees)
            .map(|_| {
                let (rows, cols) = draw_bag(&mut rng, n, d, k);
                let mut bag = Table::with_dims(k);
                for &r in &rows {
                    let projected: Vec<f64> = cols.iter().map(|&c| table.row(r)[c]).collect();
                    bag.push_row(&projected, table.target(r)).expect("finite");
                }
                let boxed = BoxedNode::fit(&DecisionTreeRegressor::new(params.tree), &bag);
                (cols, boxed)
            })
            .collect()
    }

    /// Fits `table` both ways and asserts the same leaves and depth per
    /// tree, and the same mean and spread bits at the training rows and
    /// at fresh draws.
    fn assert_matches_projecting_reference(rng: &mut StdRng, params: ForestParams, table: &Table) {
        let (rows, dims) = (table.num_rows(), table.num_features());
        let mut forest = RandomForestRegressor::new(params);
        forest.fit(table).expect("fit");
        let reference = projecting_reference(params, table);
        for (tree, (_, boxed)) in forest.trees.iter().zip(&reference) {
            assert_eq!(tree.num_leaves(), boxed.num_leaves(), "{params:?}");
            assert_eq!(tree.depth(), boxed.depth(), "{params:?}");
        }
        let probes = (0..rows)
            .map(|i| table.row(i).to_vec())
            .chain((0..32).map(|_| (0..dims).map(|_| rng.gen_range(-5.0..5.0)).collect()));
        for probe in probes {
            let preds: Vec<f64> = reference
                .iter()
                .map(|(cols, boxed)| {
                    let proj: Vec<f64> = cols.iter().map(|&c| probe[c]).collect();
                    boxed.predict(&proj)
                })
                .collect();
            let mean = preds.iter().sum::<f64>() / preds.len() as f64;
            let var = preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / preds.len() as f64;
            assert_eq!(forest.predict(&probe).to_bits(), mean.to_bits(), "{params:?}");
            let (got_mean, got_std) = forest.predict_with_std(&probe);
            assert_eq!(got_mean.to_bits(), mean.to_bits());
            assert_eq!(got_std.to_bits(), var.sqrt().to_bits());
        }
    }

    #[test]
    fn widened_forest_matches_the_projecting_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xF0E5);
        for (case, fraction) in [1.0, 0.7, 0.8, 0.3, 0.05].into_iter().enumerate() {
            let (rows, dims) = (rng.gen_range(20..120), rng.gen_range(2..18));
            let table = random_table(&mut rng, rows, dims);
            let params = ForestParams {
                num_trees: 12,
                feature_fraction: fraction,
                seed: case as u64,
                ..ForestParams::default()
            };
            assert_matches_projecting_reference(&mut rng, params, &table);
        }
    }

    /// Bootstrap repeats, signed zeros, long tie runs and bags of more
    /// than 64 rows (`stride > 1`).
    #[test]
    fn forest_matches_the_projecting_reference_on_ties_and_signed_zeros() {
        let mut rng = StdRng::seed_from_u64(0x2E05);
        for (case, fraction) in [1.0, 0.7, 0.4, 1.0, 0.8, 0.6].into_iter().enumerate() {
            let (rows, dims) = (rng.gen_range(65..240), rng.gen_range(2..8));
            let table = tie_table(&mut rng, rows, dims);
            let params = ForestParams {
                num_trees: 12,
                tree: TreeParams { max_depth: 9, ..TreeParams::default() },
                feature_fraction: fraction,
                seed: case as u64,
            };
            assert_matches_projecting_reference(&mut rng, params, &table);
        }
    }

    #[test]
    fn forest_is_deterministic_given_seed() {
        let t = noisy_table(3);
        let mut a = RandomForestRegressor::new(ForestParams::default());
        let mut b = RandomForestRegressor::new(ForestParams::default());
        a.fit(&t).expect("fit");
        b.fit(&t).expect("fit");
        assert_eq!(a.predict(t.row(0)), b.predict(t.row(0)));
    }

    #[test]
    fn num_trees_respected() {
        let t = noisy_table(4);
        let mut f =
            RandomForestRegressor::new(ForestParams { num_trees: 5, ..ForestParams::default() });
        f.fit(&t).expect("fit");
        assert_eq!(f.num_trees(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_rejected() {
        let _ = RandomForestRegressor::new(ForestParams { num_trees: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "max_thresholds must be at least 1")]
    fn zero_max_thresholds_rejected() {
        let tree = TreeParams { max_thresholds: 0, ..TreeParams::default() };
        let _ = RandomForestRegressor::new(ForestParams { tree, ..Default::default() });
    }

    #[test]
    fn empty_table_rejected() {
        let mut f = RandomForestRegressor::new(ForestParams::default());
        assert!(matches!(f.fit(&Table::with_dims(2)), Err(MlError::EmptyTable)));
    }

    #[test]
    fn single_feature_table_works() {
        let mut t = Table::with_dims(1);
        for i in 0..50 {
            t.push_row(&[i as f64], (i * 2) as f64).expect("ok");
        }
        let mut f = RandomForestRegressor::new(ForestParams {
            feature_fraction: 0.1, // still must use >= 1 feature
            ..ForestParams::default()
        });
        f.fit(&t).expect("fit");
        let p = f.predict(&[25.0]);
        assert!((p - 50.0).abs() < 10.0, "p = {p}");
    }
}

#[cfg(test)]
mod uncertainty_tests {
    use super::*;

    #[test]
    fn std_is_zero_on_constant_targets_and_positive_on_noise() {
        let mut flat = Table::with_dims(1);
        for i in 0..40 {
            flat.push_row(&[i as f64], 5.0).expect("ok");
        }
        let mut f = RandomForestRegressor::new(ForestParams::default());
        f.fit(&flat).expect("fit");
        let (mean, std) = f.predict_with_std(&[20.0]);
        assert!((mean - 5.0).abs() < 1e-9);
        assert!(std < 1e-9);

        // Noisy target: trees disagree, std > 0 somewhere.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let mut noisy = Table::with_dims(1);
        for i in 0..80 {
            noisy.push_row(&[i as f64], i as f64 + rng.gen_range(-10.0..10.0)).expect("ok");
        }
        let mut f = RandomForestRegressor::new(ForestParams::default());
        f.fit(&noisy).expect("fit");
        let (_, std) = f.predict_with_std(&[40.0]);
        assert!(std > 0.0, "ensemble disagreement expected");
    }

    #[test]
    fn mean_matches_plain_predict() {
        let t = {
            let mut t = Table::with_dims(1);
            for i in 0..30 {
                t.push_row(&[i as f64], (i * 3) as f64).expect("ok");
            }
            t
        };
        let mut f = RandomForestRegressor::new(ForestParams::default());
        f.fit(&t).expect("fit");
        let (mean, _) = f.predict_with_std(&[12.0]);
        assert!((mean - f.predict(&[12.0])).abs() < 1e-12);
    }
}
