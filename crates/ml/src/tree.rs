//! CART decision-tree regression.
//!
//! The paper's Fig. 5 compares its gray-box mini-batch-size predictor
//! against "Decision Tree Regression" as the pure black-box baseline —
//! this is that baseline, and also the building block of
//! [`crate::forest::RandomForestRegressor`].
//!
//! # Node layout
//!
//! A fitted tree is one `Vec` of 16-byte nodes in preorder: a split's
//! left child is the node right after it, so only the right child
//! needs an index, and `right == 0` (the root is nobody's child) marks
//! a leaf whose value sits in `threshold`. A prediction is a loop over
//! one contiguous allocation instead of a chase through one heap box
//! per node; it compares the same feature with the same threshold by
//! the same `<=` at every step, so it reaches the same leaf and
//! returns the same bits as the boxed tree it replaced (which the
//! tests keep as their reference).

use crate::dataset::Table;
use crate::regressor::Regressor;
use crate::MlError;

/// Hyperparameters of a [`DecisionTreeRegressor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum samples in each leaf.
    pub min_samples_leaf: usize,
    /// Maximum candidate thresholds evaluated per feature (quantile
    /// subsampling keeps fitting fast on large profile databases).
    pub max_thresholds: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 8, min_samples_split: 4, min_samples_leaf: 2, max_thresholds: 32 }
    }
}

/// One node of a fitted tree (see the module docs for the layout).
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The split threshold, or the predicted value of a leaf.
    threshold: f64,
    /// The feature a split compares; unused in a leaf.
    feature: u32,
    /// Index of a split's right child; 0 in a leaf.
    right: u32,
}

impl Node {
    fn leaf(value: f64) -> Self {
        Node { threshold: value, feature: 0, right: 0 }
    }

    fn is_leaf(&self) -> bool {
        self.right == 0
    }
}

/// A CART regression tree minimizing within-node variance.
///
/// # Example
///
/// ```
/// use gnnav_ml::{DecisionTreeRegressor, Regressor, Table, TreeParams};
///
/// # fn main() -> Result<(), gnnav_ml::MlError> {
/// let mut t = Table::with_dims(1);
/// for i in 0..40 {
///     let x = i as f64;
///     t.push_row(&[x], if x < 20.0 { 1.0 } else { 5.0 })?;
/// }
/// let mut tree = DecisionTreeRegressor::new(TreeParams::default());
/// tree.fit(&t)?;
/// assert!((tree.predict(&[3.0]) - 1.0).abs() < 1e-9);
/// assert!((tree.predict(&[30.0]) - 5.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DecisionTreeRegressor {
    params: TreeParams,
    /// The fitted nodes in preorder; empty before fitting.
    nodes: Vec<Node>,
    num_features: usize,
}

impl DecisionTreeRegressor {
    /// Creates an unfitted tree.
    pub fn new(params: TreeParams) -> Self {
        DecisionTreeRegressor { params, nodes: Vec::new(), num_features: 0 }
    }

    /// Number of leaves (0 before fitting).
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|node| node.is_leaf()).count()
    }

    /// Depth of the fitted tree (0 before fitting; 1 for a single
    /// leaf).
    pub fn depth(&self) -> usize {
        fn depth(nodes: &[Node], at: usize) -> usize {
            match nodes[at].right as usize {
                0 => 1,
                right => 1 + depth(nodes, at + 1).max(depth(nodes, right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth(&self.nodes, 0)
        }
    }

    /// The leaf value `features` falls into, with neither the fitted
    /// nor the width check of [`Regressor::predict`]: a forest makes
    /// both once for all of its trees.
    pub(crate) fn walk(&self, features: &[f64]) -> f64 {
        let mut at = 0;
        loop {
            let node = &self.nodes[at];
            if node.is_leaf() {
                return node.threshold;
            }
            at = if features[node.feature as usize] <= node.threshold {
                at + 1
            } else {
                node.right as usize
            };
        }
    }

    /// Rewrites a tree fitted on the columns `cols` of a wider table
    /// to read rows of the full `width` directly, so its forest
    /// predicts from the caller's slice without projecting it first.
    pub(crate) fn widen(&mut self, cols: &[usize], width: usize) {
        for node in self.nodes.iter_mut().filter(|node| !node.is_leaf()) {
            node.feature = index_u32(cols[node.feature as usize]);
        }
        self.num_features = width;
    }

    /// Appends the subtree over `indices` to `nodes`, in preorder.
    fn build(&self, table: &Table, indices: &[usize], depth: usize, nodes: &mut Vec<Node>) {
        let mean = indices.iter().map(|&i| table.target(i)).sum::<f64>() / indices.len() as f64;
        if depth >= self.params.max_depth
            || indices.len() < self.params.min_samples_split
            || variance(table, indices) < 1e-12
        {
            return nodes.push(Node::leaf(mean));
        }
        let Some((feature, threshold)) = self.best_split(table, indices) else {
            return nodes.push(Node::leaf(mean));
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| table.row(i)[feature] <= threshold);
        if left_idx.len() < self.params.min_samples_leaf
            || right_idx.len() < self.params.min_samples_leaf
        {
            return nodes.push(Node::leaf(mean));
        }
        let split = nodes.len();
        nodes.push(Node { threshold, feature: index_u32(feature), right: 0 });
        self.build(table, &left_idx, depth + 1, nodes);
        nodes[split].right = index_u32(nodes.len());
        self.build(table, &right_idx, depth + 1, nodes);
    }

    fn best_split(&self, table: &Table, indices: &[usize]) -> Option<(usize, f64)> {
        let n = indices.len() as f64;
        let total_sum: f64 = indices.iter().map(|&i| table.target(i)).sum();
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        for f in 0..table.num_features() {
            // Sort indices by this feature.
            let mut order: Vec<usize> = indices.to_vec();
            order.sort_by(|&a, &b| {
                table.row(a)[f].partial_cmp(&table.row(b)[f]).expect("finite features")
            });
            let stride = (order.len() / self.params.max_thresholds).max(1);
            let mut left_sum = 0.0f64;
            let mut left_n = 0usize;
            for (pos, &i) in order.iter().enumerate().take(order.len() - 1) {
                left_sum += table.target(i);
                left_n += 1;
                if pos % stride != 0 {
                    continue;
                }
                let v = table.row(i)[f];
                let v_next = table.row(order[pos + 1])[f];
                if v == v_next {
                    continue; // cannot split between equal values
                }
                let right_sum = total_sum - left_sum;
                let right_n = indices.len() - left_n;
                // Maximizing between-group sum of squares ==
                // minimizing within-node variance.
                let score = left_sum * left_sum / left_n as f64
                    + right_sum * right_sum / right_n as f64
                    - total_sum * total_sum / n;
                let threshold = 0.5 * (v + v_next);
                if best.is_none_or(|(_, _, s)| score > s) {
                    best = Some((f, threshold, score));
                }
            }
        }
        best.filter(|&(_, _, s)| s > 1e-12).map(|(f, t, _)| (f, t))
    }
}

/// A feature or node index as a node stores it. A tree has fewer than
/// two nodes per training row and one feature per table column, so
/// neither outgrows a `u32` on a table that fits in memory.
fn index_u32(index: usize) -> u32 {
    u32::try_from(index).expect("tree index fits in u32")
}

fn variance(table: &Table, indices: &[usize]) -> f64 {
    let n = indices.len() as f64;
    let mean = indices.iter().map(|&i| table.target(i)).sum::<f64>() / n;
    indices.iter().map(|&i| (table.target(i) - mean).powi(2)).sum::<f64>() / n
}

impl Regressor for DecisionTreeRegressor {
    fn fit(&mut self, table: &Table) -> Result<(), MlError> {
        if table.is_empty() {
            return Err(MlError::EmptyTable);
        }
        let indices: Vec<usize> = (0..table.num_rows()).collect();
        self.num_features = table.num_features();
        let mut nodes = Vec::new();
        self.build(table, &indices, 0, &mut nodes);
        self.nodes = nodes;
        Ok(())
    }

    fn predict(&self, features: &[f64]) -> f64 {
        assert!(!self.nodes.is_empty(), "model not fitted");
        assert_eq!(features.len(), self.num_features, "feature dim mismatch");
        self.walk(features)
    }
}

/// The tree as it was before the flat layout — one heap box per node,
/// built by the same recursion and walked by pointer — kept as the
/// reference the flat form is tested against, here and in
/// [`crate::forest`], beside the random tables both suites fit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    #[derive(Debug)]
    pub(crate) enum BoxedNode {
        Leaf { value: f64 },
        Split { feature: usize, threshold: f64, left: Box<BoxedNode>, right: Box<BoxedNode> },
    }

    impl BoxedNode {
        /// Fits with `tree`'s parameters (and its `best_split`).
        pub(crate) fn fit(tree: &DecisionTreeRegressor, table: &Table) -> BoxedNode {
            let indices: Vec<usize> = (0..table.num_rows()).collect();
            Self::build(tree, table, &indices, 0)
        }

        fn build(
            tree: &DecisionTreeRegressor,
            table: &Table,
            indices: &[usize],
            depth: usize,
        ) -> BoxedNode {
            let params = &tree.params;
            let mean = indices.iter().map(|&i| table.target(i)).sum::<f64>() / indices.len() as f64;
            if depth >= params.max_depth
                || indices.len() < params.min_samples_split
                || variance(table, indices) < 1e-12
            {
                return BoxedNode::Leaf { value: mean };
            }
            let Some((feature, threshold)) = tree.best_split(table, indices) else {
                return BoxedNode::Leaf { value: mean };
            };
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                indices.iter().partition(|&&i| table.row(i)[feature] <= threshold);
            if left_idx.len() < params.min_samples_leaf || right_idx.len() < params.min_samples_leaf
            {
                return BoxedNode::Leaf { value: mean };
            }
            BoxedNode::Split {
                feature,
                threshold,
                left: Box::new(Self::build(tree, table, &left_idx, depth + 1)),
                right: Box::new(Self::build(tree, table, &right_idx, depth + 1)),
            }
        }

        pub(crate) fn predict(&self, features: &[f64]) -> f64 {
            let mut node = self;
            loop {
                match node {
                    BoxedNode::Leaf { value } => return *value,
                    BoxedNode::Split { feature, threshold, left, right } => {
                        node = if features[*feature] <= *threshold { left } else { right };
                    }
                }
            }
        }

        pub(crate) fn num_leaves(&self) -> usize {
            match self {
                BoxedNode::Leaf { .. } => 1,
                BoxedNode::Split { left, right, .. } => left.num_leaves() + right.num_leaves(),
            }
        }

        pub(crate) fn depth(&self) -> usize {
            match self {
                BoxedNode::Leaf { .. } => 1,
                BoxedNode::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
            }
        }

        /// Every threshold in the tree, with the feature it splits.
        pub(crate) fn thresholds(&self, out: &mut Vec<(usize, f64)>) {
            if let BoxedNode::Split { feature, threshold, left, right } = self {
                out.push((*feature, *threshold));
                left.thresholds(out);
                right.thresholds(out);
            }
        }
    }

    /// A table of `rows` × `dims` whose target mixes steps and slopes,
    /// so trees come out uneven; a third of the cells sit on a coarse
    /// grid, which makes equal feature values (no split between them)
    /// common.
    pub(crate) fn random_table(rng: &mut StdRng, rows: usize, dims: usize) -> Table {
        let mut t = Table::with_dims(dims);
        for _ in 0..rows {
            let row: Vec<f64> = (0..dims)
                .map(|_| {
                    let v: f64 = rng.gen_range(-4.0..4.0);
                    if rng.gen_range(0..3) == 0 {
                        v.round()
                    } else {
                        v
                    }
                })
                .collect();
            let y = row.iter().enumerate().map(|(d, v)| if *v > 0.5 { d as f64 } else { v * 0.25 });
            t.push_row(&row, y.sum::<f64>()).expect("finite");
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{random_table, BoxedNode};
    use super::*;
    use crate::metrics::r2_score;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn flat_walk_matches_the_boxed_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xF1A7);
        let shapes = [
            TreeParams::default(),
            TreeParams { max_depth: 2, ..TreeParams::default() }, // depth-capped
            TreeParams {
                max_depth: 12,
                min_samples_split: 2,
                min_samples_leaf: 1,
                ..TreeParams::default()
            },
            TreeParams { min_samples_leaf: 1000, ..TreeParams::default() }, // a single leaf
        ];
        let mut single_leaf = 0;
        for case in 0..40 {
            let (rows, dims) = (rng.gen_range(1..160), rng.gen_range(1..7));
            let table = random_table(&mut rng, rows, dims);
            let mut tree = DecisionTreeRegressor::new(shapes[case % shapes.len()]);
            tree.fit(&table).expect("fit");
            let boxed = BoxedNode::fit(&tree, &table);
            assert_eq!(tree.num_leaves(), boxed.num_leaves(), "case {case}");
            assert_eq!(tree.depth(), boxed.depth(), "case {case}");
            assert_eq!(tree.nodes.len(), 2 * boxed.num_leaves() - 1, "case {case}");
            single_leaf += usize::from(tree.num_leaves() == 1);

            // Probes: the training rows, fresh draws, and every row
            // moved onto every threshold of the feature it splits —
            // the `<=` side of the comparison.
            let mut probes: Vec<Vec<f64>> = (0..rows).map(|i| table.row(i).to_vec()).collect();
            probes.extend((0..32).map(|_| (0..dims).map(|_| rng.gen_range(-5.0..5.0)).collect()));
            let mut thresholds = Vec::new();
            boxed.thresholds(&mut thresholds);
            for &(feature, threshold) in &thresholds {
                let mut on = table.row(rng.gen_range(0..rows)).to_vec();
                on[feature] = threshold;
                probes.push(on);
            }
            for probe in &probes {
                assert_eq!(
                    tree.predict(probe).to_bits(),
                    boxed.predict(probe).to_bits(),
                    "case {case} at {probe:?}"
                );
            }
        }
        assert!(single_leaf >= 10, "the single-leaf shape was exercised ({single_leaf})");
    }

    #[test]
    fn nodes_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }

    fn step_table() -> Table {
        let mut t = Table::with_dims(2);
        for i in 0..100 {
            let x = i as f64 / 10.0;
            let noise_feature = (i * 7 % 13) as f64;
            let y = if x < 5.0 { 2.0 } else { 9.0 };
            t.push_row(&[x, noise_feature], y).expect("ok");
        }
        t
    }

    #[test]
    fn learns_step_function() {
        let mut tree = DecisionTreeRegressor::new(TreeParams::default());
        tree.fit(&step_table()).expect("fit");
        // Threshold subsampling + min_samples_leaf may leave one
        // boundary sample in the wrong leaf, so allow a small margin.
        assert!(tree.predict(&[1.0, 0.0]) < 3.0);
        assert!(tree.predict(&[8.0, 0.0]) > 8.0);
        // The informative feature, not the noise one, drives the split.
        assert!(tree.num_leaves() >= 2);
    }

    #[test]
    fn respects_max_depth() {
        let params = TreeParams { max_depth: 1, ..TreeParams::default() };
        let mut tree = DecisionTreeRegressor::new(params);
        tree.fit(&step_table()).expect("fit");
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn constant_target_single_leaf() {
        let mut t = Table::with_dims(1);
        for i in 0..10 {
            t.push_row(&[i as f64], 7.0).expect("ok");
        }
        let mut tree = DecisionTreeRegressor::new(TreeParams::default());
        tree.fit(&t).expect("fit");
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.predict(&[100.0]), 7.0);
    }

    #[test]
    fn fits_smooth_function_reasonably() {
        let mut t = Table::with_dims(1);
        for i in 0..200 {
            let x = i as f64 / 20.0;
            t.push_row(&[x], x * x).expect("ok");
        }
        let mut tree =
            DecisionTreeRegressor::new(TreeParams { max_depth: 10, ..TreeParams::default() });
        tree.fit(&t).expect("fit");
        let truth: Vec<f64> = (0..200).map(|i| (i as f64 / 20.0).powi(2)).collect();
        let pred: Vec<f64> = (0..200).map(|i| tree.predict(&[i as f64 / 20.0])).collect();
        assert!(r2_score(&truth, &pred) > 0.95);
    }

    #[test]
    fn empty_table_rejected() {
        let mut tree = DecisionTreeRegressor::new(TreeParams::default());
        assert!(matches!(tree.fit(&Table::with_dims(1)), Err(MlError::EmptyTable)));
    }

    #[test]
    #[should_panic(expected = "model not fitted")]
    fn predict_before_fit_panics() {
        let tree = DecisionTreeRegressor::new(TreeParams::default());
        let _ = tree.predict(&[1.0]);
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let params = TreeParams { min_samples_leaf: 40, ..TreeParams::default() };
        let mut tree = DecisionTreeRegressor::new(params);
        tree.fit(&step_table()).expect("fit");
        // 100 samples, leaves must hold >= 40: at most 2 leaves.
        assert!(tree.num_leaves() <= 2);
    }
}
