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
//!
//! # Fit layout
//!
//! A fit sorts each feature column once per tree, as packed
//! `(value, row)` keys with `-0.0` read as `+0.0`: the two compare
//! equal, so they tie and the row decides, exactly as in a stable
//! sort of ascending rows by `partial_cmp`. Beside the sorted columns
//! sits one ascending row list. A node is one range `[lo, hi)` of all
//! of them, and a split moves its left rows to the front of every
//! range with a stable partition, which keeps each column sorted and
//! the row list ascending. So every node scans its features in the
//! order a per-node sort gave and sums its targets in ascending row
//! order, and the tree is bit for bit the one the per-node-sorting fit
//! built (the tests keep that fit as their reference), with no sort
//! and no allocation per node.

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
    /// subsampling keeps fitting fast on large profile databases); at
    /// least 1.
    pub max_thresholds: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 8, min_samples_split: 4, min_samples_leaf: 2, max_thresholds: 32 }
    }
}

impl TreeParams {
    /// Panics unless a tree can be fitted with these parameters.
    pub(crate) fn check(&self) {
        assert!(self.max_thresholds > 0, "max_thresholds must be at least 1");
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
    ///
    /// # Panics
    ///
    /// Panics if `params.max_thresholds == 0`.
    pub fn new(params: TreeParams) -> Self {
        params.check();
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

    /// Fits on the rows `rows` (repeats allowed) and the columns `cols`
    /// of `table`: the tree a copy of just those rows and columns would
    /// give, but with its splits naming columns of `table`, so it reads
    /// rows of the full width (a forest predicts from the caller's
    /// slice without projecting it first) and nothing is copied but
    /// the sorted columns. `rows` must not be empty.
    pub(crate) fn fit_bag(&mut self, table: &Table, rows: &[usize], cols: &[usize]) {
        let mut columns = Columns::new(table, rows, cols);
        let mut nodes = Vec::new();
        self.build(&mut columns, 0, rows.len(), 0, &mut nodes);
        for node in nodes.iter_mut().filter(|node| !node.is_leaf()) {
            node.feature = index_u32(cols[node.feature as usize]);
        }
        self.nodes = nodes;
        self.num_features = table.num_features();
    }

    /// Appends the subtree over the rows `columns` holds at `lo..hi`
    /// to `nodes`, in preorder.
    fn build(
        &self,
        columns: &mut Columns,
        lo: usize,
        hi: usize,
        depth: usize,
        nodes: &mut Vec<Node>,
    ) {
        let rows = &columns.ascending[lo..hi];
        let sum = rows.iter().map(|&r| columns.targets[r as usize]).sum::<f64>();
        let mean = sum / rows.len() as f64;
        if depth >= self.params.max_depth
            || rows.len() < self.params.min_samples_split
            || variance(&columns.targets, rows, mean) < 1e-12
        {
            return nodes.push(Node::leaf(mean));
        }
        let Some((feature, threshold)) = self.best_split(columns, lo, hi, sum) else {
            return nodes.push(Node::leaf(mean));
        };
        // The split column is sorted: its rows `<= threshold` lead it.
        let split_column = &columns.entries[feature * columns.n..][lo..hi];
        let n_left = split_column.partition_point(|e| e.value <= threshold);
        if n_left < self.params.min_samples_leaf || hi - lo - n_left < self.params.min_samples_leaf
        {
            return nodes.push(Node::leaf(mean));
        }
        columns.split(feature, lo, hi, n_left);
        let split = nodes.len();
        nodes.push(Node { threshold, feature: index_u32(feature), right: 0 });
        self.build(columns, lo, lo + n_left, depth + 1, nodes);
        nodes[split].right = index_u32(nodes.len());
        self.build(columns, lo + n_left, hi, depth + 1, nodes);
    }

    /// The split of the rows at `lo..hi`, whose targets sum to
    /// `total_sum`, that maximizes the between-group sum of squares
    /// (== minimizes within-node variance), trying every `stride`-th
    /// position of each sorted column.
    fn best_split(
        &self,
        columns: &Columns,
        lo: usize,
        hi: usize,
        total_sum: f64,
    ) -> Option<(usize, f64)> {
        let len = hi - lo;
        let n = len as f64;
        let stride = (len / self.params.max_thresholds).max(1);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        for (f, column) in columns.entries.chunks_exact(columns.n).enumerate() {
            let mut left_sum = 0.0f64;
            // Positions to pass over before the next candidate.
            let mut skip = 0;
            for (pos, pair) in column[lo..hi].windows(2).enumerate() {
                left_sum += columns.targets[pair[0].row as usize];
                if skip > 0 {
                    skip -= 1;
                    continue;
                }
                skip = stride - 1;
                let (v, v_next) = (pair[0].value, pair[1].value);
                if v == v_next {
                    continue; // cannot split between equal values
                }
                let left_n = pos + 1;
                let right_sum = total_sum - left_sum;
                let right_n = len - left_n;
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

/// Mean squared deviation of the targets of `rows` from `mean`.
fn variance(targets: &[f64], rows: &[u32], mean: f64) -> f64 {
    rows.iter().map(|&r| (targets[r as usize] - mean).powi(2)).sum::<f64>() / rows.len() as f64
}

/// One entry of a sorted column: a feature value (`+0.0` for either
/// zero) and the row it belongs to.
#[derive(Debug, Clone, Copy)]
struct Entry {
    value: f64,
    row: u32,
}

/// One tree's training rows as its fit reads them (see "Fit layout"
/// in the module docs).
struct Columns {
    /// Rows per column: column `f` is `entries[f * n..(f + 1) * n]`.
    n: usize,
    /// Every column, each in `(value, row)` order within every node.
    entries: Vec<Entry>,
    /// Every row, ascending within every node.
    ascending: Vec<u32>,
    /// The target of each row.
    targets: Vec<f64>,
    /// Per row: whether the split being applied sends it left.
    goes_left: Vec<bool>,
    /// The right sides of partitions, while their left sides move.
    scratch: Vec<Entry>,
    row_scratch: Vec<u32>,
}

impl Columns {
    /// The rows `rows` and columns `cols` of `table`; row `r` here is
    /// `rows[r]` there.
    fn new(table: &Table, rows: &[usize], cols: &[usize]) -> Self {
        let n = rows.len();
        let mut entries = Vec::with_capacity(n * cols.len());
        let mut keys: Vec<u128> = Vec::with_capacity(n);
        for &col in cols {
            keys.clear();
            keys.extend(
                rows.iter()
                    .enumerate()
                    .map(|(r, &row)| u128::from(sort_key(table.row(row)[col])) << 64 | r as u128),
            );
            keys.sort_unstable();
            entries.extend(
                keys.iter()
                    .map(|&key| Entry { value: key_value((key >> 64) as u64), row: key as u32 }),
            );
        }
        Columns {
            n,
            entries,
            ascending: (0..index_u32(n)).collect(),
            targets: rows.iter().map(|&row| table.target(row)).collect(),
            goes_left: vec![false; n],
            scratch: vec![Entry { value: 0.0, row: 0 }; n],
            row_scratch: vec![0; n],
        }
    }

    /// Moves the rows of the first `n_left` entries of `feature` in
    /// `lo..hi` to the front of that range in every other column and
    /// in the row list, keeping the order on both sides.
    fn split(&mut self, feature: usize, lo: usize, hi: usize, n_left: usize) {
        let Columns { n, entries, ascending, goes_left, scratch, row_scratch, .. } = self;
        for (i, e) in entries[feature * *n..][lo..hi].iter().enumerate() {
            goes_left[e.row as usize] = i < n_left;
        }
        for (f, column) in entries.chunks_exact_mut(*n).enumerate() {
            if f != feature {
                stable_partition(&mut column[lo..hi], scratch, |e| goes_left[e.row as usize]);
            }
        }
        stable_partition(&mut ascending[lo..hi], row_scratch, |r| goes_left[r as usize]);
    }
}

/// `value`'s place in `partial_cmp` order as an unsigned key, with
/// `-0.0` and `+0.0`, which compare equal, as one key.
fn sort_key(value: f64) -> u64 {
    let bits = if value == 0.0 { 0 } else { value.to_bits() };
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The value [`sort_key`] made `key` from.
fn key_value(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
}

/// Moves the items `goes_left` accepts to the front of `items`, keeping
/// the order on both sides, with no branch on the answer.
fn stable_partition<T: Copy>(items: &mut [T], scratch: &mut [T], goes_left: impl Fn(T) -> bool) {
    let (mut left, mut right) = (0, 0);
    for i in 0..items.len() {
        let item = items[i];
        let goes = goes_left(item);
        items[left] = item;
        scratch[right] = item;
        left += usize::from(goes);
        right += usize::from(!goes);
    }
    items[left..].copy_from_slice(&scratch[..right]);
}

impl Regressor for DecisionTreeRegressor {
    fn fit(&mut self, table: &Table) -> Result<(), MlError> {
        if table.is_empty() {
            return Err(MlError::EmptyTable);
        }
        let rows: Vec<usize> = (0..table.num_rows()).collect();
        let cols: Vec<usize> = (0..table.num_features()).collect();
        self.fit_bag(table, &rows, &cols);
        Ok(())
    }

    fn predict(&self, features: &[f64]) -> f64 {
        assert!(!self.nodes.is_empty(), "model not fitted");
        assert_eq!(features.len(), self.num_features, "feature dim mismatch");
        self.walk(features)
    }
}

/// The tree as it was before the fit layout and the flat layout: each
/// node sorting its rows per feature into a fresh `Vec`, one heap box
/// per node, walked by pointer. It is kept as the reference the fit
/// and the flat walk are tested against, here and in
/// [`crate::forest`], beside the tables both suites fit.
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
        /// Fits with `tree`'s parameters.
        pub(crate) fn fit(tree: &DecisionTreeRegressor, table: &Table) -> BoxedNode {
            let indices: Vec<usize> = (0..table.num_rows()).collect();
            Self::build(&tree.params, table, &indices, 0)
        }

        fn build(params: &TreeParams, table: &Table, indices: &[usize], depth: usize) -> BoxedNode {
            let mean = indices.iter().map(|&i| table.target(i)).sum::<f64>() / indices.len() as f64;
            if depth >= params.max_depth
                || indices.len() < params.min_samples_split
                || variance(table, indices) < 1e-12
            {
                return BoxedNode::Leaf { value: mean };
            }
            let Some((feature, threshold)) = best_split(params, table, indices) else {
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
                left: Box::new(Self::build(params, table, &left_idx, depth + 1)),
                right: Box::new(Self::build(params, table, &right_idx, depth + 1)),
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

    /// The best split of `indices` (ascending), each feature's rows
    /// sorted afresh by `partial_cmp` — a stable sort, so equal values
    /// keep ascending row order.
    fn best_split(params: &TreeParams, table: &Table, indices: &[usize]) -> Option<(usize, f64)> {
        let n = indices.len() as f64;
        let total_sum: f64 = indices.iter().map(|&i| table.target(i)).sum();
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        for f in 0..table.num_features() {
            // Sort indices by this feature.
            let mut order: Vec<usize> = indices.to_vec();
            order.sort_by(|&a, &b| {
                table.row(a)[f].partial_cmp(&table.row(b)[f]).expect("finite features")
            });
            let stride = (order.len() / params.max_thresholds).max(1);
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

    fn variance(table: &Table, indices: &[usize]) -> f64 {
        let n = indices.len() as f64;
        let mean = indices.iter().map(|&i| table.target(i)).sum::<f64>() / n;
        indices.iter().map(|&i| (table.target(i) - mean).powi(2)).sum::<f64>() / n
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

    /// A table that only a fit ordering equal values by row gets
    /// right. Every cell is one of five values, `-0.0` and `+0.0`
    /// among them, so each column is a few long tie runs, and the
    /// targets mix ±1e16 with small odd numbers, so the order a run
    /// is summed in moves the score of every split after it.
    pub(crate) fn tie_table(rng: &mut StdRng, rows: usize, dims: usize) -> Table {
        const VALUES: [f64; 5] = [-0.0, 0.0, -1.5, 1.0, 2.5];
        const TARGETS: [f64; 5] = [1e16, -1e16, 1.0, 3.0, -7.0];
        let mut t = Table::with_dims(dims);
        for _ in 0..rows {
            let row: Vec<f64> = (0..dims).map(|_| VALUES[rng.gen_range(0..VALUES.len())]).collect();
            t.push_row(&row, TARGETS[rng.gen_range(0..TARGETS.len())]).expect("finite");
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{random_table, tie_table, BoxedNode};
    use super::*;
    use crate::metrics::r2_score;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Fits `table` both ways under `params` and asserts the same
    /// leaves, depth and prediction bits at the training rows, at fresh
    /// draws, and at a row moved onto every threshold of the feature
    /// it splits — the `<=` side of the comparison. Returns the leaves.
    fn assert_matches_reference(
        rng: &mut StdRng,
        params: TreeParams,
        table: &Table,
        case: usize,
    ) -> usize {
        let (rows, dims) = (table.num_rows(), table.num_features());
        let mut tree = DecisionTreeRegressor::new(params);
        tree.fit(table).expect("fit");
        let boxed = BoxedNode::fit(&tree, table);
        assert_eq!(tree.num_leaves(), boxed.num_leaves(), "case {case}");
        assert_eq!(tree.depth(), boxed.depth(), "case {case}");
        assert_eq!(tree.nodes.len(), 2 * boxed.num_leaves() - 1, "case {case}");

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
        tree.num_leaves()
    }

    fn shapes() -> [TreeParams; 4] {
        [
            TreeParams::default(),
            TreeParams { max_depth: 2, ..TreeParams::default() }, // depth-capped
            TreeParams {
                max_depth: 12,
                min_samples_split: 2,
                min_samples_leaf: 1,
                ..TreeParams::default()
            },
            TreeParams { min_samples_leaf: 1000, ..TreeParams::default() }, // a single leaf
        ]
    }

    #[test]
    fn flat_walk_matches_the_boxed_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xF1A7);
        let mut single_leaf = 0;
        for case in 0..40 {
            let (rows, dims) = (rng.gen_range(1..160), rng.gen_range(1..7));
            let table = random_table(&mut rng, rows, dims);
            let leaves = assert_matches_reference(&mut rng, shapes()[case % 4], &table, case);
            single_leaf += usize::from(leaves == 1);
        }
        assert!(single_leaf >= 10, "the single-leaf shape was exercised ({single_leaf})");
    }

    /// Signed zeros in one column, long tie runs, and nodes of more
    /// than 64 rows, where `stride > 1` skips candidates.
    #[test]
    fn fit_matches_the_reference_on_ties_signed_zeros_and_strided_nodes() {
        let mut rng = StdRng::seed_from_u64(0x71E5);
        let mut strided = 0;
        for case in 0..48 {
            let (rows, dims) = (rng.gen_range(2..300), rng.gen_range(1..6));
            let table = tie_table(&mut rng, rows, dims);
            let params = shapes()[case % 3];
            strided += usize::from(rows / params.max_thresholds > 1);
            assert_matches_reference(&mut rng, params, &table, case);
            let narrow = TreeParams { max_thresholds: 5, ..params };
            assert_matches_reference(&mut rng, narrow, &table, case);
        }
        assert!(strided >= 20, "strided nodes were exercised ({strided})");
    }

    #[test]
    fn sort_keys_follow_partial_cmp_and_merge_the_zeros() {
        let values = [f64::MIN, -3.5, -1e-300, -0.0, 0.0, 1e-300, 2.0, f64::MAX];
        for a in values {
            for b in values {
                assert_eq!(sort_key(a).cmp(&sort_key(b)), a.partial_cmp(&b).expect("finite"));
            }
            let back = key_value(sort_key(a));
            assert_eq!(back.to_bits(), if a == 0.0 { 0 } else { a.to_bits() });
        }
    }

    #[test]
    #[should_panic(expected = "max_thresholds must be at least 1")]
    fn zero_max_thresholds_rejected() {
        let _ = DecisionTreeRegressor::new(TreeParams { max_thresholds: 0, ..Default::default() });
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
