//! Mini-batch training helpers.
//!
//! These functions implement the *functional* part of the paper's
//! Algorithm 1 (lines 4–8: aggregate, combine, loss, backwards). The
//! orchestration — sampling, transfer, caching, timing — lives in
//! `gnnav-runtime`, which calls into here once a mini-batch's data is
//! "on device".

use crate::loss::softmax_cross_entropy_into;
use crate::metrics::accuracy;
use crate::model::GnnModel;
use crate::optim::Adam;
use crate::tensor::{Matrix, MatrixView};
use gnnav_graph::Graph;

/// Runs one optimization step of `model` on a mini-batch subgraph.
///
/// - `g` is the induced mini-batch subgraph (local node ids).
/// - `x` holds one feature row per subgraph node.
/// - `labels` holds one label per subgraph node.
/// - `target_rows` are the *local* ids of the batch's target vertices
///   (`B^0` in the paper) — loss is computed only on them.
///
/// Returns the batch loss.
///
/// # Panics
///
/// Panics if shapes disagree or `target_rows` is empty.
pub fn train_step(
    model: &mut GnnModel,
    opt: &mut Adam,
    g: &Graph,
    x: &Matrix,
    labels: &[u16],
    target_rows: &[u32],
) -> f32 {
    train_step_view(model, opt, g, x.view(), labels, target_rows)
}

/// [`train_step`] over borrowed features — the form a caller that
/// gathers rows into a reusable buffer uses, so the buffer never has
/// to be moved into a [`Matrix`] and back.
///
/// The step computes only what the loss reads. When `target_rows` is
/// the prefix `0..T` — the `MiniBatch` ordering contract — the output
/// layer runs forward and backward on those `T` rows alone; any other
/// target set runs it at full height. Same code either way, and the
/// loss, every parameter gradient and the optimizer state come out
/// bit for bit the same (see [`crate::layers`]).
///
/// # Panics
///
/// Panics if shapes disagree or `target_rows` is empty.
pub fn train_step_view(
    model: &mut GnnModel,
    opt: &mut Adam,
    g: &Graph,
    x: MatrixView<'_>,
    labels: &[u16],
    target_rows: &[u32],
) -> f32 {
    assert_eq!(x.rows(), g.num_nodes(), "one feature row per node");
    assert_eq!(labels.len(), g.num_nodes(), "one label per node");
    let is_prefix = target_rows.iter().enumerate().all(|(i, &r)| r as usize == i);
    let out_rows = if is_prefix { target_rows.len() } else { g.num_nodes() };
    model.set_train_mode(true);
    let logits = model.forward_rows(g, x, out_rows);
    let mut grad = model.scratch_mut().take(logits.rows(), logits.cols());
    let loss = softmax_cross_entropy_into(&logits, labels, target_rows, &mut grad);
    model.zero_grad();
    model.backward(g, &grad);
    opt.step_with(|f| model.for_each_param_mut(f));
    model.recycle(grad);
    model.recycle(logits);
    loss
}

/// Full-graph forward pass returning accuracy over `rows`.
///
/// At the reproduction's graph scales a full-graph forward is cheap,
/// so evaluation does not sample.
pub fn evaluate(
    model: &mut GnnModel,
    g: &Graph,
    x: MatrixView<'_>,
    labels: &[u16],
    rows: &[u32],
) -> f64 {
    model.set_train_mode(false);
    let logits = model.forward_rows(g, x, g.num_nodes());
    model.set_train_mode(true);
    let acc = accuracy(&logits, labels, rows);
    model.recycle(logits);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use gnnav_graph::{FeatureSpec, Features, GraphBuilder};

    /// Two well-separated communities on a small graph: any GNN should
    /// fit this quickly.
    fn toy_problem() -> (Graph, Matrix, Vec<u16>) {
        let n = 40usize;
        let mut b = GraphBuilder::new(n);
        // Dense-ish intra-community edges.
        for i in 0..20u32 {
            for j in (i + 1)..20 {
                if (i + j) % 3 == 0 {
                    b.add_edge(i, j);
                }
            }
        }
        for i in 20..40u32 {
            for j in (i + 1)..40 {
                if (i + j) % 3 == 0 {
                    b.add_edge(i, j);
                }
            }
        }
        b.add_edge(0, 20); // single bridge
        let g = b.symmetrize().build().expect("build");
        let comm: Vec<u32> = (0..n as u32).map(|v| if v < 20 { 0 } else { 1 }).collect();
        let feats = Features::synthesize(&comm, &FeatureSpec::new(8, 2).with_noise(0.8), 3);
        let x = Matrix::from_vec(n, 8, feats.matrix().to_vec());
        let labels = feats.labels().to_vec();
        (g, x, labels)
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat] {
            let (g, x, labels) = toy_problem();
            let all: Vec<u32> = (0..40).collect();
            let mut model = GnnModel::new(kind, 8, 16, 2, 2, 11);
            let mut opt = Adam::new(0.02);
            let first = train_step(&mut model, &mut opt, &g, &x, &labels, &all);
            let mut last = first;
            for _ in 0..40 {
                last = train_step(&mut model, &mut opt, &g, &x, &labels, &all);
            }
            assert!(last < first * 0.7, "{kind}: loss {first} -> {last}");
            let acc = evaluate(&mut model, &g, x.view(), &labels, &all);
            assert!(acc > 0.8, "{kind}: accuracy {acc}");
        }
    }

    #[test]
    fn training_on_subset_of_targets_only() {
        let (g, x, labels) = toy_problem();
        let targets: Vec<u32> = (0..10).collect();
        let mut model = GnnModel::new(ModelKind::Sage, 8, 16, 2, 2, 5);
        let mut opt = Adam::new(0.02);
        let loss = train_step(&mut model, &mut opt, &g, &x, &labels, &targets);
        assert!(loss.is_finite());
    }

    #[test]
    #[should_panic(expected = "one feature row per node")]
    fn shape_mismatch_rejected() {
        let (g, _, labels) = toy_problem();
        let mut model = GnnModel::new(ModelKind::Gcn, 8, 16, 2, 2, 5);
        let mut opt = Adam::new(0.01);
        let bad_x = Matrix::zeros(3, 8);
        let _ = train_step(&mut model, &mut opt, &g, &bad_x, &labels, &[0]);
    }
}
