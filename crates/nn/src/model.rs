//! GNN model: a stack of layers with ReLU between them.

use crate::layers::{GatLayer, GcnLayer, Layer, ParamRef, SageLayer};
use crate::scratch::ScratchArena;
use crate::tensor::{Matrix, MatrixView};
use gnnav_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The GNN architectures the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum ModelKind {
    /// Graph convolutional network (Kipf & Welling).
    Gcn,
    /// GraphSAGE with mean aggregator.
    Sage,
    /// Graph attention network, single head.
    Gat,
}

impl ModelKind {
    /// All model kinds.
    pub const ALL: [ModelKind; 3] = [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat];

    /// Paper-style short name.
    pub fn short_name(self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::Sage => "SAGE",
            ModelKind::Gat => "GAT",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// A multi-layer GNN: `L` graph layers with ReLU after every layer but
/// the last, which emits class logits.
///
/// # Example
///
/// ```
/// use gnnav_nn::{GnnModel, ModelKind};
///
/// let model = GnnModel::new(ModelKind::Sage, 16, 32, 4, 2, 7);
/// assert!(model.param_count() > 0);
/// assert_eq!(model.num_layers(), 2);
/// ```
#[derive(Debug)]
pub struct GnnModel {
    kind: ModelKind,
    layers: Vec<Box<dyn Layer>>,
    relu_masks: Vec<Vec<bool>>,
    dropout_masks: Vec<Vec<f32>>,
    dropout: f32,
    train_mode: bool,
    dropout_rng: StdRng,
    scratch: ScratchArena,
    in_dim: usize,
    hidden_dim: usize,
    out_dim: usize,
}

impl GnnModel {
    /// Builds a `num_layers`-layer model mapping `in_dim` features to
    /// `out_dim` class logits through `hidden_dim`-wide layers.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers == 0`.
    pub fn new(
        kind: ModelKind,
        in_dim: usize,
        hidden_dim: usize,
        out_dim: usize,
        num_layers: usize,
        seed: u64,
    ) -> Self {
        assert!(num_layers > 0, "at least one layer required");
        let mut layers: Vec<Box<dyn Layer>> = Vec::with_capacity(num_layers);
        for l in 0..num_layers {
            let li = if l == 0 { in_dim } else { hidden_dim };
            let lo = if l + 1 == num_layers { out_dim } else { hidden_dim };
            let lseed = seed.wrapping_add(101 * l as u64);
            let layer: Box<dyn Layer> = match kind {
                ModelKind::Gcn => Box::new(GcnLayer::new(li, lo, lseed)),
                ModelKind::Sage => Box::new(SageLayer::new(li, lo, lseed)),
                ModelKind::Gat => Box::new(GatLayer::new(li, lo, lseed)),
            };
            layers.push(layer);
        }
        GnnModel {
            kind,
            layers,
            relu_masks: Vec::new(),
            dropout_masks: Vec::new(),
            dropout: 0.0,
            train_mode: true,
            dropout_rng: StdRng::seed_from_u64(seed ^ 0xD0D0),
            scratch: ScratchArena::new(),
            in_dim,
            hidden_dim,
            out_dim,
        }
    }

    /// Enables inverted dropout with keep-probability `1 - p` on every
    /// hidden activation (applied only in train mode; a model-design
    /// optimization axis of the design space).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn set_dropout(&mut self, p: f32) {
        assert!((0.0..1.0).contains(&p), "dropout must be in [0, 1)");
        self.dropout = p;
    }

    /// Switches between training mode (dropout active) and evaluation
    /// mode (dropout off).
    pub fn set_train_mode(&mut self, train: bool) {
        self.train_mode = train;
    }

    /// The architecture family.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Number of graph layers `L`.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Input feature dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Hidden width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Output (class) dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Total scalar parameter count `|Φ|`.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Forward pass over subgraph `g` with features `x`
    /// (`g.num_nodes() x in_dim`), returning class logits for every
    /// node. Stores the intermediates needed by
    /// [`GnnModel::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of columns.
    pub fn forward(&mut self, g: &Graph, x: &Matrix) -> Matrix {
        self.forward_rows(g, x.view(), g.num_nodes())
    }

    /// [`GnnModel::forward`] over borrowed features, returning logits
    /// for nodes `0..out_rows` only. Hidden layers run at full height
    /// (every node can be a neighbor of a produced row); the output
    /// layer computes just the `out_rows` rows its caller will read,
    /// and each of those is bit for bit the row the full pass
    /// produces.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong shape or `out_rows` exceeds
    /// `g.num_nodes()`.
    pub fn forward_rows(&mut self, g: &Graph, x: MatrixView<'_>, out_rows: usize) -> Matrix {
        assert_eq!(x.cols(), self.in_dim, "feature dim mismatch");
        let n = g.num_nodes();
        let last = self.layers.len() - 1;
        // Mask buffers persist across batches; only their contents are
        // rewritten, so steady-state forward passes don't allocate.
        self.relu_masks.resize_with(last, Vec::new);
        self.dropout_masks.resize_with(last, Vec::new);
        let mut h: Option<Matrix> = None;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let input = h.as_ref().map_or(x, Matrix::view);
            let rows = if i == last { out_rows } else { n };
            let mut out = layer.forward(g, input, rows, &mut self.scratch);
            if let Some(prev) = h.take() {
                self.scratch.recycle(prev);
            }
            if i != last {
                out.relu_inplace_with(&mut self.relu_masks[i]);
                let mask = &mut self.dropout_masks[i];
                mask.clear();
                if self.dropout > 0.0 && self.train_mode {
                    // Inverted dropout: kept units scaled so the
                    // expectation is unchanged at eval time.
                    let scale = 1.0 / (1.0 - self.dropout);
                    mask.reserve(out.as_slice().len());
                    for _ in 0..out.as_slice().len() {
                        mask.push(if self.dropout_rng.gen::<f32>() < self.dropout {
                            0.0
                        } else {
                            scale
                        });
                    }
                    for (v, &m) in out.as_mut_slice().iter_mut().zip(mask.iter()) {
                        *v *= m;
                    }
                }
            }
            h = Some(out);
        }
        h.expect("at least one layer")
    }

    /// Backward pass from the logit gradient (the shape the forward
    /// pass returned); accumulates parameter gradients in every
    /// layer. The first layer is not asked for its input gradient —
    /// nothing reads it.
    ///
    /// # Panics
    ///
    /// Panics if called before [`GnnModel::forward`].
    pub fn backward(&mut self, g: &Graph, grad_logits: &Matrix) {
        self.backward_through(g, grad_logits, false);
    }

    /// [`GnnModel::backward`] that also asks the first layer for — and
    /// returns — the gradient with respect to the input features
    /// (`g.num_nodes() x in_dim`). Parameter gradients are identical
    /// to [`GnnModel::backward`]'s; hand the matrix back through
    /// [`GnnModel::recycle`].
    ///
    /// # Panics
    ///
    /// Panics if called before [`GnnModel::forward`].
    pub fn backward_with_input_grad(&mut self, g: &Graph, grad_logits: &Matrix) -> Matrix {
        self.backward_through(g, grad_logits, true).expect("input gradient requested")
    }

    fn backward_through(
        &mut self,
        g: &Graph,
        grad_logits: &Matrix,
        need_input_grad: bool,
    ) -> Option<Matrix> {
        let last = self.layers.len() - 1;
        let mut grad: Option<Matrix> = None;
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            if i != last {
                let gm = grad.as_mut().expect("downstream layer produced a gradient");
                let mask = &self.dropout_masks[i];
                if !mask.is_empty() {
                    for (gv, &m) in gm.as_mut_slice().iter_mut().zip(mask) {
                        *gv *= m;
                    }
                }
                gm.relu_backward_inplace(&self.relu_masks[i]);
            }
            let gin = layer.backward(
                g,
                grad.as_ref().unwrap_or(grad_logits),
                need_input_grad || i != 0,
                &mut self.scratch,
            );
            if let Some(prev) = grad.take() {
                self.scratch.recycle(prev);
            }
            grad = gin;
        }
        grad
    }

    /// Clears all parameter gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Streams all parameters to `f` in a stable order (layer by layer,
    /// each layer's own [`Layer::for_each_param`] order), without
    /// allocating. `Adam::step_with` and checkpointing key their state
    /// by position in this order.
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        for layer in &mut self.layers {
            layer.for_each_param(f);
        }
    }

    /// Flattens every parameter scalar into one vector, in the stable
    /// [`GnnModel::for_each_param_mut`] traversal order (weights before
    /// bias per linear parameter). Used by checkpointing.
    pub fn param_vector(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.for_each_param_mut(&mut |p| match p {
            ParamRef::Linear(lin) => {
                out.extend_from_slice(lin.w.as_slice());
                out.extend_from_slice(&lin.b);
            }
            ParamRef::Vector(vp) => out.extend_from_slice(&vp.v),
        });
        out
    }

    /// Restores every parameter scalar from a vector captured by
    /// [`GnnModel::param_vector`] on an identically shaped model.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch if `flat` does not hold
    /// exactly [`GnnModel::param_count`] scalars.
    pub fn load_param_vector(&mut self, flat: &[f32]) -> Result<(), String> {
        if flat.len() != self.param_count() {
            return Err(format!(
                "parameter vector holds {} scalars, model expects {}",
                flat.len(),
                self.param_count()
            ));
        }
        let mut pos = 0usize;
        self.for_each_param_mut(&mut |p| match p {
            ParamRef::Linear(lin) => {
                let w = lin.w.as_mut_slice();
                w.copy_from_slice(&flat[pos..pos + w.len()]);
                pos += w.len();
                let b_len = lin.b.len();
                lin.b.copy_from_slice(&flat[pos..pos + b_len]);
                pos += b_len;
            }
            ParamRef::Vector(vp) => {
                let v_len = vp.v.len();
                vp.v.copy_from_slice(&flat[pos..pos + v_len]);
                pos += v_len;
            }
        });
        Ok(())
    }

    /// The dropout-mask RNG state, for checkpointing.
    pub fn dropout_rng_state(&self) -> [u64; 4] {
        self.dropout_rng.state()
    }

    /// Restores the dropout-mask RNG stream position.
    pub fn set_dropout_rng_state(&mut self, s: [u64; 4]) {
        self.dropout_rng = StdRng::from_state(s);
    }

    /// The model's scratch arena. Matrices returned by
    /// [`GnnModel::forward`] borrow pooled storage; hand them (and any
    /// loss-gradient buffers) back here when done so the next batch
    /// reuses them.
    pub fn scratch_mut(&mut self) -> &mut ScratchArena {
        &mut self.scratch
    }

    /// Returns a matrix to the model's scratch pool.
    pub fn recycle(&mut self, m: Matrix) {
        self.scratch.recycle(m);
    }

    /// Estimated forward+backward FLOPs for one mini-batch with
    /// `num_nodes` nodes and `num_edges` edges (the paper's
    /// `f_compute` input). Backward is approximated as 2x forward.
    pub fn flops_per_batch(&self, num_nodes: usize, num_edges: usize) -> f64 {
        let n = num_nodes as f64;
        let e = num_edges as f64;
        let mut fwd = 0.0;
        for layer in &self.layers {
            let din = layer.in_dim() as f64;
            let dout = layer.out_dim() as f64;
            // Aggregate: one multiply-add per edge per input channel.
            fwd += 2.0 * e * din;
            // Combine: dense matmul.
            fwd += 2.0 * n * din * dout;
            if self.kind == ModelKind::Gat {
                // Attention logits + softmax + weighting.
                fwd += 6.0 * e * dout;
            }
            if self.kind == ModelKind::Sage {
                // Separate self transform.
                fwd += 2.0 * n * din * dout;
            }
        }
        fwd * 3.0
    }

    /// Estimated bytes of activation memory for a batch of `num_nodes`
    /// nodes (feeds `Γ_runtime` in the paper's Eq. 10), at
    /// `bytes_per_scalar` precision.
    pub fn activation_bytes(&self, num_nodes: usize, bytes_per_scalar: usize) -> usize {
        let mut scalars = 0usize;
        for layer in &self.layers {
            scalars += num_nodes * (layer.in_dim() + layer.out_dim());
        }
        scalars * bytes_per_scalar
    }
}

/// Runs `f` on the model's first parameter, which must be linear.
#[cfg(test)]
fn with_first_linear<R>(
    m: &mut GnnModel,
    f: impl FnOnce(&mut crate::layers::LinearParam) -> R,
) -> R {
    let (mut f, mut out) = (Some(f), None);
    m.for_each_param_mut(&mut |p| match (f.take(), p) {
        (Some(f), ParamRef::Linear(lin)) => out = Some(f(lin)),
        (Some(_), ParamRef::Vector(_)) => panic!("the first parameter is not linear"),
        (None, _) => {}
    });
    out.expect("the model has parameters")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::glorot_uniform;
    use gnnav_graph::GraphBuilder;

    fn ring(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as u32 {
            b.add_edge(v, ((v as usize + 1) % n) as u32);
        }
        b.symmetrize().build().expect("build")
    }

    #[test]
    fn forward_shapes() {
        let g = ring(6);
        let x = glorot_uniform(6, 8, 1);
        for kind in ModelKind::ALL {
            let mut m = GnnModel::new(kind, 8, 16, 3, 2, 5);
            let out = m.forward(&g, &x);
            assert_eq!(out.rows(), 6);
            assert_eq!(out.cols(), 3, "{kind}");
        }
    }

    #[test]
    fn single_layer_model_works() {
        let g = ring(4);
        let x = glorot_uniform(4, 5, 2);
        let mut m = GnnModel::new(ModelKind::Gcn, 5, 16, 2, 1, 3);
        let out = m.forward(&g, &x);
        assert_eq!(out.cols(), 2);
        m.backward(&g, &Matrix::zeros(4, 2));
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_rejected() {
        let _ = GnnModel::new(ModelKind::Gcn, 4, 4, 2, 0, 1);
    }

    #[test]
    fn model_gradient_check_end_to_end() {
        // Perturb one input and compare FD loss gradient against the
        // full model backward for a 2-layer SAGE.
        let g = ring(5);
        let x = glorot_uniform(5, 4, 7);
        let r = glorot_uniform(5, 3, 8);
        let mut m = GnnModel::new(ModelKind::Sage, 4, 6, 3, 2, 9);

        let loss = |m: &mut GnnModel, x: &Matrix| -> f32 {
            let out = m.forward(&g, x);
            out.as_slice().iter().zip(r.as_slice()).map(|(a, b)| a * b).sum()
        };
        let _ = loss(&mut m, &x);
        m.zero_grad();
        // Recover input gradient by probing through the first layer's
        // backward result: easiest is to re-run forward then backward.
        let out = m.forward(&g, &x);
        assert_eq!(out.rows(), 5);
        m.zero_grad();
        m.backward(&g, &r);
        // Spot-check parameter gradient of the first linear param.
        let analytic = with_first_linear(&mut m, |p| p.gw.get(0, 0));
        let eps = 1e-2f32;
        let bump = |m: &mut GnnModel, delta: f32| {
            with_first_linear(m, |p| p.w.set(0, 0, p.w.get(0, 0) + delta));
        };
        bump(&mut m, eps);
        let lp = loss(&mut m, &x);
        bump(&mut m, -2.0 * eps);
        let lm = loss(&mut m, &x);
        bump(&mut m, eps);
        let fd = (lp - lm) / (2.0 * eps);
        assert!((fd - analytic).abs() < 5e-2 * (1.0 + fd.abs()), "fd {fd} vs analytic {analytic}");
    }

    #[test]
    fn flops_scale_with_size() {
        let m = GnnModel::new(ModelKind::Gcn, 32, 64, 8, 2, 1);
        let small = m.flops_per_batch(100, 500);
        let large = m.flops_per_batch(1000, 5000);
        assert!(large > 5.0 * small);
    }

    #[test]
    fn gat_flops_exceed_gcn() {
        let gcn = GnnModel::new(ModelKind::Gcn, 32, 64, 8, 2, 1);
        let gat = GnnModel::new(ModelKind::Gat, 32, 64, 8, 2, 1);
        assert!(gat.flops_per_batch(100, 1000) > gcn.flops_per_batch(100, 1000));
    }

    #[test]
    fn activation_bytes_positive_and_scaling() {
        let m = GnnModel::new(ModelKind::Sage, 32, 64, 8, 2, 1);
        assert!(m.activation_bytes(10, 4) < m.activation_bytes(100, 4));
        assert_eq!(m.activation_bytes(10, 2) * 2, m.activation_bytes(10, 4));
    }

    #[test]
    fn param_count_matches_architecture() {
        let m = GnnModel::new(ModelKind::Gcn, 10, 20, 5, 2, 1);
        // Layer 1: 10*20 + 20; layer 2: 20*5 + 5.
        assert_eq!(m.param_count(), 10 * 20 + 20 + 20 * 5 + 5);
    }

    #[test]
    fn steady_state_training_does_not_allocate() {
        // After one warm-up batch per shape, forward+backward on
        // identical batches must not grow the arena.
        let g = ring(6);
        let x = glorot_uniform(6, 8, 1);
        let r = glorot_uniform(6, 3, 2);
        for kind in ModelKind::ALL {
            let mut m = GnnModel::new(kind, 8, 16, 3, 2, 5);
            for _ in 0..2 {
                let out = m.forward(&g, &x);
                m.zero_grad();
                m.backward(&g, &r);
                m.recycle(out);
            }
            let warm = m.scratch_mut().fresh_allocs();
            for _ in 0..3 {
                let out = m.forward(&g, &x);
                m.zero_grad();
                m.backward(&g, &r);
                m.recycle(out);
            }
            assert_eq!(
                m.scratch_mut().fresh_allocs(),
                warm,
                "{kind} allocated during steady-state batches"
            );
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ModelKind::Sage.to_string(), "SAGE");
        assert_eq!(ModelKind::Gat.short_name(), "GAT");
    }
}

#[cfg(test)]
mod dropout_tests {
    use super::*;
    use crate::init::glorot_uniform;
    use gnnav_graph::GraphBuilder;

    fn ring(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as u32 {
            b.add_edge(v, ((v as usize + 1) % n) as u32);
        }
        b.symmetrize().build().expect("build")
    }

    #[test]
    fn dropout_changes_training_forward_only() {
        let g = ring(8);
        let x = glorot_uniform(8, 6, 1);
        let mut m = GnnModel::new(ModelKind::Gcn, 6, 12, 3, 2, 2);
        m.set_train_mode(false);
        let clean = m.forward(&g, &x);
        m.set_dropout(0.5);
        // Eval mode: dropout inert.
        let eval_out = m.forward(&g, &x);
        assert_eq!(clean, eval_out);
        // Train mode: activations masked -> different output.
        m.set_train_mode(true);
        let train_out = m.forward(&g, &x);
        assert_ne!(clean, train_out);
    }

    #[test]
    fn dropout_gradient_matches_masked_forward() {
        // FD check THROUGH the dropout mask: use dropout 0.5 but a
        // fixed mask by re-seeding identically for each forward.
        let g = ring(5);
        let x = glorot_uniform(5, 4, 3);
        let r = glorot_uniform(5, 2, 4);
        let loss = |m: &mut GnnModel, x: &Matrix| -> f32 {
            m.dropout_rng = StdRng::seed_from_u64(99);
            let out = m.forward(&g, x);
            out.as_slice().iter().zip(r.as_slice()).map(|(a, b)| a * b).sum()
        };
        let mut m = GnnModel::new(ModelKind::Gcn, 4, 6, 2, 2, 5);
        m.set_dropout(0.5);
        let _ = loss(&mut m, &x);
        m.zero_grad();
        m.backward(&g, &r);
        let analytic = with_first_linear(&mut m, |p| p.gw.get(0, 0));
        let eps = 1e-2f32;
        let bump = |m: &mut GnnModel, d: f32| {
            with_first_linear(m, |p| p.w.set(0, 0, p.w.get(0, 0) + d));
        };
        bump(&mut m, eps);
        let lp = loss(&mut m, &x);
        bump(&mut m, -2.0 * eps);
        let lm = loss(&mut m, &x);
        let fd = (lp - lm) / (2.0 * eps);
        assert!((fd - analytic).abs() < 5e-2 * (1.0 + fd.abs()), "fd {fd} vs analytic {analytic}");
    }

    #[test]
    #[should_panic(expected = "dropout must be in [0, 1)")]
    fn dropout_range_validated() {
        let mut m = GnnModel::new(ModelKind::Gcn, 4, 4, 2, 2, 1);
        m.set_dropout(1.0);
    }
}
