//! GNN layers with explicit forward/backward passes.
//!
//! Each layer follows the paper's Aggregate/Combine decomposition
//! (Eq. 1): a sparse neighborhood aggregation over the mini-batch
//! subgraph followed by a dense linear combine. Three layer families
//! are provided, matching the models the paper evaluates:
//!
//! - `GcnLayer`: symmetric-normalized aggregation (Kipf & Welling).
//! - `SageLayer`: mean aggregation with a separate self transform
//!   (GraphSAGE).
//! - [`GatLayer`]: single-head additive attention (GAT).
//!
//! Layers cache whatever the backward pass needs; call order must be
//! `forward` then `backward` on the same input graph. All temporaries
//! cycle through the caller's [`ScratchArena`], so steady-state
//! training allocates nothing per batch.
//!
//! # Parallelism and determinism
//!
//! The aggregation kernels are node-parallel: output rows are carved
//! into tasks along the graph's cached degree schedule — a function
//! of the graph and the feature width, never of the thread count —
//! and every task runs the identical serial loop. Each output row is
//! one `gather_row` of `kernel.rs`: a register tile of its columns
//! starts at `+0.0`, takes `c · x[u]` for the row's whole source
//! list, one source at a time in list order, and is stored once; the
//! output buffer is never read, so none of these kernels zero-fills
//! it. An accumulator depends on its own column's chain
//! only, so the tile width, the hub rows' column tiling, the vector
//! ISA the body was compiled for (one source, built for the target's
//! baseline and for AVX2, picked by the CPU — see the kernel module)
//! and the worker count cannot move a bit of the result.
//! Backward aggregations that are scatters in textbook form
//! (`mean_aggregate_backward`, the GAT `dz`/`ds_l` terms) are
//! re-expressed as per-row *gathers* over the graph's cached
//! [`transpose`](gnnav_graph::Graph::transpose_csr): because in-edge
//! source lists are sorted ascending, the gather visits contributions
//! in exactly the order the serial scatter produced them. Reductions
//! into shared parameter gradients stay serial to preserve their
//! order.
//!
//! # Computing only the rows that are read
//!
//! A layer need not run at full subgraph height. [`Layer::forward`]
//! takes `out_rows` and produces output rows `0..out_rows` only — the
//! mini-batch contract puts the loss rows first, so a model's output
//! layer runs on just that prefix — and [`Layer::backward`] takes
//! `need_input_grad`, which the first layer of a model declines
//! because nothing reads its input gradient. Both are the *same code*
//! as the full-height pass (`out_rows = g.num_nodes()`,
//! `need_input_grad = true`), and neither changes a single bit of any
//! value that is still computed:
//!
//! - Output rows are independent of one another, so dropping rows
//!   `>= out_rows` from the forward pass touches no surviving row.
//! - In the full-height backward pass those rows carry an all-`+0.0`
//!   output gradient (the loss zero-fills it, and `+0.0 * 1/H` is
//!   `+0.0`). Every place such a row enters a reduction it does so as
//!   a term `a * (+0.0) = ±0.0` added to an accumulator that *started*
//!   at `+0.0`. Under round-to-nearest a sum is `-0.0` only when both
//!   operands are `-0.0`, so such an accumulator can never hold `-0.0`,
//!   and adding `±0.0` to anything else returns it unchanged: skipping
//!   the term is invisible. The surviving terms keep their order.
//! - Rows the full pass computed as dot products against an all-zero
//!   row (`dY·Wᵀ` beyond `out_rows`) are `+0.0` exactly; here they are
//!   never materialized, and consumers treat a short matrix as
//!   zero-extended (see [`gcn_aggregate_into`],
//!   [`mean_aggregate_backward_into`]) or, where a zero-filled buffer
//!   costs nothing, keep the full-length buffer and write only the
//!   prefix (GAT's `ds_r`).
//!
//! The one assumption is **finite activations and parameters**:
//! `inf * 0.0` and `NaN * 0.0` are `NaN`, so a full-height pass smears
//! a non-finite value in a row the loss never reads into the
//! parameter gradients, and the restricted pass does not. The training
//! loop's NaN guard sees the loss, which reads only target rows, so
//! the two agree on every run that guard lets through.

use crate::init::{glorot_uniform, uniform_vec};
use crate::kernel::{dispatch, gather_row};
use crate::scratch::ScratchArena;
use crate::tensor::{dot_lanes, Matrix, MatrixView};
use gnnav_graph::{AggGroup, Graph, NodeId};

/// A trainable dense parameter: weight matrix plus bias with gradient
/// accumulators.
#[derive(Debug, Clone)]
pub struct LinearParam {
    /// Weight, `in_dim x out_dim`.
    pub w: Matrix,
    /// Bias, length `out_dim` (empty when the parameter has no bias).
    pub b: Vec<f32>,
    /// Gradient of `w`.
    pub gw: Matrix,
    /// Gradient of `b`.
    pub gb: Vec<f32>,
}

impl LinearParam {
    /// Glorot-initialized parameter with bias.
    pub(crate) fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        LinearParam {
            w: glorot_uniform(in_dim, out_dim, seed),
            b: vec![0.0; out_dim],
            gw: Matrix::zeros(in_dim, out_dim),
            gb: vec![0.0; out_dim],
        }
    }

    /// Glorot-initialized parameter without bias.
    pub fn new_no_bias(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        LinearParam {
            w: glorot_uniform(in_dim, out_dim, seed),
            b: Vec::new(),
            gw: Matrix::zeros(in_dim, out_dim),
            gb: Vec::new(),
        }
    }

    /// Number of scalar parameters.
    pub(crate) fn count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Clears accumulated gradients.
    pub(crate) fn zero_grad(&mut self) {
        self.gw.as_mut_slice().fill(0.0);
        self.gb.fill(0.0);
    }
}

/// A vector parameter (attention weights) with gradient accumulator.
#[derive(Debug, Clone)]
pub struct VecParam {
    /// The parameter values.
    pub v: Vec<f32>,
    /// The gradient accumulator.
    pub g: Vec<f32>,
}

impl VecParam {
    /// Uniform-initialized vector parameter.
    pub(crate) fn new(len: usize, seed: u64) -> Self {
        VecParam { v: uniform_vec(len, 0.3, seed), g: vec![0.0; len] }
    }

    /// Clears the accumulated gradient.
    pub(crate) fn zero_grad(&mut self) {
        self.g.fill(0.0);
    }
}

/// Mutable views over a layer's parameters, in a stable order, for the
/// optimizer.
pub enum ParamRef<'a> {
    /// A dense weight + bias parameter.
    Linear(&'a mut LinearParam),
    /// A vector parameter.
    Vector(&'a mut VecParam),
}

/// Common interface of all GNN layers.
pub trait Layer: std::fmt::Debug + Send {
    /// Input feature dimensionality.
    fn in_dim(&self) -> usize;
    /// Output feature dimensionality.
    fn out_dim(&self) -> usize;
    /// Forward pass over subgraph `g` with node features `x`
    /// (`g.num_nodes() x in_dim`), producing output rows
    /// `0..out_rows` (an `out_rows x out_dim` matrix; pass
    /// `g.num_nodes()` for every row); caches intermediates for
    /// backward. Temporaries come from (and should be returned to)
    /// `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `out_rows > g.num_nodes()` or `x` has the wrong shape.
    fn forward(
        &mut self,
        g: &Graph,
        x: MatrixView<'_>,
        out_rows: usize,
        scratch: &mut ScratchArena,
    ) -> Matrix;
    /// Backward pass: consumes `grad_out` (the shape `forward`
    /// returned), accumulates parameter gradients, and returns the
    /// gradient with respect to the input (`g.num_nodes() x in_dim`) —
    /// or skips that work and returns `None` when `need_input_grad` is
    /// false. Parameter gradients are identical either way.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`, or with a `grad_out` of a
    /// different height than `forward` produced.
    fn backward(
        &mut self,
        g: &Graph,
        grad_out: &Matrix,
        need_input_grad: bool,
        scratch: &mut ScratchArena,
    ) -> Option<Matrix>;
    /// Streams the parameters to `f` in a stable order, without
    /// allocating — the optimizer and checkpointing key their state by
    /// position in this order.
    fn for_each_param(&mut self, f: &mut dyn FnMut(ParamRef<'_>));
    /// Total scalar parameter count (`|Φ|` contribution).
    fn param_count(&self) -> usize;
    /// Clears all parameter gradients.
    fn zero_grad(&mut self);
}

/// Target FLOPs per worker chunk for the aggregation kernels.
const AGG_GRAIN_FLOPS: usize = 32_768;

/// Scheduling weight (one weight unit ≈ 2 FLOPs) a worker must carry
/// before the feature-wide aggregation passes fan out.
const AGG_GRAIN_WORK: u64 = (AGG_GRAIN_FLOPS / 2) as u64;

/// Grain for the feature-independent span passes (GAT softmax and its
/// backward), whose per-unit cost is a handful of transcendentals.
const AGG_GRAIN_SPAN: u64 = 4_096;

/// Feature-dimension tile width for heavy (single hub row) schedule
/// groups: a hub row at least `2 * FEAT_TILE` wide is split into
/// column tiles so several workers can share one giant neighbor list.
/// A column tile of a single row is contiguous in row-major layout,
/// so tiles carve into disjoint `&mut` windows like any other group.
const FEAT_TILE: usize = 64;

/// Nodes per static chunk for an aggregation over `g` with feature
/// width `d` — sized so a chunk is worth a worker, never a function of
/// the thread count.
fn agg_nodes_per_chunk(g: &Graph, d: usize) -> usize {
    let n = g.num_nodes().max(1);
    let per_node = 2 * (g.num_edges() / n + 1) * d.max(1);
    (AGG_GRAIN_FLOPS / per_node.max(1)).max(1)
}

/// The forward (out-degree) schedule of `g` clamped to output rows
/// `0..rows`, as `(group count, groups)` for
/// [`gnnav_par::par_for_weighted_tasks`]. At `rows ==
/// g.num_nodes()` these are the cached groups themselves.
fn fwd_groups(g: &Graph, rows: usize) -> (usize, impl Iterator<Item = AggGroup> + '_) {
    let (whole, cut) = g.agg_schedule().fwd.prefix(rows, |v| g.degree(v as NodeId));
    (whole.len() + usize::from(cut.is_some()), whole.iter().copied().chain(cut))
}

/// The backward (in-degree) schedule of `g`, every row.
fn bwd_groups(g: &Graph) -> (usize, impl Iterator<Item = AggGroup> + '_) {
    let groups = &g.agg_schedule().bwd.groups;
    (groups.len(), groups.iter().copied())
}

/// The leading entries of the ascending id list `ids` that are
/// `< limit` — the sources a kernel reads when its input holds only
/// rows `0..limit`. Lists are sorted, so this is a prefix.
#[inline]
fn ids_below(ids: &[NodeId], limit: usize) -> &[NodeId] {
    match ids.last() {
        Some(&last) if last as usize >= limit => {
            &ids[..ids.partition_point(|&u| (u as usize) < limit)]
        }
        _ => ids,
    }
}

/// One scheduled unit of aggregation work: output rows
/// `v0..v0 + dst.len() / (j1 - j0)`, columns `j0..j1`.
struct AggTask<'a> {
    v0: usize,
    j0: usize,
    j1: usize,
    dst: &'a mut [f32],
}

/// Carves the row-major `n x d` output `out` into one [`AggTask`] per
/// schedule group (heavy groups additionally split into [`FEAT_TILE`]
/// column tiles when `d` is wide), streamed to `emit` weighted for
/// [`gnnav_par::par_for_weighted_tasks`]. Group boundaries come
/// from the graph's cached degree schedule, so tasks are a pure
/// function of the graph and `d` — never of the thread count.
fn schedule_tasks<'a>(
    groups: impl Iterator<Item = AggGroup>,
    d: usize,
    out: &'a mut [f32],
    emit: &mut dyn FnMut(u64, AggTask<'a>),
) {
    let mut rest = out;
    for grp in groups {
        let (win, tail) = rest.split_at_mut(grp.len() * d);
        rest = tail;
        if grp.heavy && d >= 2 * FEAT_TILE {
            let mut row = win;
            let mut j0 = 0usize;
            while j0 < d {
                let j1 = (j0 + FEAT_TILE).min(d);
                let (tile, row_tail) = row.split_at_mut(j1 - j0);
                row = row_tail;
                let task = AggTask { v0: grp.start as usize, j0, j1, dst: tile };
                emit(grp.work * (j1 - j0) as u64, task);
                j0 = j1;
            }
        } else {
            let task = AggTask { v0: grp.start as usize, j0: 0, j1: d, dst: win };
            emit(grp.work * d as u64, task);
        }
    }
}

/// Carves `a` and `b` into per-group mutable windows along the
/// schedule's group boundaries, where node `i`'s data spans
/// `a_off(i)..a_off(i+1)` in `a` (resp. `b_off` in `b`). Streams
/// weighted `(v0, v1, a_window, b_window)` tasks to `emit` for
/// [`gnnav_par::par_for_weighted_tasks`].
#[allow(clippy::type_complexity)]
fn split_two_by_groups<'a>(
    groups: impl Iterator<Item = AggGroup>,
    a: &'a mut [f32],
    a_off: impl Fn(usize) -> usize,
    b: &'a mut [f32],
    b_off: impl Fn(usize) -> usize,
    emit: &mut dyn FnMut(u64, (usize, usize, &'a mut [f32], &'a mut [f32])),
) {
    let mut a = a;
    let mut b = b;
    for grp in groups {
        let (v0, v1) = (grp.start as usize, grp.end as usize);
        let (ha, ta) = a.split_at_mut(a_off(v1) - a_off(v0));
        let (hb, tb) = b.split_at_mut(b_off(v1) - b_off(v0));
        emit(grp.work, (v0, v1, ha, hb));
        a = ta;
        b = tb;
    }
}

/// Symmetric-normalized GCN aggregation with self-loops:
/// `out[v] = Σ_{u ∈ N(v) ∪ {v}} x[u] / sqrt((d_u + 1)(d_v + 1))`.
///
/// The coefficient matrix is symmetric, so the same routine implements
/// the backward (transpose) aggregation.
pub fn gcn_aggregate(g: &Graph, x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(g.num_nodes(), x.cols());
    gcn_aggregate_into(g, x.view(), &mut out);
    out
}

/// [`gcn_aggregate`] into a caller-provided output (fully overwritten,
/// never read). Node-parallel; uses the graph's cached inverse-sqrt
/// degree norms instead of recomputing them per call.
///
/// Either side may be a row prefix. `out` with fewer than
/// `g.num_nodes()` rows receives just those leading rows. `x` with
/// fewer rows is read as zero-extended: the terms of the missing rows
/// are skipped, which is bitwise what adding their `c * (+0.0)` to
/// accumulators that start at `+0.0` would have produced (module
/// docs). The forward pass of an output layer uses the first, its
/// transpose aggregation in backward the second.
///
/// # Panics
///
/// Panics if `out` or `x` has more rows than `g` has nodes, or their
/// widths differ.
pub fn gcn_aggregate_into(g: &Graph, x: MatrixView<'_>, out: &mut Matrix) {
    let d = x.cols();
    let out_rows = out.rows();
    assert!(x.rows() <= g.num_nodes(), "at most one feature row per node");
    assert!(out_rows <= g.num_nodes(), "at most one output row per node");
    assert_eq!(out.cols(), d, "gcn_aggregate out shape mismatch");
    if out_rows == 0 || d == 0 {
        return;
    }
    let (len, groups) = fwd_groups(g, out_rows);
    let out = out.as_mut_slice();
    gnnav_par::par_for_weighted_tasks(
        len,
        |emit| schedule_tasks(groups, d, out, emit),
        AGG_GRAIN_WORK,
        |task| {
            dispatch(
                #[inline(always)]
                || gcn_task(g, x, task),
            )
        },
    );
}

/// The rows of one scheduled task of [`gcn_aggregate_into`].
#[inline(always)]
fn gcn_task(g: &Graph, x: MatrixView<'_>, task: AggTask<'_>) {
    let inv_sqrt = g.gcn_inv_sqrt();
    let in_rows = x.rows();
    for (lv, dst) in task.dst.chunks_mut(task.j1 - task.j0).enumerate() {
        let v = task.v0 + lv;
        let cv = inv_sqrt[v];
        // Self-loop term first (its `cv * cv` is `cv * inv_sqrt[v]`),
        // then neighbors ascending — the same per-element accumulation
        // order as the serial kernel, whatever the grouping or column
        // tiling.
        let own = usize::from(v < in_rows);
        let neigh = ids_below(g.neighbors(v as NodeId), in_rows);
        gather_row(dst, task.j0, own + neigh.len(), |t| {
            let u = if t < own { v } else { neigh[t - own] as usize };
            (cv * inv_sqrt[u], x.row(u))
        });
    }
}

/// Mean aggregation: `out[v] = mean_{u ∈ N(v)} x[u]` (zero for
/// isolated nodes).
pub fn mean_aggregate(g: &Graph, x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(g.num_nodes(), x.cols());
    mean_aggregate_into(g, x.view(), &mut out);
    out
}

/// [`mean_aggregate`] into a caller-provided output (fully
/// overwritten, never read), node-parallel. `out` with fewer than
/// `g.num_nodes()` rows receives just those leading rows.
///
/// # Panics
///
/// Panics on shape mismatch, or if `out` has more rows than `g` has
/// nodes.
pub fn mean_aggregate_into(g: &Graph, x: MatrixView<'_>, out: &mut Matrix) {
    let d = x.cols();
    let out_rows = out.rows();
    assert_eq!(x.rows(), g.num_nodes(), "one feature row per node");
    assert!(out_rows <= g.num_nodes(), "at most one output row per node");
    assert_eq!(out.cols(), d, "mean_aggregate out shape mismatch");
    if out_rows == 0 || d == 0 {
        return;
    }
    let (len, groups) = fwd_groups(g, out_rows);
    let out = out.as_mut_slice();
    gnnav_par::par_for_weighted_tasks(
        len,
        |emit| schedule_tasks(groups, d, out, emit),
        AGG_GRAIN_WORK,
        |task| {
            dispatch(
                #[inline(always)]
                || mean_task(g, x, task),
            )
        },
    );
}

/// The rows of one scheduled task of [`mean_aggregate_into`].
#[inline(always)]
fn mean_task(g: &Graph, x: MatrixView<'_>, task: AggTask<'_>) {
    for (lv, dst) in task.dst.chunks_mut(task.j1 - task.j0).enumerate() {
        let neigh = g.neighbors((task.v0 + lv) as NodeId);
        gather_row(dst, task.j0, neigh.len(), |t| (1.0, x.row(neigh[t] as usize)));
        // Isolated node: the empty sum above is exactly zero and
        // stays so (`1 / 0` must not touch it).
        if !neigh.is_empty() {
            let inv = 1.0 / neigh.len() as f32;
            for o in dst.iter_mut() {
                *o *= inv;
            }
        }
    }
}

/// Transpose of [`mean_aggregate`]: node `u` receives
/// `grad_out[v] / deg(v)` from every `v` it neighbors.
pub fn mean_aggregate_backward(g: &Graph, grad_out: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(g.num_nodes(), grad_out.cols());
    mean_aggregate_backward_into(g, grad_out, &mut out);
    out
}

/// [`mean_aggregate_backward`] into a caller-provided output (fully
/// overwritten, never read). The textbook scatter is rewritten as a
/// per-row gather over the cached transpose CSR: in-edge sources
/// arrive sorted ascending, which is the order the serial scatter
/// added them, so the result is bitwise identical — and each output
/// row is owned by one worker.
///
/// `grad_out` with fewer than `g.num_nodes()` rows is read as
/// zero-extended: each row gathers only its in-sources below
/// `grad_out.rows()` — a prefix of the sorted source list — which is
/// bitwise what adding the missing rows' `1/deg * (+0.0)` terms would
/// have produced (module docs).
///
/// # Panics
///
/// Panics on shape mismatch, or if `grad_out` has more rows than `g`
/// has nodes.
pub fn mean_aggregate_backward_into(g: &Graph, grad_out: &Matrix, out: &mut Matrix) {
    let n = g.num_nodes();
    let d = grad_out.cols();
    assert!(grad_out.rows() <= n, "at most one gradient row per node");
    assert_eq!((out.rows(), out.cols()), (n, d), "mean_aggregate_backward out shape mismatch");
    if n == 0 || d == 0 {
        return;
    }
    // Backward gathers walk in-edges, so grouping follows in-degrees.
    let (len, groups) = bwd_groups(g);
    let out = out.as_mut_slice();
    gnnav_par::par_for_weighted_tasks(
        len,
        |emit| schedule_tasks(groups, d, out, emit),
        AGG_GRAIN_WORK,
        |task| {
            dispatch(
                #[inline(always)]
                || mean_backward_task(g, grad_out.view(), task),
            )
        },
    );
}

/// The rows of one scheduled task of [`mean_aggregate_backward_into`].
#[inline(always)]
fn mean_backward_task(g: &Graph, grad_out: MatrixView<'_>, task: AggTask<'_>) {
    let transpose = g.transpose_csr();
    for (lu, dst) in task.dst.chunks_mut(task.j1 - task.j0).enumerate() {
        let u = (task.v0 + lu) as NodeId;
        let sources = ids_below(transpose.in_sources(u), grad_out.rows());
        // Every in-source has at least the edge v -> u, so
        // degree(v) >= 1 and the divide is finite.
        gather_row(dst, task.j0, sources.len(), |t| {
            let v = sources[t];
            (1.0 / g.degree(v) as f32, grad_out.row(v as usize))
        });
    }
}

/// `gb += Σ_r grad_out[r]`, rows ascending — the serial, ordered bias
/// reduction every layer shares.
fn accumulate_bias_grad(gb: &mut [f32], grad_out: &Matrix) {
    for r in 0..grad_out.rows() {
        for (gb, &gv) in gb.iter_mut().zip(grad_out.row(r)) {
            *gb += gv;
        }
    }
}

/// GCN layer: `out = GcnAgg(g, x) · W + b`.
#[derive(Debug)]
pub(crate) struct GcnLayer {
    lin: LinearParam,
    cache_ax: Option<Matrix>,
}

impl GcnLayer {
    /// Creates a GCN layer with Glorot-initialized weights.
    pub(crate) fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        GcnLayer { lin: LinearParam::new(in_dim, out_dim, seed), cache_ax: None }
    }
}

impl Layer for GcnLayer {
    fn in_dim(&self) -> usize {
        self.lin.w.rows()
    }

    fn out_dim(&self) -> usize {
        self.lin.w.cols()
    }

    fn forward(
        &mut self,
        g: &Graph,
        x: MatrixView<'_>,
        out_rows: usize,
        scratch: &mut ScratchArena,
    ) -> Matrix {
        assert_eq!(x.rows(), g.num_nodes(), "one feature row per node");
        let mut ax = match self.cache_ax.take() {
            Some(prev) => scratch.reshape_zeroed(prev, out_rows, x.cols()),
            None => scratch.take(out_rows, x.cols()),
        };
        gcn_aggregate_into(g, x, &mut ax);
        let mut out = scratch.take(out_rows, self.out_dim());
        ax.matmul_into(&self.lin.w, &mut out);
        out.add_row_broadcast(&self.lin.b);
        self.cache_ax = Some(ax);
        out
    }

    fn backward(
        &mut self,
        g: &Graph,
        grad_out: &Matrix,
        need_input_grad: bool,
        scratch: &mut ScratchArena,
    ) -> Option<Matrix> {
        let ax = self.cache_ax.as_ref().expect("forward before backward");
        let mut gw = scratch.take(self.lin.w.rows(), self.lin.w.cols());
        ax.matmul_at_b_into(grad_out, &mut gw);
        self.lin.gw.add_assign(&gw);
        scratch.recycle(gw);
        accumulate_bias_grad(&mut self.lin.gb, grad_out);
        if !need_input_grad {
            return None;
        }
        let mut d_ax = scratch.take(grad_out.rows(), self.in_dim());
        grad_out.matmul_a_bt_into(&self.lin.w, &mut d_ax);
        // Symmetric coefficients: the transpose aggregation is the
        // forward aggregation — every row of the input gathers from
        // the `grad_out.rows()` rows of `d_ax` that exist.
        let mut gx = scratch.take(g.num_nodes(), self.in_dim());
        gcn_aggregate_into(g, d_ax.view(), &mut gx);
        scratch.recycle(d_ax);
        Some(gx)
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        f(ParamRef::Linear(&mut self.lin));
    }

    fn param_count(&self) -> usize {
        self.lin.count()
    }

    fn zero_grad(&mut self) {
        self.lin.zero_grad();
    }
}

/// GraphSAGE layer with mean aggregator:
/// `out = x · W_self + MeanAgg(g, x) · W_neigh + b`.
#[derive(Debug)]
pub(crate) struct SageLayer {
    lin_self: LinearParam,
    lin_neigh: LinearParam,
    cache_x: Option<Matrix>,
    cache_mean: Option<Matrix>,
}

impl SageLayer {
    /// Creates a SAGE layer with Glorot-initialized weights.
    pub(crate) fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        SageLayer {
            lin_self: LinearParam::new(in_dim, out_dim, seed),
            lin_neigh: LinearParam::new_no_bias(in_dim, out_dim, seed.wrapping_add(1)),
            cache_x: None,
            cache_mean: None,
        }
    }
}

impl Layer for SageLayer {
    fn in_dim(&self) -> usize {
        self.lin_self.w.rows()
    }

    fn out_dim(&self) -> usize {
        self.lin_self.w.cols()
    }

    fn forward(
        &mut self,
        g: &Graph,
        x: MatrixView<'_>,
        out_rows: usize,
        scratch: &mut ScratchArena,
    ) -> Matrix {
        let mut mean = match self.cache_mean.take() {
            Some(prev) => scratch.reshape_zeroed(prev, out_rows, x.cols()),
            None => scratch.take(out_rows, x.cols()),
        };
        mean_aggregate_into(g, x, &mut mean);
        // The self transform reads (and backward re-reads) only the
        // rows it produces: a borrowed prefix, nothing copied.
        let x_self = x.prefix_rows(out_rows);
        let mut out = scratch.take(out_rows, self.out_dim());
        x_self.matmul_into(&self.lin_self.w, &mut out);
        let mut neigh = scratch.take(out_rows, self.out_dim());
        mean.matmul_into(&self.lin_neigh.w, &mut neigh);
        out.add_assign(&neigh);
        scratch.recycle(neigh);
        out.add_row_broadcast(&self.lin_self.b);
        scratch.cache_copy(&mut self.cache_x, x_self);
        self.cache_mean = Some(mean);
        out
    }

    fn backward(
        &mut self,
        g: &Graph,
        grad_out: &Matrix,
        need_input_grad: bool,
        scratch: &mut ScratchArena,
    ) -> Option<Matrix> {
        let x = self.cache_x.as_ref().expect("forward before backward");
        let mean = self.cache_mean.as_ref().expect("forward before backward");
        let mut gw = scratch.take(self.lin_self.w.rows(), self.lin_self.w.cols());
        x.matmul_at_b_into(grad_out, &mut gw);
        self.lin_self.gw.add_assign(&gw);
        mean.matmul_at_b_into(grad_out, &mut gw);
        self.lin_neigh.gw.add_assign(&gw);
        scratch.recycle(gw);
        accumulate_bias_grad(&mut self.lin_self.gb, grad_out);
        if !need_input_grad {
            return None;
        }
        let out_rows = grad_out.rows();
        let mut d_self = scratch.take(out_rows, self.in_dim());
        grad_out.matmul_a_bt_into(&self.lin_self.w, &mut d_self);
        let mut d_mean = scratch.take(out_rows, self.in_dim());
        grad_out.matmul_a_bt_into(&self.lin_neigh.w, &mut d_mean);
        let mut grad_x = scratch.take(g.num_nodes(), self.in_dim());
        mean_aggregate_backward_into(g, &d_mean, &mut grad_x);
        scratch.recycle(d_mean);
        // grad_x = [d_self; 0] + bwd. Below `out_rows` that is the
        // same (commutative) sum; above, the full-height pass computed
        // `+0.0 + bwd`, which is `bwd` bit for bit because a gather
        // accumulator that starts at `+0.0` never holds `-0.0`.
        for (o, &s) in grad_x.as_mut_slice().iter_mut().zip(d_self.as_slice()) {
            *o += s;
        }
        scratch.recycle(d_self);
        Some(grad_x)
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        f(ParamRef::Linear(&mut self.lin_self));
        f(ParamRef::Linear(&mut self.lin_neigh));
    }

    fn param_count(&self) -> usize {
        self.lin_self.count() + self.lin_neigh.count()
    }

    fn zero_grad(&mut self) {
        self.lin_self.zero_grad();
        self.lin_neigh.zero_grad();
    }
}

const LEAKY_SLOPE: f32 = 0.2;

/// Single-head GAT layer with additive attention:
///
/// `e_uv = LeakyReLU(a_l · (W x_u) + a_r · (W x_v))`,
/// `α_·v = softmax_u(e_uv)` over `u ∈ N(v) ∪ {v}`,
/// `out[v] = Σ_u α_uv (W x_u) + b`.
#[derive(Debug)]
pub struct GatLayer {
    lin: LinearParam,
    att_l: VecParam,
    att_r: VecParam,
    cache: Option<GatCache>,
}

#[derive(Debug)]
struct GatCache {
    x: Matrix,
    /// `W x_u` for every node: full height whatever `out_rows` is,
    /// because any node can be a *source* of a produced row.
    z: Matrix,
    /// Flattened attention weights: for destination `v < out_rows`,
    /// entries `alpha_off[v]..alpha_off[v+1]` cover `N(v)` then the
    /// self term.
    alpha: Vec<f32>,
    /// Pre-activation LeakyReLU inputs aligned with `alpha`.
    pre: Vec<f32>,
    /// `out_rows + 1` span boundaries.
    alpha_off: Vec<usize>,
}

impl GatLayer {
    /// Creates a GAT layer with Glorot weights and uniform attention
    /// vectors.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        GatLayer {
            lin: LinearParam::new(in_dim, out_dim, seed),
            att_l: VecParam::new(out_dim, seed.wrapping_add(2)),
            att_r: VecParam::new(out_dim, seed.wrapping_add(3)),
            cache: None,
        }
    }
}

fn leaky(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        LEAKY_SLOPE * x
    }
}

fn leaky_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        LEAKY_SLOPE
    }
}

/// Numerically stable softmax over one attention neighborhood:
/// `alpha[i] = exp(leaky(pre[i]) - max) / Σ exp(leaky(pre[j]) - max)`.
///
/// Subtracting the span maximum keeps every exponent `<= 0`, so large
/// logits can never overflow to `inf` and poison the normalization
/// with `inf / inf = NaN`. When the maximum activation is exactly
/// `0.0` the subtraction is bitwise invisible (`x - 0.0 == x` for
/// finite `x`), which is what lets the stability test pin the stable
/// path against the naive one bit for bit.
///
/// # Panics
///
/// Panics if `pre` and `alpha` differ in length (callers pass spans
/// carved from the same `alpha_off` table). Spans are never empty:
/// every neighborhood contains at least the self term.
fn neighborhood_softmax(pre: &[f32], alpha: &mut [f32]) {
    assert_eq!(pre.len(), alpha.len(), "attention span length mismatch");
    let mut max = f32::NEG_INFINITY;
    for &p in pre {
        max = max.max(leaky(p));
    }
    let mut sum = 0.0f32;
    for (a, &p) in alpha.iter_mut().zip(pre) {
        let e = (leaky(p) - max).exp();
        *a = e;
        sum += e;
    }
    for a in alpha.iter_mut() {
        *a /= sum;
    }
}

/// The textbook softmax without max-subtraction — overflows for large
/// logits. Kept only as the reference the stability test compares
/// against.
#[cfg(test)]
fn neighborhood_softmax_naive(pre: &[f32], alpha: &mut [f32]) {
    let mut sum = 0.0f32;
    for (a, &p) in alpha.iter_mut().zip(pre) {
        let e = leaky(p).exp();
        *a = e;
        sum += e;
    }
    for a in alpha.iter_mut() {
        *a /= sum;
    }
}

impl Layer for GatLayer {
    fn in_dim(&self) -> usize {
        self.lin.w.rows()
    }

    fn out_dim(&self) -> usize {
        self.lin.w.cols()
    }

    fn forward(
        &mut self,
        g: &Graph,
        x: MatrixView<'_>,
        out_rows: usize,
        scratch: &mut ScratchArena,
    ) -> Matrix {
        let n = g.num_nodes();
        let d = self.out_dim();
        assert_eq!(x.rows(), n, "one feature row per node");
        assert!(out_rows <= n, "at most one output row per node");
        // Reuse the previous cache's storage wholesale.
        let (mut z, mut alpha, mut pre, mut alpha_off, mut cached_x) = match self.cache.take() {
            Some(GatCache { x, z, alpha, pre, alpha_off }) => {
                (scratch.reshape_zeroed(z, n, d), alpha, pre, alpha_off, Some(x))
            }
            None => (scratch.take(n, d), Vec::new(), Vec::new(), Vec::new(), None),
        };
        x.matmul_into(&self.lin.w, &mut z);
        // Source scores for every node; destination scores, like every
        // destination-side pass below, only for the produced rows.
        let mut s_l = scratch.take_raw(n);
        let mut s_r = scratch.take_raw(out_rows);
        {
            let att_l = &self.att_l.v;
            let att_r = &self.att_r.v;
            let z = &z;
            let grain = agg_nodes_per_chunk(g, d);
            gnnav_par::par_chunks(&mut s_l, 1, grain, |v, slot| {
                slot[0] = dot_lanes(z.row(v), att_l);
            });
            gnnav_par::par_chunks(&mut s_r, 1, grain, |v, slot| {
                slot[0] = dot_lanes(z.row(v), att_r);
            });
        }

        alpha_off.clear();
        alpha_off.reserve(out_rows + 1);
        alpha_off.push(0usize);
        pre.clear();
        pre.reserve(g.offsets()[out_rows] + out_rows);
        for v in 0..out_rows as u32 {
            for &u in g.neighbors(v) {
                pre.push(leakish_input(s_l[u as usize], s_r[v as usize]));
            }
            pre.push(leakish_input(s_l[v as usize], s_r[v as usize])); // self
            alpha_off.push(pre.len());
        }
        alpha.clear();
        alpha.resize(pre.len(), 0.0);

        // Pass 1: per-neighborhood stable softmax over disjoint alpha
        // spans, carved along the schedule's group boundaries. Span
        // lengths per group sum to exactly the group's work (deg + 1
        // per node).
        {
            let pre = &pre;
            let alpha_off = &alpha_off;
            let (len, groups) = fwd_groups(g, out_rows);
            let alpha_out = alpha.as_mut_slice();
            gnnav_par::par_for_weighted_tasks(
                len,
                |emit| {
                    let mut rest = alpha_out;
                    for grp in groups {
                        let (v0, v1) = (grp.start as usize, grp.end as usize);
                        let (win, tail) = rest.split_at_mut(alpha_off[v1] - alpha_off[v0]);
                        rest = tail;
                        emit(grp.work, (v0, v1, win));
                    }
                },
                AGG_GRAIN_SPAN,
                |(v0, v1, alpha_run)| {
                    let mut cursor = 0usize;
                    for v in v0..v1 {
                        let (start, end) = (alpha_off[v], alpha_off[v + 1]);
                        let count = end - start;
                        neighborhood_softmax(
                            &pre[start..end],
                            &mut alpha_run[cursor..cursor + count],
                        );
                        cursor += count;
                    }
                },
            );
        }

        // Pass 2: out[v] = Σ α z[u] + bias over neighbors then self,
        // schedule-grouped with column tiling for hub rows (alpha is
        // read-only here, so tiles of one row can run concurrently).
        let mut out = scratch.take(out_rows, d);
        if d > 0 {
            let bias = &self.lin.b;
            let z = &z;
            let alpha = &alpha;
            let alpha_off = &alpha_off;
            let (len, groups) = fwd_groups(g, out_rows);
            let out = out.as_mut_slice();
            gnnav_par::par_for_weighted_tasks(
                len,
                |emit| schedule_tasks(groups, d, out, emit),
                AGG_GRAIN_WORK,
                |task| {
                    dispatch(
                        #[inline(always)]
                        || {
                            for (lv, out_row) in task.dst.chunks_mut(task.j1 - task.j0).enumerate()
                            {
                                let v = task.v0 + lv;
                                // Neighbors ascending, then the self term.
                                let span = &alpha[alpha_off[v]..alpha_off[v + 1]];
                                let neigh = g.neighbors(v as u32);
                                gather_row(out_row, task.j0, span.len(), |t| {
                                    let u = neigh.get(t).map_or(v, |&u| u as usize);
                                    (span[t], z.row(u))
                                });
                                for (o, &b) in out_row.iter_mut().zip(&bias[task.j0..task.j1]) {
                                    *o += b;
                                }
                            }
                        },
                    )
                },
            );
        }
        scratch.recycle_raw(s_l);
        scratch.recycle_raw(s_r);
        scratch.cache_copy(&mut cached_x, x);
        self.cache =
            Some(GatCache { x: cached_x.expect("cache_copy fills"), z, alpha, pre, alpha_off });
        out
    }

    fn backward(
        &mut self,
        g: &Graph,
        grad_out: &Matrix,
        need_input_grad: bool,
        scratch: &mut ScratchArena,
    ) -> Option<Matrix> {
        let cache = self.cache.as_ref().expect("forward before backward");
        let n = g.num_nodes();
        let d = self.out_dim();
        let GatCache { x, z, alpha, pre, alpha_off } = cache;
        let out_rows = alpha_off.len() - 1;
        assert_eq!(grad_out.rows(), out_rows, "one gradient row per produced row");

        // `dz` and `ds_l` are per *source* and stay full height. `ds_r`
        // is per destination: only `0..out_rows` is written, and the
        // zero-filled tail is exactly what the full-height pass
        // computed there from an all-zero `grad_out` row.
        let mut dz = scratch.take(n, d);
        let mut ds_l = scratch.take_raw(n);
        let mut ds_r = scratch.take_raw(n);
        let mut dpre = scratch.take_raw(alpha.len());

        accumulate_bias_grad(&mut self.lin.gb, grad_out);

        // Softmax backward, parallel over destination neighborhoods:
        // d_alpha -> de -> dpre (disjoint spans of `dpre`), plus the
        // per-destination score gradient ds_r[v]. Carved along the
        // forward schedule's group boundaries.
        {
            let (len, groups) = fwd_groups(g, out_rows);
            let dpre_out = dpre.as_mut_slice();
            let dsr_out = &mut ds_r[..out_rows];
            gnnav_par::par_for_weighted_tasks(
                len,
                |emit| {
                    split_two_by_groups(groups, dpre_out, |i| alpha_off[i], dsr_out, |i| i, emit)
                },
                AGG_GRAIN_SPAN,
                |(v0, _v1, dpre_run, dsr_run)| {
                    let mut cursor = 0usize;
                    for (lv, dsr) in dsr_run.iter_mut().enumerate() {
                        let v = v0 + lv;
                        let (start, end) = (alpha_off[v], alpha_off[v + 1]);
                        let count = end - start;
                        let go = grad_out.row(v);
                        let dslice = &mut dpre_run[cursor..cursor + count];
                        cursor += count;
                        for (i, &u) in g.neighbors(v as u32).iter().enumerate() {
                            dslice[i] = dot_lanes(go, z.row(u as usize));
                        }
                        dslice[count - 1] = dot_lanes(go, z.row(v));
                        let sdot: f32 = (0..count).map(|i| alpha[start + i] * dslice[i]).sum();
                        let mut acc = 0.0f32;
                        for (i, dp) in dslice.iter_mut().enumerate() {
                            let de = alpha[start + i] * (*dp - sdot);
                            let dpv = de * leaky_grad(pre[start + i]);
                            *dp = dpv;
                            acc += dpv;
                        }
                        *dsr = acc;
                    }
                },
            );
        }

        // dz and ds_l, parallel over sources `u` along the *backward*
        // (in-degree) schedule groups: the serial kernel scattered
        // `α·go_v` and `dpre` from each destination v; gathering over
        // the transpose's ascending in-sources (with the self term
        // merged at v == u) reproduces the exact per-element add
        // order. No column tiling here — ds_l[u] is a full-row
        // reduction, so a row must stay within one task.
        //
        // Only destinations `v < out_rows` exist. The others' terms
        // were `α·(+0.0)` into `dz` and `+0.0` into `ds_l` — both into
        // accumulators that start at `+0.0` — so each source gathers
        // the prefix of its sorted in-sources below `out_rows`, and its
        // self term only if it is itself a produced row (module docs).
        {
            let t = g.transpose_csr();
            let (len, groups) = bwd_groups(g);
            let dz_out = dz.as_mut_slice();
            let dsl_out = ds_l.as_mut_slice();
            gnnav_par::par_for_weighted_tasks(
                len,
                |emit| split_two_by_groups(groups, dz_out, |i| i * d, dsl_out, |i| i, emit),
                AGG_GRAIN_SPAN,
                |(u0, _u1, dz_run, dsl_run)| {
                    dispatch(
                        #[inline(always)]
                        || {
                            for (lu, dsl) in dsl_run.iter_mut().enumerate() {
                                let u = u0 + lu;
                                let sources = ids_below(t.in_sources(u as u32), out_rows);
                                let edges = &t.in_forward_edges(u as u32)[..sources.len()];
                                // The serial scatter touched u once per
                                // destination block, v ascending, with u's own
                                // self term at v == u *after* any in-edge from
                                // v == u. Alpha index of forward edge e from
                                // source v: alpha_off[v] + (e - offsets[v]) ==
                                // e + v.
                                let cut = sources.partition_point(|&v| v <= u as u32);
                                let own = usize::from(u < out_rows);
                                // `(alpha index, destination)` of term `t`.
                                let term = |t: usize| {
                                    if t == cut && own == 1 {
                                        return (alpha_off[u + 1] - 1, u);
                                    }
                                    let i = if t > cut { t - own } else { t };
                                    let v = sources[i] as usize;
                                    (edges[i] + v, v)
                                };
                                let terms = own + sources.len();
                                gather_row(&mut dz_run[lu * d..(lu + 1) * d], 0, terms, |t| {
                                    let (ai, v) = term(t);
                                    (alpha[ai], grad_out.row(v))
                                });
                                *dsl = (0..terms).fold(0.0, |acc, t| acc + dpre[term(t).0]);
                            }
                        },
                    )
                },
            );
        }

        // s_l[u] = z[u]·a_l and s_r[u] = z[u]·a_r. The attention
        // parameter gradients are ordered reductions over u — serial.
        for u in 0..n {
            let zu = z.row(u);
            for ((ga, &zz), (gb, _)) in
                self.att_l.g.iter_mut().zip(zu).zip(self.att_r.g.iter_mut().zip(zu))
            {
                *ga += ds_l[u] * zz;
                *gb += ds_r[u] * zz;
            }
            let dzu = dz.row_mut(u);
            for ((o, &al), &ar) in dzu.iter_mut().zip(&self.att_l.v).zip(&self.att_r.v) {
                *o += ds_l[u] * al + ds_r[u] * ar;
            }
        }

        let mut gw = scratch.take(self.lin.w.rows(), self.lin.w.cols());
        x.matmul_at_b_into(&dz, &mut gw);
        self.lin.gw.add_assign(&gw);
        scratch.recycle(gw);
        let gx = need_input_grad.then(|| {
            let mut gx = scratch.take(n, self.in_dim());
            dz.matmul_a_bt_into(&self.lin.w, &mut gx);
            gx
        });
        scratch.recycle(dz);
        scratch.recycle_raw(ds_l);
        scratch.recycle_raw(ds_r);
        scratch.recycle_raw(dpre);
        gx
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        f(ParamRef::Linear(&mut self.lin));
        f(ParamRef::Vector(&mut self.att_l));
        f(ParamRef::Vector(&mut self.att_r));
    }

    fn param_count(&self) -> usize {
        self.lin.count() + self.att_l.v.len() + self.att_r.v.len()
    }

    fn zero_grad(&mut self) {
        self.lin.zero_grad();
        self.att_l.zero_grad();
        self.att_r.zero_grad();
    }
}

/// The raw (pre-LeakyReLU) attention logit for source score `sl` and
/// destination score `sr`. Kept as a function so forward and backward
/// agree on the definition.
#[inline]
fn leakish_input(sl: f32, sr: f32) -> f32 {
    sl + sr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::{assert_bits_eq, awkward_values};
    use gnnav_graph::GraphBuilder;

    fn tiny_graph() -> Graph {
        // 4 nodes: triangle 0-1-2 plus edge 2-3, undirected.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2).add_edge(2, 3);
        b.symmetrize().build().expect("build")
    }

    fn tiny_x(seed: u64) -> Matrix {
        glorot_uniform(4, 3, seed)
    }

    use crate::init::glorot_uniform;

    #[test]
    fn gcn_aggregate_row_is_weighted_sum() {
        let g = tiny_graph();
        let x = Matrix::eye(4);
        let ax = gcn_aggregate(&g, &x);
        // Row 3: self (deg 1): 1/2; neighbor 2 (deg 3): 1/(sqrt(2)*sqrt(4)).
        assert!((ax.get(3, 3) - 0.5).abs() < 1e-6);
        assert!((ax.get(3, 2) - 1.0 / (2.0f32.sqrt() * 2.0)).abs() < 1e-6);
        assert_eq!(ax.get(3, 0), 0.0);
    }

    #[test]
    fn mean_aggregate_averages_neighbors() {
        let g = tiny_graph();
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let m = mean_aggregate(&g, &x);
        // Node 0 neighbors {1, 2}: mean 2.5.
        assert!((m.get(0, 0) - 2.5).abs() < 1e-6);
        // Node 3 neighbors {2}: 3.0.
        assert!((m.get(3, 0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn mean_backward_is_transpose() {
        // <Agg x, y> == <x, AggT y> for random x, y.
        let g = tiny_graph();
        let x = glorot_uniform(4, 3, 1);
        let y = glorot_uniform(4, 3, 2);
        let fwd = mean_aggregate(&g, &x);
        let bwd = mean_aggregate_backward(&g, &y);
        let ip = |a: &Matrix, b: &Matrix| -> f32 {
            a.as_slice().iter().zip(b.as_slice()).map(|(p, q)| p * q).sum()
        };
        assert!((ip(&fwd, &y) - ip(&x, &bwd)).abs() < 1e-4);
    }

    #[test]
    fn gcn_aggregate_is_self_adjoint() {
        let g = tiny_graph();
        let x = glorot_uniform(4, 2, 3);
        let y = glorot_uniform(4, 2, 4);
        let ip = |a: &Matrix, b: &Matrix| -> f32 {
            a.as_slice().iter().zip(b.as_slice()).map(|(p, q)| p * q).sum()
        };
        assert!((ip(&gcn_aggregate(&g, &x), &y) - ip(&x, &gcn_aggregate(&g, &y))).abs() < 1e-4);
    }

    /// Finite-difference gradient check for a layer: perturb inputs and
    /// weights, compare with analytic gradients under loss
    /// `L = Σ out ⊙ R` for a fixed random `R`.
    fn grad_check<L: Layer>(mut layer: L, tol: f32) {
        let g = tiny_graph();
        let x = tiny_x(7);
        let r = glorot_uniform(4, layer.out_dim(), 8);
        let mut scratch = ScratchArena::new();

        let out = layer.forward(&g, x.view(), g.num_nodes(), &mut scratch);
        let _loss0: f32 = out.as_slice().iter().zip(r.as_slice()).map(|(a, b)| a * b).sum();
        layer.zero_grad();
        let grad_x = layer.backward(&g, &r, true, &mut scratch).expect("input gradient");

        let eps = 1e-2f32;
        // Check d L / d x at a few positions.
        for &(rr, cc) in &[(0usize, 0usize), (2, 1), (3, 2)] {
            let mut xp = x.clone();
            xp.set(rr, cc, xp.get(rr, cc) + eps);
            let op = layer.forward(&g, xp.view(), g.num_nodes(), &mut scratch);
            let lp: f32 = op.as_slice().iter().zip(r.as_slice()).map(|(a, b)| a * b).sum();
            let mut xm = x.clone();
            xm.set(rr, cc, xm.get(rr, cc) - eps);
            let om = layer.forward(&g, xm.view(), g.num_nodes(), &mut scratch);
            let lm: f32 = om.as_slice().iter().zip(r.as_slice()).map(|(a, b)| a * b).sum();
            let fd = (lp - lm) / (2.0 * eps);
            let an = grad_x.get(rr, cc);
            assert!(
                (fd - an).abs() < tol * (1.0 + fd.abs().max(an.abs())),
                "input grad mismatch at ({rr},{cc}): fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn gcn_gradient_check() {
        grad_check(GcnLayer::new(3, 2, 11), 2e-2);
    }

    #[test]
    fn sage_gradient_check() {
        grad_check(SageLayer::new(3, 2, 12), 2e-2);
    }

    #[test]
    fn gat_gradient_check() {
        grad_check(GatLayer::new(3, 2, 13), 5e-2);
    }

    #[test]
    fn gat_weight_gradient_check() {
        // Finite-difference check on one weight entry of the GAT layer
        // (the trickiest gradient path: attention + combine).
        let g = tiny_graph();
        let x = tiny_x(20);
        let r = glorot_uniform(4, 2, 21);
        let mut layer = GatLayer::new(3, 2, 22);
        let mut scratch = ScratchArena::new();
        layer.forward(&g, x.view(), g.num_nodes(), &mut scratch);
        layer.zero_grad();
        layer.backward(&g, &r, true, &mut scratch);
        let analytic = layer.lin.gw.get(1, 0);

        let eps = 1e-2f32;
        let orig = layer.lin.w.get(1, 0);
        layer.lin.w.set(1, 0, orig + eps);
        let lp: f32 = layer
            .forward(&g, x.view(), g.num_nodes(), &mut scratch)
            .as_slice()
            .iter()
            .zip(r.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        layer.lin.w.set(1, 0, orig - eps);
        let lm: f32 = layer
            .forward(&g, x.view(), g.num_nodes(), &mut scratch)
            .as_slice()
            .iter()
            .zip(r.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let fd = (lp - lm) / (2.0 * eps);
        assert!((fd - analytic).abs() < 5e-2 * (1.0 + fd.abs()), "fd {fd} vs analytic {analytic}");
    }

    /// Every parameter-gradient scalar of `layer`, in `for_each_param`
    /// order.
    fn flat_grads(layer: &mut dyn Layer) -> Vec<f32> {
        let mut flat = Vec::new();
        layer.for_each_param(&mut |p| match p {
            ParamRef::Linear(lin) => {
                flat.extend_from_slice(lin.gw.as_slice());
                flat.extend_from_slice(&lin.gb);
            }
            ParamRef::Vector(v) => flat.extend_from_slice(&v.g),
        });
        flat
    }

    #[test]
    fn declining_the_input_gradient_leaves_parameter_gradients_identical() {
        // The finite-difference checks above run on the `Some` branch;
        // the `None` branch must skip the input gradient and nothing
        // else — same parameter gradients, bit for bit — at full
        // height and on a row prefix.
        let g = tiny_graph();
        let x = tiny_x(50);
        for out_rows in [4usize, 2] {
            let r = glorot_uniform(out_rows, 2, 51);
            for kind in ["gcn", "sage", "gat"] {
                let run = |need_input_grad: bool| {
                    let mut layer: Box<dyn Layer> = match kind {
                        "gcn" => Box::new(GcnLayer::new(3, 2, 52)),
                        "sage" => Box::new(SageLayer::new(3, 2, 53)),
                        _ => Box::new(GatLayer::new(3, 2, 54)),
                    };
                    let mut scratch = ScratchArena::new();
                    let out = layer.forward(&g, x.view(), out_rows, &mut scratch);
                    assert_eq!((out.rows(), out.cols()), (out_rows, 2), "{kind}");
                    layer.zero_grad();
                    let gx = layer.backward(&g, &r, need_input_grad, &mut scratch);
                    (gx, flat_grads(layer.as_mut()))
                };
                let (wanted, with_gx) = run(true);
                let (declined, without_gx) = run(false);
                let gx = wanted.expect("input gradient requested");
                assert_eq!((gx.rows(), gx.cols()), (4, 3), "{kind}: full-height input gradient");
                assert!(declined.is_none(), "{kind}: a declined gradient is not computed");
                assert!(with_gx.iter().any(|&v| v != 0.0), "{kind}: gradients are live");
                for (i, (a, b)) in with_gx.iter().zip(&without_gx).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{kind} rows={out_rows}: grad {i}");
                }
            }
        }
    }

    #[test]
    fn layer_dims_reported() {
        let l = SageLayer::new(5, 7, 1);
        assert_eq!(l.in_dim(), 5);
        assert_eq!(l.out_dim(), 7);
        assert_eq!(l.param_count(), 5 * 7 + 7 + 5 * 7);
    }

    #[test]
    #[should_panic(expected = "forward before backward")]
    fn backward_requires_forward() {
        let g = tiny_graph();
        let mut l = GcnLayer::new(3, 2, 1);
        let _ = l
            .backward(&g, &Matrix::zeros(4, 2), true, &mut ScratchArena::new())
            .expect("input gradient");
    }

    #[test]
    fn gat_attention_sums_to_one() {
        let g = tiny_graph();
        let x = tiny_x(30);
        let mut l = GatLayer::new(3, 2, 31);
        l.forward(&g, x.view(), g.num_nodes(), &mut ScratchArena::new());
        let cache = l.cache.as_ref().expect("cached");
        for v in 0..4 {
            let (s, e) = (cache.alpha_off[v], cache.alpha_off[v + 1]);
            let sum: f32 = cache.alpha[s..e].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "node {v} alpha sum {sum}");
        }
    }

    /// Graph with a connected core (0-1-2 triangle) and three isolated
    /// nodes (3, 4, 5) — empty neighbor lists in both directions.
    fn isolated_graph() -> Graph {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
        b.symmetrize().build().expect("build")
    }

    #[test]
    fn isolated_nodes_stay_finite_in_every_kernel() {
        let g = isolated_graph();
        let x = glorot_uniform(6, 5, 70);

        // Free aggregation kernels: no NaN/inf anywhere, and the
        // isolated rows take their defined values (self-loop only for
        // GCN — coefficient 1/sqrt(0+1)^2 == 1 — and exactly zero for
        // the mean and its transpose).
        let ax = gcn_aggregate(&g, &x);
        let m = mean_aggregate(&g, &x);
        let mb = mean_aggregate_backward(&g, &x);
        for (label, out) in [("gcn", &ax), ("mean", &m), ("mean_bwd", &mb)] {
            assert!(out.as_slice().iter().all(|v| v.is_finite()), "{label} produced non-finite");
        }
        for v in 3..6 {
            for c in 0..5 {
                assert_eq!(ax.get(v, c).to_bits(), x.get(v, c).to_bits(), "gcn isolated row");
                assert_eq!(m.get(v, c), 0.0, "mean isolated row");
                assert_eq!(mb.get(v, c), 0.0, "mean_bwd isolated row");
            }
        }

        // Every layer's forward AND backward must survive empty
        // neighbor lists without NaN/inf (the GAT neighborhood still
        // contains the self term, so its softmax span is never empty).
        let r = glorot_uniform(6, 2, 71);
        let mut scratch = ScratchArena::new();
        for kind in ["gcn", "sage", "gat"] {
            let mut layer: Box<dyn Layer> = match kind {
                "gcn" => Box::new(GcnLayer::new(5, 2, 72)),
                "sage" => Box::new(SageLayer::new(5, 2, 73)),
                _ => Box::new(GatLayer::new(5, 2, 74)),
            };
            let out = layer.forward(&g, x.view(), g.num_nodes(), &mut scratch);
            assert!(
                out.as_slice().iter().all(|v| v.is_finite()),
                "{kind} forward produced non-finite with isolated nodes"
            );
            layer.zero_grad();
            let gx = layer.backward(&g, &r, true, &mut scratch).expect("input gradient");
            assert!(
                gx.as_slice().iter().all(|v| v.is_finite()),
                "{kind} backward produced non-finite with isolated nodes"
            );
        }
    }

    /// A directed graph with every row shape the gathers meet: two
    /// hubs whose out- and in-lists are long enough to be scheduled as
    /// heavy (column-tiled at wide `d`), a kept self-loop, short
    /// lists, and ten nodes with no edge in either direction.
    fn skewed_graph() -> Graph {
        let n = 120u32;
        let mut b = GraphBuilder::new(n as usize);
        b.keep_self_loops();
        for u in 1..100 {
            b.add_edge(0, u).add_edge(u, 0);
            if u % 3 != 0 {
                b.add_edge(5, u).add_edge(u, 5);
            }
            b.add_edge(u, (u * 7 + 3) % 110).add_edge(u, (u * u + 1) % 110);
        }
        b.add_edge(100, 1).add_edge(100, 2).add_edge(9, 9);
        b.build().expect("build")
    }

    /// [`awkward_values`] with row 2 the negation of row 1: node 100
    /// of [`skewed_graph`] gathers exactly those two, so its sums end
    /// on an exact `+0.0`.
    fn awkward_features(rows: usize, d: usize, salt: usize) -> Matrix {
        let mut x = awkward_values(rows, d, salt);
        if rows > 2 {
            for c in 0..d {
                x.set(2, c, -x.get(1, c));
            }
        }
        x
    }

    /// Runs `task_body` — a kernel body *called directly*, so the
    /// portable build whatever the CPU — serially over the scheduled
    /// tasks of an `out.rows() x d` output.
    fn portable(
        groups: (usize, impl Iterator<Item = AggGroup>),
        out: &mut Matrix,
        task_body: impl Fn(AggTask<'_>),
    ) {
        let d = out.cols();
        schedule_tasks(groups.1, d, out.as_mut_slice(), &mut |_, task| task_body(task));
    }

    #[test]
    fn aggregations_match_serial_gather_bitwise_across_widths() {
        // Three ways each — a naive serial gather, the portable tile
        // body, the dispatched entry point — over widths below LANE
        // (no tile fits), at every tile width and one off either side
        // (slid tail tile), and wide enough to column-tile the hubs;
        // at full height and on row prefixes of output and input.
        let g = skewed_graph();
        let n = g.num_nodes();
        let t = g.transpose_csr();
        let inv_sqrt = g.gcn_inv_sqrt();
        let sched = g.agg_schedule();
        assert!(sched.fwd.groups.iter().any(|grp| grp.heavy), "hubs schedule as heavy rows");
        assert!(sched.bwd.groups.iter().any(|grp| grp.heavy), "hubs schedule as heavy rows");
        let stale = |rows: usize, d: usize| Matrix::from_vec(rows, d, vec![f32::NAN; rows * d]);
        for &d in &[1usize, 7, 8, 15, 16, 17, 41, 47, 64, 129] {
            for &(out_rows, in_rows) in &[(n, n), (37, n), (1, n), (n, 37), (37, 5), (n, 0)] {
                let what = format!("d={d} out_rows={out_rows} in_rows={in_rows}");
                let x = awkward_features(n, d, d + out_rows);
                let short = MatrixView::new(in_rows, d, &x.as_slice()[..in_rows * d]);

                let mut naive = Matrix::zeros(out_rows, d);
                for v in 0..out_rows {
                    let sources =
                        std::iter::once(v).chain(g.neighbors(v as u32).iter().map(|&u| u as usize));
                    for u in sources.filter(|&u| u < in_rows) {
                        let c = inv_sqrt[v] * inv_sqrt[u];
                        for j in 0..d {
                            naive.set(v, j, naive.get(v, j) + c * x.get(u, j));
                        }
                    }
                }
                let mut direct = stale(out_rows, d);
                portable(fwd_groups(&g, out_rows), &mut direct, |task| gcn_task(&g, short, task));
                assert_bits_eq(&direct, &naive, &format!("gcn portable {what}"));
                let mut dispatched = stale(out_rows, d);
                gcn_aggregate_into(&g, short, &mut dispatched);
                assert_bits_eq(&dispatched, &naive, &format!("gcn dispatched {what}"));

                if in_rows == n {
                    let mut naive = Matrix::zeros(out_rows, d);
                    for v in 0..out_rows {
                        let neigh = g.neighbors(v as u32);
                        for &u in neigh {
                            for j in 0..d {
                                naive.set(v, j, naive.get(v, j) + x.get(u as usize, j));
                            }
                        }
                        for j in 0..d.min(neigh.len() * d) {
                            naive.set(v, j, naive.get(v, j) * (1.0 / neigh.len() as f32));
                        }
                    }
                    let mut direct = stale(out_rows, d);
                    portable(fwd_groups(&g, out_rows), &mut direct, |task| {
                        mean_task(&g, x.view(), task)
                    });
                    assert_bits_eq(&direct, &naive, &format!("mean portable {what}"));
                    let mut dispatched = stale(out_rows, d);
                    mean_aggregate_into(&g, x.view(), &mut dispatched);
                    assert_bits_eq(&dispatched, &naive, &format!("mean dispatched {what}"));
                }

                if out_rows == n {
                    let grad = Matrix::from_vec(in_rows, d, short.as_slice().to_vec());
                    let mut naive = Matrix::zeros(n, d);
                    for u in 0..n {
                        for &v in t.in_sources(u as u32).iter().filter(|&&v| (v as usize) < in_rows)
                        {
                            let c = 1.0 / g.degree(v) as f32;
                            for j in 0..d {
                                naive.set(u, j, naive.get(u, j) + c * grad.get(v as usize, j));
                            }
                        }
                    }
                    let mut direct = stale(n, d);
                    portable(bwd_groups(&g), &mut direct, |task| {
                        mean_backward_task(&g, grad.view(), task)
                    });
                    assert_bits_eq(&direct, &naive, &format!("mean_bwd portable {what}"));
                    let mut dispatched = stale(n, d);
                    mean_aggregate_backward_into(&g, &grad, &mut dispatched);
                    assert_bits_eq(&dispatched, &naive, &format!("mean_bwd dispatched {what}"));
                }
            }
        }
        // The cancellation really happens: node 100's mean is rows 1
        // and 2, `x + (-x)`.
        let x = awkward_features(n, 9, 0);
        assert_eq!(g.neighbors(100), &[1, 2]);
        for v in mean_aggregate(&g, &x).row(100) {
            assert_eq!(v.to_bits(), 0.0f32.to_bits());
        }
    }

    #[test]
    fn fully_isolated_graph_kernels_are_finite() {
        // No edges at all: every degree is zero, the transpose is
        // empty, and the cached inverse-sqrt norms must still be
        // finite (degree + 1 self-loop convention).
        let g = GraphBuilder::new(4).build().expect("build");
        assert!(g.gcn_inv_sqrt().iter().all(|v| v.is_finite()));
        let x = glorot_uniform(4, 3, 75);
        let r = glorot_uniform(4, 2, 76);
        let mut scratch = ScratchArena::new();
        for kind in ["gcn", "sage", "gat"] {
            let mut layer: Box<dyn Layer> = match kind {
                "gcn" => Box::new(GcnLayer::new(3, 2, 77)),
                "sage" => Box::new(SageLayer::new(3, 2, 78)),
                _ => Box::new(GatLayer::new(3, 2, 79)),
            };
            let out = layer.forward(&g, x.view(), g.num_nodes(), &mut scratch);
            layer.zero_grad();
            let gx = layer.backward(&g, &r, true, &mut scratch).expect("input gradient");
            assert!(out.as_slice().iter().all(|v| v.is_finite()), "{kind} forward");
            assert!(gx.as_slice().iter().all(|v| v.is_finite()), "{kind} backward");
        }
    }

    #[test]
    fn empty_graph_does_not_panic() {
        let g = GraphBuilder::new(0).build().expect("build");
        let x = Matrix::zeros(0, 3);
        let r = Matrix::zeros(0, 2);
        let mut scratch = ScratchArena::new();
        assert_eq!(gcn_aggregate(&g, &x).rows(), 0);
        assert_eq!(mean_aggregate(&g, &x).rows(), 0);
        assert_eq!(mean_aggregate_backward(&g, &x).rows(), 0);
        for kind in ["gcn", "sage", "gat"] {
            let mut layer: Box<dyn Layer> = match kind {
                "gcn" => Box::new(GcnLayer::new(3, 2, 80)),
                "sage" => Box::new(SageLayer::new(3, 2, 81)),
                _ => Box::new(GatLayer::new(3, 2, 82)),
            };
            let out = layer.forward(&g, x.view(), g.num_nodes(), &mut scratch);
            assert_eq!((out.rows(), out.cols()), (0, 2), "{kind} empty-graph forward shape");
            layer.zero_grad();
            let gx = layer.backward(&g, &r, true, &mut scratch).expect("input gradient");
            assert_eq!((gx.rows(), gx.cols()), (0, 3), "{kind} empty-graph backward shape");
        }
    }

    #[test]
    fn gat_zero_out_dim_does_not_panic() {
        // Regression: the single-pass forward carved `out` with
        // `chunks_mut(d)`, which panics on chunk size 0. The guarded
        // two-pass form must handle a zero-width head.
        let g = tiny_graph();
        let x = tiny_x(83);
        let mut layer = GatLayer::new(3, 0, 84);
        let mut scratch = ScratchArena::new();
        let out = layer.forward(&g, x.view(), g.num_nodes(), &mut scratch);
        assert_eq!((out.rows(), out.cols()), (4, 0));
        layer.zero_grad();
        let gx =
            layer.backward(&g, &Matrix::zeros(4, 0), true, &mut scratch).expect("input gradient");
        assert_eq!((gx.rows(), gx.cols()), (4, 3));
        assert!(gx.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn stable_softmax_matches_naive_bitwise_when_max_is_zero() {
        // When the largest activation is exactly 0.0 the stabilizing
        // subtraction is the identity (`x - 0.0 == x` bitwise for
        // finite x), so the stable path must reproduce the naive one
        // bit for bit. `leaky(0.0) == 0.0`, so a span containing one
        // zero logit and otherwise-negative logits pins this down.
        let pre = [0.0f32, -1.0, -2.5, -0.25, -7.0];
        let mut stable = [0.0f32; 5];
        let mut naive = [0.0f32; 5];
        neighborhood_softmax(&pre, &mut stable);
        neighborhood_softmax_naive(&pre, &mut naive);
        for (i, (s, n)) in stable.iter().zip(&naive).enumerate() {
            assert_eq!(s.to_bits(), n.to_bits(), "element {i}: {s:?} vs {n:?}");
        }
        let sum: f32 = stable.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn stable_softmax_survives_large_logits() {
        // exp(100) overflows f32 to inf, so the naive softmax turns
        // into inf/inf = NaN; max-subtraction keeps every exponent
        // <= 0 and the distribution finite.
        let pre = [100.0f32, 95.0, 40.0];
        let mut stable = [0.0f32; 3];
        let mut naive = [0.0f32; 3];
        neighborhood_softmax(&pre, &mut stable);
        neighborhood_softmax_naive(&pre, &mut naive);
        assert!(naive.iter().any(|v| v.is_nan()), "naive should overflow: {naive:?}");
        assert!(stable.iter().all(|v| v.is_finite()), "stable must stay finite: {stable:?}");
        let sum: f32 = stable.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(stable[0] > stable[1] && stable[1] > stable[2]);
    }

    #[test]
    fn repeated_forwards_stop_allocating() {
        // Steady-state zero allocation: after the first batch warms
        // the arena, identical batches must not touch the allocator.
        let g = tiny_graph();
        let x = tiny_x(33);
        let r = glorot_uniform(4, 2, 34);
        let mut scratch = ScratchArena::new();
        for kind in ["gcn", "sage", "gat"] {
            let mut layer: Box<dyn Layer> = match kind {
                "gcn" => Box::new(GcnLayer::new(3, 2, 40)),
                "sage" => Box::new(SageLayer::new(3, 2, 41)),
                _ => Box::new(GatLayer::new(3, 2, 42)),
            };
            for _ in 0..2 {
                let out = layer.forward(&g, x.view(), g.num_nodes(), &mut scratch);
                layer.zero_grad();
                let gx = layer.backward(&g, &r, true, &mut scratch).expect("input gradient");
                scratch.recycle(out);
                scratch.recycle(gx);
            }
            let warm = scratch.fresh_allocs();
            for _ in 0..3 {
                let out = layer.forward(&g, x.view(), g.num_nodes(), &mut scratch);
                layer.zero_grad();
                let gx = layer.backward(&g, &r, true, &mut scratch).expect("input gradient");
                scratch.recycle(out);
                scratch.recycle(gx);
            }
            assert_eq!(scratch.fresh_allocs(), warm, "{kind} allocated in steady state");
        }
    }
}
