//! Prediction context: everything the estimator may condition on.
//!
//! The paper's estimator predicts from (1) the candidate configuration
//! and (2) "pre-determined settings in runtime" — dataset statistics
//! and the hardware platform. [`Context`] bundles exactly that.

use crate::estimator::Components;
use crate::reuse::Reuse;
use gnnav_graph::Dataset;
use gnnav_hwsim::Platform;
use gnnav_runtime::{SamplerKind, TrainingConfig};
use std::sync::Arc;

/// One candidate to estimate: configuration ⊕ dataset stats ⊕
/// platform.
#[derive(Debug, Clone)]
pub struct Context {
    /// The candidate configuration.
    pub config: TrainingConfig,
    /// `|V|`.
    pub num_nodes: f64,
    /// `|E|` (directed).
    pub num_edges: f64,
    /// Mean degree of the graph.
    pub avg_degree: f64,
    /// Degree skew (`max/mean`) — power-law strength.
    pub skew: f64,
    /// Fraction of intra-community edges (label homophily).
    pub intra_fraction: f64,
    /// Feature dimensionality `n_attr`.
    pub feat_dim: f64,
    /// Number of label classes.
    pub num_classes: f64,
    /// Number of training target vertices.
    pub num_train: f64,
    /// The hardware platform, shared: every candidate of one
    /// exploration points at the same allocation.
    pub platform: Arc<Platform>,
}

impl Context {
    /// Builds the context for running `config` on `dataset` over
    /// `platform`.
    pub fn new(dataset: &Dataset, platform: &Platform, config: TrainingConfig) -> Self {
        PredictionContext::new(dataset, platform).context(config)
    }

    /// Iterations per epoch `n_iter = ⌈train / |B^0|⌉`.
    pub fn n_iter(&self) -> f64 {
        (self.num_train / self.config.batch_size as f64).ceil().max(1.0)
    }

    /// The analytic expansion skeleton `|B^0| · Π_l (1 + k^l)^τ` of
    /// Eq. 12 (τ = 1 for node-wise sampling; the other families use
    /// their own closed forms), before the learned overlap penalty.
    /// Deliberately *uncapped*: the batch-size model's saturating
    /// feature transform folds it through `|V|(1 − e^(−s/|V|))`, which
    /// needs the raw growth.
    pub fn batch_skeleton(&self) -> f64 {
        let b = self.config.batch_size as f64;
        match self.config.sampler {
            SamplerKind::NodeWise => {
                // Each hop fans out at most min(k, avg_degree).
                let mut total = b;
                let mut frontier = b;
                for &k in &self.config.fanouts {
                    frontier *= (k as f64).min(self.avg_degree);
                    total += frontier;
                }
                total
            }
            SamplerKind::LayerWise => {
                let budget: f64 =
                    self.config.fanouts.iter().map(|&k| self.config.layer_budget(k) as f64).sum();
                b + budget
            }
            SamplerKind::SubgraphWise | _ => b * (1.0 + self.config.walk_hops() as f64),
        }
    }

    /// Scalar parameter count `|Φ|` of the configured model on this
    /// dataset (closed form mirroring the NN substrate's layers).
    pub fn param_count(&self) -> f64 {
        use gnnav_nn::ModelKind;
        let d_in = self.feat_dim;
        let h = self.config.hidden_dim as f64;
        let d_out = self.num_classes;
        let layers = self.config.num_layers();
        let mut total = 0.0;
        for l in 0..layers {
            let li = if l == 0 { d_in } else { h };
            let lo = if l + 1 == layers { d_out } else { h };
            total += match self.config.model {
                ModelKind::Gcn => li * lo + lo,
                ModelKind::Sage => 2.0 * (li * lo) + lo,
                ModelKind::Gat => li * lo + lo + 2.0 * lo,
                _ => li * lo + lo,
            };
        }
        total
    }

    /// Bytes of one feature row at the configured precision.
    pub fn row_bytes(&self) -> f64 {
        self.feat_dim * self.config.precision.bytes() as f64
    }

    /// Analytic per-batch activation bytes for `vi` nodes (mirrors the
    /// NN substrate's `activation_bytes` plus the resident feature
    /// rows) — the `Γ_runtime` skeleton of Eq. 10.
    pub fn activation_proxy(&self, vi: f64) -> f64 {
        let h = self.config.hidden_dim as f64;
        let layers = self.config.num_layers();
        let mut scalars = 0.0;
        for l in 0..layers {
            let li = if l == 0 { self.feat_dim } else { h };
            let lo = if l + 1 == layers { self.num_classes } else { h };
            scalars += vi * (li + lo);
        }
        (scalars + vi * self.feat_dim) * self.config.precision.bytes() as f64
    }

    /// Analytic cache bytes `r · |V| · n_attr · bytes` — the `Γ_cache`
    /// skeleton of Eq. 10.
    pub fn cache_bytes_proxy(&self) -> f64 {
        (self.config.cache_ratio * self.num_nodes).round() * self.row_bytes()
    }

    /// Analytic FLOPs proxy for a batch of `vi` nodes (mirrors the NN
    /// substrate's `flops_per_batch` in closed form).
    pub fn flops_proxy(&self, vi: f64) -> f64 {
        use gnnav_nn::ModelKind;
        let e = vi * self.avg_degree;
        let h = self.config.hidden_dim as f64;
        let layers = self.config.num_layers();
        let mut fwd = 0.0;
        for l in 0..layers {
            let li = if l == 0 { self.feat_dim } else { h };
            let lo = if l + 1 == layers { self.num_classes } else { h };
            fwd += 2.0 * e * li + 2.0 * vi * li * lo;
            if self.config.model == ModelKind::Gat {
                fwd += 6.0 * e * lo;
            }
            if self.config.model == ModelKind::Sage {
                fwd += 2.0 * vi * li * lo;
            }
        }
        fwd * 3.0
    }
}

/// Reusable per-(dataset, platform) prediction inputs.
///
/// Reading the dataset's statistics and deep-copying the platform per
/// candidate adds up when an explorer queries hundreds of candidates
/// against one dataset. A `PredictionContext` hoists that work: build
/// it once, then [`context`](Self::context) assembles a candidate
/// [`Context`] in O(1) with the platform shared.
///
/// It also holds the reuse tables of
/// [`GrayBoxEstimator::predict_owned`](crate::GrayBoxEstimator::predict_owned)
/// (see [`crate::reuse`]): build one per exploration, and drop it when
/// the exploration ends.
#[derive(Debug, Clone)]
pub struct PredictionContext {
    num_nodes: f64,
    num_edges: f64,
    avg_degree: f64,
    skew: f64,
    intra_fraction: f64,
    feat_dim: f64,
    num_classes: f64,
    num_train: f64,
    platform: Arc<Platform>,
    pub(crate) reuse: Reuse<Components>,
}

impl PredictionContext {
    /// Precomputes the dataset statistics and platform once.
    pub fn new(dataset: &Dataset, platform: &Platform) -> Self {
        let stats = dataset.stats();
        PredictionContext {
            num_nodes: stats.num_nodes as f64,
            num_edges: stats.num_edges as f64,
            avg_degree: stats.degrees.mean,
            skew: stats.degrees.skew,
            intra_fraction: stats.intra_community_fraction.unwrap_or(0.0),
            feat_dim: dataset.feat_dim() as f64,
            num_classes: dataset.num_classes() as f64,
            num_train: dataset.split().train.len() as f64,
            platform: Arc::new(platform.clone()),
            reuse: Reuse::default(),
        }
    }

    /// Builds the [`Context`] for `config` without touching the
    /// dataset or copying the platform — O(1).
    pub fn context(&self, config: TrainingConfig) -> Context {
        Context {
            config,
            num_nodes: self.num_nodes,
            num_edges: self.num_edges,
            avg_degree: self.avg_degree,
            skew: self.skew,
            intra_fraction: self.intra_fraction,
            feat_dim: self.feat_dim,
            num_classes: self.num_classes,
            num_train: self.num_train,
            platform: Arc::clone(&self.platform),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnav_graph::DatasetId;
    use gnnav_nn::ModelKind;

    fn ctx() -> Context {
        let d = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        Context::new(&d, &Platform::default_rtx4090(), TrainingConfig::default())
    }

    #[test]
    fn n_iter_ceils() {
        let mut c = ctx();
        c.num_train = 100.0;
        c.config.batch_size = 64;
        assert_eq!(c.n_iter(), 2.0);
        c.config.batch_size = 1000;
        assert_eq!(c.n_iter(), 1.0);
    }

    #[test]
    fn skeleton_at_least_batch_size() {
        let c = ctx();
        assert!(c.batch_skeleton() >= c.config.batch_size as f64);
    }

    #[test]
    fn skeleton_grows_with_fanout() {
        let mut small = ctx();
        small.num_nodes = 1e9; // uncap
        small.config.batch_size = 4;
        small.config.fanouts = vec![2, 2];
        let mut large = small.clone();
        large.config.fanouts = vec![5, 5];
        assert!(large.batch_skeleton() > small.batch_skeleton());
    }

    #[test]
    fn param_count_matches_nn_substrate() {
        for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat] {
            let mut c = ctx();
            c.config.model = kind;
            let model = gnnav_nn::GnnModel::new(
                kind,
                c.feat_dim as usize,
                c.config.hidden_dim,
                c.num_classes as usize,
                c.config.num_layers(),
                0,
            );
            assert_eq!(c.param_count() as usize, model.param_count(), "{kind}");
        }
    }

    #[test]
    fn flops_proxy_positive_and_monotone() {
        let c = ctx();
        assert!(c.flops_proxy(1000.0) > c.flops_proxy(100.0));
    }

    #[test]
    fn row_bytes_tracks_precision() {
        let mut c = ctx();
        let fp32 = c.row_bytes();
        c.config.precision = gnnav_hwsim::Precision::Fp16;
        assert_eq!(c.row_bytes() * 2.0, fp32);
    }
}
