//! Shared feature-vector builders for the estimator components.
//!
//! Every builder returns a fixed-size array: the widths are part of
//! the fitted models' shape, and a prediction (five of these per
//! candidate, thousands of candidates per exploration) allocates
//! nothing.
//!
//! The three learned components an exploration reuses — `|V_i|`, the
//! hit rate and the accuracy — each read one small `Copy + Eq + Hash`
//! input type (`BatchSizeInput`, `HitRateInput`, `AccuracyInput`)
//! plus the dataset's `DatasetTerms`, and their feature builders are
//! methods of that type: a builder cannot read a field of the
//! candidate its reuse key leaves out.

use crate::context::Context;
use gnnav_cache::CachePolicy;
use gnnav_nn::ModelKind;
use gnnav_runtime::SamplerKind;

/// One-hot encoding of the sampler kind (3 entries).
pub fn sampler_onehot(kind: SamplerKind) -> [f64; 3] {
    match kind {
        SamplerKind::NodeWise => [1.0, 0.0, 0.0],
        SamplerKind::LayerWise => [0.0, 1.0, 0.0],
        SamplerKind::SubgraphWise => [0.0, 0.0, 1.0],
        _ => [0.0, 0.0, 0.0],
    }
}

/// One-hot encoding of the cache policy (5 entries).
pub fn policy_onehot(policy: CachePolicy) -> [f64; 5] {
    let mut v = [0.0; 5];
    let idx = match policy {
        CachePolicy::None => 0,
        CachePolicy::StaticDegree => 1,
        CachePolicy::Fifo => 2,
        CachePolicy::Lru => 3,
        CachePolicy::Lfu => 4,
        _ => 0,
    };
    v[idx] = 1.0;
    v
}

/// One-hot encoding of the model kind (3 entries).
pub fn model_onehot(kind: ModelKind) -> [f64; 3] {
    match kind {
        ModelKind::Gcn => [1.0, 0.0, 0.0],
        ModelKind::Sage => [0.0, 1.0, 0.0],
        ModelKind::Gat => [0.0, 0.0, 1.0],
        _ => [0.0, 0.0, 0.0],
    }
}

/// The dataset-level terms the learned components read: the same for
/// every candidate of one [`crate::PredictionContext`], so no input
/// type below needs them in its key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DatasetTerms {
    pub(crate) num_nodes: f64,
    skew: f64,
    intra_fraction: f64,
    num_classes: f64,
    num_train: f64,
    feat_dim: f64,
}

impl DatasetTerms {
    /// The dataset-level terms of `ctx`.
    pub(crate) fn of(ctx: &Context) -> Self {
        DatasetTerms {
            num_nodes: ctx.num_nodes,
            skew: ctx.skew,
            intra_fraction: ctx.intra_fraction,
            num_classes: ctx.num_classes,
            num_train: ctx.num_train,
            feat_dim: ctx.feat_dim,
        }
    }
}

/// An `f64` keyed by its bit pattern: `-0.0` and `0.0` are two keys,
/// and so are two NaNs with different payloads. Each is predicted for
/// itself, as it would be with no reuse table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Bits(u64);

impl Bits {
    /// The key of `x`.
    pub(crate) fn new(x: f64) -> Self {
        Bits(x.to_bits())
    }

    /// The value keyed.
    pub(crate) fn get(self) -> f64 {
        f64::from_bits(self.0)
    }
}

/// What the gray-box batch-size model reads of one candidate beyond
/// the [`DatasetTerms`]: its [`features`](Self::features) and the
/// predictor's clamp are computed from these fields alone, so two
/// candidates with equal inputs get equal `|V_i|`, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BatchSizeInput {
    /// The sampler family, which picks the per-family model.
    pub(crate) sampler: SamplerKind,
    /// The Eq. 12 skeleton `s` ([`Context::batch_skeleton`]).
    pub(crate) skeleton: Bits,
    /// The locality bias `η`.
    pub(crate) locality_eta: Bits,
    /// `|B^0|`.
    pub(crate) batch_size: usize,
}

impl BatchSizeInput {
    /// The input of `ctx`'s candidate.
    pub(crate) fn of(ctx: &Context) -> Self {
        BatchSizeInput {
            sampler: ctx.config.sampler,
            skeleton: Bits::new(ctx.batch_skeleton()),
            locality_eta: Bits::new(ctx.config.locality_eta),
            batch_size: ctx.config.batch_size,
        }
    }

    /// Log-space features for the gray-box batch-size model (Eq. 12).
    ///
    /// The analytic skeleton is the *saturating* expansion
    /// `|V| · (1 − e^(−s/|V|))` with `s = |B^0| · Π_l (1 + k^l)`: for
    /// small batches it reduces to `s` (pure fanout growth), while for
    /// large batches it caps at the graph size — the overlap behavior
    /// `f_overlapping` models. The remaining features let the learned
    /// penalty correct for degree structure and sampling bias.
    pub(crate) fn features(&self, dataset: &DatasetTerms) -> [f64; 4] {
        let n = dataset.num_nodes.max(1.0);
        let s = self.skeleton.get().max(1.0);
        let saturating = n * (1.0 - (-s / n).exp());
        // No raw degree feature here: degree already enters the skeleton
        // through the per-hop `min(k, d̄)` cap, and a near-constant raw
        // degree column destabilizes cross-dataset extrapolation.
        [
            saturating.max(1.0).ln(),
            (s / n).min(4.0),
            self.locality_eta.get(),
            (self.batch_size as f64).ln(),
        ]
    }
}

/// Raw features for the pure black-box (decision-tree) batch-size
/// baseline of Fig. 5.
pub fn batch_size_raw_features(ctx: &Context) -> [f64; 9] {
    let s = sampler_onehot(ctx.config.sampler);
    [
        ctx.config.batch_size as f64,
        ctx.config.fanouts.iter().map(|&k| k as f64).product(),
        ctx.config.fanouts.iter().map(|&k| k as f64).sum(),
        ctx.config.locality_eta,
        ctx.num_nodes,
        ctx.avg_degree,
        s[0],
        s[1],
        s[2],
    ]
}

/// What the hit-rate model reads of one candidate beyond the
/// [`DatasetTerms`], the predicted `|V_i|` included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct HitRateInput {
    /// The cache ratio `r`.
    pub(crate) cache_ratio: Bits,
    /// The cache policy.
    pub(crate) policy: CachePolicy,
    /// Whether the cache is updated.
    pub(crate) update: bool,
    /// The locality bias `η`.
    pub(crate) locality_eta: Bits,
    /// The predicted `|V_i|`.
    pub(crate) batch_nodes: Bits,
}

impl HitRateInput {
    /// The input of `ctx`'s candidate at predicted batch size `vi_pred`.
    pub(crate) fn of(ctx: &Context, vi_pred: f64) -> Self {
        HitRateInput {
            cache_ratio: Bits::new(ctx.config.cache_ratio),
            policy: ctx.config.cache_policy,
            update: ctx.config.cache_update,
            locality_eta: Bits::new(ctx.config.locality_eta),
            batch_nodes: Bits::new(vi_pred),
        }
    }

    /// Features for the cache-hit-rate model: ratio, policy, bias,
    /// degree skew, and the predicted batch coverage `|V_i|/|V|`.
    pub(crate) fn features(&self, dataset: &DatasetTerms) -> [f64; 10] {
        let p = policy_onehot(self.policy);
        [
            self.cache_ratio.get(),
            p[0],
            p[1],
            p[2],
            p[3],
            p[4],
            self.locality_eta.get(),
            dataset.skew.min(100.0) / 100.0,
            (self.batch_nodes.get() / dataset.num_nodes).min(1.0),
            f64::from(self.update),
        ]
    }
}

/// What the accuracy model reads of one candidate beyond the
/// [`DatasetTerms`], the predicted `|V_i|` included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct AccuracyInput {
    /// The locality bias `η`.
    pub(crate) locality_eta: Bits,
    /// `Σ_l k^l`, summed as `f64` in layer order.
    pub(crate) fanout_sum: Bits,
    /// `|B^0|`.
    pub(crate) batch_size: usize,
    /// The predicted `|V_i|`.
    pub(crate) batch_nodes: Bits,
    /// The hidden width.
    pub(crate) hidden_dim: usize,
    /// The sampler family.
    pub(crate) sampler: SamplerKind,
    /// The model kind.
    pub(crate) model: ModelKind,
    /// The dropout rate.
    pub(crate) dropout: Bits,
}

impl AccuracyInput {
    /// The input of `ctx`'s candidate at predicted batch size `vi_pred`.
    pub(crate) fn of(ctx: &Context, vi_pred: f64) -> Self {
        AccuracyInput {
            locality_eta: Bits::new(ctx.config.locality_eta),
            fanout_sum: Bits::new(ctx.config.fanouts.iter().map(|&k| k as f64).sum::<f64>()),
            batch_size: ctx.config.batch_size,
            batch_nodes: Bits::new(vi_pred),
            hidden_dim: ctx.config.hidden_dim,
            sampler: ctx.config.sampler,
            model: ctx.config.model,
            dropout: Bits::new(ctx.config.dropout),
        }
    }

    /// Features for the accuracy model (Eq. 11's spirit: sampling
    /// bias, batch composition, dataset difficulty proxies,
    /// architecture).
    pub(crate) fn features(&self, dataset: &DatasetTerms) -> [f64; 17] {
        let s = sampler_onehot(self.sampler);
        let m = model_onehot(self.model);
        [
            self.locality_eta.get(),
            self.fanout_sum.get(),
            (self.batch_size as f64).ln(),
            (self.batch_nodes.get() / dataset.num_nodes).min(1.0),
            dataset.intra_fraction,
            dataset.skew.min(100.0) / 100.0,
            dataset.num_classes.ln(),
            dataset.num_train.max(1.0).ln(),
            dataset.feat_dim.ln(),
            self.hidden_dim as f64,
            s[0],
            s[1],
            s[2],
            m[0],
            m[1],
            m[2],
            self.dropout.get(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnav_graph::{Dataset, DatasetId};
    use gnnav_hwsim::Platform;
    use gnnav_runtime::TrainingConfig;

    fn ctx() -> Context {
        let d = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        Context::new(&d, &Platform::default_rtx4090(), TrainingConfig::default())
    }

    #[test]
    fn onehots_are_onehot() {
        for kind in SamplerKind::ALL {
            assert_eq!(sampler_onehot(kind).iter().sum::<f64>(), 1.0);
        }
        for p in CachePolicy::ALL {
            assert_eq!(policy_onehot(p).iter().sum::<f64>(), 1.0);
        }
        for m in ModelKind::ALL {
            assert_eq!(model_onehot(m).iter().sum::<f64>(), 1.0);
        }
    }

    #[test]
    fn feature_vectors_are_finite_and_stable_width() {
        let c = ctx();
        let d = DatasetTerms::of(&c);
        let features: [&[f64]; 4] = [
            &BatchSizeInput::of(&c).features(&d),
            &batch_size_raw_features(&c),
            &HitRateInput::of(&c, 500.0).features(&d),
            &AccuracyInput::of(&c, 500.0).features(&d),
        ];
        assert_eq!(features.map(<[f64]>::len), [4, 9, 10, 17]);
        assert!(features.iter().all(|f| f.iter().all(|v| v.is_finite())));
    }
}
