//! Shared feature-vector builders for the estimator components.
//!
//! Every builder returns a fixed-size array: the widths are part of
//! the fitted models' shape, and a prediction (five of these per
//! candidate, thousands of candidates per exploration) allocates
//! nothing.

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

/// Log-space features for the gray-box batch-size model (Eq. 12).
///
/// The analytic skeleton is the *saturating* expansion
/// `|V| · (1 − e^(−s/|V|))` with `s = |B^0| · Π_l (1 + k^l)`: for
/// small batches it reduces to `s` (pure fanout growth), while for
/// large batches it caps at the graph size — the overlap behavior
/// `f_overlapping` models. The remaining features let the learned
/// penalty correct for degree structure and sampling bias.
pub fn batch_size_features(ctx: &Context) -> [f64; 4] {
    let n = ctx.num_nodes.max(1.0);
    let s = ctx.batch_skeleton().max(1.0);
    let saturating = n * (1.0 - (-s / n).exp());
    // No raw degree feature here: degree already enters the skeleton
    // through the per-hop `min(k, d̄)` cap, and a near-constant raw
    // degree column destabilizes cross-dataset extrapolation.
    [
        saturating.max(1.0).ln(),
        (s / n).min(4.0),
        ctx.config.locality_eta,
        (ctx.config.batch_size as f64).ln(),
    ]
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

/// Features for the cache-hit-rate model: ratio, policy, bias, degree
/// skew, and the predicted batch coverage `|V_i|/|V|`.
pub fn hit_rate_features(ctx: &Context, vi_pred: f64) -> [f64; 10] {
    let p = policy_onehot(ctx.config.cache_policy);
    [
        ctx.config.cache_ratio,
        p[0],
        p[1],
        p[2],
        p[3],
        p[4],
        ctx.config.locality_eta,
        ctx.skew.min(100.0) / 100.0,
        (vi_pred / ctx.num_nodes).min(1.0),
        f64::from(ctx.config.cache_update),
    ]
}

/// Features for the accuracy model (Eq. 11's spirit: sampling bias,
/// batch composition, dataset difficulty proxies, architecture).
pub fn accuracy_features(ctx: &Context, vi_pred: f64) -> [f64; 17] {
    let s = sampler_onehot(ctx.config.sampler);
    let m = model_onehot(ctx.config.model);
    [
        ctx.config.locality_eta,
        ctx.config.fanouts.iter().map(|&k| k as f64).sum::<f64>(),
        (ctx.config.batch_size as f64).ln(),
        (vi_pred / ctx.num_nodes).min(1.0),
        ctx.intra_fraction,
        ctx.skew.min(100.0) / 100.0,
        ctx.num_classes.ln(),
        ctx.num_train.max(1.0).ln(),
        ctx.feat_dim.ln(),
        ctx.config.hidden_dim as f64,
        s[0],
        s[1],
        s[2],
        m[0],
        m[1],
        m[2],
        ctx.config.dropout,
    ]
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
        let features: [&[f64]; 4] = [
            &batch_size_features(&c),
            &batch_size_raw_features(&c),
            &hit_rate_features(&c, 500.0),
            &accuracy_features(&c, 500.0),
        ];
        assert_eq!(features.map(<[f64]>::len), [4, 9, 10, 17]);
        assert!(features.iter().all(|f| f.iter().all(|v| v.is_finite())));
    }
}
