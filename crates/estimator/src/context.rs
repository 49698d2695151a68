//! Prediction context: everything the estimator may condition on.
//!
//! The paper's estimator predicts from (1) the candidate configuration
//! and (2) "pre-determined settings in runtime" — dataset statistics
//! and the hardware platform. [`Context`] bundles exactly that.

use crate::estimator::PerfEstimate;
use gnnav_graph::Dataset;
use gnnav_hwsim::Platform;
use gnnav_runtime::{SamplerKind, TrainingConfig};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
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
        let stats = dataset.stats();
        Context {
            config,
            num_nodes: stats.num_nodes as f64,
            num_edges: stats.num_edges as f64,
            avg_degree: stats.degrees.mean,
            skew: stats.degrees.skew,
            intra_fraction: stats.intra_community_fraction.unwrap_or(0.0),
            feat_dim: dataset.feat_dim() as f64,
            num_classes: dataset.num_classes() as f64,
            num_train: dataset.split().train.len() as f64,
            platform: Arc::new(platform.clone()),
        }
    }

    /// Iterations per epoch `n_iter = ⌈train / |B^0|⌉`.
    pub fn n_iter(&self) -> f64 {
        (self.num_train / self.config.batch_size as f64).ceil().max(1.0)
    }

    /// The analytic expansion skeleton `|B^0| · Π_l (1 + k^l)^τ` of
    /// Eq. 12 (τ = 1 for node-wise sampling; the other families use
    /// their own closed forms), before the learned overlap penalty.
    /// Deliberately *uncapped*: the saturating feature transform in
    /// [`crate::features::batch_size_features`] folds it through
    /// `|V|(1 − e^(−s/|V|))`, which needs the raw growth.
    pub fn batch_skeleton(&self) -> f64 {
        let b = self.config.batch_size as f64;
        let raw = match self.config.sampler {
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
                let budget: f64 = self
                    .config
                    .fanouts
                    .iter()
                    .map(|&k| (k * self.config.batch_size / 4).max(16) as f64)
                    .sum();
                b + budget
            }
            SamplerKind::SubgraphWise | _ => {
                let hops: usize = self.config.fanouts.iter().sum();
                b * (1.0 + hops as f64)
            }
        };
        raw
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

/// The twelve fields of a configuration as the values whose `Hash` and
/// `==` are the memo's: floats by bit pattern, everything else as it
/// is. `TrainingConfig` carries `f64` axes, so it has no `Hash`/`Eq` of
/// its own, and `f64`'s `==` is the wrong relation for a memo of a pure
/// function of the *bits*: it would merge `−0.0` with `+0.0` and never
/// find a NaN again. This is the relation the checkpoint codec's
/// encoding induces (the memo used to key on those bytes) without
/// building the bytes. The destructuring is exhaustive, so a new field
/// fails to compile here rather than silently falling out of the key.
fn exact(config: &TrainingConfig) -> impl Hash + PartialEq + '_ {
    let TrainingConfig {
        sampler,
        fanouts,
        locality_eta,
        batch_size,
        cache_ratio,
        cache_policy,
        cache_update,
        pipelined,
        precision,
        model,
        hidden_dim,
        dropout,
    } = config;
    (
        *sampler,
        fanouts.as_slice(),
        locality_eta.to_bits(),
        *batch_size,
        cache_ratio.to_bits(),
        *cache_policy,
        *cache_update,
        *pipelined,
        *precision,
        *model,
        *hidden_dim,
        dropout.to_bits(),
    )
}

/// A 64-bit hash of [`exact`], computed without allocating: the one
/// hash a candidate pays, shared by the memo and the in-batch
/// duplicate map. Only a bucket address — [`same_bits`] decides inside
/// a bucket, so a collision can cost time but never an answer.
pub(crate) fn config_hash(config: &TrainingConfig) -> u64 {
    let mut hasher = WordHasher::default();
    exact(config).hash(&mut hasher);
    hasher.finish()
}

/// Whether two configurations agree on every field's bit pattern.
pub(crate) fn same_bits(a: &TrainingConfig, b: &TrainingConfig) -> bool {
    exact(a) == exact(b)
}

/// Folds 64-bit words by rotate–xor–multiply, which mixes every input
/// bit into the high half of the state (the hash map's control bytes),
/// and finishes by folding that half onto the low one (its bucket
/// index).
/// A dozen multiplies per configuration where SipHash over the encoded
/// bytes took three passes of a hundred bytes each. Unkeyed, which
/// gives nothing away here: the keys are the program's own candidates
/// (design-space leaves, template seeds), never outside input.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.write_u64(u64::from(byte));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// An index from precomputed hashes to entries the caller keeps in a
/// list of its own: entry `i` is the `i`-th [`push`](Self::push), and
/// entries pushed under one hash chain newest to oldest. The caller
/// decides equality, so the keys are never copied in here.
#[derive(Debug, Clone, Default)]
pub(crate) struct HashChains {
    /// Hash → the newest entry pushed under it.
    newest: HashMap<u64, u32, BuildHasherDefault<WordHasher>>,
    /// Entry → the entry pushed before it under the same hash.
    older: Vec<Option<u32>>,
}

impl HashChains {
    /// The entry under `hash` that `same` accepts, if any.
    pub(crate) fn find(&self, hash: u64, mut same: impl FnMut(usize) -> bool) -> Option<usize> {
        let mut at = self.newest.get(&hash).copied();
        while let Some(entry) = at {
            if same(entry as usize) {
                return Some(entry as usize);
            }
            at = self.older[entry as usize];
        }
        None
    }

    /// Adds the next entry under `hash` and returns its index.
    pub(crate) fn push(&mut self, hash: u64) -> usize {
        let entry = self.older.len();
        let index = u32::try_from(entry).expect("fewer than 2^32 memoized configurations");
        self.older.push(self.newest.insert(hash, index));
        entry
    }
}

/// Reusable per-(dataset, platform) prediction inputs plus a per-run
/// memo of completed predictions.
///
/// [`Context::new`] reads the dataset's (memoised) statistics and
/// deep-copies the platform on every call, which adds up when an
/// explorer queries hundreds of candidates against one dataset. A
/// `PredictionContext` hoists that work: build it once, then
/// [`context`](Self::context) assembles a candidate [`Context`] in
/// O(1) with the platform shared.
///
/// The memo backs
/// [`GrayBoxEstimator::predict_batch`](crate::GrayBoxEstimator::predict_batch):
/// predictions are pure given the context, so a configuration seen
/// twice within one exploration is served from the memo without
/// re-predicting. "Seen twice" means equal bit for bit in every field
/// (`−0.0` and `+0.0` are two configurations, as are two NaNs with
/// different payloads): a prediction is a function of the bits, and
/// only that relation lets a 64-bit hash address the memo while an
/// exact comparison answers it.
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
    /// The memoized predictions, indexed through `memo_index`.
    memo: Vec<(TrainingConfig, PerfEstimate)>,
    memo_index: HashChains,
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
            memo: Vec::new(),
            memo_index: HashChains::default(),
        }
    }

    /// Builds the [`Context`] for `config` without touching the
    /// dataset or copying the platform — O(1), identical field for
    /// field to `Context::new(dataset, platform, config)`.
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

    /// Number of memoized predictions held.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// The memoized estimate for `config`, whose hash is `hash`, if
    /// any.
    pub(crate) fn memo_get(&self, hash: u64, config: &TrainingConfig) -> Option<PerfEstimate> {
        let found = self.memo_index.find(hash, |entry| same_bits(&self.memo[entry].0, config));
        found.map(|entry| self.memo[entry].1)
    }

    /// Memoizes `estimate` for `config`, which is not in the memo yet
    /// and hashes to `hash`.
    pub(crate) fn memo_put(&mut self, hash: u64, config: TrainingConfig, estimate: PerfEstimate) {
        self.memo_index.push(hash);
        self.memo.push((config, estimate));
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
    fn prediction_context_matches_context_new() {
        let d = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let platform = Platform::default_rtx4090();
        let pctx = PredictionContext::new(&d, &platform);
        let direct = Context::new(&d, &platform, TrainingConfig::default());
        let hoisted = pctx.context(TrainingConfig::default());
        // Debug formatting prints every f64 exhaustively, so equality
        // here is bit-exact field-for-field equivalence.
        assert_eq!(format!("{hoisted:?}"), format!("{direct:?}"));
    }

    /// The relation the memo keyed on before: equality of the
    /// checkpoint codec's bytes.
    fn same_bytes(a: &TrainingConfig, b: &TrainingConfig) -> bool {
        let bytes = |c: &TrainingConfig| {
            let mut w = gnnav_store::ByteWriter::new();
            gnnav_runtime::checkpoint::put_config(&mut w, c);
            w.finish()
        };
        bytes(a) == bytes(b)
    }

    #[test]
    fn bit_equality_is_the_relation_the_encoded_bytes_induce() {
        let base = TrainingConfig::default();
        let vary: [fn(&mut TrainingConfig); 16] = [
            |c| c.sampler = SamplerKind::LayerWise,
            |c| c.fanouts = vec![10],
            |c| c.fanouts = vec![10, 10, 0],
            |c| c.fanouts = vec![],
            |c| c.locality_eta = -0.0,
            |c| c.locality_eta = f64::NAN,
            |c| c.locality_eta = f64::from_bits(f64::NAN.to_bits() | 1),
            |c| c.batch_size += 1,
            |c| c.cache_ratio = f64::from_bits(c.cache_ratio.to_bits() + 1),
            |c| c.cache_policy = gnnav_cache::CachePolicy::Lfu,
            |c| c.cache_update = false,
            |c| c.pipelined = false,
            |c| c.precision = gnnav_hwsim::Precision::Fp16,
            |c| c.model = ModelKind::Gat,
            |c| c.hidden_dim += 1,
            |c| c.dropout = -0.0,
        ];
        let mut configs = vec![base.clone()];
        configs.extend(vary.iter().map(|change| {
            let mut c = base.clone();
            change(&mut c);
            c
        }));
        for (i, a) in configs.iter().enumerate() {
            for (j, b) in configs.iter().enumerate() {
                assert_eq!(same_bits(a, b), same_bytes(a, b), "{i} vs {j}");
                assert_eq!(same_bits(a, b), i == j, "{i} vs {j}: every variant is distinct");
                if i == j {
                    assert_eq!(config_hash(a), config_hash(&b.clone()));
                } else {
                    assert_ne!(config_hash(a), config_hash(b), "{i} vs {j} collide");
                }
            }
        }
    }

    #[test]
    fn hash_spreads_the_standard_space() {
        // A collision only costs a comparison, but a hash that piled
        // the space's leaves into few buckets would cost many: all
        // 362 880 leaves hash apart, and both ends of the hash (the
        // map's bucket index and its control byte) fill evenly.
        let configs = gnnav_runtime::DesignSpace::standard().enumerate(ModelKind::Sage);
        let hashes: Vec<u64> = configs.iter().map(config_hash).collect();
        let distinct: std::collections::HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), configs.len());
        for shift in [0, 64 - 12] {
            let mut load = vec![0usize; 1 << 12];
            hashes.iter().for_each(|h| load[(h >> shift) as usize & 0xFFF] += 1);
            let mean = configs.len() / load.len();
            let (min, max) = (load.iter().min().expect("4096"), load.iter().max().expect("4096"));
            assert!(
                *min > mean / 2 && *max < mean * 2,
                "bits {shift}..: {min}..{max} around {mean}"
            );
        }
    }

    #[test]
    fn hash_chains_keep_colliding_entries_apart() {
        let mut chains = HashChains::default();
        let hashes = [7u64, 7, 9, 7, 9];
        for (i, &h) in hashes.iter().enumerate() {
            assert_eq!(chains.push(h), i);
        }
        for (i, &h) in hashes.iter().enumerate() {
            assert_eq!(chains.find(h, |entry| entry == i), Some(i));
        }
        // Chains run newest to oldest and never cross hashes.
        let mut seen = Vec::new();
        assert_eq!(chains.find(7, |entry| (seen.push(entry), false).1), None);
        assert_eq!(seen, [3, 1, 0]);
        assert_eq!(chains.find(8, |_| true), None);
    }

    #[test]
    fn row_bytes_tracks_precision() {
        let mut c = ctx();
        let fp32 = c.row_bytes();
        c.config.precision = gnnav_hwsim::Precision::Fp16;
        assert_eq!(c.row_bytes() * 2.0, fp32);
    }
}
