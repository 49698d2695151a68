//! Training configuration — the design point of the DSE.
//!
//! Every reconfigurable setting of the backend (the blue dashed boxes
//! of the paper's Fig. 3) lives in [`TrainingConfig`]. A configuration
//! fully determines a training run on a given dataset and platform;
//! the explorer searches over these.

use gnnav_cache::CachePolicy;
use gnnav_graph::{stats::nodes_by_degree_desc, Graph, NodeId};
use gnnav_hwsim::Precision;
use gnnav_nn::ModelKind;
use gnnav_sampler::{LocalityBias, Sampler};

use crate::RuntimeError;

/// Which sampler family the backend instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum SamplerKind {
    /// Node-wise fanout sampling (GraphSAGE style).
    NodeWise,
    /// Layer-wise budgeted sampling (FastGCN style).
    LayerWise,
    /// Subgraph-wise random walks (GraphSAINT style).
    SubgraphWise,
}

impl SamplerKind {
    /// All sampler kinds.
    pub const ALL: [SamplerKind; 3] =
        [SamplerKind::NodeWise, SamplerKind::LayerWise, SamplerKind::SubgraphWise];
}

impl std::fmt::Display for SamplerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SamplerKind::NodeWise => "node-wise",
            SamplerKind::LayerWise => "layer-wise",
            SamplerKind::SubgraphWise => "subgraph-wise",
        })
    }
}

/// A complete training configuration (one candidate in the design
/// space).
///
/// # Example
///
/// ```
/// use gnnav_runtime::TrainingConfig;
///
/// let config = TrainingConfig::default();
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingConfig {
    /// Sampler family.
    pub sampler: SamplerKind,
    /// Per-layer fanouts `k^l` (also parameterizes the other sampler
    /// families; see [`TrainingConfig::build_sampler`]).
    pub fanouts: Vec<usize>,
    /// Locality-bias strength `η ∈ [0, 1]` of `p(η)` in Eq. 2
    /// (0 = unbiased; 2PGraph uses a high value).
    pub locality_eta: f64,
    /// Target vertices per mini-batch `|B^0|`.
    pub batch_size: usize,
    /// Cache ratio `r`: fraction of `|V|` whose feature rows the
    /// device cache may hold.
    pub cache_ratio: f64,
    /// Cache replacement policy.
    pub cache_policy: CachePolicy,
    /// Whether dynamic caches keep updating after they fill (when
    /// `false`, a dynamic cache fills once and then freezes —
    /// "disable cache update policy" in Fig. 3).
    pub cache_update: bool,
    /// Whether host work (sample + transfer) overlaps device work
    /// (replace + compute) — the `max` vs. sum of Eq. 4.
    pub pipelined: bool,
    /// Compute/transfer precision.
    pub precision: Precision,
    /// GNN architecture.
    pub model: ModelKind,
    /// Hidden width of the GNN.
    pub hidden_dim: usize,
    /// Dropout probability on hidden activations (a model-design
    /// optimization; `0.0` disables it).
    pub dropout: f64,
}

impl Default for TrainingConfig {
    /// A sensible mid-range configuration (node-wise `[10, 10]`,
    /// batch 1024, LRU cache at `r = 0.1`, pipelined, FP32 SAGE-64).
    fn default() -> Self {
        TrainingConfig {
            sampler: SamplerKind::NodeWise,
            fanouts: vec![10, 10],
            locality_eta: 0.0,
            batch_size: 1024,
            cache_ratio: 0.1,
            cache_policy: CachePolicy::Lru,
            cache_update: true,
            pipelined: true,
            precision: Precision::Fp32,
            model: ModelKind::Sage,
            hidden_dim: 64,
            dropout: 0.0,
        }
    }
}

impl TrainingConfig {
    /// Number of GNN layers implied by the sampling depth.
    pub fn num_layers(&self) -> usize {
        self.fanouts.len()
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] describing the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        if self.fanouts.is_empty() || self.fanouts.contains(&0) {
            return Err(RuntimeError::InvalidConfig(
                "fanouts must be non-empty and positive".into(),
            ));
        }
        if self.batch_size == 0 {
            return Err(RuntimeError::InvalidConfig("batch_size must be > 0".into()));
        }
        if !(0.0..=1.0).contains(&self.cache_ratio) {
            return Err(RuntimeError::InvalidConfig(format!(
                "cache_ratio {} outside [0, 1]",
                self.cache_ratio
            )));
        }
        if !(0.0..=1.0).contains(&self.locality_eta) {
            return Err(RuntimeError::InvalidConfig(format!(
                "locality_eta {} outside [0, 1]",
                self.locality_eta
            )));
        }
        if self.hidden_dim == 0 {
            return Err(RuntimeError::InvalidConfig("hidden_dim must be > 0".into()));
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(RuntimeError::InvalidConfig(format!(
                "dropout {} outside [0, 1)",
                self.dropout
            )));
        }
        if self.cache_policy == CachePolicy::None && self.cache_ratio > 0.0 {
            return Err(RuntimeError::InvalidConfig(
                "cache_ratio must be 0 when cache_policy is none".into(),
            ));
        }
        Ok(())
    }

    /// Number of cache entries on a graph of `num_nodes` nodes.
    pub fn cache_entries(&self, num_nodes: usize) -> usize {
        (self.cache_ratio * num_nodes as f64).round() as usize
    }

    /// The hot node set used by the locality bias: the top `r·|V|`
    /// nodes by degree (what a degree-ordered cache would hold), or
    /// the top 10% when no cache is configured.
    pub fn hot_set(&self, graph: &Graph) -> Vec<NodeId> {
        let count = if self.cache_ratio > 0.0 {
            self.cache_entries(graph.num_nodes())
        } else {
            graph.num_nodes() / 10
        };
        nodes_by_degree_desc(graph).into_iter().take(count).collect()
    }

    /// The layer-wise budget `Δ^l` of a layer with fanout `k`:
    /// `k · |B^0| / 4` (Eq. 3's shared-neighbor discount), at least 16.
    pub fn layer_budget(&self, k: usize) -> usize {
        (k * self.batch_size / 4).max(16)
    }

    /// Hops of a subgraph-wise walk: `Σ k^l`.
    pub fn walk_hops(&self) -> usize {
        self.fanouts.iter().sum()
    }

    /// Instantiates the configured sampler for `graph`.
    ///
    /// Fanouts parameterize every family: layer-wise budgets are
    /// [`layer_budget`](Self::layer_budget)s and subgraph-wise walks
    /// take [`walk_hops`](Self::walk_hops) hops. At `η > 0` the
    /// sampler's bias holds the [`hot_set`](Self::hot_set).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if validation fails.
    pub fn build_sampler(&self, graph: &Graph) -> Result<Sampler, RuntimeError> {
        self.validate()?;
        let bias = if self.locality_eta > 0.0 {
            LocalityBias::new(graph.num_nodes(), &self.hot_set(graph), self.locality_eta)
        } else {
            LocalityBias::none(graph.num_nodes())
        };
        Ok(match self.sampler {
            SamplerKind::NodeWise => Sampler::node_wise(self.fanouts.clone(), bias),
            SamplerKind::LayerWise => Sampler::layer_wise(
                self.fanouts.iter().map(|&k| self.layer_budget(k)).collect(),
                bias,
            ),
            SamplerKind::SubgraphWise => Sampler::subgraph_wise(self.walk_hops(), bias),
        })
    }

    /// A short one-line summary for tables and logs: the
    /// `summary_piece`s of the eleven printed fields.
    pub fn summary(&self) -> String {
        let mut out = String::with_capacity(SUMMARY_CAPACITY);
        summary_piece::sampler(&mut out, self.sampler);
        summary_piece::fanouts(&mut out, &self.fanouts);
        summary_piece::eta(&mut out, self.locality_eta);
        summary_piece::batch_size(&mut out, self.batch_size);
        summary_piece::cache_policy(&mut out, self.cache_policy);
        summary_piece::cache_ratio(&mut out, self.cache_ratio);
        summary_piece::cache_update(&mut out, self.cache_update);
        summary_piece::pipelined(&mut out, self.pipelined);
        summary_piece::precision(&mut out, self.precision);
        summary_piece::hidden_dim(&mut out, self.hidden_dim);
        summary_piece::dropout(&mut out, self.dropout);
        out
    }
}

/// Room for any summary of the standard space (the longest is 91
/// bytes) without a second allocation.
const SUMMARY_CAPACITY: usize = 96;

/// The single definition of the [`TrainingConfig::summary`] format:
/// one function per printed field, each appending its piece (leading
/// separator included) to `out`. `summary()` is their concatenation; a
/// [`SummaryTable`](crate::space::SummaryTable) renders each value of a
/// design space through the same functions once, so a leaf's summary
/// is eleven copies and no formatting.
pub(crate) mod summary_piece {
    use super::*;
    use std::fmt::{Arguments, Write};

    fn push(out: &mut String, piece: Arguments<'_>) {
        out.write_fmt(piece).expect("formatting into a String cannot fail");
    }

    /// `node-wise` — the sampler family, first and without separator.
    pub(crate) fn sampler(out: &mut String, kind: SamplerKind) {
        push(out, format_args!("{kind}"));
    }

    /// ` f[10, 10]` — the per-layer fanouts.
    pub(crate) fn fanouts(out: &mut String, fanouts: &[usize]) {
        push(out, format_args!(" f{fanouts:?}"));
    }

    /// ` eta0.25` — the locality bias, two decimals.
    pub(crate) fn eta(out: &mut String, eta: f64) {
        push(out, format_args!(" eta{eta:.2}"));
    }

    /// ` b1024` — the mini-batch target count.
    pub(crate) fn batch_size(out: &mut String, batch_size: usize) {
        push(out, format_args!(" b{batch_size}"));
    }

    /// ` lru` — the cache policy.
    pub(crate) fn cache_policy(out: &mut String, policy: CachePolicy) {
        push(out, format_args!(" {policy}"));
    }

    /// ` r0.10` — the cache ratio, two decimals.
    pub(crate) fn cache_ratio(out: &mut String, ratio: f64) {
        push(out, format_args!(" r{ratio:.2}"));
    }

    /// ` frozen` directly after the ratio when the cache does not
    /// update; nothing when it does.
    pub(crate) fn cache_update(out: &mut String, update: bool) {
        out.push_str(if update { "" } else { " frozen" });
    }

    /// ` pipelined` or ` serial`.
    pub(crate) fn pipelined(out: &mut String, pipelined: bool) {
        out.push_str(if pipelined { " pipelined" } else { " serial" });
    }

    /// ` fp32` — the precision.
    pub(crate) fn precision(out: &mut String, precision: Precision) {
        push(out, format_args!(" {precision}"));
    }

    /// ` h64` — the hidden width.
    pub(crate) fn hidden_dim(out: &mut String, hidden_dim: usize) {
        push(out, format_args!(" h{hidden_dim}"));
    }

    /// ` d0.5` — the dropout probability, one decimal.
    pub(crate) fn dropout(out: &mut String, dropout: f64) {
        push(out, format_args!(" d{dropout:.1}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnav_graph::generators::barabasi_albert;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn default_validates() {
        TrainingConfig::default().validate().expect("default config valid");
    }

    #[test]
    fn validation_catches_bad_fields() {
        let cases = [
            TrainingConfig { batch_size: 0, ..TrainingConfig::default() },
            TrainingConfig { cache_ratio: 1.5, ..TrainingConfig::default() },
            TrainingConfig { fanouts: vec![], ..TrainingConfig::default() },
            TrainingConfig { locality_eta: -0.1, ..TrainingConfig::default() },
            TrainingConfig {
                cache_policy: CachePolicy::None,
                cache_ratio: 0.3,
                ..TrainingConfig::default()
            },
            TrainingConfig { dropout: 1.0, ..TrainingConfig::default() },
        ];
        for c in cases {
            assert!(c.validate().is_err(), "{}", c.summary());
        }
    }

    #[test]
    fn cache_entries_rounding() {
        let mut c = TrainingConfig { cache_ratio: 0.25, ..TrainingConfig::default() };
        assert_eq!(c.cache_entries(1000), 250);
        c.cache_ratio = 0.0;
        assert_eq!(c.cache_entries(1000), 0);
    }

    #[test]
    fn hot_set_is_high_degree() {
        let g = barabasi_albert(500, 3, 1).expect("gen");
        let c = TrainingConfig { cache_ratio: 0.1, ..TrainingConfig::default() };
        let hot = c.hot_set(&g);
        assert_eq!(hot.len(), 50);
        let min_hot_deg = hot.iter().map(|&v| g.degree(v)).min().expect("non-empty");
        assert!(min_hot_deg as f64 >= g.avg_degree());
    }

    #[test]
    fn build_sampler_each_kind() {
        let g = barabasi_albert(300, 3, 2).expect("gen");
        for kind in SamplerKind::ALL {
            let c = TrainingConfig { sampler: kind, ..TrainingConfig::default() };
            let s = c.build_sampler(&g).expect("build");
            let mb = s.sample(&g, &[0, 1, 2], &mut StdRng::seed_from_u64(1)).expect("sample");
            assert_eq!(mb.targets_len, 3, "{kind}");
        }
    }

    #[test]
    fn family_parameters_follow_fanouts() {
        let c =
            TrainingConfig { fanouts: vec![10, 5], batch_size: 32, ..TrainingConfig::default() };
        assert_eq!(c.layer_budget(10), 80);
        assert_eq!(c.layer_budget(1), 16, "the floor");
        assert_eq!(c.walk_hops(), 15);
    }

    #[test]
    fn num_layers_follows_fanouts() {
        let c = TrainingConfig { fanouts: vec![5, 5, 5], ..TrainingConfig::default() };
        assert_eq!(c.num_layers(), 3);
    }

    #[test]
    fn summary_mentions_key_fields() {
        let s = TrainingConfig::default().summary();
        assert!(s.contains("node-wise"));
        assert!(s.contains("b1024"));
        assert!(s.contains("lru"));
    }

    #[test]
    fn display_names() {
        assert_eq!(SamplerKind::LayerWise.to_string(), "layer-wise");
    }
}
