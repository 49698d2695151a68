//! Deterministic stand-ins for the paper's evaluation datasets.
//!
//! The paper evaluates on ogbn-arxiv (AR), ogbn-products (PR), Reddit
//! (RD) and Reddit2 (RD2). Those graphs (and the GPU memory to train on
//! them) are not available here, so each dataset is replaced by a
//! seeded synthetic graph whose *shape statistics* — power-law degree
//! skew, community structure, feature dimensionality, class count —
//! match the original's qualitative character at roughly 1:10 node
//! scale. See DESIGN.md §1 for the substitution rationale.
//!
//! Every dataset is generated by `generators::community_preferential`,
//! which combines preferential attachment (cache-relevant degree skew)
//! with community-correlated labels (so locality-biased sampling has a
//! real accuracy cost, as Fig. 1b of the paper shows for 2PGraph).

use crate::csr::{Graph, NodeId};
use crate::features::{FeatureSpec, Features};
use crate::generators;
use crate::stats::GraphStats;
use crate::GraphError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// Identifier of a benchmark dataset stand-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum DatasetId {
    /// A randomly generated power-law graph used as estimator training
    /// "data enhancement" (paper §4.1), not a benchmark target.
    Synthetic,
    /// ogbn-arxiv stand-in ("AR"): citation graph, moderate skew,
    /// hard task (paper GAT accuracy ≈ 61%).
    OgbnArxiv,
    /// ogbn-products stand-in ("PR"): co-purchase graph, heavy skew,
    /// easy task (paper SAGE accuracy ≈ 90%).
    OgbnProducts,
    /// Reddit stand-in ("RD"): dense social graph.
    Reddit,
    /// Reddit2 stand-in ("RD2"): sparsified Reddit (paper SAGE
    /// accuracy ≈ 79%).
    Reddit2,
}

impl DatasetId {
    /// All dataset ids, in the order the paper's tables list them.
    pub const ALL: [DatasetId; 4] =
        [DatasetId::OgbnArxiv, DatasetId::OgbnProducts, DatasetId::Reddit, DatasetId::Reddit2];

    /// The short name used in the paper's tables.
    pub fn short_name(self) -> &'static str {
        match self {
            DatasetId::Synthetic => "SYN",
            DatasetId::OgbnArxiv => "AR",
            DatasetId::OgbnProducts => "PR",
            DatasetId::Reddit => "RD",
            DatasetId::Reddit2 => "RD2",
        }
    }

    /// The full dataset name.
    pub fn full_name(self) -> &'static str {
        match self {
            DatasetId::Synthetic => "synthetic-power-law",
            DatasetId::OgbnArxiv => "ogbn-arxiv",
            DatasetId::OgbnProducts => "ogbn-products",
            DatasetId::Reddit => "Reddit",
            DatasetId::Reddit2 => "Reddit2",
        }
    }

    /// Generation recipe for this dataset at scale 1.0.
    fn recipe(self) -> Recipe {
        match self {
            // Synthetic datasets come from [`Dataset::synthetic`]; this
            // recipe only backs `load(Synthetic)` as a generic default.
            DatasetId::Synthetic => Recipe {
                nodes: 4_000,
                edges_per_node: 5,
                mixing: 0.3,
                feat_dim: 64,
                num_classes: 16,
                noise: 1.5,
                label_noise: 0.1,
                seed: 0x51AB,
            },
            DatasetId::OgbnArxiv => Recipe {
                nodes: 16_900,
                edges_per_node: 6,
                mixing: 0.45,
                feat_dim: 128,
                num_classes: 40,
                noise: 3.0,
                label_noise: 0.40,
                seed: 0xA12,
            },
            DatasetId::OgbnProducts => Recipe {
                nodes: 24_500,
                edges_per_node: 12,
                mixing: 0.10,
                feat_dim: 100,
                num_classes: 47,
                noise: 1.5,
                label_noise: 0.10,
                seed: 0xB34,
            },
            DatasetId::Reddit => Recipe {
                nodes: 23_300,
                edges_per_node: 25,
                mixing: 0.30,
                feat_dim: 150,
                num_classes: 41,
                noise: 2.0,
                label_noise: 0.13,
                seed: 0xC56,
            },
            DatasetId::Reddit2 => Recipe {
                nodes: 23_300,
                edges_per_node: 15,
                mixing: 0.30,
                feat_dim: 150,
                num_classes: 41,
                noise: 3.2,
                label_noise: 0.17,
                seed: 0xD78,
            },
        }
    }
}

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

#[derive(Debug, Clone, Copy)]
struct Recipe {
    nodes: usize,
    edges_per_node: usize,
    mixing: f64,
    feat_dim: usize,
    num_classes: usize,
    noise: f32,
    label_noise: f32,
    seed: u64,
}

/// Train/validation/test node-id split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// Training node ids.
    pub train: Vec<NodeId>,
    /// Validation node ids.
    pub val: Vec<NodeId>,
    /// Test node ids.
    pub test: Vec<NodeId>,
}

impl Split {
    /// Random 60/20/20 split of `num_nodes` ids, seeded.
    pub(crate) fn random(num_nodes: usize, seed: u64) -> Self {
        let mut ids: Vec<NodeId> = (0..num_nodes as NodeId).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        ids.shuffle(&mut rng);
        let n_train = num_nodes * 6 / 10;
        let n_val = num_nodes * 2 / 10;
        let val_end = n_train + n_val;
        Split {
            train: ids[..n_train].to_vec(),
            val: ids[n_train..val_end].to_vec(),
            test: ids[val_end..].to_vec(),
        }
    }
}

/// A complete dataset: graph + communities + features + labels + split.
///
/// Features and labels are synthesized on the first
/// [`features`](Self::features) call, not at construction: what
/// GNNavigator decides from (the estimator's `Deg(G)` and `n_attr`,
/// every profile and exploration fingerprint) reads the graph and the
/// feature *shape* only, so a navigation served from its stores never
/// draws the matrix. Clones share the one synthesis, including clones
/// taken before it ran.
#[derive(Debug, Clone)]
pub struct Dataset {
    id: DatasetId,
    graph: Graph,
    communities: Vec<u32>,
    feature_spec: FeatureSpec,
    feature_seed: u64,
    /// Filled by the first `features()` call on this dataset or any
    /// clone of it; the draw depends only on `communities`,
    /// `feature_spec` and `feature_seed`, which no clone can change.
    features: Arc<OnceLock<Features>>,
    split: Split,
    /// `stats()` memo. Graph and communities never change after
    /// construction, so a filled cell stays right through `clone` and
    /// `with_split`.
    stats: OnceLock<GraphStats>,
}

impl Dataset {
    /// Loads the dataset with its node count multiplied by `scale`
    /// (clamped to at least 64 nodes). Smaller scales keep unit tests
    /// and exhaustive design-space sweeps fast while preserving degree
    /// skew and community structure.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if `scale` is not
    /// finite and positive.
    pub fn load_scaled(id: DatasetId, scale: f64) -> Result<Self, GraphError> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(GraphError::InvalidParameter(format!(
                "scale must be finite and positive, got {scale}"
            )));
        }
        let r = id.recipe();
        let nodes = ((r.nodes as f64 * scale).round() as usize).max(64);
        let (graph, communities) = generators::community_preferential(
            nodes,
            r.num_classes,
            r.edges_per_node,
            r.mixing,
            r.seed,
        )?;
        let spec = FeatureSpec::new(r.feat_dim, r.num_classes)
            .with_noise(r.noise)
            .with_label_noise(r.label_noise);
        let split = Split::random(nodes, r.seed ^ 0x5EED);
        Ok(Dataset::new(id, graph, communities, spec, r.seed ^ 0xFEED, split))
    }

    /// Generates a random power-law dataset for estimator data
    /// enhancement (paper §4.1): `num_nodes` nodes, `edges_per_node`
    /// preferential-attachment edges, features/classes as given. Each
    /// distinct `seed` yields a different graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] for degenerate sizes.
    pub fn synthetic(
        num_nodes: usize,
        edges_per_node: usize,
        feat_dim: usize,
        num_classes: usize,
        seed: u64,
    ) -> Result<Self, GraphError> {
        if num_classes == 0 || feat_dim == 0 {
            return Err(GraphError::InvalidParameter(
                "feat_dim and num_classes must be > 0".into(),
            ));
        }
        let (graph, communities) =
            generators::community_preferential(num_nodes, num_classes, edges_per_node, 0.3, seed)?;
        let spec = FeatureSpec::new(feat_dim, num_classes).with_noise(1.8).with_label_noise(0.12);
        let split = Split::random(num_nodes, seed ^ 0x5EED);
        Ok(Dataset::new(DatasetId::Synthetic, graph, communities, spec, seed ^ 0xFEED, split))
    }

    fn new(
        id: DatasetId,
        graph: Graph,
        communities: Vec<u32>,
        feature_spec: FeatureSpec,
        feature_seed: u64,
        split: Split,
    ) -> Self {
        Dataset {
            id,
            graph,
            communities,
            feature_spec,
            feature_seed,
            features: Arc::default(),
            split,
            stats: OnceLock::new(),
        }
    }

    /// Dataset identifier.
    pub fn id(&self) -> DatasetId {
        self.id
    }

    /// The graph topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Per-node community ids.
    pub fn communities(&self) -> &[u32] {
        &self.communities
    }

    /// Node features and labels. The first call on this dataset or any
    /// clone of it synthesizes them (one O(nodes × `feat_dim`) draw);
    /// every later call, on any of them, returns that one matrix.
    pub fn features(&self) -> &Features {
        self.features.get_or_init(|| {
            Features::synthesize(&self.communities, &self.feature_spec, self.feature_seed)
        })
    }

    /// Train/val/test split.
    pub fn split(&self) -> &Split {
        &self.split
    }

    /// Replaces the generated split (e.g. custom training subsets, or
    /// degenerate splits when exercising edge cases).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if any id is out of
    /// range for this graph.
    pub fn with_split(mut self, split: Split) -> Result<Self, GraphError> {
        let n = self.graph.num_nodes();
        if split.train.iter().chain(&split.val).chain(&split.test).any(|&v| v as usize >= n) {
            return Err(GraphError::InvalidParameter(
                "split references an out-of-range node id".into(),
            ));
        }
        self.split = split;
        Ok(self)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Feature dimensionality (`n_attr` in the paper's cost model).
    /// Read from the spec: the features are not synthesized for it.
    pub fn feat_dim(&self) -> usize {
        self.feature_spec.dim
    }

    /// Number of label classes. Read from the spec, like
    /// [`feat_dim`](Self::feat_dim).
    pub fn num_classes(&self) -> usize {
        self.feature_spec.num_classes
    }

    /// Structural statistics (with community mixing). The O(V + E)
    /// walk runs on the first call only; every store key and estimator
    /// context built from this dataset afterwards reads the memo.
    pub fn stats(&self) -> GraphStats {
        self.stats
            .get_or_init(|| GraphStats::with_communities(&self.graph, &self.communities))
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_have_distinct_names() {
        let mut names: Vec<_> = DatasetId::ALL.iter().map(|d| d.short_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn display_matches_short_name() {
        assert_eq!(DatasetId::Reddit2.to_string(), "RD2");
        assert_eq!(DatasetId::OgbnArxiv.full_name(), "ogbn-arxiv");
    }

    #[test]
    fn split_partitions_all_nodes() {
        let s = Split::random(100, 7);
        let total = s.train.len() + s.val.len() + s.test.len();
        assert_eq!(total, 100);
        let mut all: Vec<_> = s.train.iter().chain(&s.val).chain(&s.test).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 100);
        assert_eq!(s.train.len(), 60);
    }

    #[test]
    fn load_scaled_produces_consistent_bundle() {
        let d = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let n = d.num_nodes();
        assert!(n >= 64);
        assert_eq!(d.communities().len(), n);
        assert_eq!(d.features().num_nodes(), n);
        assert_eq!(d.feat_dim(), 150);
        assert_eq!(d.num_classes(), 41);
        assert_eq!(d.split().train.len() + d.split().val.len() + d.split().test.len(), n);
    }

    #[test]
    fn load_rejects_bad_scale() {
        assert!(Dataset::load_scaled(DatasetId::Reddit, 0.0).is_err());
        assert!(Dataset::load_scaled(DatasetId::Reddit, f64::NAN).is_err());
    }

    #[test]
    fn datasets_have_power_law_skew() {
        for id in DatasetId::ALL {
            let d = Dataset::load_scaled(id, 0.05).expect("load");
            let s = d.stats();
            assert!(
                s.degrees.skew > 3.0,
                "{id}: skew {} too low for a power-law stand-in",
                s.degrees.skew
            );
        }
    }

    #[test]
    fn products_more_clustered_than_arxiv() {
        let pr = Dataset::load_scaled(DatasetId::OgbnProducts, 0.05).expect("load");
        let ar = Dataset::load_scaled(DatasetId::OgbnArxiv, 0.05).expect("load");
        let f_pr = pr.stats().intra_community_fraction.expect("edges");
        let f_ar = ar.stats().intra_community_fraction.expect("edges");
        assert!(f_pr > f_ar, "PR {f_pr} should exceed AR {f_ar}");
    }

    #[test]
    fn memoised_stats_survive_clone_and_with_split() {
        let d = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let fresh = |d: &Dataset| GraphStats::with_communities(d.graph(), d.communities());
        // Cloned before and after the memo is filled.
        let early = d.clone();
        assert_eq!(d.stats(), fresh(&d));
        assert_eq!(d.stats(), fresh(&d), "second read comes from the memo");
        assert_eq!(early.stats(), fresh(&early));
        assert_eq!(d.clone().stats(), fresh(&d));
        let split = Split { train: vec![0, 1], val: vec![2], test: vec![3] };
        let resplit = d.clone().with_split(split).expect("in range");
        assert_eq!(resplit.stats(), fresh(&resplit));
        assert_eq!(resplit.stats(), d.stats());
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Matrix and labels equal bit for bit.
    fn assert_same_features(lazy: &Features, eager: &Features, what: &str) {
        assert_eq!((lazy.dim(), lazy.num_classes()), (eager.dim(), eager.num_classes()), "{what}");
        assert_eq!(lazy.labels(), eager.labels(), "{what}: labels");
        assert!(bits(lazy.matrix()) == bits(eager.matrix()), "{what}: matrix bits");
    }

    /// The reference: `load_scaled`'s generator call, spec and seed,
    /// with the features synthesized at once.
    fn eager_load(id: DatasetId, scale: f64) -> (Vec<u32>, Features) {
        let r = id.recipe();
        let nodes = ((r.nodes as f64 * scale).round() as usize).max(64);
        let (_, communities) = generators::community_preferential(
            nodes,
            r.num_classes,
            r.edges_per_node,
            r.mixing,
            r.seed,
        )
        .expect("generate");
        let spec = FeatureSpec::new(r.feat_dim, r.num_classes)
            .with_noise(r.noise)
            .with_label_noise(r.label_noise);
        let features = Features::synthesize(&communities, &spec, r.seed ^ 0xFEED);
        (communities, features)
    }

    #[test]
    fn lazy_features_equal_the_eager_draw() {
        for id in DatasetId::ALL.into_iter().chain([DatasetId::Synthetic]) {
            for scale in [0.01, 0.04] {
                let d = Dataset::load_scaled(id, scale).expect("load");
                let (communities, eager) = eager_load(id, scale);
                assert_eq!(d.communities(), communities.as_slice(), "{id}@{scale}");
                assert_eq!((d.feat_dim(), d.num_classes()), (eager.dim(), eager.num_classes()));
                assert_same_features(d.features(), &eager, &format!("{id}@{scale}"));
            }
        }
        let d = Dataset::synthetic(700, 4, 48, 12, 99).expect("gen");
        let (_, communities) =
            generators::community_preferential(700, 12, 4, 0.3, 99).expect("generate");
        let spec = FeatureSpec::new(48, 12).with_noise(1.8).with_label_noise(0.12);
        let eager = Features::synthesize(&communities, &spec, 99 ^ 0xFEED);
        assert_eq!(d.communities(), communities.as_slice());
        assert_same_features(d.features(), &eager, "synthetic");
    }

    #[test]
    fn clones_taken_before_the_first_read_share_one_matrix() {
        let d = Dataset::load_scaled(DatasetId::OgbnArxiv, 0.02).expect("load");
        let early = d.clone();
        let split = Split { train: vec![0, 1], val: vec![2], test: vec![3] };
        let resplit = d.clone().with_split(split).expect("in range");
        let first = d.features().matrix();
        assert!(std::ptr::eq(early.features().matrix(), first));
        assert!(std::ptr::eq(resplit.features().matrix(), first));
        assert!(std::ptr::eq(d.clone().features().matrix(), first), "a clone after the read");
        assert!(std::ptr::eq(d.features().matrix(), first), "a second read");
    }

    #[test]
    fn racing_first_reads_see_one_matrix() {
        let d = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let clones: Vec<Dataset> = (0..4).map(|_| d.clone()).collect();
        let start = std::sync::Barrier::new(clones.len());
        let seen: Vec<usize> = std::thread::scope(|s| {
            let readers: Vec<_> = clones
                .iter()
                .map(|c| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        c.features().matrix().as_ptr() as usize
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().expect("reader")).collect()
        });
        let first = d.features().matrix().as_ptr() as usize;
        assert_eq!(seen, vec![first; 4]);
    }

    #[test]
    fn deterministic_across_loads() {
        let a = Dataset::load_scaled(DatasetId::OgbnArxiv, 0.02).expect("load");
        let b = Dataset::load_scaled(DatasetId::OgbnArxiv, 0.02).expect("load");
        assert_eq!(a.graph(), b.graph());
        assert_eq!(a.features(), b.features());
        assert_eq!(a.split(), b.split());
    }
}

#[cfg(test)]
mod synthetic_tests {
    use super::*;

    #[test]
    fn synthetic_datasets_vary_with_seed() {
        let a = Dataset::synthetic(500, 4, 32, 8, 1).expect("gen");
        let b = Dataset::synthetic(500, 4, 32, 8, 2).expect("gen");
        assert_eq!(a.id(), DatasetId::Synthetic);
        assert_eq!(a.num_nodes(), 500);
        assert_ne!(a.graph(), b.graph());
        assert_eq!(a.feat_dim(), 32);
        assert_eq!(a.num_classes(), 8);
    }

    /// At construction: with the draw deferred, a zero dimension must
    /// not wait for the first `features()` call to surface as a panic.
    #[test]
    fn synthetic_rejects_zero_dims() {
        assert!(Dataset::synthetic(100, 3, 0, 4, 1).is_err());
        assert!(Dataset::synthetic(100, 3, 16, 0, 1).is_err());
    }

    #[test]
    fn synthetic_id_has_names() {
        assert_eq!(DatasetId::Synthetic.short_name(), "SYN");
        assert_eq!(DatasetId::Synthetic.full_name(), "synthetic-power-law");
    }

    #[test]
    fn load_synthetic_via_recipe_works() {
        let d = Dataset::load_scaled(DatasetId::Synthetic, 0.1).expect("load");
        assert!(d.num_nodes() >= 64);
    }
}
