//! The three sampler families behind the paper's unified abstraction.
//!
//! Eq. 2 of the paper abstracts every sampler as "fan out `k^l`
//! neighbors per frontier vertex at probability `p(η)`":
//!
//! - [`NodeWiseSampler`] is the direct instantiation (GraphSAGE-style
//!   fanout sampling).
//! - [`LayerWiseSampler`] fixes a per-layer budget `Δ^l` (FastGCN) and
//!   realizes the expected fanout of Eq. 3 by sampling `Δ^l` nodes
//!   from the frontier's neighbor union, importance-weighted by
//!   degree.
//! - [`SubgraphWiseSampler`] is the "many hops, fanout 1" special case
//!   (GraphSAINT random walks).
//!
//! Each sampler accepts a [`LocalityBias`] implementing the biased
//! `p(η)` of cache-aware samplers like 2PGraph.

use crate::locality::LocalityBias;
use crate::minibatch::MiniBatch;
use gnnav_graph::{Graph, GraphError, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

/// Common interface of all samplers: expand a target set `B^0` into a
/// mini-batch subgraph.
pub trait Sampler: std::fmt::Debug + Send + Sync {
    /// Samples a mini-batch rooted at `targets`.
    ///
    /// # Errors
    ///
    /// Returns an error if a target id is out of range for `g`.
    fn sample(
        &self,
        g: &Graph,
        targets: &[NodeId],
        rng: &mut StdRng,
    ) -> Result<MiniBatch, GraphError>;

    /// Number of sampling hops `L`.
    fn num_layers(&self) -> usize;

    /// The analytic expansion skeleton `Π_l (1 + k^l)` of Eq. 12
    /// (before the learned overlap penalty).
    fn expansion_skeleton(&self) -> f64;
}

/// Node-wise fanout sampler (GraphSAGE).
///
/// Layer `l` selects up to `fanouts[l]` neighbors per frontier vertex,
/// weighted by the locality bias.
#[derive(Debug, Clone)]
pub struct NodeWiseSampler {
    fanouts: Vec<usize>,
    bias: LocalityBias,
}

impl NodeWiseSampler {
    /// Creates a sampler with the given per-layer fanouts and bias.
    ///
    /// # Panics
    ///
    /// Panics if `fanouts` is empty or contains 0.
    pub fn new(fanouts: Vec<usize>, bias: LocalityBias) -> Self {
        assert!(!fanouts.is_empty(), "at least one fanout layer required");
        assert!(fanouts.iter().all(|&k| k > 0), "fanouts must be positive");
        NodeWiseSampler { fanouts, bias }
    }

    /// The per-layer fanouts.
    pub fn fanouts(&self) -> &[usize] {
        &self.fanouts
    }
}

impl Sampler for NodeWiseSampler {
    fn sample(
        &self,
        g: &Graph,
        targets: &[NodeId],
        rng: &mut StdRng,
    ) -> Result<MiniBatch, GraphError> {
        validate_targets(g, targets)?;
        let mut layers: Vec<Vec<NodeId>> = vec![targets.to_vec()];
        // One membership map and one key buffer for the whole call: the
        // map is cleared after each hop by walking what the hop set.
        let mut in_next = vec![false; g.num_nodes()];
        let mut keyed = Vec::new();
        for &k in &self.fanouts {
            let frontier = layers.last().expect("the target layer");
            if frontier.is_empty() {
                break;
            }
            let mut next: Vec<NodeId> = Vec::new();
            for &v in frontier {
                self.bias.select_each(g.neighbors(v), None, k, rng, &mut keyed, |u| {
                    if !in_next[u as usize] {
                        in_next[u as usize] = true;
                        next.push(u);
                    }
                });
            }
            next.iter().for_each(|&u| in_next[u as usize] = false);
            layers.push(next);
        }
        MiniBatch::from_layers(g, layers)
    }

    fn num_layers(&self) -> usize {
        self.fanouts.len()
    }

    fn expansion_skeleton(&self) -> f64 {
        self.fanouts.iter().map(|&k| 1.0 + k as f64).product()
    }
}

/// Layer-wise budgeted sampler (FastGCN).
///
/// Layer `l` samples `layer_sizes[l]` nodes from the union of the
/// frontier's neighborhoods, importance-weighted by degree (and the
/// locality bias).
#[derive(Debug, Clone)]
pub struct LayerWiseSampler {
    layer_sizes: Vec<usize>,
    bias: LocalityBias,
}

impl LayerWiseSampler {
    /// Creates a sampler with fixed per-layer node budgets `Δ^l`.
    ///
    /// # Panics
    ///
    /// Panics if `layer_sizes` is empty or contains 0.
    pub fn new(layer_sizes: Vec<usize>, bias: LocalityBias) -> Self {
        assert!(!layer_sizes.is_empty(), "at least one layer required");
        assert!(layer_sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        LayerWiseSampler { layer_sizes, bias }
    }

    /// The per-layer budgets `Δ^l`.
    pub fn layer_sizes(&self) -> &[usize] {
        &self.layer_sizes
    }
}

impl Sampler for LayerWiseSampler {
    fn sample(
        &self,
        g: &Graph,
        targets: &[NodeId],
        rng: &mut StdRng,
    ) -> Result<MiniBatch, GraphError> {
        validate_targets(g, targets)?;
        let mut layers: Vec<Vec<NodeId>> = vec![targets.to_vec()];
        let mut seen = vec![false; g.num_nodes()];
        let mut candidates: Vec<NodeId> = Vec::new();
        let degree_importance = |v: NodeId| g.degree(v) as f64;
        for &delta in &self.layer_sizes {
            let frontier = layers.last().expect("the target layer");
            if frontier.is_empty() {
                break;
            }
            // Union of neighbors of the frontier.
            candidates.clear();
            for &v in frontier {
                for &u in g.neighbors(v) {
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        candidates.push(u);
                    }
                }
            }
            candidates.iter().for_each(|&u| seen[u as usize] = false);
            layers.push(self.bias.weighted_sample_without_replacement(
                &candidates,
                Some(&degree_importance),
                delta,
                rng,
            ));
        }
        MiniBatch::from_layers(g, layers)
    }

    fn num_layers(&self) -> usize {
        self.layer_sizes.len()
    }

    fn expansion_skeleton(&self) -> f64 {
        // Eq. 3: the budget *is* the expected layer size.
        let total: usize = self.layer_sizes.iter().sum();
        1.0 + total as f64
    }
}

/// Subgraph-wise random-walk sampler (GraphSAINT).
///
/// Each target starts a random walk of `walk_length` hops; the batch
/// is the union of visited nodes. Per the paper's unification this is
/// node-wise sampling with many hops and fanout 1.
#[derive(Debug, Clone)]
pub struct SubgraphWiseSampler {
    walk_length: usize,
    bias: LocalityBias,
}

impl SubgraphWiseSampler {
    /// Creates a sampler whose walks take `walk_length` hops.
    ///
    /// # Panics
    ///
    /// Panics if `walk_length == 0`.
    pub fn new(walk_length: usize, bias: LocalityBias) -> Self {
        assert!(walk_length > 0, "walk_length must be > 0");
        SubgraphWiseSampler { walk_length, bias }
    }

    /// The number of hops per walk.
    pub fn walk_length(&self) -> usize {
        self.walk_length
    }
}

impl Sampler for SubgraphWiseSampler {
    fn sample(
        &self,
        g: &Graph,
        targets: &[NodeId],
        rng: &mut StdRng,
    ) -> Result<MiniBatch, GraphError> {
        validate_targets(g, targets)?;
        let mut visited: Vec<Vec<NodeId>> = vec![Vec::new(); self.walk_length];
        for &t in targets {
            let mut cur = t;
            for step in visited.iter_mut() {
                let neigh = g.neighbors(cur);
                if neigh.is_empty() {
                    break;
                }
                // Fanout-1 biased step.
                let next = if self.bias.eta() > 0.0 {
                    self.bias.weighted_pick(neigh, None, rng)
                } else {
                    neigh[rng.gen_range(0..neigh.len())]
                };
                step.push(next);
                cur = next;
            }
        }
        let mut layers = Vec::with_capacity(1 + self.walk_length);
        layers.push(targets.to_vec());
        layers.extend(visited);
        MiniBatch::from_layers(g, layers)
    }

    fn num_layers(&self) -> usize {
        self.walk_length
    }

    fn expansion_skeleton(&self) -> f64 {
        // Fanout 1 per hop: (1 + 1)^hops would overcount heavily since
        // walks revisit; the skeleton is 1 + hops per target.
        1.0 + self.walk_length as f64
    }
}

fn validate_targets(g: &Graph, targets: &[NodeId]) -> Result<(), GraphError> {
    for &t in targets {
        if (t as usize) >= g.num_nodes() {
            return Err(GraphError::NodeOutOfRange { node: t, num_nodes: g.num_nodes() });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnav_graph::generators::barabasi_albert;
    use rand::SeedableRng;

    fn graph() -> Graph {
        barabasi_albert(500, 4, 1).expect("gen")
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn node_wise_respects_fanout_bound() {
        let g = graph();
        let s = NodeWiseSampler::new(vec![5, 5], LocalityBias::none(g.num_nodes()));
        let targets: Vec<u32> = (0..20).collect();
        let mb = s.sample(&g, &targets, &mut rng(2)).expect("sample");
        assert_eq!(mb.targets_len, 20);
        // Layer 1 at most 20 * 5 nodes.
        assert!(mb.layers[1].len() <= 100);
        assert!(mb.num_nodes() <= 20 + 100 + 500);
        assert!(mb.num_nodes() > 20, "should expand");
    }

    #[test]
    fn node_wise_larger_fanout_larger_batch() {
        let g = graph();
        let targets: Vec<u32> = (0..30).collect();
        let small = NodeWiseSampler::new(vec![2, 2], LocalityBias::none(g.num_nodes()))
            .sample(&g, &targets, &mut rng(3))
            .expect("sample");
        let large = NodeWiseSampler::new(vec![10, 10], LocalityBias::none(g.num_nodes()))
            .sample(&g, &targets, &mut rng(3))
            .expect("sample");
        assert!(large.num_nodes() > small.num_nodes());
    }

    #[test]
    fn node_wise_rejects_bad_target() {
        let g = graph();
        let s = NodeWiseSampler::new(vec![3], LocalityBias::none(g.num_nodes()));
        assert!(s.sample(&g, &[9999], &mut rng(1)).is_err());
    }

    #[test]
    fn node_wise_biased_prefers_hot_set() {
        let g = graph();
        let hot: Vec<u32> = (0..50).collect(); // BA early nodes = hubs
        let biased = NodeWiseSampler::new(vec![3, 3], LocalityBias::new(g.num_nodes(), &hot, 1.0));
        let unbiased = NodeWiseSampler::new(vec![3, 3], LocalityBias::none(g.num_nodes()));
        let targets: Vec<u32> = (100..160).collect();
        let hot_frac = |mb: &MiniBatch| {
            let h = mb.nodes.iter().filter(|&&v| v < 50).count();
            h as f64 / mb.num_nodes() as f64
        };
        let mut fb = 0.0;
        let mut fu = 0.0;
        for seed in 0..5 {
            fb += hot_frac(&biased.sample(&g, &targets, &mut rng(seed)).expect("s"));
            fu += hot_frac(&unbiased.sample(&g, &targets, &mut rng(seed)).expect("s"));
        }
        assert!(fb > fu, "biased hot fraction {fb} <= unbiased {fu}");
    }

    #[test]
    fn layer_wise_respects_budget() {
        let g = graph();
        let s = LayerWiseSampler::new(vec![40, 40], LocalityBias::none(g.num_nodes()));
        let targets: Vec<u32> = (0..25).collect();
        let mb = s.sample(&g, &targets, &mut rng(4)).expect("sample");
        assert!(mb.layers[1].len() <= 40);
        assert!(mb.layers.get(2).map_or(0, Vec::len) <= 40);
        // Total bounded by |B0| + Σ Δ^l.
        assert!(mb.num_nodes() <= 25 + 80);
    }

    #[test]
    fn layer_wise_batch_size_stable_vs_node_wise() {
        // The point of layer-wise sampling: |V_i| does not blow up with
        // target count the way node-wise does.
        let g = graph();
        let targets: Vec<u32> = (0..100).collect();
        let lw = LayerWiseSampler::new(vec![50, 50], LocalityBias::none(g.num_nodes()))
            .sample(&g, &targets, &mut rng(5))
            .expect("s");
        let nw = NodeWiseSampler::new(vec![10, 10], LocalityBias::none(g.num_nodes()))
            .sample(&g, &targets, &mut rng(5))
            .expect("s");
        assert!(lw.num_nodes() < nw.num_nodes());
    }

    #[test]
    fn subgraph_wise_visits_along_walks() {
        let g = graph();
        let s = SubgraphWiseSampler::new(8, LocalityBias::none(g.num_nodes()));
        let targets: Vec<u32> = (0..10).collect();
        let mb = s.sample(&g, &targets, &mut rng(6)).expect("sample");
        assert!(mb.num_nodes() > 10);
        // At most 1 new node per hop per target.
        assert!(mb.num_nodes() <= 10 + 10 * 8);
    }

    #[test]
    fn samplers_are_deterministic_given_rng_seed() {
        let g = graph();
        let targets: Vec<u32> = (0..15).collect();
        let s = NodeWiseSampler::new(vec![4, 4], LocalityBias::none(g.num_nodes()));
        let a = s.sample(&g, &targets, &mut rng(7)).expect("s");
        let b = s.sample(&g, &targets, &mut rng(7)).expect("s");
        assert_eq!(a.nodes, b.nodes);
    }

    #[test]
    fn expansion_skeletons() {
        let n = NodeWiseSampler::new(vec![10, 5], LocalityBias::none(1));
        assert!((n.expansion_skeleton() - 66.0).abs() < 1e-12);
        let l = LayerWiseSampler::new(vec![30, 30], LocalityBias::none(1));
        assert!((l.expansion_skeleton() - 61.0).abs() < 1e-12);
        let w = SubgraphWiseSampler::new(4, LocalityBias::none(1));
        assert!((w.expansion_skeleton() - 5.0).abs() < 1e-12);
        assert_eq!(n.num_layers(), 2);
        assert_eq!(w.num_layers(), 4);
        assert_eq!(w.walk_length(), 4);
        assert_eq!(n.fanouts(), &[10, 5]);
        assert_eq!(l.layer_sizes(), &[30, 30]);
    }

    #[test]
    #[should_panic(expected = "fanouts must be positive")]
    fn zero_fanout_rejected() {
        let _ = NodeWiseSampler::new(vec![5, 0], LocalityBias::none(1));
    }
}
