//! One sampler for the three families of the paper's unified
//! abstraction.
//!
//! Eq. 2 of the paper abstracts every sampler as "fan out `k^l`
//! neighbors per frontier vertex at probability `p(η)`". [`Sampler`]
//! is that rule with one of three parameterizations:
//!
//! - [`Sampler::node_wise`] is the direct instantiation
//!   (GraphSAGE-style fanout sampling).
//! - [`Sampler::layer_wise`] fixes a per-layer budget `Δ^l` (FastGCN)
//!   and realizes the expected fanout of Eq. 3 by sampling `Δ^l` nodes
//!   from the frontier's neighbor union, importance-weighted by
//!   degree.
//! - [`Sampler::subgraph_wise`] is the "many hops, fanout 1" special
//!   case (GraphSAINT random walks).
//!
//! Every family selects through one [`LocalityBias`], the biased
//! `p(η)` of cache-aware samplers like 2PGraph.

use crate::locality::LocalityBias;
use crate::minibatch::MiniBatch;
use gnnav_graph::{Graph, GraphError, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

/// What a [`Sampler`] expands a target set `B^0` by.
#[derive(Debug, Clone)]
enum Family {
    /// Node-wise: layer `l` selects up to `k^l` neighbors per frontier
    /// vertex.
    Fanouts(Vec<usize>),
    /// Layer-wise: layer `l` samples `Δ^l` nodes from the union of the
    /// frontier's neighborhoods.
    LayerBudgets(Vec<usize>),
    /// Subgraph-wise: each target starts a walk of this many hops.
    WalkLength(usize),
}

/// A mini-batch sampler: expands a target set `B^0` into a mini-batch
/// subgraph, selecting through its [`LocalityBias`].
#[derive(Debug, Clone)]
pub struct Sampler {
    family: Family,
    bias: LocalityBias,
}

impl Sampler {
    /// Node-wise fanout sampling (GraphSAGE): layer `l` selects up to
    /// `fanouts[l]` neighbors per frontier vertex, weighted by the
    /// locality bias.
    ///
    /// # Panics
    ///
    /// Panics if `fanouts` is empty or contains 0.
    pub fn node_wise(fanouts: Vec<usize>, bias: LocalityBias) -> Self {
        assert!(!fanouts.is_empty(), "at least one fanout layer required");
        assert!(fanouts.iter().all(|&k| k > 0), "fanouts must be positive");
        Sampler { family: Family::Fanouts(fanouts), bias }
    }

    /// Layer-wise budgeted sampling (FastGCN): layer `l` samples
    /// `layer_sizes[l]` nodes `Δ^l` from the union of the frontier's
    /// neighborhoods, importance-weighted by degree (and the locality
    /// bias).
    ///
    /// # Panics
    ///
    /// Panics if `layer_sizes` is empty or contains 0.
    pub fn layer_wise(layer_sizes: Vec<usize>, bias: LocalityBias) -> Self {
        assert!(!layer_sizes.is_empty(), "at least one layer required");
        assert!(layer_sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        Sampler { family: Family::LayerBudgets(layer_sizes), bias }
    }

    /// Subgraph-wise random walks (GraphSAINT): each target starts a
    /// walk of `walk_length` hops and the batch is the union of visited
    /// nodes — node-wise sampling with many hops and fanout 1.
    ///
    /// # Panics
    ///
    /// Panics if `walk_length == 0`.
    pub fn subgraph_wise(walk_length: usize, bias: LocalityBias) -> Self {
        assert!(walk_length > 0, "walk_length must be > 0");
        Sampler { family: Family::WalkLength(walk_length), bias }
    }

    /// The locality bias every selection goes through.
    pub fn bias(&self) -> &LocalityBias {
        &self.bias
    }

    /// Samples a mini-batch rooted at `targets`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if a target id is out of
    /// range for `g`.
    pub fn sample(
        &self,
        g: &Graph,
        targets: &[NodeId],
        rng: &mut StdRng,
    ) -> Result<MiniBatch, GraphError> {
        for &t in targets {
            if (t as usize) >= g.num_nodes() {
                return Err(GraphError::NodeOutOfRange { node: t, num_nodes: g.num_nodes() });
            }
        }
        let layers = match &self.family {
            Family::Fanouts(fanouts) => {
                let mut layers: Vec<Vec<NodeId>> = vec![targets.to_vec()];
                // One membership map and one key buffer for the whole
                // call: the map is cleared after each hop by walking
                // what the hop set.
                let mut in_next = vec![false; g.num_nodes()];
                let mut keyed = Vec::new();
                for &k in fanouts {
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
                layers
            }
            Family::LayerBudgets(layer_sizes) => {
                let mut layers: Vec<Vec<NodeId>> = vec![targets.to_vec()];
                let mut seen = vec![false; g.num_nodes()];
                let mut candidates: Vec<NodeId> = Vec::new();
                let degree_importance = |v: NodeId| g.degree(v) as f64;
                for &delta in layer_sizes {
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
                layers
            }
            &Family::WalkLength(walk_length) => {
                let mut visited: Vec<Vec<NodeId>> = vec![Vec::new(); walk_length];
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
                let mut layers = Vec::with_capacity(1 + walk_length);
                layers.push(targets.to_vec());
                layers.extend(visited);
                layers
            }
        };
        MiniBatch::from_layers(g, layers)
    }
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
        let s = Sampler::node_wise(vec![5, 5], LocalityBias::none(g.num_nodes()));
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
        let small = Sampler::node_wise(vec![2, 2], LocalityBias::none(g.num_nodes()))
            .sample(&g, &targets, &mut rng(3))
            .expect("sample");
        let large = Sampler::node_wise(vec![10, 10], LocalityBias::none(g.num_nodes()))
            .sample(&g, &targets, &mut rng(3))
            .expect("sample");
        assert!(large.num_nodes() > small.num_nodes());
    }

    #[test]
    fn node_wise_rejects_bad_target() {
        let g = graph();
        let s = Sampler::node_wise(vec![3], LocalityBias::none(g.num_nodes()));
        assert!(s.sample(&g, &[9999], &mut rng(1)).is_err());
    }

    #[test]
    fn node_wise_biased_prefers_hot_set() {
        let g = graph();
        let hot: Vec<u32> = (0..50).collect(); // BA early nodes = hubs
        let biased = Sampler::node_wise(vec![3, 3], LocalityBias::new(g.num_nodes(), &hot, 1.0));
        let unbiased = Sampler::node_wise(vec![3, 3], LocalityBias::none(g.num_nodes()));
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
        let s = Sampler::layer_wise(vec![40, 40], LocalityBias::none(g.num_nodes()));
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
        let lw = Sampler::layer_wise(vec![50, 50], LocalityBias::none(g.num_nodes()))
            .sample(&g, &targets, &mut rng(5))
            .expect("s");
        let nw = Sampler::node_wise(vec![10, 10], LocalityBias::none(g.num_nodes()))
            .sample(&g, &targets, &mut rng(5))
            .expect("s");
        assert!(lw.num_nodes() < nw.num_nodes());
    }

    #[test]
    fn subgraph_wise_visits_along_walks() {
        let g = graph();
        let s = Sampler::subgraph_wise(8, LocalityBias::none(g.num_nodes()));
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
        let s = Sampler::node_wise(vec![4, 4], LocalityBias::none(g.num_nodes()));
        let a = s.sample(&g, &targets, &mut rng(7)).expect("s");
        let b = s.sample(&g, &targets, &mut rng(7)).expect("s");
        assert_eq!(a.nodes, b.nodes);
    }

    #[test]
    #[should_panic(expected = "fanouts must be positive")]
    fn zero_fanout_rejected() {
        let _ = Sampler::node_wise(vec![5, 0], LocalityBias::none(1));
    }

    #[test]
    #[should_panic(expected = "layer sizes must be positive")]
    fn zero_layer_size_rejected() {
        let _ = Sampler::layer_wise(vec![30, 0], LocalityBias::none(1));
    }

    #[test]
    #[should_panic(expected = "walk_length must be > 0")]
    fn zero_walk_length_rejected() {
        let _ = Sampler::subgraph_wise(0, LocalityBias::none(1));
    }
}
