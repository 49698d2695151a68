//! Mini-batch representation shared by all samplers.

use gnnav_graph::{Graph, GraphError, NodeId};

/// A sampled mini-batch `G_i(V_i, E_i)`.
///
/// Node ordering contract: [`MiniBatch::nodes`] lists the batch's
/// target vertices (`B^0`) first, followed by nodes discovered at each
/// deeper sampling layer, deduplicated. Local ids in
/// [`MiniBatch::subgraph`] index into this list, so the first
/// `targets_len` local ids are exactly the loss rows.
#[derive(Debug, Clone)]
pub struct MiniBatch {
    /// Per-layer frontiers `B^0..B^L` in original node ids. `B^0` are
    /// the targets; deeper layers hold the *newly discovered* nodes.
    pub layers: Vec<Vec<NodeId>>,
    /// All unique batch nodes (original ids), targets first.
    pub nodes: Vec<NodeId>,
    /// Induced subgraph over `nodes`, with local ids `0..nodes.len()`.
    pub subgraph: Graph,
    /// Number of target vertices (`|B^0|`); local ids `0..targets_len`
    /// are the targets.
    pub targets_len: usize,
}

impl MiniBatch {
    /// Assembles a batch from layered frontiers, inducing the
    /// subgraph. `layers[0]` must be the target set.
    ///
    /// Ids that are not nodes of `g` are *skipped*, not reported: the
    /// dedup pass drops them together with repeats, so what reaches
    /// [`Graph::induced_subgraph`] is always in range and distinct.
    /// The guard against a bad target is the samplers' own check
    /// before they expand anything ([`Sampler::sample`] returns
    /// [`GraphError::NodeOutOfRange`]); every deeper id is read from
    /// `g`'s neighbor lists and cannot be out of range.
    ///
    /// # Errors
    ///
    /// None in practice; the `Result` carries the induction's error
    /// type, whose two causes the dedup pass has already removed.
    ///
    /// [`Sampler::sample`]: crate::Sampler::sample
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or `layers[0]` is empty.
    pub fn from_layers(g: &Graph, layers: Vec<Vec<NodeId>>) -> Result<Self, GraphError> {
        assert!(!layers.is_empty(), "at least the target layer required");
        assert!(!layers[0].is_empty(), "target layer must be non-empty");
        let mut seen = vec![false; g.num_nodes()];
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut dedup_layers: Vec<Vec<NodeId>> = Vec::with_capacity(layers.len());
        for layer in &layers {
            let mut fresh = Vec::new();
            for &v in layer {
                if (v as usize) < g.num_nodes() && !seen[v as usize] {
                    seen[v as usize] = true;
                    nodes.push(v);
                    fresh.push(v);
                }
            }
            dedup_layers.push(fresh);
        }
        let targets_len = dedup_layers[0].len();
        let (subgraph, _) = g.induced_subgraph(&nodes)?;
        Ok(MiniBatch { layers: dedup_layers, nodes, subgraph, targets_len })
    }

    /// `|V_i|`: total unique nodes in the batch.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Edges in the induced subgraph.
    pub fn num_edges(&self) -> usize {
        self.subgraph.num_edges()
    }

    /// Subgraph growth `|V_i| - |B^0|` (the paper's sampling-cost
    /// driver, Eq. 7).
    pub fn expansion(&self) -> usize {
        self.nodes.len() - self.targets_len
    }

    /// Local ids of the target vertices (always `0..targets_len`).
    pub fn target_locals(&self) -> Vec<u32> {
        (0..self.targets_len as u32).collect()
    }
}

/// Splits `ids` into shuffled mini-batch target chunks of
/// `batch_size`, the iteration structure of Algorithm 1 line 1.
///
/// The final chunk may be smaller. Returns an empty vector when `ids`
/// is empty.
///
/// # Panics
///
/// Panics if `batch_size == 0`.
pub fn batch_targets(
    ids: &[NodeId],
    batch_size: usize,
    rng: &mut impl rand::Rng,
) -> Vec<Vec<NodeId>> {
    assert!(batch_size > 0, "batch_size must be > 0");
    use rand::seq::SliceRandom;
    let mut shuffled = ids.to_vec();
    shuffled.shuffle(rng);
    shuffled.chunks(batch_size).map(<[NodeId]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnav_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for v in 0..(n - 1) as u32 {
            b.add_edge(v, v + 1);
        }
        b.symmetrize().build().expect("build")
    }

    #[test]
    fn from_layers_orders_targets_first_and_dedups() {
        let g = line(6);
        let mb =
            MiniBatch::from_layers(&g, vec![vec![2, 3], vec![1, 3, 4], vec![0, 1]]).expect("batch");
        assert_eq!(mb.nodes, vec![2, 3, 1, 4, 0]);
        assert_eq!(mb.targets_len, 2);
        assert_eq!(mb.layers[1], vec![1, 4]); // 3 was already seen
        assert_eq!(mb.expansion(), 3);
        assert_eq!(mb.target_locals(), vec![0, 1]);
    }

    #[test]
    fn from_layers_dedups_within_target_layer() {
        let g = line(5);
        // A target repeated in B^0 counts once; targets_len reflects
        // the deduplicated target set so loss rows stay aligned.
        let mb = MiniBatch::from_layers(&g, vec![vec![1, 2, 1], vec![3]]).expect("batch");
        assert_eq!(mb.nodes, vec![1, 2, 3]);
        assert_eq!(mb.targets_len, 2);
        assert_eq!(mb.layers[0], vec![1, 2]);
        assert_eq!(mb.target_locals(), vec![0, 1]);
    }

    #[test]
    fn from_layers_skips_out_of_range_ids() {
        let g = line(4);
        let mb = MiniBatch::from_layers(&g, vec![vec![1, 99], vec![400, 2]]).expect("batch");
        assert_eq!(mb.nodes, vec![1, 2]);
        assert_eq!(mb.targets_len, 1);
        assert_eq!(mb.layers, vec![vec![1], vec![2]]);
    }

    #[test]
    fn from_layers_local_ids_match_node_positions() {
        let g = line(6);
        let mb = MiniBatch::from_layers(&g, vec![vec![4, 2], vec![3, 5]]).expect("batch");
        // The first `targets_len` local ids are exactly the targets,
        // and the subgraph has one local id per unique node.
        assert_eq!(mb.nodes[..mb.targets_len], [4, 2]);
        assert_eq!(mb.subgraph.num_nodes(), mb.nodes.len());
        assert_eq!(mb.num_nodes(), 4);
        assert_eq!(mb.expansion(), 2);
    }

    #[test]
    fn subgraph_preserves_internal_edges() {
        let g = line(5);
        let mb = MiniBatch::from_layers(&g, vec![vec![1], vec![0, 2]]).expect("batch");
        // Local: 1->0, 0->1, 2->2. Edges 1-0 and 1-2 exist.
        assert!(mb.subgraph.has_edge(0, 1));
        assert!(mb.subgraph.has_edge(0, 2));
        assert!(!mb.subgraph.has_edge(1, 2));
    }

    #[test]
    #[should_panic(expected = "target layer must be non-empty")]
    fn empty_targets_rejected() {
        let g = line(3);
        let _ = MiniBatch::from_layers(&g, vec![vec![]]);
    }

    #[test]
    fn batch_targets_partitions() {
        let ids: Vec<u32> = (0..10).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let batches = batch_targets(&ids, 4, &mut rng);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 4);
        assert_eq!(batches[2].len(), 2);
        let mut all: Vec<u32> = batches.concat();
        all.sort_unstable();
        assert_eq!(all, ids);
    }

    #[test]
    fn batch_targets_deterministic_per_seed() {
        let ids: Vec<u32> = (0..20).collect();
        let a = batch_targets(&ids, 6, &mut StdRng::seed_from_u64(5));
        let b = batch_targets(&ids, 6, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }
}
