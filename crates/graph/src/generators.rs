//! Seeded synthetic graph generators.
//!
//! All generators are deterministic given their seed, which keeps the
//! whole evaluation pipeline reproducible: dataset stand-ins, estimator
//! training sweeps, and benchmark tables regenerate identical graphs on
//! every run.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId};
use crate::GraphError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a Barabási–Albert preferential-attachment graph: each new
/// node attaches to `edges_per_node` existing nodes chosen proportional
/// to degree. Degree distribution follows a power law.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `num_nodes == 0` or
/// `edges_per_node == 0`.
pub fn barabasi_albert(
    num_nodes: usize,
    edges_per_node: usize,
    seed: u64,
) -> Result<Graph, GraphError> {
    if num_nodes == 0 || edges_per_node == 0 {
        return Err(GraphError::InvalidParameter(
            "num_nodes and edges_per_node must be > 0".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let m = edges_per_node;
    let seed_nodes = (m + 1).min(num_nodes);
    // The seed clique, then `m` edges per later node; `build` makes the
    // reverse copies itself.
    let raw_edges = seed_nodes * (seed_nodes - 1) / 2 + (num_nodes - seed_nodes) * m;
    let mut b = GraphBuilder::with_capacity(num_nodes, raw_edges);
    // Repeated-endpoints list: sampling uniformly from it is sampling
    // proportional to degree (the classic BA trick).
    let mut endpoints: Vec<NodeId> = Vec::with_capacity((raw_edges * 2).max(1));
    for u in 0..seed_nodes {
        for v in 0..u {
            b.add_edge(u as NodeId, v as NodeId);
            endpoints.push(u as NodeId);
            endpoints.push(v as NodeId);
        }
    }
    if endpoints.is_empty() {
        // Single-node seed: bootstrap with a self-reference pool.
        endpoints.push(0);
    }
    for u in seed_nodes..num_nodes {
        for _ in 0..m {
            let v = endpoints[rng.gen_range(0..endpoints.len())];
            b.add_edge(u as NodeId, v);
            endpoints.push(u as NodeId);
            endpoints.push(v);
        }
    }
    b.symmetrize().build()
}

/// Generates a community-aware preferential-attachment graph: the
/// hybrid used for the paper's dataset stand-ins.
///
/// Nodes arrive one at a time, are assigned round-robin to
/// `num_communities` communities, and attach `edges_per_node` edges.
/// Each edge endpoint is chosen preferentially by degree *within the
/// node's own community* with probability `1 - mixing`, and from the
/// whole graph with probability `mixing`. The result combines a
/// power-law degree distribution (cache-relevant skew) with community
/// structure (label-relevant clusters).
///
/// Returns the graph and each node's community id.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for zero nodes/communities/
/// edges or `mixing` outside `[0, 1]`.
pub fn community_preferential(
    num_nodes: usize,
    num_communities: usize,
    edges_per_node: usize,
    mixing: f64,
    seed: u64,
) -> Result<(Graph, Vec<u32>), GraphError> {
    if num_nodes == 0 || num_communities == 0 || edges_per_node == 0 {
        return Err(GraphError::InvalidParameter(
            "nodes, communities and edges_per_node must be > 0".into(),
        ));
    }
    if !(0.0..=1.0).contains(&mixing) {
        return Err(GraphError::InvalidParameter(format!("mixing {mixing} outside [0, 1]")));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let community: Vec<u32> = (0..num_nodes).map(|v| (v % num_communities) as u32).collect();
    // At most `edges_per_node` edges per node; `build` makes the
    // reverse copies itself.
    let mut b = GraphBuilder::with_capacity(num_nodes, num_nodes * edges_per_node);
    // Per-community and global degree-proportional endpoint pools. The
    // global pool takes both endpoints of every edge and each node once.
    let mut pools: Vec<Vec<NodeId>> = vec![Vec::new(); num_communities];
    let mut global: Vec<NodeId> = Vec::with_capacity(num_nodes * (2 * edges_per_node + 1));
    for v in 0..num_nodes {
        let cid = community[v] as usize;
        for _ in 0..edges_per_node {
            let pick_global = rng.gen::<f64>() < mixing || pools[cid].is_empty();
            let target = if pick_global && !global.is_empty() {
                global[rng.gen_range(0..global.len())]
            } else if !pools[cid].is_empty() {
                pools[cid][rng.gen_range(0..pools[cid].len())]
            } else if !global.is_empty() {
                global[rng.gen_range(0..global.len())]
            } else {
                break; // very first node: nothing to attach to yet
            };
            if target as usize == v {
                continue;
            }
            b.add_edge(v as NodeId, target);
            let tcid = community[target as usize] as usize;
            pools[cid].push(v as NodeId);
            pools[tcid].push(target);
            global.push(v as NodeId);
            global.push(target);
        }
        // Ensure every node appears at least once in the pools so
        // isolated early nodes can still be chosen later.
        pools[cid].push(v as NodeId);
        global.push(v as NodeId);
    }
    let g = b.symmetrize().build()?;
    Ok((g, community))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barabasi_albert_is_skewed() {
        let g = barabasi_albert(3000, 3, 7).expect("gen");
        // Power law: max degree far above average.
        assert!(g.max_degree() as f64 > 5.0 * g.avg_degree());
    }

    #[test]
    fn barabasi_albert_connected_enough() {
        let g = barabasi_albert(500, 2, 3).expect("gen");
        let isolated = g.node_ids().filter(|&v| g.degree(v) == 0).count();
        assert_eq!(isolated, 0);
    }

    #[test]
    fn community_preferential_has_skew_and_communities() {
        let (g, comm) = community_preferential(2000, 8, 4, 0.2, 13).expect("gen");
        assert_eq!(comm.len(), 2000);
        assert!(g.max_degree() as f64 > 4.0 * g.avg_degree());
        let mut intra = 0usize;
        let mut total = 0usize;
        for (u, v) in g.edges() {
            total += 1;
            if comm[u as usize] == comm[v as usize] {
                intra += 1;
            }
        }
        // With mixing 0.2 most edges should stay inside communities.
        assert!(intra as f64 > 0.55 * total as f64, "intra {intra}/{total}");
    }

    #[test]
    fn community_preferential_mixing_one_is_unclustered() {
        let (g, comm) = community_preferential(1500, 10, 4, 1.0, 17).expect("gen");
        let mut intra = 0usize;
        let mut total = 0usize;
        for (u, v) in g.edges() {
            total += 1;
            if comm[u as usize] == comm[v as usize] {
                intra += 1;
            }
        }
        // Fully mixed: intra fraction close to 1/num_communities.
        assert!((intra as f64 / total as f64) < 0.3);
        assert!(g.num_edges() > 0);
    }
}
