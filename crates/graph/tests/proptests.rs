//! Property-based tests for the graph substrate.

use gnnav_graph::{Graph, GraphBuilder, NodeId};
use proptest::prelude::*;

/// Strategy: a random edge list over up to `n` nodes.
fn edges(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_nodes).prop_flat_map(move |n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..max_edges))
    })
}

/// The induction `Graph::induced_subgraph` replaced: scan each node's
/// forward list, keep the neighbours inside the set, sort the row.
/// `from_csr` then validates what the production path only promises.
fn induce_by_scan_and_sort(g: &Graph, nodes: &[NodeId]) -> Graph {
    let local = |u: NodeId| nodes.iter().position(|&v| v == u).map(|i| i as NodeId);
    let mut offsets = vec![0];
    let mut targets = Vec::new();
    for &v in nodes {
        let mut row: Vec<NodeId> = g.neighbors(v).iter().filter_map(|&u| local(u)).collect();
        row.sort_unstable();
        targets.extend(row);
        offsets.push(targets.len());
    }
    Graph::from_csr(nodes.len(), offsets, targets).expect("sorted rows, ids in range")
}

proptest! {
    #[test]
    fn builder_output_is_valid_csr((n, list) in edges(64, 256)) {
        let mut b = GraphBuilder::new(n);
        b.add_edges(list);
        let g = b.build().expect("build");
        // Reconstructing from the raw CSR arrays must validate.
        let rebuilt = Graph::from_csr(
            g.num_nodes(),
            g.offsets().to_vec(),
            g.targets().to_vec(),
        );
        prop_assert!(rebuilt.is_ok());
        prop_assert_eq!(rebuilt.expect("valid"), g);
    }

    #[test]
    fn symmetrized_graph_is_symmetric((n, list) in edges(48, 192)) {
        let mut b = GraphBuilder::new(n);
        b.add_edges(list);
        let g = b.symmetrize().build().expect("build");
        for (u, v) in g.edges() {
            prop_assert!(g.has_edge(v, u), "edge {}->{} missing reverse", u, v);
        }
    }

    #[test]
    fn degrees_sum_to_edge_count((n, list) in edges(64, 256)) {
        let mut b = GraphBuilder::new(n);
        b.add_edges(list);
        let g = b.build().expect("build");
        let degree_sum: usize = g.node_ids().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, g.num_edges());
    }

    #[test]
    fn induced_subgraph_edges_are_subset((n, list) in edges(48, 192)) {
        let mut b = GraphBuilder::new(n);
        b.add_edges(list);
        let g = b.build().expect("build");
        // Take every other node as the subgraph set.
        let nodes: Vec<NodeId> = (0..n as u32).step_by(2).collect();
        let (sub, map) = g.induced_subgraph(&nodes).expect("induce");
        prop_assert_eq!(sub.num_nodes(), nodes.len());
        for (lu, lv) in sub.edges() {
            let (ou, ov) = (map[lu as usize], map[lv as usize]);
            prop_assert!(g.has_edge(ou, ov), "subgraph edge {}->{} not in parent", ou, ov);
        }
    }

    #[test]
    fn induced_subgraph_keeps_all_internal_edges((n, list) in edges(32, 128)) {
        let mut b = GraphBuilder::new(n);
        b.add_edges(list);
        let g = b.build().expect("build");
        let nodes: Vec<NodeId> = (0..n as u32 / 2).collect();
        let in_set = |v: NodeId| (v as usize) < nodes.len();
        let (sub, _) = g.induced_subgraph(&nodes).expect("induce");
        let internal = g
            .edges()
            .filter(|&(u, v)| in_set(u) && in_set(v))
            .count();
        prop_assert_eq!(sub.num_edges(), internal);
    }

    #[test]
    fn induced_subgraph_matches_scan_and_sort(
        (n, list) in edges(40, 200),
        keys in proptest::collection::vec(any::<u32>(), 40),
        share in 0usize..=100,
    ) {
        // Directed, self-loops kept; an arbitrary subset of the nodes
        // in an arbitrary order.
        let mut b = GraphBuilder::new(n);
        b.keep_self_loops().add_edges(list);
        let g = b.build().expect("build");
        let mut nodes: Vec<NodeId> = (0..n as u32).collect();
        nodes.sort_by_key(|&v| keys[v as usize]);
        nodes.truncate((n * share).div_ceil(100));
        let (sub, map) = g.induced_subgraph(&nodes).expect("induce");
        prop_assert_eq!(&map, &nodes);
        prop_assert_eq!(sub, induce_by_scan_and_sort(&g, &nodes));
    }

    #[test]
    fn generators_produce_valid_graphs(seed in 0u64..50, n in 50usize..300) {
        let g = gnnav_graph::generators::barabasi_albert(n, 3, seed).expect("gen");
        prop_assert_eq!(g.num_nodes(), n);
        // Validation through from_csr (sorted, in-range, monotone).
        prop_assert!(Graph::from_csr(
            g.num_nodes(),
            g.offsets().to_vec(),
            g.targets().to_vec()
        )
        .is_ok());
    }

    #[test]
    fn features_match_community_count(n in 10usize..200, dim in 1usize..32) {
        use gnnav_graph::{FeatureSpec, Features};
        let communities: Vec<u32> = (0..n as u32).map(|v| v % 5).collect();
        let f = Features::synthesize(&communities, &FeatureSpec::new(dim, 5), 1);
        prop_assert_eq!(f.num_nodes(), n);
        prop_assert_eq!(f.matrix().len(), n * dim);
        prop_assert!(f.labels().iter().all(|&l| (l as usize) < 5));
    }
}
