//! Property-based tests for the sampling substrate.

use gnnav_graph::generators::barabasi_albert;
use gnnav_sampler::{LocalityBias, Sampler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn samplers(num_nodes: usize) -> [Sampler; 3] {
    [
        Sampler::node_wise(vec![4, 4], LocalityBias::none(num_nodes)),
        Sampler::layer_wise(vec![30, 30], LocalityBias::none(num_nodes)),
        Sampler::subgraph_wise(6, LocalityBias::none(num_nodes)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batches_contain_targets_first(seed in 0u64..30, t in 1usize..40) {
        let g = barabasi_albert(400, 3, 7).expect("gen");
        let targets: Vec<u32> = (0..t as u32).collect();
        for s in samplers(g.num_nodes()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mb = s.sample(&g, &targets, &mut rng).expect("sample");
            // Targets first, in order, deduplicated.
            prop_assert_eq!(&mb.nodes[..mb.targets_len], &targets[..]);
            prop_assert_eq!(mb.targets_len, targets.len());
        }
    }

    #[test]
    fn batch_nodes_are_unique_and_in_range(seed in 0u64..30) {
        let g = barabasi_albert(300, 4, 9).expect("gen");
        let targets: Vec<u32> = (0..16).collect();
        for s in samplers(g.num_nodes()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mb = s.sample(&g, &targets, &mut rng).expect("sample");
            let mut sorted = mb.nodes.clone();
            sorted.sort_unstable();
            let before = sorted.len();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), before, "duplicate nodes in batch");
            prop_assert!(sorted.last().is_none_or(|&v| (v as usize) < g.num_nodes()));
        }
    }

    #[test]
    fn subgraph_edges_exist_in_parent(seed in 0u64..20) {
        let g = barabasi_albert(300, 4, 11).expect("gen");
        let targets: Vec<u32> = (0..20).collect();
        for s in samplers(g.num_nodes()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mb = s.sample(&g, &targets, &mut rng).expect("sample");
            for (lu, lv) in mb.subgraph.edges() {
                let (ou, ov) = (mb.nodes[lu as usize], mb.nodes[lv as usize]);
                prop_assert!(g.has_edge(ou, ov));
            }
        }
    }

    #[test]
    fn node_wise_layer_sizes_bounded_by_fanout(
        seed in 0u64..20,
        k in 1usize..8,
        t in 1usize..24,
    ) {
        let g = barabasi_albert(400, 3, 13).expect("gen");
        let targets: Vec<u32> = (0..t as u32).collect();
        let s = Sampler::node_wise(vec![k, k], LocalityBias::none(g.num_nodes()));
        let mut rng = StdRng::seed_from_u64(seed);
        let mb = s.sample(&g, &targets, &mut rng).expect("sample");
        // Layer l+1 has at most |layer l| * k fresh nodes.
        let mut prev = targets.len();
        for layer in &mb.layers[1..] {
            prop_assert!(layer.len() <= prev * k, "layer of {} exceeds {} * {}", layer.len(), prev, k);
            // Frontier for the next hop includes revisited nodes, so
            // bound by the selection count, not the fresh count.
            prev *= k;
        }
    }

    #[test]
    fn locality_bias_weights_monotone_in_eta(eta1 in 0.0f64..0.5, delta in 0.01f64..0.5) {
        let bias_lo = LocalityBias::new(10, &[3], eta1);
        let bias_hi = LocalityBias::new(10, &[3], eta1 + delta);
        prop_assert!(bias_hi.weight(3) > bias_lo.weight(3));
        prop_assert_eq!(bias_hi.weight(0), 1.0);
    }

    #[test]
    fn weighted_sample_size_is_min_k_len(k in 0usize..20, len in 1usize..15) {
        let bias = LocalityBias::none(50);
        let candidates: Vec<u32> = (0..len as u32).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let out = bias.weighted_sample_without_replacement(&candidates, None, k, &mut rng);
        prop_assert_eq!(out.len(), k.min(len));
    }
}
