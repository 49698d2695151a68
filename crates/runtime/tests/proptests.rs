//! Property-based tests for the runtime configuration layer.

use gnnav_cache::CachePolicy;
use gnnav_graph::generators::barabasi_albert;
use gnnav_hwsim::Precision;
use gnnav_nn::ModelKind;
use gnnav_runtime::{DesignSpace, SamplerKind, TrainingConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn config_strategy() -> impl Strategy<Value = TrainingConfig> {
    (
        0usize..3,
        proptest::collection::vec(1usize..30, 1..4),
        0.0f64..=1.0,
        1usize..2048,
        0usize..5,
        0.0f64..=1.0,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(s, fanouts, eta, batch, policy, ratio, update, pipelined)| {
            let policy = CachePolicy::ALL[policy];
            let ratio = if policy == CachePolicy::None { 0.0 } else { ratio };
            TrainingConfig {
                sampler: SamplerKind::ALL[s],
                fanouts,
                locality_eta: eta,
                batch_size: batch,
                cache_ratio: ratio,
                cache_policy: policy,
                cache_update: update,
                pipelined,
                precision: Precision::Fp32,
                model: ModelKind::Sage,
                hidden_dim: 16,
                dropout: 0.0,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_configs_validate_and_build_samplers(config in config_strategy()) {
        prop_assert!(config.validate().is_ok(), "{}", config.summary());
        let g = barabasi_albert(200, 3, 1).expect("gen");
        let sampler = config.build_sampler(&g).expect("build sampler");
        let targets: Vec<u32> = (0..8).collect();
        let mb = sampler.sample(&g, &targets, &mut StdRng::seed_from_u64(3)).expect("sample");
        prop_assert_eq!(&mb.nodes[..mb.targets_len], &targets[..]);
    }

    #[test]
    fn cache_entries_bounded_by_nodes(config in config_strategy(), n in 1usize..100_000) {
        prop_assert!(config.cache_entries(n) <= n);
    }

    #[test]
    fn hot_set_size_tracks_cache_ratio(ratio in 0.01f64..1.0) {
        let g = barabasi_albert(500, 3, 2).expect("gen");
        let config = TrainingConfig {
            cache_ratio: ratio,
            cache_policy: CachePolicy::StaticDegree,
            ..TrainingConfig::default()
        };
        let hot = config.hot_set(&g);
        prop_assert_eq!(hot.len(), config.cache_entries(500));
    }

    #[test]
    fn space_config_at_roundtrips_indices(seed in 0u64..50) {
        let space = DesignSpace::standard();
        let configs = space.sample(5, ModelKind::Sage, seed);
        for c in configs {
            prop_assert!(c.validate().is_ok());
        }
    }
}
