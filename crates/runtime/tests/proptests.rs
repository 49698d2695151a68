//! Property-based tests for the runtime configuration layer, and the
//! codec laws over the configs and recovery logs checkpoints persist.

use gnnav_cache::CachePolicy;
use gnnav_graph::generators::barabasi_albert;
use gnnav_hwsim::{Precision, SimTime};
use gnnav_nn::ModelKind;
use gnnav_runtime::{DegradationStep, DesignSpace, RecoveryLog, SamplerKind, TrainingConfig};
use gnnav_store::laws::{assert_laws, assert_smallest};
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

/// Configs over every tag of every enum field, any fanout count
/// (none included) and raw float bits.
fn wire_configs() -> impl Strategy<Value = TrainingConfig> {
    (config_strategy(), 0usize..4, any::<bool>(), 0usize..3, any::<u64>(), any::<usize>()).prop_map(
        |(config, fanouts, fp16, model, dropout_bits, hidden_dim)| TrainingConfig {
            fanouts: config.fanouts.iter().copied().cycle().take(fanouts).collect(),
            precision: if fp16 { Precision::Fp16 } else { Precision::Fp32 },
            model: [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat][model],
            dropout: f64::from_bits(dropout_bits),
            hidden_dim,
            ..config
        },
    )
}

fn degradation_steps() -> impl Strategy<Value = DegradationStep> {
    (0u8..3, any::<usize>(), any::<usize>(), proptest::collection::vec(any::<usize>(), 0..4))
        .prop_map(|(kind, a, b, fanouts)| match kind {
            0 => DegradationStep::ShrinkCache { from_entries: a, to_entries: b },
            1 => DegradationStep::MicroBatch { factor: a },
            _ => DegradationStep::ReduceFanout { fanouts },
        })
}

fn recovery_logs() -> impl Strategy<Value = RecoveryLog> {
    (
        any::<u64>(),
        any::<u32>(),
        proptest::collection::vec(degradation_steps(), 0..5),
        any::<u32>(),
        any::<u32>(),
        0.0f64..1e4,
    )
        .prop_map(|(faults_injected, retries, degradations, nan, halvings, secs)| {
            RecoveryLog {
                faults_injected,
                retries,
                degradations,
                nan_steps_skipped: nan,
                lr_halvings: halvings,
                recovery_sim: SimTime::from_secs(secs),
            }
        })
}

#[test]
fn the_smallest_config_and_recovery_log_take_min_bytes() {
    assert_smallest(&TrainingConfig { fanouts: Vec::new(), ..TrainingConfig::default() });
    assert_smallest(&RecoveryLog::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn configs_hold_the_codec_laws(config in wire_configs()) {
        assert_laws(&config);
    }

    #[test]
    fn recovery_logs_hold_the_codec_laws(log in recovery_logs()) {
        assert_laws(&log);
    }
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
