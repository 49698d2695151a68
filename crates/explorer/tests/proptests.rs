//! Property-based tests for Pareto dominance, the incremental front,
//! the decision maker (alone and at the end of an exploration), and
//! the exploration-cache codec.

use gnnav_estimator::{GrayBoxEstimator, PerfEstimate, Profiler};
use gnnav_explorer::{
    decide, decide_on_front, dominates, objectives, pareto_front_indices, AuditAction, AuditRecord,
    DfsStats, EvaluatedCandidate, ExplorationResult, ExploreCache, Explorer, Guideline,
    ParetoFront, Priority, RuntimeConstraints,
};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend, TrainingConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

fn points() -> impl Strategy<Value = Vec<[f64; 3]>> {
    proptest::collection::vec(
        (0.0f64..100.0, 0.0f64..100.0, -1.0f64..0.0).prop_map(|(a, b, c)| [a, b, c]),
        1..60,
    )
}

/// Points drawn off a coarse grid: duplicates and exact ties across
/// all three coordinates are common, exercising the equal-point paths
/// of dominance.
fn coarse_points() -> impl Strategy<Value = Vec<[f64; 3]>> {
    proptest::collection::vec(
        (0u8..4, 0u8..4, 0u8..4).prop_map(|(a, b, c)| [a as f64, b as f64, -(c as f64)]),
        1..40,
    )
}

fn estimates() -> impl Strategy<Value = PerfEstimate> {
    (1e-6f64..1e3, 1e3f64..1e12, 0.0f64..1.0, 0.0f64..1e6, 0.0f64..1.0).prop_map(
        |(time_s, mem_bytes, accuracy, batch_nodes, hit_rate)| PerfEstimate {
            time_s,
            mem_bytes,
            accuracy,
            batch_nodes,
            hit_rate,
        },
    )
}

fn configs() -> impl Strategy<Value = TrainingConfig> {
    (4u32..4096, 8u32..512, 0.0f64..1.0).prop_map(|(batch_size, hidden_dim, cache_ratio)| {
        TrainingConfig {
            batch_size: batch_size as usize,
            hidden_dim: hidden_dim as usize,
            cache_ratio,
            ..TrainingConfig::default()
        }
    })
}

/// Short strings covering the interesting payload classes: empty,
/// plain ASCII, punctuation-heavy, and multi-byte UTF-8.
fn strings() -> impl Strategy<Value = String> {
    (0usize..4).prop_map(|i| {
        ["", "cfg batch=512", "mem 1.50 MB > max 0.20 MB (excess 7.5e0)", "Γ_cache ✓ ∞"][i]
            .to_string()
    })
}

fn audit_actions() -> impl Strategy<Value = AuditAction> {
    (0u8..6).prop_map(|t| match t {
        0 => AuditAction::Accepted,
        1 => AuditAction::Rejected,
        2 => AuditAction::PrunedSubtree,
        3 => AuditAction::Selected,
        4 => AuditAction::Fallback,
        _ => AuditAction::Switched,
    })
}

fn audit_records() -> impl Strategy<Value = AuditRecord> {
    (strings(), (any::<bool>(), estimates()), audit_actions(), strings(), any::<bool>()).prop_map(
        |(config, (has_estimate, estimate), action, reason, seed_candidate)| AuditRecord {
            config,
            estimate: has_estimate.then_some(estimate),
            action,
            reason: reason.into(),
            seed_candidate,
        },
    )
}

fn priorities() -> impl Strategy<Value = Priority> {
    (0u8..4).prop_map(|t| match t {
        0 => Priority::Balance,
        1 => Priority::ExTimeMemory,
        2 => Priority::ExMemoryAccuracy,
        _ => Priority::ExTimeAccuracy,
    })
}

/// Candidates at `pts`, told apart by their batch size (index + 1):
/// which of two equal points a decision picked shows in its config.
fn candidates_at(pts: &[[f64; 3]]) -> Vec<EvaluatedCandidate> {
    pts.iter()
        .enumerate()
        .map(|(i, p)| EvaluatedCandidate {
            config: TrainingConfig { batch_size: i + 1, ..TrainingConfig::default() },
            estimate: PerfEstimate {
                time_s: p[0],
                mem_bytes: p[1],
                accuracy: -p[2],
                batch_nodes: 0.0,
                hit_rate: 0.0,
            },
        })
        .collect()
}

/// One dataset and one timing-only fit for every explored case: with
/// no accuracy component the third objective is constant, so ties and
/// equal points on the front are the rule.
fn fixture() -> &'static (Dataset, GrayBoxEstimator) {
    static FIXTURE: OnceLock<(Dataset, GrayBoxEstimator)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let profiler = Profiler::new(
            RuntimeBackend::new(Platform::default_rtx4090()),
            ExecutionOptions::timing_only(),
        )
        .with_threads(2);
        let configs = DesignSpace::standard().sample(25, ModelKind::Sage, 5);
        let db = profiler.profile(&dataset, &configs).expect("profile");
        let mut estimator = GrayBoxEstimator::new();
        estimator.fit(&db).expect("fit");
        (dataset, estimator)
    })
}

fn exploration_results() -> impl Strategy<Value = ExplorationResult> {
    (
        (configs(), estimates(), priorities()),
        proptest::collection::vec((configs(), estimates()), 0..8),
        proptest::collection::vec(0usize..64, 0..8),
        (0usize..500, 0usize..500, 0usize..500),
        proptest::collection::vec(audit_records(), 0..8),
        (any::<bool>(), strings()),
    )
        .prop_map(|(g, evaluated, front, stats, audit, fallback)| ExplorationResult {
            guideline: Guideline { config: g.0, estimate: g.1, priority: g.2 },
            evaluated: evaluated
                .into_iter()
                .map(|(config, estimate)| EvaluatedCandidate { config, estimate })
                .collect(),
            front,
            stats: DfsStats { evaluated: stats.0, rejected: stats.1, pruned_subtrees: stats.2 },
            audit,
            fallback: fallback.0.then_some(fallback.1),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn front_members_are_mutually_non_dominated(pts in points()) {
        let front = pareto_front_indices(&pts);
        for &i in &front {
            for &j in &front {
                if i != j {
                    prop_assert!(!dominates(&pts[i], &pts[j]),
                        "front member {i} dominates front member {j}");
                }
            }
        }
    }

    #[test]
    fn every_non_front_point_is_dominated(pts in points()) {
        let front = pareto_front_indices(&pts);
        for (i, p) in pts.iter().enumerate() {
            if !front.contains(&i) {
                prop_assert!(
                    pts.iter().any(|q| dominates(q, p)),
                    "point {i} excluded from the front but undominated"
                );
            }
        }
    }

    #[test]
    fn dominance_is_irreflexive_and_antisymmetric(
        a in (0.0f64..10.0, 0.0f64..10.0, -1.0f64..0.0),
        b in (0.0f64..10.0, 0.0f64..10.0, -1.0f64..0.0),
    ) {
        let a = [a.0, a.1, a.2];
        let b = [b.0, b.1, b.2];
        prop_assert!(!dominates(&a, &a));
        prop_assert!(!(dominates(&a, &b) && dominates(&b, &a)));
    }

    #[test]
    fn incremental_front_equals_batch_on_random_points(pts in points()) {
        let mut inc = ParetoFront::new();
        for &p in &pts {
            inc.insert(p);
        }
        prop_assert_eq!(inc.indices(), pareto_front_indices(&pts));
        prop_assert_eq!(inc.seen(), pts.len());
    }

    #[test]
    fn incremental_front_equals_batch_with_duplicates(pts in coarse_points()) {
        let mut inc = ParetoFront::new();
        for &p in &pts {
            inc.insert(p);
        }
        prop_assert_eq!(inc.indices(), pareto_front_indices(&pts));
        prop_assert_eq!(inc.len(), inc.indices().len());
    }

    #[test]
    fn cache_round_trip_preserves_result_byte_for_byte(result in exploration_results()) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("gnnav-ec-prop-{}-{case}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("explore.wal");
        let fingerprint = 0x9E3779B97F4A7C15u64.wrapping_mul(case + 1);
        {
            let mut cache = ExploreCache::open(&path).expect("open");
            prop_assert!(cache.insert(fingerprint, &result).expect("insert"));
        }
        // Reopen: the result must survive the durable round trip with
        // every f64 payload, audit string, and enum tag intact.
        let mut cache = ExploreCache::open(&path).expect("reopen");
        prop_assert!(cache.recovery().is_clean());
        prop_assert_eq!(cache.undecodable(), 0);
        let got = cache.lookup(fingerprint).expect("present");
        prop_assert_eq!(format!("{got:?}"), format!("{result:?}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decision_always_picks_from_front(pts in points()) {
        let candidates = candidates_at(&pts);
        let front = pareto_front_indices(&pts);
        for priority in Priority::ALL {
            let g = decide(&candidates, priority).expect("non-empty");
            let chosen = [g.estimate.time_s, g.estimate.mem_bytes, -g.estimate.accuracy];
            prop_assert!(
                front.iter().any(|&i| pts[i] == chosen),
                "{priority} picked a dominated candidate"
            );
        }
    }

    #[test]
    fn decision_over_its_own_front_is_the_decision_over_the_reference_front(
        pts in coarse_points(),
    ) {
        // Coarse points: duplicated points on the front and equal
        // scores are common, so the order ties are met in matters.
        let candidates = candidates_at(&pts);
        let front = pareto_front_indices(&pts);
        for priority in Priority::ALL {
            let own = decide(&candidates, priority).expect("non-empty");
            let handed = decide_on_front(&candidates, &front, priority).expect("non-empty");
            prop_assert_eq!(format!("{own:?}"), format!("{handed:?}"));
            // Of equal points the earliest wins.
            let chosen = own.config.batch_size - 1;
            prop_assert!(front.contains(&chosen));
            prop_assert_eq!(front.iter().find(|&&i| pts[i] == pts[chosen]), Some(&chosen));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exploration_guideline_is_the_public_decision_over_its_candidates(
        budget in 1usize..301,
        seed in any::<u64>(),
        priority in priorities(),
        cap_kind in 0u8..3,
    ) {
        let (dataset, estimator) = fixture();
        let constraints = match cap_kind {
            0 => RuntimeConstraints::none(),
            // Prunes the larger caches and rejects some of the rest.
            1 => RuntimeConstraints {
                max_mem_bytes: Some(
                    0.2 * dataset.num_nodes() as f64 * dataset.feat_dim() as f64 * 2.0,
                ),
                ..RuntimeConstraints::none()
            },
            // Rejects everything: the fallback decides, not `decide`.
            _ => RuntimeConstraints { max_time_s: Some(1e-12), ..RuntimeConstraints::none() },
        };
        let result = Explorer::new(estimator, budget)
            .with_seed(seed)
            .explore(dataset, &Platform::default_rtx4090(), ModelKind::Sage, priority, &constraints)
            .expect("explore");
        let points: Vec<[f64; 3]> =
            result.evaluated.iter().map(|c| objectives(&c.estimate)).collect();
        prop_assert_eq!(&result.front, &pareto_front_indices(&points));
        match decide(&result.evaluated, priority) {
            Some(decided) => {
                prop_assert!(result.fallback.is_none());
                prop_assert_eq!(format!("{decided:?}"), format!("{:?}", result.guideline));
            }
            None => prop_assert!(result.fallback.is_some() && result.evaluated.is_empty()),
        }
    }
}
