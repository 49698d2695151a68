//! One walk, four decisions: `Explorer::explore_all` returns what four
//! `Explorer::explore` calls return, byte for byte, for one walk's
//! worth of predictions.
//!
//! Over the matrix of `explore_pins.rs` (both datasets, three
//! constraint shapes — unconstrained, a pruning memory cap, a time cap
//! nothing meets so every priority falls back —, budgets 100 / 400,
//! both restart seeds) each result of `explore_all` renders as the
//! `explore` of its priority does, the four share one walk, and the
//! walk's counters — `estimator.predictions`,
//! `explorer.candidates.evaluated`, `explorer.runs` — advance by one
//! walk, where four `explore` calls advance them by four.
//!
//! Lives in its own integration-test binary, and in one test: the
//! assertions read the process-global metrics registry, which tests
//! running on parallel threads would perturb.

use gnnav_estimator::{GrayBoxEstimator, ProfileDb, Profiler};
use gnnav_explorer::{Explorer, Priority, RuntimeConstraints};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};
use std::sync::Arc;

const MODEL: ModelKind = ModelKind::Sage;
const DATASETS: [DatasetId; 2] = [DatasetId::Reddit2, DatasetId::OgbnProducts];
const PROFILED_SCALE: f64 = 0.02;
const EXPLORED_SCALE: f64 = 0.25;
const BUDGETS: [usize; 2] = [100, 400];
const SEEDS: [u64; 2] = [0xDF5, 0x7A51];

/// The fixture of `explore_pins.rs`: every estimator component fitted,
/// explored at a larger scale than profiled.
fn fixture() -> (Vec<Dataset>, GrayBoxEstimator) {
    let exec = ExecutionOptions {
        epochs: 1,
        train: true,
        train_batches_cap: Some(1),
        ..Default::default()
    };
    let profiler =
        Profiler::new(RuntimeBackend::new(Platform::default_rtx4090()), exec).with_threads(2);
    let configs = DesignSpace::standard().sample(12, MODEL, 5);
    let mut db = ProfileDb::new();
    let mut explored = Vec::new();
    for id in DATASETS {
        let small = Dataset::load_scaled(id, PROFILED_SCALE).expect("load");
        db.merge(profiler.profile(&small, &configs).expect("profile"));
        explored.push(Dataset::load_scaled(id, EXPLORED_SCALE).expect("load"));
    }
    let mut estimator = GrayBoxEstimator::new();
    estimator.fit(&db).expect("fit");
    (explored, estimator)
}

/// The three constraint shapes of `explore_pins.rs`.
fn constraint_sets(dataset: &Dataset) -> [RuntimeConstraints; 3] {
    let largest_cache = 0.5 * dataset.num_nodes() as f64 * dataset.feat_dim() as f64 * 2.0;
    [
        RuntimeConstraints::none(),
        RuntimeConstraints {
            max_mem_bytes: Some(0.9 * largest_cache),
            ..RuntimeConstraints::none()
        },
        RuntimeConstraints { max_time_s: Some(1e-12), ..RuntimeConstraints::none() },
    ]
}

/// `[estimator.predictions, explorer.candidates.evaluated, explorer.runs]`.
fn walk_counters() -> [u64; 3] {
    let counters = gnnav_obs::global().snapshot().counters;
    ["estimator.predictions", "explorer.candidates.evaluated", "explorer.runs"]
        .map(|name| counters.get(name).copied().unwrap_or(0))
}

fn advance(from: [u64; 3]) -> [u64; 3] {
    let to = walk_counters();
    [to[0] - from[0], to[1] - from[1], to[2] - from[2]]
}

#[test]
fn explore_all_is_four_explores_over_one_walk() {
    let (datasets, estimator) = fixture();
    let platform = Platform::default_rtx4090();
    gnnav_obs::global().enable(true);
    let mut fallbacks = 0;
    for dataset in &datasets {
        for constraints in constraint_sets(dataset) {
            for budget in BUDGETS {
                for seed in SEEDS {
                    let label = format!(
                        "{:?} {constraints:?} budget {budget} seed {seed:#x}",
                        dataset.id()
                    );
                    let explorer = Explorer::new(&estimator, budget).with_seed(seed);

                    let before = walk_counters();
                    let all = explorer
                        .explore_all(dataset, &platform, MODEL, &constraints)
                        .expect("explore_all");
                    let one_walk = all[0].stats.evaluated as u64;
                    assert_eq!(advance(before), [one_walk, one_walk, 1], "{label}");

                    let before = walk_counters();
                    assert_eq!(all.len(), Priority::ALL.len());
                    for (got, priority) in all.iter().zip(Priority::ALL) {
                        let want = explorer
                            .explore(dataset, &platform, MODEL, priority, &constraints)
                            .expect("explore");
                        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{label} {priority}");
                        assert!(Arc::ptr_eq(&got.evaluated, &all[0].evaluated), "{label}");
                        assert!(Arc::ptr_eq(&got.front, &all[0].front), "{label}");
                        assert!(Arc::ptr_eq(got.audit.walk(), all[0].audit.walk()), "{label}");
                    }
                    assert_eq!(advance(before), [4 * one_walk, 4 * one_walk, 4], "{label}");
                    fallbacks += usize::from(all[0].fallback.is_some());
                }
            }
        }
    }
    assert!(
        fallbacks >= datasets.len() * BUDGETS.len() * SEEDS.len(),
        "the fallback shape fell back"
    );
}
