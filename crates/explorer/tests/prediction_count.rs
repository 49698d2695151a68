//! One prediction per evaluated candidate: the estimator answers what
//! it is asked, so `estimator.predictions` advances by exactly
//! `stats.evaluated` over an exploration, repeated seeds included, and
//! a repeated seed reads the same estimate every time.
//!
//! Lives in its own integration-test binary: the assertions read the
//! process-global metrics registry, which unit tests running on
//! parallel threads would perturb.

use gnnav_estimator::{GrayBoxEstimator, Profiler};
use gnnav_explorer::{AuditAction, Explorer, Priority, RuntimeConstraints};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend, Template};

fn counter(name: &str) -> u64 {
    gnnav_obs::global().snapshot().counters.get(name).copied().unwrap_or(0)
}

#[test]
fn every_evaluation_is_one_prediction_and_repeated_seeds_agree() {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
    let profiler = Profiler::new(
        RuntimeBackend::new(Platform::default_rtx4090()),
        ExecutionOptions::timing_only(),
    )
    .with_threads(4);
    let cfgs = DesignSpace::standard().sample(25, ModelKind::Sage, 5);
    let db = profiler.profile(&dataset, &cfgs).expect("profile");
    let mut est = GrayBoxEstimator::new();
    est.fit(&db).expect("fit");

    let metrics = gnnav_obs::global();
    metrics.enable(true);

    // The same seed handed in three times. (DFS leaves are
    // deduplicated by the visited set, so seeds are the only source of
    // a repeated candidate.)
    let seed = Template::Pyg.config(ModelKind::Sage);
    let seeds = vec![seed.clone(), seed.clone(), seed];
    let explorer = Explorer::new(&est, 150);

    let predictions_before = counter("estimator.predictions");
    let result = explorer
        .explore_from(
            &dataset,
            &Platform::default_rtx4090(),
            ModelKind::Sage,
            Priority::Balance,
            &RuntimeConstraints::none(),
            &seeds,
        )
        .expect("explore");
    let predictions = counter("estimator.predictions") - predictions_before;

    assert!(result.stats.evaluated >= 3, "all three seed copies count as evaluations");
    assert_eq!(predictions, result.stats.evaluated as u64, "one prediction per evaluation");

    // The three seed audit records carry bit-identical estimates.
    let seed_records: Vec<_> = result.audit.iter().filter(|r| r.seed_candidate).collect();
    assert_eq!(seed_records.len(), 3);
    let rendered: Vec<String> =
        seed_records.iter().map(|r| format!("{:?}", r.estimate.expect("evaluated"))).collect();
    assert_eq!(rendered[0], rendered[1]);
    assert_eq!(rendered[0], rendered[2]);
    assert!(seed_records.iter().all(|r| r.action != AuditAction::PrunedSubtree));
}
