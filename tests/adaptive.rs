//! Adaptive-execution suite: drift-triggered mid-training guideline
//! switches (the `--adapt` path) against static runs of the same
//! guideline, plus the chaos matrix for the adaptive loop.
//!
//! The load-bearing claims, both deterministic:
//! - under a committed link-degradation fault plan the adaptive run
//!   performs at least one audited switch and finishes with strictly
//!   lower total simulated time than the static run with the same
//!   seed;
//! - without faults the adaptive run performs zero switches and its
//!   report is byte-identical to the static run.

use gnnavigator::adapt::{AdaptError, AdaptOptions, AdaptiveRunner};
use gnnavigator::cache::CachePolicy;
use gnnavigator::estimator::{Context, GrayBoxEstimator, ProfileDb, Profiler};
use gnnavigator::explorer::{AuditAction, DfsStats, ExplorationResult};
use gnnavigator::faults::{FaultKind, FaultPlan, FaultSpec};
use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::runtime::{DesignSpace, ExecutionOptions, RuntimeBackend, SamplerKind};
use gnnavigator::{
    Guideline, Navigator, NavigatorOptions, Priority, RuntimeConstraints, TrainingConfig,
};

fn dataset() -> Dataset {
    Dataset::load_scaled(DatasetId::Reddit2, 0.03).expect("load")
}

fn platform() -> Platform {
    Platform::default_rtx4090()
}

/// A cache-less starting guideline: under a degraded link every miss
/// pays full price, so re-exploration has real headroom to exploit.
fn low_cache_config() -> TrainingConfig {
    TrainingConfig {
        sampler: SamplerKind::NodeWise,
        fanouts: vec![10, 10],
        batch_size: 256,
        cache_ratio: 0.0,
        cache_policy: CachePolicy::None,
        hidden_dim: 32,
        ..Default::default()
    }
}

/// Profiles a seeded slice of the design space and fits the estimator
/// — the sweep the adaptive refit warm-starts from.
fn profile_and_fit(dataset: &Dataset) -> (ProfileDb, GrayBoxEstimator) {
    let profiler = Profiler::new(
        RuntimeBackend::new(platform()),
        ExecutionOptions {
            epochs: 1,
            train: true,
            train_batches_cap: Some(1),
            ..Default::default()
        },
    )
    .with_threads(4);
    let mut cfgs = DesignSpace::standard().sample(24, ModelKind::Sage, 5);
    // Include the starting guideline so its prediction is in-sample.
    cfgs.push(low_cache_config());
    let db = profiler.profile(dataset, &cfgs).expect("profile");
    let mut est = GrayBoxEstimator::new();
    est.fit(&db).expect("fit");
    (db, est)
}

/// Wraps a fixed starting config as an exploration result (the
/// runner's drift baseline is the guideline's own estimate).
fn exploration_for(
    dataset: &Dataset,
    estimator: &GrayBoxEstimator,
    config: TrainingConfig,
) -> ExplorationResult {
    let estimate = estimator.predict(&Context::new(dataset, &platform(), config.clone()));
    ExplorationResult {
        guideline: Guideline { config, estimate, priority: Priority::ExTimeAccuracy },
        evaluated: Default::default(),
        front: Default::default(),
        stats: DfsStats::default(),
        audit: Default::default(),
        fallback: None,
    }
}

fn exec_opts(plan: Option<FaultPlan>) -> ExecutionOptions {
    ExecutionOptions {
        epochs: 6,
        train_batches_cap: Some(2),
        fault_plan: plan,
        ..Default::default()
    }
}

/// The committed link-degradation plan of the E2E claim: a persistent
/// 50x slowdown on miss transfers, well below the stall threshold.
fn link_degradation_plan() -> FaultPlan {
    FaultPlan::new(0xAD4).with_fault(FaultSpec::new(FaultKind::LinkDegrade).with_magnitude(50.0))
}

#[test]
fn adaptive_beats_static_under_link_degradation() {
    let dataset = dataset();
    let (db, estimator) = profile_and_fit(&dataset);
    let exploration = exploration_for(&dataset, &estimator, low_cache_config());
    let opts = exec_opts(Some(link_degradation_plan()));

    let static_report = RuntimeBackend::new(platform())
        .execute(&dataset, &low_cache_config(), &opts)
        .expect("static run survives the degraded link");

    let runner = AdaptiveRunner::new(platform(), DesignSpace::standard(), AdaptOptions::default());
    let outcome = runner
        .run(&dataset, &exploration, &db, &opts, &RuntimeConstraints::none())
        .expect("adaptive run survives the degraded link");

    assert!(
        !outcome.switches.is_empty(),
        "a 50x link degradation must drift past the threshold and force a switch \
         (max drift EWMA {:?})",
        outcome.drift_scores.iter().cloned().fold(f64::NAN, f64::max),
    );
    // Every switch is audited with the dedicated action.
    assert_eq!(outcome.audit.len(), outcome.switches.len());
    assert!(outcome.audit.iter().all(|r| r.action == AuditAction::Switched));
    for (s, r) in outcome.switches.iter().zip(&outcome.audit) {
        assert_eq!(r.config, s.to.summary());
        assert!(s.migration_sim_s >= 0.0);
        assert_ne!(s.from, s.to);
    }
    // The switched-to config exploits caching against the slow link.
    let last = outcome.switches.last().expect("non-empty");
    assert!(
        last.to.cache_ratio > 0.0,
        "re-exploration under transfer-dominated observations must pick a cached config, \
         got {}",
        last.to.summary()
    );
    // The whole point: adapting mid-run beats riding out the original
    // guideline, migration costs included.
    let adaptive_s = outcome.report.perf.epoch_time.as_secs();
    let static_s = static_report.perf.epoch_time.as_secs();
    assert!(
        adaptive_s < static_s,
        "adaptive {adaptive_s:.4}s/epoch must beat static {static_s:.4}s/epoch"
    );
    // The final report carries the config that finished the run.
    assert_eq!(outcome.report.config, last.to);
}

#[test]
fn clean_adaptive_run_is_byte_identical_to_static() {
    let dataset = dataset();
    let (db, estimator) = profile_and_fit(&dataset);
    let exploration = exploration_for(&dataset, &estimator, low_cache_config());
    let opts = exec_opts(None);

    let static_report = RuntimeBackend::new(platform())
        .execute(&dataset, &low_cache_config(), &opts)
        .expect("static");
    let outcome = AdaptiveRunner::new(platform(), DesignSpace::standard(), AdaptOptions::default())
        .run(&dataset, &exploration, &db, &opts, &RuntimeConstraints::none())
        .expect("adaptive");

    assert_eq!(
        outcome.switches.len(),
        0,
        "no faults means no drift past the threshold (max EWMA {:?})",
        outcome.drift_scores.iter().cloned().fold(f64::NAN, f64::max),
    );
    assert!(outcome.audit.is_empty());
    assert_eq!(
        outcome.report, static_report,
        "a zero-switch adaptive run must be byte-identical to the static run"
    );
}

#[test]
fn adaptive_switches_are_deterministic() {
    let dataset = dataset();
    let (db, estimator) = profile_and_fit(&dataset);
    let opts = exec_opts(Some(link_degradation_plan()));
    let run = || {
        AdaptiveRunner::new(platform(), DesignSpace::standard(), AdaptOptions::default())
            .run(
                &dataset,
                &exploration_for(&dataset, &estimator, low_cache_config()),
                &db,
                &opts,
                &RuntimeConstraints::none(),
            )
            .expect("adaptive")
    };
    let (a, b) = (run(), run());
    // Every field is sim-clocked, so the whole reports are equal.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// The adaptive chaos matrix: `--adapt` composed with every fault
/// class must terminate — either a successful run (with or without
/// switches) or a typed runtime error, never a panic or a hang.
#[test]
fn adaptive_terminates_under_every_fault_class() {
    let dataset = dataset();
    let (db, estimator) = profile_and_fit(&dataset);
    for kind in FaultKind::ALL {
        let spec = match kind {
            FaultKind::TransientOom => {
                FaultSpec::new(kind).with_magnitude(1e12).with_duration_attempts(2)
            }
            FaultKind::LinkDegrade => FaultSpec::new(kind).with_magnitude(50.0),
            FaultKind::Straggler => FaultSpec::new(kind).with_magnitude(2.0),
            _ => FaultSpec::new(kind).with_duration_attempts(1),
        };
        let plan = FaultPlan::new(0xC4A05).with_fault(spec);
        let result =
            AdaptiveRunner::new(platform(), DesignSpace::standard(), AdaptOptions::default()).run(
                &dataset,
                &exploration_for(&dataset, &estimator, low_cache_config()),
                &db,
                &exec_opts(Some(plan)),
                &RuntimeConstraints::none(),
            );
        match result {
            Ok(outcome) => {
                assert_eq!(outcome.audit.len(), outcome.switches.len(), "{kind:?}");
            }
            Err(AdaptError::Runtime(e)) => {
                assert!(!e.to_string().is_empty(), "{kind:?}");
            }
            Err(other) => panic!("{kind:?}: unexpected error class: {other}"),
        }
    }
}

#[test]
fn remaining_time_budget_constrains_reexploration() {
    let dataset = dataset();
    let (db, estimator) = profile_and_fit(&dataset);
    let exploration = exploration_for(&dataset, &estimator, low_cache_config());
    // A per-epoch budget the degraded run blows through immediately:
    // re-exploration still terminates (nearest-feasible fallback
    // inside the explorer) instead of failing the run.
    let constraints = RuntimeConstraints {
        max_time_s: Some(exploration.guideline.estimate.time_s * 2.0),
        ..RuntimeConstraints::none()
    };
    let result = AdaptiveRunner::new(platform(), DesignSpace::standard(), AdaptOptions::default())
        .run(&dataset, &exploration, &db, &exec_opts(Some(link_degradation_plan())), &constraints);
    assert!(result.is_ok(), "budget pressure must degrade, not fail: {result:?}");
}

/// A navigator re-explores the design space it profiled and explored:
/// under the drift-forcing plan, an adaptive run from a guideline of
/// `DesignSpace::reduced()` switches only to configurations of that
/// space. (A template guideline lies outside it: the templates seed
/// every exploration.)
#[test]
fn adaptive_switches_stay_in_the_navigators_space() {
    let space = DesignSpace::reduced();
    let options = NavigatorOptions {
        profile_samples: 24,
        augmentation_graphs: 0,
        augmentation_nodes: 0,
        explore_budget: 200,
        apply_exec: exec_opts(Some(link_degradation_plan())),
        space: space.clone(),
        ..Default::default()
    };
    let mut navigator =
        Navigator::new(dataset(), platform(), ModelKind::Sage).with_options(options);
    let none = RuntimeConstraints::none();
    let exploration = navigator.generate_guideline(Priority::Balance, &none).expect("explore");
    let members = space.enumerate(ModelKind::Sage);
    let start = &exploration.guideline.config;
    assert!(members.contains(start), "the guideline {} lies outside the space", start.summary());

    let outcome = navigator
        .apply_adaptive(&exploration, &none, AdaptOptions::default())
        .expect("adaptive run survives the degraded link");
    assert!(!outcome.switches.is_empty(), "drift scores {:?}", outcome.drift_scores);
    for switch in &outcome.switches {
        assert!(
            members.contains(&switch.to),
            "epoch {}: switched to {}, outside the navigator's space",
            switch.epoch,
            switch.to.summary()
        );
    }
}
