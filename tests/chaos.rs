//! Chaos suite: drives every fault class end-to-end through the
//! runtime backend, the profiler, and the explorer, checking that the
//! recovery machinery degrades gracefully — bounded retries, the
//! degradation ladder, quarantine, nearest-feasible fallback — and
//! that failures surface as typed errors, never panics.
//!
//! Set `CHAOS_SEED=<u64>` to reseed every plan; the CI chaos job
//! sweeps a small seed matrix.

use gnnavigator::estimator::Profiler;
use gnnavigator::faults::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::runtime::{
    DesignSpace, ExecutionOptions, RuntimeBackend, RuntimeError, TrainingConfig,
};
use proptest::prelude::*;

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC4A05)
}

fn small_dataset() -> Dataset {
    Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load")
}

fn backend() -> RuntimeBackend {
    RuntimeBackend::new(Platform::default_rtx4090())
}

fn config() -> TrainingConfig {
    TrainingConfig { batch_size: 64, hidden_dim: 16, ..Default::default() }
}

fn opts(plan: FaultPlan) -> ExecutionOptions {
    ExecutionOptions {
        epochs: 1,
        train_batches_cap: Some(4),
        fault_plan: Some(plan),
        ..Default::default()
    }
}

#[test]
fn transient_oom_is_survived_by_retries() {
    let plan = FaultPlan::new(chaos_seed()).with_fault(
        FaultSpec::new(FaultKind::TransientOom)
            .with_magnitude(1e12)
            .with_window(0, 2)
            .with_duration_attempts(2),
    );
    let report = backend().execute(&small_dataset(), &config(), &opts(plan)).expect("survives");
    assert!(report.recovery.retries > 0, "the spike must actually be retried");
    assert!(report.recovery.faults_injected > 0);
}

#[test]
fn persistent_oom_exhausts_the_ladder_with_a_typed_error() {
    let plan = FaultPlan::new(chaos_seed())
        .with_fault(FaultSpec::new(FaultKind::TransientOom).with_magnitude(1e15));
    let err = backend().execute(&small_dataset(), &config(), &opts(plan)).expect_err("exhausts");
    match err {
        RuntimeError::RetriesExhausted { what, attempts, .. } => {
            assert!(what.contains("degradation ladder"), "{what}");
            assert!(attempts > 0);
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
}

#[test]
fn link_degradation_slows_transfers_and_stalls_error_out() {
    let clean = backend().execute(&small_dataset(), &config(), &opts(FaultPlan::new(1))).unwrap();
    let degraded = backend()
        .execute(
            &small_dataset(),
            &config(),
            &opts(
                FaultPlan::new(chaos_seed())
                    .with_fault(FaultSpec::new(FaultKind::LinkDegrade).with_magnitude(100.0)),
            ),
        )
        .expect("slow but alive");
    assert!(
        degraded.perf.phases.transfer.as_secs() > clean.perf.phases.transfer.as_secs(),
        "a degraded link must cost simulated transfer time"
    );
    // A full stall (magnitude past the stall threshold) that never
    // clears exhausts the retry budget.
    let err = backend()
        .execute(
            &small_dataset(),
            &config(),
            &opts(
                FaultPlan::new(chaos_seed())
                    .with_fault(FaultSpec::new(FaultKind::LinkDegrade).with_magnitude(1e9)),
            ),
        )
        .expect_err("permanent stall");
    assert!(matches!(err, RuntimeError::RetriesExhausted { .. }), "{err}");
}

#[test]
fn sampler_failures_retry_then_surface_typed_errors() {
    let survived =
        backend()
            .execute(
                &small_dataset(),
                &config(),
                &opts(FaultPlan::new(chaos_seed()).with_fault(
                    FaultSpec::new(FaultKind::SamplerFailure).with_duration_attempts(1),
                )),
            )
            .expect("one failure per batch is absorbed");
    assert!(survived.recovery.retries > 0);
    let err = backend()
        .execute(
            &small_dataset(),
            &config(),
            &opts(
                FaultPlan::new(chaos_seed()).with_fault(FaultSpec::new(FaultKind::SamplerFailure)),
            ),
        )
        .expect_err("persistent failure");
    match err {
        RuntimeError::RetriesExhausted { what, .. } => {
            assert!(what.contains("sampling"), "{what}")
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
}

#[test]
fn nan_loss_guard_skips_steps_and_anneals_lr() {
    let plan = FaultPlan::new(chaos_seed())
        .with_fault(FaultSpec::new(FaultKind::NanLoss).with_window(0, 2));
    let report = backend().execute(&small_dataset(), &config(), &opts(plan)).expect("guarded");
    assert_eq!(report.recovery.nan_steps_skipped, 2);
    assert_eq!(report.recovery.lr_halvings, 2);
    assert!(report.loss_history.iter().all(|l| l.is_finite()), "NaN never reaches the history");
    // Exhausting the eight halvings is a typed error, not a panic: every
    // step is NaN, and 3 epochs x 4 capped batches reach the ninth skip.
    let exhaust = ExecutionOptions {
        epochs: 3,
        ..opts(FaultPlan::new(chaos_seed()).with_fault(FaultSpec::new(FaultKind::NanLoss)))
    };
    let err = backend().execute(&small_dataset(), &config(), &exhaust).expect_err("floor");
    assert!(matches!(err, RuntimeError::RetriesExhausted { attempts: 9, .. }), "{err}");
}

#[test]
fn profiler_quarantines_crashing_configs_and_keeps_the_rest() {
    let dataset = small_dataset();
    let cfgs: Vec<TrainingConfig> = DesignSpace::standard()
        .sample(4, ModelKind::Sage, 3)
        .into_iter()
        .map(|mut c| {
            c.batch_size = 32;
            c.hidden_dim = 16;
            c
        })
        .collect();
    // Config 0 crashes on every attempt; the sweep must still produce
    // the other three records and name the quarantined one.
    let plan = FaultPlan::new(chaos_seed())
        .with_fault(FaultSpec::new(FaultKind::WorkerCrash).with_window(0, 1));
    let exec = ExecutionOptions {
        epochs: 1,
        train: true,
        train_batches_cap: Some(1),
        fault_plan: Some(plan),
        ..Default::default()
    };
    let profiler = Profiler::new(backend(), exec).with_threads(2);
    let report = profiler.profile_with_report(&dataset, &cfgs);
    assert_eq!(report.quarantined(), vec![0]);
    assert_eq!(report.db.len(), 3);
    assert!(report.failures[0].error.contains("worker crash"));
}

#[test]
fn profiler_stragglers_are_capped_not_fatal() {
    let dataset = small_dataset();
    let cfgs: Vec<TrainingConfig> = DesignSpace::standard()
        .sample(2, ModelKind::Sage, 3)
        .into_iter()
        .map(|mut c| {
            c.batch_size = 32;
            c.hidden_dim = 16;
            c
        })
        .collect();
    let plan = FaultPlan::new(chaos_seed())
        .with_fault(FaultSpec::new(FaultKind::Straggler).with_magnitude(1e6));
    let exec = ExecutionOptions {
        epochs: 1,
        train: true,
        train_batches_cap: Some(1),
        fault_plan: Some(plan),
        ..Default::default()
    };
    let report =
        Profiler::new(backend(), exec).with_threads(2).profile_with_report(&dataset, &cfgs);
    assert!(report.is_complete(), "a straggler delays the sweep, it never kills it");
}

#[test]
fn explorer_falls_back_when_constraints_are_unsatisfiable() {
    use gnnavigator::{Navigator, NavigatorOptions, Priority, RuntimeConstraints};
    let options = NavigatorOptions {
        profile_samples: 12,
        augmentation_graphs: 0,
        explore_budget: 100,
        profile_exec: ExecutionOptions {
            epochs: 1,
            train: true,
            train_batches_cap: Some(1),
            ..Default::default()
        },
        ..Default::default()
    };
    let mut nav = Navigator::new(small_dataset(), Platform::default_rtx4090(), ModelKind::Sage)
        .with_options(options);
    nav.prepare().expect("prepare");
    let impossible = RuntimeConstraints { max_time_s: Some(1e-12), ..RuntimeConstraints::none() };
    let result = nav
        .generate_guideline(Priority::Balance, &impossible)
        .expect("degrades to a fallback instead of failing");
    assert!(result.fallback.is_some());
    assert!(result.evaluated.is_empty());
}

fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        proptest::collection::vec(
            (0usize..FaultKind::ALL.len(), 0.0f64..=1.0, 0.5f64..4.0, 0u64..6, 1u64..8),
            0..4,
        ),
    )
        .prop_map(|(seed, specs)| {
            let mut plan = FaultPlan::new(seed);
            for (kind_idx, prob, magnitude, from, len) in specs {
                plan = plan.with_fault(
                    FaultSpec::new(FaultKind::ALL[kind_idx])
                        .with_probability(prob)
                        .with_magnitude(magnitude)
                        .with_window(from, from + len),
                );
            }
            plan
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same `(seed, plan)` always yields the byte-identical fault
    /// schedule — the contract that makes chaos runs replayable.
    #[test]
    fn fault_schedule_is_a_pure_function_of_seed_and_plan(plan in plan_strategy()) {
        let a = FaultInjector::new(&plan);
        let b = FaultInjector::new(&plan);
        for kind in FaultKind::ALL {
            prop_assert_eq!(a.schedule(kind, 0..64), b.schedule(kind, 0..64));
        }
        // Round-tripping the plan through JSON preserves the schedule.
        let rt = FaultPlan::from_json(&plan.to_json()).expect("round trip");
        let c = FaultInjector::new(&rt);
        for kind in FaultKind::ALL {
            prop_assert_eq!(a.schedule(kind, 0..64), c.schedule(kind, 0..64));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Executions under the same plan are fully deterministic: same
    /// perf triple, same loss history, same recovery log — or the
    /// same typed error.
    #[test]
    fn faulted_executions_are_reproducible(seed in any::<u64>(), prob in 0.0f64..=0.6) {
        let plan = FaultPlan::new(seed)
            .with_fault(
                FaultSpec::new(FaultKind::TransientOom)
                    .with_probability(prob)
                    .with_magnitude(1e12)
                    .with_duration_attempts(1),
            )
            .with_fault(FaultSpec::new(FaultKind::NanLoss).with_probability(prob));
        let dataset = small_dataset();
        let run = || backend().execute(&dataset, &config(), &opts(plan.clone()));
        match (run(), run()) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.perf.epoch_time, b.perf.epoch_time);
                prop_assert_eq!(a.perf.peak_mem_bytes, b.perf.peak_mem_bytes);
                prop_assert_eq!(a.perf.accuracy, b.perf.accuracy);
                prop_assert_eq!(a.loss_history, b.loss_history);
                prop_assert_eq!(a.recovery, b.recovery);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "diverged: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }
}
