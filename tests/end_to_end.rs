//! Cross-crate integration: the full navigator pipeline.

use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::runtime::ExecutionOptions;
use gnnavigator::{Navigator, NavigatorOptions, Priority, RuntimeConstraints};

fn fast_options() -> NavigatorOptions {
    NavigatorOptions {
        profile_samples: 18,
        augmentation_graphs: 1,
        augmentation_nodes: 400,
        explore_budget: 150,
        profile_exec: ExecutionOptions {
            epochs: 1,
            train: true,
            train_batches_cap: Some(2),
            ..Default::default()
        },
        apply_exec: ExecutionOptions {
            epochs: 1,
            train_batches_cap: Some(3),
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn pipeline_produces_feasible_guideline_for_every_priority() {
    let dataset = Dataset::load_scaled(DatasetId::OgbnProducts, 0.02).expect("load");
    let mut nav = Navigator::new(dataset, Platform::default_rtx4090(), ModelKind::Sage)
        .with_options(fast_options());
    nav.prepare().expect("prepare");
    for priority in Priority::ALL {
        let result =
            nav.generate_guideline(priority, &RuntimeConstraints::none()).expect("explore");
        let report = nav.apply(&result.guideline).expect("apply");
        assert!(report.perf.epoch_time.as_secs() > 0.0, "{priority}");
        assert!(report.perf.peak_mem_bytes > 0, "{priority}");
        assert!(
            (0.0..=1.0).contains(&report.perf.accuracy),
            "{priority}: accuracy {}",
            report.perf.accuracy
        );
    }
}

#[test]
fn memory_constraint_is_respected_by_prediction() {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
    let mut nav = Navigator::new(dataset, Platform::default_rtx4090(), ModelKind::Sage)
        .with_options(fast_options());
    nav.prepare().expect("prepare");
    // Find an unconstrained pick, then squeeze below it.
    let free = nav
        .generate_guideline(Priority::ExTimeAccuracy, &RuntimeConstraints::none())
        .expect("explore");
    let budget = free.guideline.estimate.mem_bytes * 0.9;
    let constraints =
        RuntimeConstraints { max_mem_bytes: Some(budget), ..RuntimeConstraints::none() };
    let squeezed = nav
        .generate_guideline(Priority::ExTimeAccuracy, &constraints)
        .expect("explore under budget");
    assert!(
        squeezed.guideline.estimate.mem_bytes <= budget,
        "estimate {} exceeds budget {budget}",
        squeezed.guideline.estimate.mem_bytes
    );
    // Every surviving candidate satisfies the constraint.
    for c in squeezed.evaluated.iter() {
        assert!(c.estimate.mem_bytes <= budget);
    }
}

#[test]
fn guideline_is_on_the_estimated_pareto_front() {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
    let mut nav = Navigator::new(dataset, Platform::default_rtx4090(), ModelKind::Sage)
        .with_options(fast_options());
    nav.prepare().expect("prepare");
    let result =
        nav.generate_guideline(Priority::Balance, &RuntimeConstraints::none()).expect("explore");
    assert!(
        result.front.iter().any(|&i| result.evaluated[i].config == result.guideline.config),
        "guideline must sit on the estimated Pareto front"
    );
}

#[test]
fn generate_all_covers_every_priority() {
    let dataset = Dataset::load_scaled(DatasetId::OgbnArxiv, 0.02).expect("load");
    let mut nav = Navigator::new(dataset, Platform::default_rtx4090(), ModelKind::Gcn)
        .with_options(fast_options());
    nav.prepare().expect("prepare");
    let all = nav.generate_all(&RuntimeConstraints::none()).expect("generate all");
    assert_eq!(all.len(), Priority::ALL.len());
    // The one walk decides what four walks decide: a second navigator
    // asked one priority at a time returns the same results.
    let dataset = Dataset::load_scaled(DatasetId::OgbnArxiv, 0.02).expect("load");
    let mut one_at_a_time = Navigator::new(dataset, Platform::default_rtx4090(), ModelKind::Gcn)
        .with_options(fast_options());
    one_at_a_time.prepare().expect("prepare");
    for (result, priority) in all.iter().zip(Priority::ALL) {
        assert_eq!(result.guideline.priority, priority);
        let alone = one_at_a_time
            .generate_guideline(priority, &RuntimeConstraints::none())
            .expect("generate one");
        assert_eq!(format!("{result:?}"), format!("{alone:?}"), "{priority}");
    }
}
