//! Criterion benches for the explorer: DFS throughput at different
//! budgets, Pareto-front extraction, and the decision maker.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gnnav_estimator::{GrayBoxEstimator, Profiler};
use gnnav_explorer::{decide, pareto_front_indices, DfsExplorer, Priority, RuntimeConstraints};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn setup() -> (Dataset, GrayBoxEstimator) {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.05).expect("load");
    let profiler = Profiler::new(
        RuntimeBackend::new(Platform::default_rtx4090()),
        ExecutionOptions::timing_only(),
    );
    let configs = DesignSpace::standard().sample(30, ModelKind::Sage, 13);
    let db = profiler.profile(&dataset, &configs).expect("profile");
    let mut est = GrayBoxEstimator::new();
    est.fit(&db).expect("fit");
    (dataset, est)
}

fn bench_dfs_budgets(c: &mut Criterion) {
    let (dataset, est) = setup();
    let platform = Platform::default_rtx4090();
    let mut group = c.benchmark_group("dfs_exploration");
    group.sample_size(10);
    for budget in [100usize, 500, 2000] {
        group.bench_with_input(BenchmarkId::from_parameter(budget), &budget, |b, &budget| {
            let dfs = DfsExplorer::new(DesignSpace::standard(), budget, 1);
            b.iter(|| {
                dfs.run(
                    &est,
                    &dataset,
                    &platform,
                    ModelKind::Sage,
                    &RuntimeConstraints::none(),
                    &[],
                )
            });
        });
    }
    group.finish();
}

fn bench_pareto_and_decision(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let points: Vec<[f64; 3]> =
        (0..2000).map(|_| [rng.gen::<f64>(), rng.gen::<f64>(), -rng.gen::<f64>()]).collect();
    let mut group = c.benchmark_group("pareto");
    group.sample_size(20);
    group.bench_function("front_2000_points", |b| {
        b.iter(|| pareto_front_indices(&points));
    });

    // Decision making over real evaluated candidates.
    let (dataset, est) = setup();
    let dfs = DfsExplorer::new(DesignSpace::standard(), 500, 7);
    let (cands, _) = dfs.run(
        &est,
        &dataset,
        &Platform::default_rtx4090(),
        ModelKind::Sage,
        &RuntimeConstraints::none(),
        &[],
    );
    group.bench_function("decide_over_500_candidates", |b| {
        b.iter(|| decide(&cands, Priority::Balance));
    });
    group.finish();
}

criterion_group!(benches, bench_dfs_budgets, bench_pareto_and_decision);
criterion_main!(benches);
