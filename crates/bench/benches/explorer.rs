//! Criterion benches for the explorer: one whole `explore` on the
//! wall-clock benchmark's estimator shape (what an evaluated candidate
//! costs, all in; open, and with nearly every leaf rejected), DFS
//! throughput at different budgets, Pareto-front
//! extraction, and the decision maker with the front handed in and
//! with the front recomputed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gnnav_bench::benchmark_shape_estimator;
use gnnav_estimator::{GrayBoxEstimator, Profiler};
use gnnav_explorer::{
    decide, decide_on_front, pareto_front_indices, DfsExplorer, EvaluatedCandidate, Explorer,
    Priority, RuntimeConstraints,
};
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
                dfs.run_audited(
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

fn bench_explore_and_decision(c: &mut Criterion) {
    let est = benchmark_shape_estimator();
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.2).expect("load");
    let platform = Platform::default_rtx4090();
    let explore_within = |budget, constraints: &RuntimeConstraints| {
        Explorer::new(&est, budget)
            .with_seed(0x7A51)
            .explore(&dataset, &platform, ModelKind::Sage, Priority::Balance, constraints)
            .expect("explore")
    };
    let explore = |budget| explore_within(budget, &RuntimeConstraints::none());
    // Time and memory both capped at the lowest of the open walk's
    // predictions but one in four, as `benchmark/`'s `explore_sweep`
    // caps them: nearly every leaf is rejected.
    let quartile = |value: fn(&EvaluatedCandidate) -> f64| {
        let mut values: Vec<f64> = explore(4000).evaluated.iter().map(value).collect();
        values.sort_by(f64::total_cmp);
        values[values.len() / 4]
    };
    let rejecting = RuntimeConstraints {
        max_time_s: Some(quartile(|c| c.estimate.time_s)),
        max_mem_bytes: Some(quartile(|c| c.estimate.mem_bytes)),
        min_accuracy: None,
    };
    // The server's budget and the sweep's, then the sweep's capped walk.
    let mut group = c.benchmark_group("explore");
    group.sample_size(20);
    for budget in [400usize, 4000] {
        group.bench_function(format!("budget_{budget}"), |b| b.iter(|| explore(budget)));
    }
    group.bench_function("rejecting_4000", |b| b.iter(|| explore_within(4000, &rejecting)));
    group.finish();

    // The decision over one exploration's accepted candidates: as
    // `explore` makes it, on the front the DFS kept, and as a caller
    // without a front does.
    let result = explore(4000);
    let mut group = c.benchmark_group("decide");
    group.sample_size(20);
    group.bench_function("4000_with_front", |b| {
        b.iter(|| decide_on_front(&result.evaluated, &result.front, Priority::Balance));
    });
    group.bench_function("4000_recomputed", |b| {
        b.iter(|| decide(&result.evaluated, Priority::Balance));
    });
    group.finish();
}

fn bench_pareto(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let points: Vec<[f64; 3]> =
        (0..2000).map(|_| [rng.gen::<f64>(), rng.gen::<f64>(), -rng.gen::<f64>()]).collect();
    let mut group = c.benchmark_group("pareto");
    group.sample_size(20);
    // The quadratic reference the tests compare the incremental front
    // against.
    group.bench_function("front_2000_points", |b| {
        b.iter(|| pareto_front_indices(&points));
    });
    group.finish();
}

criterion_group!(benches, bench_explore_and_decision, bench_dfs_budgets, bench_pareto);
criterion_main!(benches);
