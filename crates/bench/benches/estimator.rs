//! Criterion benches for the gray-box estimator: fit cost, whole and
//! per forest, per-candidate prediction latency (the paper claims
//! "negligible latency") alone, per forest and through the batch path,
//! and gray-box vs. black-box fitting cost.

use criterion::{criterion_group, criterion_main, Criterion};
use gnnav_bench::benchmark_shape_estimator;
use gnnav_estimator::{
    AccuracyEstimator, BatchSizePredictor, BlackBoxBatchSize, Context, GrayBoxEstimator,
    HitRatePredictor, PredictionContext, ProfileDb, Profiler,
};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend, TrainingConfig};

fn profiled_db() -> (Dataset, ProfileDb) {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.05).expect("load");
    let profiler = Profiler::new(
        RuntimeBackend::new(Platform::default_rtx4090()),
        ExecutionOptions {
            epochs: 1,
            train: true,
            train_batches_cap: Some(2),
            ..Default::default()
        },
    );
    let configs = DesignSpace::standard().sample(40, ModelKind::Sage, 11);
    let db = profiler.profile(&dataset, &configs).expect("profile");
    (dataset, db)
}

fn bench_fit_and_predict(c: &mut Criterion) {
    let (dataset, db) = profiled_db();
    let mut group = c.benchmark_group("estimator");
    group.sample_size(10);
    group.bench_function("fit_full_gray_box", |b| {
        b.iter(|| {
            let mut est = GrayBoxEstimator::new();
            est.fit(&db).expect("fit");
            est
        });
    });
    let mut est = GrayBoxEstimator::new();
    est.fit(&db).expect("fit");
    let ctx = Context::new(&dataset, &Platform::default_rtx4090(), TrainingConfig::default());
    group.bench_function("predict_one_candidate", |b| {
        b.iter(|| est.predict(&ctx));
    });
    group.finish();
}

/// The two forests a prediction walks: fitted on the profile, then
/// each walked over 256 sampled candidates per iteration (one
/// candidate walked again and again would be all predicted branches),
/// and the batch path over 2000.
fn bench_forests_and_batch(c: &mut Criterion) {
    let (dataset, db) = profiled_db();
    let platform = Platform::default_rtx4090();
    let configs = DesignSpace::standard().sample(2000, ModelKind::Sage, 17);
    let contexts: Vec<Context> =
        configs[..256].iter().map(|c| Context::new(&dataset, &platform, c.clone())).collect();
    // Cached candidates only: the hit-rate predictor answers 0 for a
    // cacheless one without consulting its forest.
    let cached: Vec<&Context> = contexts.iter().filter(|c| c.config.cache_ratio > 0.0).collect();
    let vi: Vec<f64> = db.records().iter().map(|r| r.avg_batch_nodes).collect();
    let hit = HitRatePredictor::fit(&db, &vi).expect("fit");
    let accuracy = AccuracyEstimator::fit(&db).expect("fit");
    let mut group = c.benchmark_group("forest_fit");
    group.sample_size(20);
    group.bench_function("hit_20x7", |b| {
        b.iter(|| HitRatePredictor::fit(&db, &vi).expect("fit"));
    });
    group.bench_function("accuracy_40x9", |b| {
        b.iter(|| AccuracyEstimator::fit(&db).expect("fit"));
    });
    group.finish();

    let mut group = c.benchmark_group("forest_predict");
    group.sample_size(20);
    group.bench_function("hit_20x7", |b| {
        b.iter(|| cached.iter().map(|c| hit.predict(c, 500.0)).sum::<f64>());
    });
    group.bench_function("accuracy_40x9", |b| {
        b.iter(|| contexts.iter().map(|c| accuracy.predict(c, 500.0)).sum::<f64>());
    });
    group.finish();

    let est = benchmark_shape_estimator();
    let mut group = c.benchmark_group("predict_batch");
    group.sample_size(20);
    group.bench_function("2000", |b| {
        b.iter(|| {
            let mut pctx = PredictionContext::new(&dataset, &platform);
            est.predict_batch(&mut pctx, &configs)
        });
    });
    group.finish();
}

fn bench_gray_vs_black_fit(c: &mut Criterion) {
    let (_, db) = profiled_db();
    let mut group = c.benchmark_group("batch_size_model_fit");
    group.sample_size(10);
    group.bench_function("gray_box_ridge", |b| {
        b.iter(|| BatchSizePredictor::fit(&db).expect("fit"));
    });
    group.bench_function("black_box_tree", |b| {
        b.iter(|| BlackBoxBatchSize::fit(&db).expect("fit"));
    });
    group.finish();
}

criterion_group!(benches, bench_fit_and_predict, bench_forests_and_batch, bench_gray_vs_black_fit);
criterion_main!(benches);
