//! Estimator deep-dive: profile, fit, validate, inspect.
//!
//! ```sh
//! cargo run --release --example estimator_training
//! ```
//!
//! Builds a profile database over two datasets plus power-law
//! augmentation graphs, fits the gray-box estimator with the paper's
//! leave-one-dataset-out protocol, and prints the Tab. 2 metrics plus
//! a few sanity predictions.

use gnnavigator::estimator::{Context, GrayBoxEstimator, ProfileDb, Profiler};
use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};
use gnnavigator::TrainingConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::default_rtx4090();
    let profiler = Profiler::new(
        RuntimeBackend::new(platform.clone()),
        ExecutionOptions {
            epochs: 1,
            train: true,
            train_batches_cap: Some(4),
            ..Default::default()
        },
    );

    // Ground truth across two datasets + augmentation.
    let mut db = ProfileDb::new();
    for (i, id) in [DatasetId::Reddit2, DatasetId::OgbnArxiv].iter().enumerate() {
        let dataset = Dataset::load_scaled(*id, 0.1)?;
        let configs = DesignSpace::standard().sample(40, ModelKind::Sage, 21 + i as u64);
        db.merge(profiler.profile(&dataset, &configs)?);
        println!("profiled {} -> {} records total", id, db.len());
    }
    let aug_configs = DesignSpace::standard().sample(15, ModelKind::Sage, 99);
    db.merge(profiler.profile_augmentation(None, 2, 2000, &aug_configs, 7)?);
    println!("augmented -> {} records total", db.len());

    // Leave-one-dataset-out validation (paper Tab. 2).
    let (estimator, report) = GrayBoxEstimator::leave_one_dataset_out(&db, DatasetId::Reddit2)?;
    println!("\nheld-out Reddit2 validation over {} records:", report.num_records);
    println!("  R2(time)   = {:.4}", report.r2_time);
    println!("  R2(memory) = {:.4}", report.r2_memory);
    println!("  MSE(acc)   = {:.4}", report.mse_accuracy);

    // Inspect a few predictions for a config the profiling never ran.
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.1)?;
    for (label, config) in [
        ("default", TrainingConfig::default()),
        (
            "fp16 + big cache",
            TrainingConfig {
                precision: gnnavigator::hwsim::Precision::Fp16,
                cache_ratio: 0.5,
                cache_policy: gnnavigator::cache::CachePolicy::StaticDegree,
                ..TrainingConfig::default()
            },
        ),
    ] {
        let ctx = Context::new(&dataset, &platform, config);
        let est = estimator.predict(&ctx);
        println!(
            "\nprediction [{label}]: {:.2} ms/epoch, {:.1} MB, {:.1}% acc \
             (|Vi| ~ {:.0}, hit ~ {:.2})",
            est.time_s * 1e3,
            est.mem_bytes / 1e6,
            est.accuracy * 100.0,
            est.batch_nodes,
            est.hit_rate
        );
    }
    Ok(())
}
