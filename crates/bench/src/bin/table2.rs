//! Regenerates **Table 2**: validation of estimator prediction.
//!
//! Leave-one-dataset-out protocol (paper §4.1): the gray-box estimator
//! is fitted on profiles from every dataset *except* the one under
//! validation (plus randomly generated power-law graphs as data
//! enhancement), then scored on the held-out dataset with R² for time
//! and memory and MSE for accuracy.
//!
//! Run with `cargo run --release -p gnnav-bench --bin table2`.
//! `GNNAV_SCALE` (default 0.2) shrinks the graphs.

use gnnav_bench::{env_scale, print_table};
use gnnav_estimator::{GrayBoxEstimator, ProfileDb, Profiler};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = env_scale(0.2);
    let samples = 60usize;
    // The paper validates on Reddit, Reddit2, and Ogbn-products.
    let validation_targets = [DatasetId::Reddit, DatasetId::Reddit2, DatasetId::OgbnProducts];
    // All benchmark datasets contribute profiles.
    let profile_sources = DatasetId::ALL;

    println!("# Table 2: Validation of estimator prediction");
    println!("# (leave-one-dataset-out, {samples} configs/dataset, scale {scale})\n");

    let profiler = Profiler::new(
        RuntimeBackend::new(Platform::default_rtx4090()),
        ExecutionOptions {
            epochs: 1,
            train: true,
            train_batches_cap: Some(6),
            ..Default::default()
        },
    );

    let mut db = ProfileDb::new();
    for (i, id) in profile_sources.iter().enumerate() {
        let started = std::time::Instant::now();
        let dataset = Dataset::load_scaled(*id, scale)?;
        let configs = DesignSpace::standard().sample(samples, ModelKind::Sage, 17 + i as u64);
        db.merge(profiler.profile(&dataset, &configs)?);
        eprintln!(
            "profiled {} ({} records total, {:.0}s)",
            id,
            db.len(),
            started.elapsed().as_secs_f64()
        );
    }
    // Data enhancement: random power-law graphs (paper §4.1).
    let aug_configs = DesignSpace::standard().sample(20, ModelKind::Sage, 777);
    db.merge(profiler.profile_augmentation(None, 3, 2000, &aug_configs, 31)?);
    eprintln!("augmented ({} records total)", db.len());

    let mut rows = Vec::new();
    let mut r2_t = vec!["R2 Score".to_string(), "Time Cost (T)".to_string()];
    let mut r2_m = vec![String::new(), "Memory (G)".to_string()];
    let mut mse_a = vec!["MSE".to_string(), "Accuracy (Acc)".to_string()];
    for id in validation_targets {
        let (_, report) = GrayBoxEstimator::leave_one_dataset_out(&db, id)?;
        r2_t.push(format!("{:.4}", report.r2_time));
        r2_m.push(format!("{:.4}", report.r2_memory));
        mse_a.push(format!("{:.4}", report.mse_accuracy));
    }
    rows.push(r2_t);
    rows.push(r2_m);
    rows.push(mse_a);
    print_table(&["Validation", "Performance Metric", "Reddit", "Reddit2", "Ogbn-products"], &rows);
    println!("\n(paper: R2 of T 0.73-0.84, R2 of G 0.73-0.98, MSE of Acc 0.016-0.029)");
    Ok(())
}
