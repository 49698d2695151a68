//! Quickstart: generate and apply one training guideline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Loads the Reddit2 stand-in, profiles the design space, fits the
//! gray-box estimator, asks for a balanced guideline, and runs it —
//! comparing the measured performance against the PyG baseline.

use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::{Navigator, Priority, RuntimeConstraints, Template};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Inputs: dataset, model, platform (paper Fig. 2, Step 1).
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.2)?;
    println!(
        "dataset: {} ({} nodes, {} features, {} classes)",
        dataset.id().full_name(),
        dataset.num_nodes(),
        dataset.feat_dim(),
        dataset.num_classes()
    );
    let mut nav = Navigator::new(dataset, Platform::default_rtx4090(), ModelKind::Sage);

    // 2. Profile the backend and fit the gray-box estimator (Step 2).
    // Optional: `generate_guideline` fits on demand. Fitting here first
    // lets us report the sweep.
    println!("profiling the design space and fitting the estimator...");
    nav.prepare()?;
    println!("profiled {} configurations", nav.profile_db().len());

    // 3. Generate a balanced guideline.
    let result = nav.generate_guideline(Priority::Balance, &RuntimeConstraints::none())?;
    println!("\nguideline ({}): {}", result.guideline.priority, result.guideline.config.summary());
    println!(
        "predicted: {:.1} ms/epoch, {:.1} MB, {:.1}% accuracy",
        result.guideline.estimate.time_s * 1e3,
        result.guideline.estimate.mem_bytes / 1e6,
        result.guideline.estimate.accuracy * 100.0
    );

    // 4. Apply it on the backend (Step 3) and compare against PyG.
    let guided = nav.apply(&result.guideline)?;
    let pyg = nav.run_template(Template::Pyg)?;
    println!(
        "\nmeasured (guideline): {} /epoch, {:.1} MB, {:.1}% accuracy",
        guided.perf.epoch_time,
        guided.perf.peak_mem_mb(),
        guided.perf.accuracy * 100.0
    );
    println!(
        "measured (PyG):       {} /epoch, {:.1} MB, {:.1}% accuracy",
        pyg.perf.epoch_time,
        pyg.perf.peak_mem_mb(),
        pyg.perf.accuracy * 100.0
    );
    println!(
        "\nspeedup vs PyG: {:.2}x, memory delta: {:+.1}%",
        guided.perf.speedup_vs(&pyg.perf),
        guided.perf.mem_delta_vs(&pyg.perf) * 100.0
    );
    Ok(())
}
