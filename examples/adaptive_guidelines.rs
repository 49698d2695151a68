//! Adaptability demo: one workload, four application scenarios.
//!
//! ```sh
//! cargo run --release --example adaptive_guidelines
//! ```
//!
//! The same dataset + model is tuned for four different priorities
//! (the paper's Bal / Ex-TM / Ex-MA / Ex-TA rows), plus a
//! memory-constrained edge scenario on the weaker M90 platform where
//! a hard memory budget prunes the design space.

use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::{Navigator, Priority, RuntimeConstraints};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Dataset::load_scaled(DatasetId::OgbnProducts, 0.2)?;

    // --- Scenario group 1: priorities on a datacenter GPU. ---
    let mut nav = Navigator::new(dataset.clone(), Platform::default_rtx4090(), ModelKind::Sage);
    println!("## Priorities on RTX 4090 (ogbn-products stand-in)\n");
    println!("{:<6} {:>12} {:>10} {:>9}  config", "prio", "time/epoch", "memory", "accuracy");
    // One walk of the design space, one decision per priority.
    let results = nav.generate_all(&RuntimeConstraints::none())?;
    for (priority, result) in Priority::ALL.into_iter().zip(&results) {
        let report = nav.apply(&result.guideline)?;
        println!(
            "{:<6} {:>12} {:>8.1}MB {:>8.1}%  {}",
            priority.label(),
            report.perf.epoch_time.to_string(),
            report.perf.peak_mem_mb(),
            report.perf.accuracy * 100.0,
            result.guideline.config.summary()
        );
    }

    // --- Scenario group 2: hard memory budget on an M90 edge box. ---
    println!("\n## Memory-constrained scenario on M90\n");
    let mut edge_nav = Navigator::new(dataset, Platform::default_m90(), ModelKind::Sage);
    let unconstrained =
        edge_nav.generate_guideline(Priority::ExTimeAccuracy, &RuntimeConstraints::none())?;
    let baseline = edge_nav.apply(&unconstrained.guideline)?;
    println!(
        "unconstrained Ex-TA: {} /epoch, {:.1} MB",
        baseline.perf.epoch_time,
        baseline.perf.peak_mem_mb()
    );

    // Budget at 80% of what the unconstrained guideline used.
    let budget_bytes = (baseline.perf.peak_mem_bytes as f64 * 0.8) as usize;
    let constraints = RuntimeConstraints {
        max_mem_bytes: Some(budget_bytes as f64),
        ..RuntimeConstraints::none()
    };
    let constrained = edge_nav.generate_guideline(Priority::ExTimeAccuracy, &constraints)?;
    let report = edge_nav.apply(&constrained.guideline)?;
    println!(
        "with {:.1} MB budget:  {} /epoch, {:.1} MB  ({} subtrees pruned)",
        budget_bytes as f64 / 1e6,
        report.perf.epoch_time,
        report.perf.peak_mem_mb(),
        constrained.stats.pruned_subtrees
    );
    println!("constrained config: {}", constrained.guideline.config.summary());
    Ok(())
}
