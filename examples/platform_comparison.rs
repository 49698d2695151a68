//! Platform sensitivity: the same configuration across three devices.
//!
//! ```sh
//! cargo run --release --example platform_comparison
//! ```
//!
//! The paper evaluates on RTX 4090, A100, and M90 platforms; the best
//! training configuration shifts with the hardware balance (compute
//! vs. link vs. host). This example runs one fixed configuration on
//! all three simulated platforms, then lets the explorer re-tune for
//! each — showing that guidelines are platform-adaptive.

use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::runtime::{ExecutionOptions, RuntimeBackend};
use gnnavigator::{Navigator, Priority, RuntimeConstraints, TrainingConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.15)?;
    let platforms =
        [Platform::default_rtx4090(), Platform::default_a100(), Platform::default_m90()];

    println!("## Fixed configuration across platforms\n");
    let fixed = TrainingConfig { batch_size: 128, ..TrainingConfig::default() };
    println!("config: {}\n", fixed.summary());
    let opts = ExecutionOptions { epochs: 2, ..Default::default() };
    for platform in &platforms {
        let backend = RuntimeBackend::new(platform.clone());
        let perf = backend.execute(&dataset, &fixed, &opts)?.perf;
        println!(
            "{:<10} epoch {:>10}  mem {:>7.1} MB  [sample {} | transfer {} | compute {}]",
            platform.device.name,
            perf.epoch_time.to_string(),
            perf.peak_mem_mb(),
            perf.phases.sample,
            perf.phases.transfer,
            perf.phases.compute,
        );
    }

    println!("\n## Per-platform guidelines (Ex-TM priority)\n");
    for platform in platforms {
        let name = platform.device.name.clone();
        let mut nav = Navigator::new(dataset.clone(), platform, ModelKind::Sage);
        let result = nav.generate_guideline(Priority::ExTimeMemory, &RuntimeConstraints::none())?;
        let report = nav.apply(&result.guideline)?;
        println!(
            "{:<10} epoch {:>10}  mem {:>7.1} MB  <- {}",
            name,
            report.perf.epoch_time.to_string(),
            report.perf.peak_mem_mb(),
            result.guideline.config.summary()
        );
    }
    Ok(())
}
