//! Regenerates **Table 1**: performance of GNNavigator across tasks.
//!
//! For each application (dataset + model) the paper compares PyG,
//! PaGraph (full / low memory), 2PGraph — all reproduced as backend
//! templates — against GNNavigator guidelines generated under four
//! priorities (Bal, Ex-TM, Ex-MA, Ex-TA). Columns: epoch time `T`,
//! peak device memory `Γ`, accuracy `Acc`, plus deltas vs. PyG.
//!
//! Run with `cargo run --release -p gnnav-bench --bin table1`.
//! `GNNAV_SCALE` (default 0.5) and `GNNAV_EPOCHS` (default 3) shrink
//! the experiment for smoke runs.

use gnnav_bench::{
    env_epochs, env_scale, fmt_mem, fmt_mem_delta, fmt_pct, fmt_speedup, fmt_time, print_table,
    scaled_space, template_config,
};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{ExecutionOptions, Perf, Template};
use gnnavigator::{Navigator, NavigatorOptions, Priority, RuntimeConstraints};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = env_scale(0.5);
    let epochs = env_epochs(3);
    let tasks = [
        (DatasetId::OgbnProducts, ModelKind::Sage),
        (DatasetId::Reddit2, ModelKind::Sage),
        (DatasetId::OgbnArxiv, ModelKind::Gat),
    ];
    println!("# Table 1: Performance of GNNavigator across different tasks");
    println!("# (scale {scale}, {epochs} epochs; simulated RTX 4090 platform)\n");

    for (dataset_id, model) in tasks {
        let started = std::time::Instant::now();
        let dataset = Dataset::load_scaled(dataset_id, scale)?;
        let apply_exec = ExecutionOptions { epochs, ..Default::default() };
        let options = NavigatorOptions {
            profile_samples: 48,
            augmentation_graphs: 2,
            augmentation_nodes: 1200,
            profile_exec: ExecutionOptions {
                epochs: 1,
                train: true,
                train_batches_cap: Some(6),
                ..Default::default()
            },
            apply_exec: apply_exec.clone(),
            explore_budget: 1500,
            space: scaled_space(scale),
            ..Default::default()
        };
        let mut nav =
            Navigator::new(dataset, Platform::default_rtx4090(), model).with_options(options);

        // Baselines (reproduced on the same backend, §4.1).
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut perfs: Vec<(String, Perf)> = Vec::new();
        for template in Template::ALL {
            let config = template_config(template, model, scale);
            let report = nav.run_config(&config)?;
            perfs.push((template.label().to_string(), report.perf));
        }
        let pyg = perfs[0].1;

        // GNNavigator guidelines.
        let mut chosen: Vec<(String, String)> = Vec::new();
        // One walk of the design space, one decision per priority.
        let results = nav.generate_all(&RuntimeConstraints::none())?;
        for (priority, result) in Priority::ALL.into_iter().zip(&results) {
            let report = nav.apply(&result.guideline)?;
            perfs.push((priority.label().to_string(), report.perf));
            chosen.push((priority.label().to_string(), result.guideline.config.summary()));
        }

        for (label, perf) in &perfs {
            let is_pyg = label == "PyG";
            rows.push(vec![
                label.clone(),
                fmt_time(perf.epoch_time),
                if is_pyg { String::new() } else { fmt_speedup(perf.speedup_vs(&pyg)) },
                fmt_mem(perf.peak_mem_bytes),
                if is_pyg { String::new() } else { fmt_mem_delta(perf.mem_delta_vs(&pyg)) },
                fmt_pct(perf.accuracy),
                format!("{:.2}", perf.hit_rate),
            ]);
        }

        println!(
            "## {} + {}  ({} nodes, wall {:.0}s)",
            dataset_id.short_name(),
            model.short_name(),
            nav.dataset().num_nodes(),
            started.elapsed().as_secs_f64()
        );
        print_table(
            &["Method", "Time (T)", "vs PyG", "Memory (G)", "vs PyG", "Accuracy", "hit"],
            &rows,
        );
        println!("\nguideline configurations:");
        for (label, summary) in &chosen {
            println!("  {label:<6} {summary}");
        }
        println!();
    }
    Ok(())
}
