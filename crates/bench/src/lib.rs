//! Shared harness utilities for the GNNavigator benchmark binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md §4 for the experiment index):
//!
//! | Binary   | Artifact | Content |
//! |----------|----------|---------|
//! | `table1` | Tab. 1   | Perf of baselines + guidelines on 3 tasks |
//! | `table2` | Tab. 2   | Estimator R²/MSE, leave-one-dataset-out |
//! | `fig1`   | Fig. 1   | PaGraph memory/speedup + 2PGraph accuracy trades |
//! | `fig5`   | Fig. 5   | Gray-box vs decision-tree batch-size scatter |
//! | `fig6`   | Fig. 6   | Exhausted design space + Pareto front + picks |
//!
//! All binaries accept the `GNNAV_SCALE` environment variable
//! (default experiment-specific) to shrink the dataset stand-ins for
//! quick smoke runs, and `GNNAV_EPOCHS` to override training epochs.

use gnnav_estimator::{GrayBoxEstimator, ProfileDb, Profiler};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::{Platform, SimTime};
use gnnav_nn::ModelKind;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend, Template, TrainingConfig};

/// The design space with its batch axis adapted to the dataset scale
/// (the paper defines the space around full-size graphs; the
/// stand-ins shrink `|B^0|` proportionally so batch/graph ratios stay
/// in regime).
pub fn scaled_space(scale: f64) -> DesignSpace {
    let mut space = DesignSpace::standard();
    if scale < 0.75 {
        space.batch_sizes = vec![64, 128, 256];
    }
    space
}

/// Instantiates a baseline template with the batch size adapted to the
/// dataset scale: the 1:10-scale stand-ins use batch 256 at full
/// scale, halved below scale 0.75, so `|V_i|/|V|` stays in the regime
/// the original systems were measured in.
pub fn template_config(template: Template, model: ModelKind, scale: f64) -> TrainingConfig {
    let mut config = template.config(model);
    if scale < 0.75 {
        config.batch_size = 128;
    }
    config
}

/// An estimator of the shape the wall-clock benchmark's `explore_sweep`
/// fits (`benchmark/src/workloads/explore.rs`): 16 sampled configs on
/// the Reddit2 and ogbn-products stand-ins at scale 0.05, one trained
/// epoch capped at two batches — 32 records, all five components
/// fitted, so the 40-tree accuracy forest and the 20-tree hit-rate
/// forest have the depth a candidate pays for there.
///
/// # Panics
///
/// Panics if a stand-in fails to load, profile or fit.
pub fn benchmark_shape_estimator() -> GrayBoxEstimator {
    let exec = ExecutionOptions {
        train_batches_cap: Some(2),
        ..gnnavigator::NavigatorOptions::default().profile_exec
    };
    let profiler = Profiler::new(RuntimeBackend::new(Platform::default_rtx4090()), exec);
    let configs = DesignSpace::standard().sample(16, ModelKind::Sage, 0x7A51);
    let mut db = ProfileDb::new();
    for id in [DatasetId::Reddit2, DatasetId::OgbnProducts] {
        let small = Dataset::load_scaled(id, 0.05).expect("load");
        db.merge(profiler.profile(&small, &configs).expect("profile"));
    }
    let mut estimator = GrayBoxEstimator::new();
    estimator.fit(&db).expect("fit");
    assert!(estimator.predicts_accuracy());
    estimator
}

/// Measured single-thread GFLOP/s floor for the `matmul` criterion
/// bench on a 256x256x256 problem (see `benches/nn_kernels.rs`).
///
/// The value is the gate the `kernel-bench` CI job and
/// `perf_baseline` enforce, and it is the **portable** build's floor:
/// the register-tile kernels are compiled once for the target's
/// baseline and once for AVX2, and a runner without AVX2 must pass
/// too. Measured on the reference container: scalar PR 4 kernels 7.6,
/// the saxpy-form lane kernels of PR 6 21-25, the register-tile body
/// 22-24 built for SSE2 and 44-52 built for AVX2 (no FMA on either).
/// So the floor sits ~2x above scalar code and ~30% below the
/// portable build — it fails on a genuine kernel regression (bounds
/// checks back in the tile loop, accumulators falling out of
/// registers, a return to scalar code) but not on ordinary machine
/// noise — and on an AVX2 runner it is cleared even in the sandbox's
/// slow mode (x0.6), which the PR 6 kernels were not. The same number
/// is recorded in `BENCH_nn.json` as the `nn.matmul_gflops_floor`
/// counter so `metrics-diff` flags any attempt to quietly lower it.
pub const MATMUL_GFLOPS_FLOOR: f64 = 16.0;

/// Measures dense-matmul throughput in GFLOP/s for an `n x n x n`
/// problem at the given pool width, timing `reps` back-to-back calls
/// (after one untimed warmup) against the classical `2n^3` FLOP
/// count.
pub(crate) fn measure_matmul_gflops(n: usize, threads: usize, reps: usize) -> f64 {
    use gnnav_nn::init::glorot_uniform;
    let a = glorot_uniform(n, n, 1);
    let b = glorot_uniform(n, n, 2);
    let mut out = gnnav_nn::Matrix::zeros(n, n);
    gnnav_par::with_thread_limit(threads, || {
        a.matmul_into(&b, &mut out);
        let start = std::time::Instant::now();
        for _ in 0..reps {
            a.matmul_into(&b, &mut out);
        }
        let secs = start.elapsed().as_secs_f64();
        let flops = 2.0 * (n as f64).powi(3) * reps as f64;
        flops / secs / 1e9
    })
}

/// Best-of-`samples` throughput measurement: wall-clock benches on a
/// shared runner are noisy in one direction only (interference slows
/// them down), so the maximum over a few short samples is the right
/// statistic to compare against [`MATMUL_GFLOPS_FLOOR`].
pub fn best_matmul_gflops(n: usize, threads: usize, samples: usize) -> f64 {
    (0..samples.max(1)).map(|_| measure_matmul_gflops(n, threads, 4)).fold(0.0f64, f64::max)
}

/// Reads a scale factor from `GNNAV_SCALE`, falling back to `default`.
pub fn env_scale(default: f64) -> f64 {
    std::env::var("GNNAV_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&v: &f64| v.is_finite() && v > 0.0)
        .unwrap_or(default)
}

/// Reads an epoch count from `GNNAV_EPOCHS`, falling back to
/// `default`.
pub fn env_epochs(default: usize) -> usize {
    std::env::var("GNNAV_EPOCHS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&v: &usize| v > 0)
        .unwrap_or(default)
}

/// Formats a simulated duration with stable width for tables.
pub fn fmt_time(t: SimTime) -> String {
    format!("{:>10}", t.to_string())
}

/// Formats bytes as megabytes.
pub fn fmt_mem(bytes: usize) -> String {
    format!("{:8.2} MB", bytes as f64 / 1e6)
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:6.2}%", x * 100.0)
}

/// Formats a speedup multiplier with the paper's arrow notation.
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}x{}", if x >= 1.0 { "\u{2191}" } else { "\u{2193}" })
}

/// Formats a relative memory delta with the paper's arrow notation.
pub fn fmt_mem_delta(delta: f64) -> String {
    if delta >= 0.0 {
        format!("{:.1}% \u{2191}", delta * 100.0)
    } else {
        format!("{:.1}% \u{2193}", -delta * 100.0)
    }
}

/// Prints an aligned text table: a header row, a separator, and rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.chars().count());
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::from("|");
        for (c, cell) in cells.iter().enumerate().take(cols) {
            let pad = widths[c].saturating_sub(cell.chars().count());
            line.push(' ');
            line.push_str(cell);
            line.push_str(&" ".repeat(pad));
            line.push_str(" |");
        }
        println!("{line}");
    };
    fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&"-".repeat(w + 2));
        sep.push('|');
    }
    println!("{sep}");
    for row in rows {
        fmt_row(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert!(fmt_time(SimTime::from_secs(1.0)).contains("1.000s"));
        assert_eq!(fmt_mem(2_500_000).trim(), "2.50 MB");
        assert_eq!(fmt_pct(0.7931).trim(), "79.31%");
        assert!(fmt_speedup(2.5).starts_with("2.50x"));
        assert!(fmt_mem_delta(-0.449).contains("44.9%"));
        assert!(fmt_mem_delta(0.691).contains("69.1%"));
    }

    #[test]
    fn scaled_space_shrinks_batches() {
        assert_eq!(scaled_space(0.5).batch_sizes, vec![64, 128, 256]);
        assert_eq!(scaled_space(1.0).batch_sizes, DesignSpace::standard().batch_sizes);
    }

    #[test]
    fn template_config_scales_batch() {
        let full = template_config(Template::Pyg, ModelKind::Sage, 1.0);
        let half = template_config(Template::Pyg, ModelKind::Sage, 0.5);
        assert_eq!(full.batch_size, 256);
        assert_eq!(half.batch_size, 128);
    }

    #[test]
    fn env_scale_defaults_when_unset() {
        std::env::remove_var("GNNAV_SCALE");
        assert_eq!(env_scale(0.5), 0.5);
        std::env::remove_var("GNNAV_EPOCHS");
        assert_eq!(env_epochs(3), 3);
    }
}
