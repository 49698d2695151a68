//! `RuntimeBackend::execute` against golden reports.
//!
//! The training step computes only what the loss reads (output layer on
//! the target rows, no first-layer input gradient — see
//! `gnnav_nn::layers`). That is a pure wall-clock optimisation: the
//! loss history, the measured `Perf` (accuracy included), the echoed
//! configuration and the recovery log must not move by one bit. The
//! golden file holds the `Debug` rendering of every report below as
//! produced by the commit *before* that change (Rust prints floats
//! shortest-round-trip, so equal text is equal bits); this test
//! re-executes and compares text.
//!
//! One run per model kind × sampler kind, with depth and dropout
//! varied along the way, plus a faulted run so the recovery
//! log is not trivially empty.
//!
//! There is deliberately no regeneration switch: if a later change
//! moves these numbers on purpose, print `render()` from a scratch
//! test, review the diff, and replace the file by hand.

use gnnav_faults::{FaultKind, FaultPlan, FaultSpec};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{ExecutionOptions, RuntimeBackend, SamplerKind, TrainingConfig};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/execute_reports.txt");

fn config(model: ModelKind, sampler: SamplerKind) -> TrainingConfig {
    // Vary depth and dropout with the sampler so the nine runs also
    // cover 2- and 3-layer stacks and both dropout settings.
    let (fanouts, dropout) = match sampler {
        SamplerKind::NodeWise => (vec![5, 5], 0.0),
        SamplerKind::LayerWise => (vec![6, 4, 3], 0.25),
        SamplerKind::SubgraphWise => (vec![4, 4], 0.1),
        _ => unreachable!("SamplerKind::ALL lists three kinds"),
    };
    TrainingConfig {
        sampler,
        fanouts,
        dropout,
        model,
        batch_size: 32,
        hidden_dim: 24,
        ..TrainingConfig::default()
    }
}

fn render() -> String {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
    let backend = RuntimeBackend::new(Platform::default_rtx4090());
    let mut out = String::new();
    for model in ModelKind::ALL {
        for sampler in SamplerKind::ALL {
            let opts = ExecutionOptions { epochs: 3, seed: 0xC0FFEE, ..Default::default() };
            let report = backend.execute(&dataset, &config(model, sampler), &opts).expect("run");
            assert!(!report.loss_history.is_empty(), "{model}/{sampler}: trained");
            writeln!(out, "{model}/{sampler}: {report:?}").expect("write to string");
        }
    }
    // NaN-loss faults: the guard skips steps and halves the learning
    // rate, so the recovery log and the remaining loss history both
    // depend on every earlier step being bit-exact.
    let plan =
        FaultPlan::new(11).with_fault(FaultSpec::new(FaultKind::NanLoss).with_probability(0.3));
    let opts = ExecutionOptions {
        epochs: 3,
        seed: 0xC0FFEE,
        fault_plan: Some(plan),
        ..Default::default()
    };
    let config = config(ModelKind::Sage, SamplerKind::NodeWise);
    let report = backend.execute(&dataset, &config, &opts).expect("faulted run recovers");
    assert!(report.recovery.nan_steps_skipped > 0, "the plan must actually fire");
    writeln!(out, "SAGE/node-wise + nan_loss: {report:?}").expect("write to string");
    out
}

#[test]
fn execute_reports_match_the_parent_commit_byte_for_byte() {
    let got = render();
    let (mut got_lines, mut want_lines) = (got.lines(), GOLDEN.lines());
    loop {
        match (got_lines.next(), want_lines.next()) {
            (None, None) => break,
            (g, w) => assert_eq!(g, w, "report differs from the golden capture"),
        }
    }
}
