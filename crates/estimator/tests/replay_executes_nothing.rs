//! A sweep answered from another platform's traces executes nothing.
//!
//! Counted by the `backend.execute` spans the sweep leaves in
//! `gnnav_obs::global()`. That registry is process-wide, so this
//! binary holds this one test: no other test can execute in between.

use gnnav_estimator::{ExecutionTraces, Profiler};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_obs::names as metric;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};

/// Observations of every `backend.execute` span, whatever it is nested
/// under (the sweep records them as `profiler.sweep.config.backend.execute`).
fn executions() -> u64 {
    let snapshot = gnnav_obs::global().snapshot();
    let suffix = format!(".{}", metric::EXECUTE_WALL);
    snapshot
        .histograms
        .iter()
        .filter(|(path, _)| path.as_str() == metric::EXECUTE_WALL || path.ends_with(&suffix))
        .map(|(_, h)| h.count)
        .sum()
}

#[test]
fn a_replayed_sweep_executes_nothing() {
    gnnav_obs::global().enable(true);
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
    let mut configs: Vec<_> = DesignSpace::standard()
        .sample(3, ModelKind::Sage, 3)
        .into_iter()
        .map(|mut c| {
            c.batch_size = 32;
            c.fanouts = vec![5, 5];
            c.hidden_dim = 16;
            c
        })
        .collect();
    configs.push(configs[0].clone());
    let opts = ExecutionOptions {
        epochs: 1,
        train: true,
        train_batches_cap: Some(1),
        ..Default::default()
    };
    let profiler = |platform: Platform| {
        Profiler::new(RuntimeBackend::new(platform), opts.clone()).with_threads(2)
    };
    let rtx = profiler(Platform::default_rtx4090());

    let before = executions();
    let plain = rtx.profile(&dataset, &configs).expect("plain sweep");
    assert_eq!(executions() - before, configs.len() as u64, "the counter sees executions");

    let mut traces = ExecutionTraces::new();
    profiler(Platform::default_a100())
        .profile_through(None, Some(&mut traces), &dataset, &configs)
        .expect("record traces");
    let before = executions();
    let replayed =
        rtx.profile_through(None, Some(&mut traces), &dataset, &configs).expect("replayed sweep");
    assert_eq!(executions(), before, "a replayed sweep executes nothing");
    assert_eq!(format!("{replayed:?}"), format!("{plain:?}"));
}
