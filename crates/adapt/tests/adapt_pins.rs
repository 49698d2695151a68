//! What an adaptive run produces and persists, pinned as constants
//! captured once and never regenerated:
//!
//! - the FNV-1a digest of a drift-triggering run's deterministic
//!   rendering: the final report, every switch (its advisory
//!   `reexplore_wall_ms` zeroed), the drift history, the
//!   re-exploration count and the audit trail;
//! - `(epoch, len, crc32)` of every `adapt-NNNNNN.ckpt` payload a
//!   durable run of the same setup writes when it checkpoints after
//!   every epoch, with each switch's wall-clock `reexplore_wall_ms`
//!   zeroed in place. These hold the adaptive payload's layout: the
//!   session payload, then the loop's state in its field order.
//!
//! The setup is `tests/adaptive.rs`'s link-degradation recipe: a
//! cache-less guideline on Reddit2 at 3 % scale under a persistent 50x
//! slowdown of miss transfers, which drifts, re-explores and switches.
//!
//! There is deliberately no regeneration switch: if a later change
//! moves a byte on purpose, print the values from a scratch test,
//! review why, and replace the constants by hand.

use gnnav_adapt::{AdaptOptions, AdaptiveReport, AdaptiveRunner};
use gnnav_estimator::{Context, GrayBoxEstimator, ProfileDb, Profiler};
use gnnav_explorer::{DfsStats, ExplorationResult, Guideline, Priority, RuntimeConstraints};
use gnnav_faults::{FaultKind, FaultPlan, FaultSpec};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{
    DesignSpace, DurabilityOptions, ExecutionOptions, RuntimeBackend, SamplerKind, Template,
    TrainingConfig,
};
use gnnav_store::{crc32, fnv1a64, read_checkpoint};

/// [`rendering`] of the ephemeral run.
const RENDERING_DIGEST: u64 = 0x7de2_df44_2cd3_7db9;
/// `(epoch, payload length, payload CRC-32)` of each checkpoint the
/// durable run writes, in epoch order.
const CHECKPOINTS: [(usize, usize, u32); 5] = [
    (1, 148_528, 0x7f35_55e3),
    (2, 150_490, 0xa674_1496),
    (3, 150_808, 0x70d3_9be3),
    (4, 150_978, 0xb83e_4e65),
    (5, 151_148, 0x3613_6f83),
];

fn dataset() -> Dataset {
    Dataset::load_scaled(DatasetId::Reddit2, 0.03).expect("load")
}

fn platform() -> Platform {
    Platform::default_rtx4090()
}

/// A cache-less starting guideline: under a degraded link every miss
/// pays full price, so re-exploration has real headroom to exploit.
fn low_cache_config() -> TrainingConfig {
    TrainingConfig {
        sampler: SamplerKind::NodeWise,
        fanouts: vec![10, 10],
        batch_size: 256,
        cache_ratio: 0.0,
        cache_policy: Template::Pyg.config(ModelKind::Sage).cache_policy,
        hidden_dim: 32,
        ..Default::default()
    }
}

/// The sweep the adaptive refit warm-starts from, and the estimator
/// fitted on it.
fn profile_and_fit(dataset: &Dataset) -> (ProfileDb, GrayBoxEstimator) {
    let profiler = Profiler::new(
        RuntimeBackend::new(platform()),
        ExecutionOptions {
            epochs: 1,
            train: true,
            train_batches_cap: Some(1),
            ..Default::default()
        },
    )
    .with_threads(4);
    let mut cfgs = DesignSpace::standard().sample(24, ModelKind::Sage, 5);
    cfgs.push(low_cache_config());
    let db = profiler.profile(dataset, &cfgs).expect("profile");
    let mut est = GrayBoxEstimator::new();
    est.fit(&db).expect("fit");
    (db, est)
}

/// The cache-less config wrapped as an exploration result: its own
/// estimate is the drift baseline, and the front is empty.
fn exploration_for(dataset: &Dataset, estimator: &GrayBoxEstimator) -> ExplorationResult {
    let config = low_cache_config();
    let estimate = estimator.predict(&Context::new(dataset, &platform(), config.clone()));
    ExplorationResult {
        guideline: Guideline { config, estimate, priority: Priority::ExTimeAccuracy },
        evaluated: Default::default(),
        front: Default::default(),
        stats: DfsStats::default(),
        audit: Default::default(),
        fallback: None,
    }
}

fn exec_opts() -> ExecutionOptions {
    let link = FaultSpec::new(FaultKind::LinkDegrade).with_magnitude(50.0);
    ExecutionOptions {
        epochs: 6,
        train_batches_cap: Some(2),
        fault_plan: Some(FaultPlan::new(0xAD4).with_fault(link)),
        ..Default::default()
    }
}

/// Everything an [`AdaptiveReport`] guarantees deterministic.
fn rendering(outcome: &AdaptiveReport) -> String {
    let switches: Vec<_> = outcome
        .switches
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.reexplore_wall_ms = 0.0;
            s
        })
        .collect();
    format!(
        "{:?}\n{switches:?}\n{:?}\n{}\n{:?}",
        outcome.report, outcome.drift_scores, outcome.reexplorations, outcome.audit
    )
}

/// Zeroes the one occurrence of `field` in `payload`.
fn zero_once(payload: &mut [u8], field: &[u8]) {
    let at: Vec<usize> = payload
        .windows(field.len())
        .enumerate()
        .filter(|(_, w)| *w == field)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(at.len(), 1, "the wall-clock field must occur exactly once");
    payload[at[0]..at[0] + field.len()].fill(0);
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gnnav-adapt-pins-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn a_drifting_run_and_its_checkpoints_are_pinned() {
    let dataset = dataset();
    let (db, estimator) = profile_and_fit(&dataset);
    let exploration = exploration_for(&dataset, &estimator);
    let runner = AdaptiveRunner::new(platform(), AdaptOptions::default());
    let none = RuntimeConstraints::none();

    let outcome = runner.run(&dataset, &exploration, &db, &exec_opts(), &none).expect("run");
    assert!(!outcome.switches.is_empty(), "the recipe must drift and switch");
    let rendered = rendering(&outcome);
    assert_eq!(fnv1a64(rendered.as_bytes()), RENDERING_DIGEST, "{rendered}");

    let dir = scratch_dir("durable");
    let dur = DurabilityOptions::new(&dir, 1);
    let durable = runner
        .run_durable(&dataset, &exploration, &db, &exec_opts(), &none, &dur)
        .expect("durable");
    assert_eq!(rendering(&durable), rendered, "persisting must not change the run");
    let mut written: Vec<(usize, usize, u32)> = Vec::new();
    for epoch in 1..exec_opts().epochs {
        let path = dir.join(format!("adapt-{epoch:06}.ckpt"));
        let mut payload = read_checkpoint(&path).expect("read");
        for s in durable.switches.iter().filter(|s| s.epoch < epoch) {
            zero_once(&mut payload, &s.reexplore_wall_ms.to_le_bytes());
        }
        written.push((epoch, payload.len(), crc32(&payload)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(written, CHECKPOINTS, "{written:#x?}");
}
