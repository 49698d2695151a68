//! What an adaptive run produces and persists, pinned as constants
//! captured once and never regenerated:
//!
//! - the FNV-1a digest of a drift-triggering run's whole
//!   `AdaptiveReport` rendered with `{:?}`: the final report, every
//!   switch, the drift history, the re-exploration count and the audit
//!   trail. No field of it is a clock reading;
//! - `(epoch, len, crc32)` of every `adapt-NNNNNN.ckpt` payload a
//!   durable run of the same setup writes when it checkpoints after
//!   every epoch, as written. These hold the adaptive payload's layout
//!   (tag 4): the session payload (tag 3), then the loop's state in its
//!   field order.
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
const RENDERING_DIGEST: u64 = 0x2ec2_ad16_c470_f210;
/// `(epoch, payload length, payload CRC-32)` of each checkpoint the
/// durable run writes, in epoch order.
const CHECKPOINTS: [(usize, usize, u32); 5] = [
    (1, 148_394, 0x8d64_87e7),
    (2, 150_348, 0x07e9_1de2),
    (3, 150_666, 0xf9b9_fb76),
    (4, 150_836, 0x00fa_5f2e),
    (5, 151_006, 0xfad9_d2c2),
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

/// The whole report, as `{:?}` renders it.
fn rendering(outcome: &AdaptiveReport) -> String {
    format!("{outcome:?}")
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
    let runner = AdaptiveRunner::new(platform(), DesignSpace::standard(), AdaptOptions::default());
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
        let payload = read_checkpoint(&path).expect("read");
        written.push((epoch, payload.len(), crc32(&payload)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(written, CHECKPOINTS, "{written:#x?}");
}
