//! Durability chaos suite: kill the runtime at *every* epoch boundary,
//! resume, and demand byte-identity with the uninterrupted run — for
//! the static path, the adaptive path, and under active fault plans —
//! plus checkpoint-corruption fallback and ProfileStore corruption
//! tolerance end-to-end.
//!
//! "Byte-identical" is asserted on the `Debug` rendering of the whole
//! reports, the same standard the runtime checkpoint unit tests use:
//! no field is a clock reading, so every one must match bit for bit.

use gnnavigator::adapt::{AdaptError, AdaptOptions, AdaptiveReport, AdaptiveRunner};
use gnnavigator::estimator::{Context, GrayBoxEstimator, ProfileDb, ProfileStore, Profiler};
use gnnavigator::explorer::{DfsStats, ExplorationResult};
use gnnavigator::faults::{FaultKind, FaultPlan, FaultSpec};
use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::runtime::{
    DesignSpace, DurabilityOptions, ExecutionOptions, RuntimeBackend, RuntimeError, TrainingConfig,
};
use gnnavigator::store::{corrupt, read_checkpoint, write_checkpoint};
use gnnavigator::{Guideline, Navigator, NavigatorOptions, Priority, RuntimeConstraints};
use proptest::prelude::*;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gnnav-dur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

fn dataset() -> Dataset {
    Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load")
}

fn platform() -> Platform {
    Platform::default_rtx4090()
}

fn config() -> TrainingConfig {
    TrainingConfig {
        batch_size: 64,
        fanouts: vec![5, 5],
        hidden_dim: 16,
        ..TrainingConfig::default()
    }
}

/// A plan whose only crash/corruption content is one guaranteed
/// `ProcessKill` at epoch boundary `epoch`, bounded to the first life
/// of the lineage so the resumed run completes. On the non-durable
/// path the kill kinds are inert, so the same plan can drive the
/// uninterrupted baseline.
fn kill_at(seed: u64, epoch: usize, extra: &[FaultSpec]) -> FaultPlan {
    let mut plan = FaultPlan::new(seed).with_fault(
        FaultSpec::new(FaultKind::ProcessKill)
            .with_probability(1.0)
            .with_window(epoch as u64, epoch as u64 + 1)
            .with_duration_attempts(1),
    );
    for spec in extra {
        plan = plan.with_fault(spec.clone());
    }
    plan
}

fn exec_opts(epochs: usize, plan: Option<FaultPlan>) -> ExecutionOptions {
    ExecutionOptions { epochs, train_batches_cap: Some(2), fault_plan: plan, ..Default::default() }
}

/// Kills the static run at boundary `k` (first invocation), resumes it
/// (second invocation), and returns the resumed final report.
fn kill_and_resume(
    backend: &RuntimeBackend,
    ds: &Dataset,
    cfg: &TrainingConfig,
    opts: &ExecutionOptions,
    k: usize,
    dir: &std::path::Path,
) -> gnnavigator::runtime::ExecutionReport {
    let dur = DurabilityOptions::new(dir, 1);
    let err = backend.execute_durable(ds, cfg, opts, &dur).expect_err("first life is killed");
    assert!(matches!(err, RuntimeError::Killed { epoch } if epoch == k), "at {k}: {err:?}");
    backend.execute_durable(ds, cfg, opts, &dur).expect("second life completes")
}

#[test]
fn static_kill_at_every_boundary_resumes_byte_identical() {
    let ds = dataset();
    let cfg = config();
    let epochs = 4;
    let backend = RuntimeBackend::new(platform());
    let straight = backend.execute(&ds, &cfg, &exec_opts(epochs, None)).expect("uninterrupted run");

    for k in 0..epochs {
        let dir = tmp_dir(&format!("static-k{k}"));
        let opts = exec_opts(epochs, Some(kill_at(0xD0A, k, &[])));
        let resumed = kill_and_resume(&backend, &ds, &cfg, &opts, k, &dir);
        assert_eq!(
            format!("{resumed:?}"),
            format!("{straight:?}"),
            "kill at boundary {k} must resume to a byte-identical report"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn corrupted_checkpoints_fall_back_and_stay_identical() {
    // Every checkpoint this run writes is immediately torn AND
    // bit-flipped, so resume can never trust the newest (or any)
    // checkpoint: it walks the fallback chain down to a cold start and
    // must still finish byte-identical.
    let ds = dataset();
    let cfg = config();
    let epochs = 3;
    let backend = RuntimeBackend::new(platform());
    let straight = backend.execute(&ds, &cfg, &exec_opts(epochs, None)).expect("uninterrupted run");

    let corruption = [
        FaultSpec::new(FaultKind::TornWrite).with_probability(1.0).with_magnitude(5.0),
        FaultSpec::new(FaultKind::BitFlip).with_probability(1.0).with_magnitude(12.0),
    ];
    for k in 0..epochs {
        let dir = tmp_dir(&format!("corrupt-k{k}"));
        let opts = exec_opts(epochs, Some(kill_at(0xC0, k, &corruption)));
        let resumed = kill_and_resume(&backend, &ds, &cfg, &opts, k, &dir);
        assert_eq!(
            format!("{resumed:?}"),
            format!("{straight:?}"),
            "kill at boundary {k} with all checkpoints corrupted must still resume clean"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn resume_walks_past_checkpoints_that_are_not_this_runs() {
    // A checkpoint directory may hold a newer file that is not this
    // run's: another config's leftover, or a CRC-valid payload that
    // does not decode. Neither may be resumed from, and neither may
    // hide the run's own older checkpoint.
    let ds = dataset();
    let (a, b) = (config(), TrainingConfig { batch_size: 32, ..config() });
    let epochs = 4;
    let backend = RuntimeBackend::new(platform());
    let straight = backend.execute(&ds, &b, &exec_opts(epochs, None)).expect("uninterrupted B");

    // Run A to completion, then B on the same directory: B's report.
    let a_dir = tmp_dir("a-then-b");
    let a_dur = DurabilityOptions::new(&a_dir, 1);
    backend.execute_durable(&ds, &a, &exec_opts(epochs, None), &a_dur).expect("run A");
    let foreign = read_checkpoint(&a_dir.join("session-000003.ckpt")).expect("A's last file");
    let b_over_a =
        backend.execute_durable(&ds, &b, &exec_opts(epochs, None), &a_dur).expect("B over A");
    assert_eq!(format!("{b_over_a:?}"), format!("{straight:?}"), "B must not resume A's run");
    std::fs::remove_dir_all(&a_dir).ok();

    for (tag, leftover) in [("foreign", foreign), ("undecodable", b"\x01 not a session".to_vec())] {
        let dir = tmp_dir(&format!("leftover-{tag}"));
        write_checkpoint(&dir.join("session-000003.ckpt"), &leftover).expect("plant leftover");
        let opts = exec_opts(epochs, Some(kill_at(0xB0B, 2, &[])));
        let dur = DurabilityOptions::new(&dir, 1);
        // The first life cold-starts under the leftover and leaves its
        // own epoch-1 and epoch-2 files. Dropping the older one makes
        // the resume point observable: only a second life that does
        // not resume from epoch 2 would write it again.
        let first = backend.execute_durable(&ds, &b, &opts, &dur).expect_err("first life");
        assert!(matches!(first, RuntimeError::Killed { epoch: 2 }), "{tag}: {first:?}");
        std::fs::remove_file(dir.join("session-000001.ckpt")).expect("B's epoch-1 file");
        let resumed = backend.execute_durable(&ds, &b, &opts, &dur).expect("second life");
        assert_eq!(format!("{resumed:?}"), format!("{straight:?}"), "{tag}");
        assert!(
            !dir.join("session-000001.ckpt").exists(),
            "{tag}: the second life must resume from B's own epoch-2 checkpoint"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill + resume under an *active* fault plan: the in-process fault
    /// schedule must continue from the resumed site index, not restart,
    /// so the resumed run's `RecoveryLog` (and whole report) equals the
    /// uninterrupted faulted run's.
    #[test]
    fn kill_resume_under_fault_plan_matches_uninterrupted_run(
        seed in 0u64..1024,
        kill_epoch in 0usize..3,
    ) {
        let ds = dataset();
        let cfg = config();
        let epochs = 3;
        let link = FaultSpec::new(FaultKind::LinkDegrade)
            .with_probability(0.4)
            .with_magnitude(8.0);
        let opts = exec_opts(epochs, Some(kill_at(seed, kill_epoch, &[link])));
        let backend = RuntimeBackend::new(platform());

        // ProcessKill is inert off the durable path: this is the
        // uninterrupted run of the same faulted scenario.
        let straight = backend.execute(&ds, &cfg, &opts).expect("uninterrupted faulted run");

        let dir = tmp_dir(&format!("prop-{seed}-{kill_epoch}"));
        let resumed = kill_and_resume(&backend, &ds, &cfg, &opts, kill_epoch, &dir);
        std::fs::remove_dir_all(&dir).ok();

        prop_assert_eq!(
            format!("{:?}", resumed.recovery),
            format!("{:?}", straight.recovery),
            "fault schedule must continue from the resumed site, not restart"
        );
        prop_assert_eq!(format!("{resumed:?}"), format!("{straight:?}"));
    }
}

// ---------------------------------------------------------------- adapt

/// Profiles a seeded slice of the design space and fits the estimator,
/// mirroring the adaptive suite's sweep.
fn profile_and_fit(ds: &Dataset, start: &TrainingConfig) -> (ProfileDb, GrayBoxEstimator) {
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
    let mut cfgs = DesignSpace::standard().sample(16, ModelKind::Sage, 5);
    cfgs.push(start.clone());
    let db = profiler.profile(ds, &cfgs).expect("profile");
    let mut est = GrayBoxEstimator::new();
    est.fit(&db).expect("fit");
    (db, est)
}

fn exploration_for(
    ds: &Dataset,
    estimator: &GrayBoxEstimator,
    config: TrainingConfig,
) -> ExplorationResult {
    let estimate = estimator.predict(&Context::new(ds, &platform(), config.clone()));
    ExplorationResult {
        guideline: Guideline { config, estimate, priority: Priority::ExTimeAccuracy },
        evaluated: Default::default(),
        front: Default::default(),
        stats: DfsStats::default(),
        audit: Default::default(),
        fallback: None,
    }
}

#[test]
fn adaptive_kill_at_every_boundary_resumes_identically() {
    // A degraded link forces real drift, re-exploration, and a switch,
    // so the checkpointed drift state is load-bearing: losing the EWMA
    // or the observed-epoch window across the kill would change when
    // (or whether) the resumed run switches.
    let ds = Dataset::load_scaled(DatasetId::Reddit2, 0.03).expect("load");
    let start = TrainingConfig {
        fanouts: vec![10, 10],
        batch_size: 256,
        cache_ratio: 0.0,
        cache_policy: gnnavigator::cache::CachePolicy::None,
        hidden_dim: 32,
        ..TrainingConfig::default()
    };
    let (db, estimator) = profile_and_fit(&ds, &start);
    let exploration = exploration_for(&ds, &estimator, start);
    let link = FaultSpec::new(FaultKind::LinkDegrade).with_magnitude(50.0);
    let epochs = 4;
    let runner = AdaptiveRunner::new(platform(), DesignSpace::standard(), AdaptOptions::default());
    let constraints = RuntimeConstraints::none();

    // Uninterrupted baseline under the same plan (kills inert).
    let baseline_opts = exec_opts(epochs, Some(kill_at(0xAD, 0, std::slice::from_ref(&link))));
    let baseline = runner
        .run(&ds, &exploration, &db, &baseline_opts, &constraints)
        .expect("uninterrupted adaptive run");
    let expected = format!("{baseline:?}");

    for k in 0..epochs {
        let dir = tmp_dir(&format!("adapt-k{k}"));
        let opts = exec_opts(epochs, Some(kill_at(0xAD, k, std::slice::from_ref(&link))));
        let dur = DurabilityOptions::new(&dir, 1);
        let err = runner
            .run_durable(&ds, &exploration, &db, &opts, &constraints, &dur)
            .expect_err("first life is killed");
        assert!(
            matches!(&err, AdaptError::Runtime(RuntimeError::Killed { epoch }) if *epoch == k),
            "at {k}: {err:?}"
        );
        let resumed = runner
            .run_durable(&ds, &exploration, &db, &opts, &constraints, &dur)
            .expect("second life completes");
        assert_eq!(
            format!("{resumed:?}"),
            expected,
            "adaptive kill at boundary {k} must resume to an identical outcome"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn four_instantiations_of_the_one_loop_agree() {
    // {session, adaptive without drift} x {ephemeral, durable without
    // kills}: one epoch loop, so one report.
    let ds = dataset();
    let cfg = config();
    let opts = exec_opts(3, None);
    let (db, estimator) = profile_and_fit(&ds, &cfg);
    let exploration = exploration_for(&ds, &estimator, cfg.clone());
    let backend = RuntimeBackend::new(platform());
    let runner = AdaptiveRunner::new(
        platform(),
        DesignSpace::standard(),
        AdaptOptions { drift_threshold: f64::MAX },
    );
    let none = RuntimeConstraints::none();
    let dir = tmp_dir("four-ways");
    let dur = DurabilityOptions::new(&dir, 1);

    let adaptive = |outcome: AdaptiveReport| {
        assert!(outcome.switches.is_empty() && outcome.audit.is_empty());
        outcome.report
    };
    let reports = [
        backend.execute(&ds, &cfg, &opts).expect("session"),
        backend.execute_durable(&ds, &cfg, &opts, &dur).expect("durable session"),
        adaptive(runner.run(&ds, &exploration, &db, &opts, &none).expect("adaptive")),
        adaptive(
            runner
                .run_durable(&ds, &exploration, &db, &opts, &none, &dur)
                .expect("durable adaptive"),
        ),
    ];
    for report in &reports[1..] {
        assert_eq!(format!("{report:?}"), format!("{:?}", reports[0]));
    }

    // The directory now holds this guideline's adaptive checkpoints; an
    // adaptive run of another guideline must not resume from them.
    let other = TrainingConfig { batch_size: 32, ..cfg };
    let expected = backend.execute(&ds, &other, &opts).expect("other, static");
    let exploration = exploration_for(&ds, &estimator, other);
    let over = runner.run_durable(&ds, &exploration, &db, &opts, &none, &dur).expect("other");
    assert_eq!(format!("{:?}", over.report), format!("{expected:?}"));
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------- profile store

#[test]
fn corrupted_profile_store_warm_starts_covering_only_lost_configs() {
    let dir = tmp_dir("psdb");
    let db_path = dir.join("profiles.db");

    let nav_options = || NavigatorOptions {
        profile_samples: 12,
        augmentation_graphs: 0,
        augmentation_nodes: 0,
        explore_budget: 200,
        apply_exec: ExecutionOptions {
            epochs: 1,
            train_batches_cap: Some(2),
            ..Default::default()
        },
        ..Default::default()
    };
    let navigator = |store: ProfileStore| {
        Navigator::new(
            Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load"),
            platform(),
            ModelKind::Sage,
        )
        .with_options(nav_options())
        .with_profile_store(store)
    };

    // Cold sweep populates the store.
    let mut cold = navigator(ProfileStore::open(&db_path).expect("open"));
    cold.prepare().expect("cold prepare");
    let cold_guideline = cold
        .generate_guideline(Priority::Balance, &RuntimeConstraints::none())
        .expect("cold explore")
        .guideline;
    let full = cold.profile_store().expect("store").len();
    assert!(full >= 3, "need at least 3 records to corrupt 2 ({full})");
    drop(cold);

    // Tear the tail (damages the last record) and flip one bit inside
    // the first record's payload (8-byte segment header, then
    // len+CRC+payload — offset 20 is 4 bytes into record 0's payload).
    corrupt::torn_write(&db_path, 5).expect("torn write");
    corrupt::bit_flip(&db_path, 20, 3).expect("bit flip");

    let store = ProfileStore::open(&db_path).expect("corrupted store still opens");
    let rec = store.recovery();
    assert_eq!(rec.torn_truncated, 1, "exactly the torn record is truncated");
    assert_eq!(rec.crc_failures, 1, "exactly the flipped record fails CRC");
    assert_eq!(store.len(), full - 2, "exactly the damaged records are dropped");

    // Warm navigation over the damaged store: the sweep re-profiles
    // only the two lost configs, restores full coverage, and lands on
    // the cold guideline.
    let mut warm = navigator(store);
    warm.prepare().expect("warm prepare over corrupted store");
    assert_eq!(
        warm.profile_store().expect("store").len(),
        full,
        "warm sweep re-profiles exactly the lost configs"
    );
    let warm_guideline = warm
        .generate_guideline(Priority::Balance, &RuntimeConstraints::none())
        .expect("warm explore")
        .guideline;
    assert_eq!(warm_guideline.config, cold_guideline.config);

    std::fs::remove_dir_all(&dir).ok();
}
