//! Two identical runs write identical bytes.
//!
//! Each durable writer below runs twice, each time into its own fresh
//! directory. Every file the two runs leave is compared byte for byte,
//! and so is the `Debug` rendering of what each run returned (Rust
//! prints floats shortest-round-trip, so equal text is equal bits).
//! A wall-clock reading, an allocator count or anything else that is
//! not a function of the inputs fails this as soon as it reaches a
//! persisted or reported byte.
//!
//! The writers:
//! - an adaptive durable run that drifts, re-explores and switches
//!   (`crates/adapt/tests/adapt_pins.rs`'s link-degradation recipe),
//!   with its profile sweep in a `ProfileStore` and its exploration in
//!   an `ExploreCache` beside the checkpoints;
//! - a `NavService` over a durable profile store and exploration cache,
//!   a cold lifetime and a restarted one
//!   (`crates/serve/tests/durable.rs`'s recipe);
//! - a durable session that walks the degradation ladder on a
//!   40 000-byte device (`crates/runtime/tests/session_pins.rs`'s
//!   recipe).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use gnnavigator::adapt::{AdaptOptions, AdaptiveRunner};
use gnnavigator::cache::CachePolicy;
use gnnavigator::estimator::{Context, GrayBoxEstimator, ProfileStore, Profiler};
use gnnavigator::explorer::{DfsStats, ExplorationResult};
use gnnavigator::faults::{FaultKind, FaultPlan, FaultSpec};
use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::{DeviceProfile, Platform};
use gnnavigator::nn::ModelKind;
use gnnavigator::runtime::{
    DesignSpace, DurabilityOptions, ExecutionOptions, RuntimeBackend, SamplerKind, TrainingConfig,
};
use gnnavigator::serve::{tenant_request, NavService, ServeOptions};
use gnnavigator::{ExploreCache, Guideline, Priority, RuntimeConstraints};

/// A fresh, empty directory for one twin of one writer.
fn scratch(writer: &str, twin: usize) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gnnav-twin-{writer}-{twin}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Every file under `dir`, by its path relative to `dir`.
fn files_under(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(at) = pending.pop() {
        for entry in std::fs::read_dir(&at).expect("list") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("read");
                files.insert(path.strip_prefix(dir).expect("under dir").to_path_buf(), bytes);
            }
        }
    }
    files
}

/// Runs `write` twice, each into its own directory, and requires the
/// two to leave the same files with the same bytes and to return the
/// same rendering.
fn assert_twins(writer: &str, write: impl Fn(&Path) -> String) {
    let runs: Vec<(BTreeMap<PathBuf, Vec<u8>>, String)> = (0..2)
        .map(|twin| {
            let dir = scratch(writer, twin);
            let rendered = write(&dir);
            let files = files_under(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            (files, rendered)
        })
        .collect();
    let [(a_files, a_rendered), (b_files, b_rendered)] = &runs[..] else {
        unreachable!("two twins")
    };
    assert!(!a_files.is_empty(), "{writer}: the run must write files");
    let names = |files: &BTreeMap<PathBuf, Vec<u8>>| files.keys().cloned().collect::<Vec<_>>();
    assert_eq!(names(a_files), names(b_files), "{writer}: the twins wrote different files");
    for (name, a) in a_files {
        let b = &b_files[name];
        if let Some(at) = a.iter().zip(b).position(|(x, y)| x != y) {
            panic!(
                "{writer}: {} differs between the twins at byte {at} of {} / {}",
                name.display(),
                a.len(),
                b.len()
            );
        }
        assert_eq!(a.len(), b.len(), "{writer}: {} differs in length", name.display());
    }
    assert_eq!(a_rendered, b_rendered, "{writer}: the twins returned different reports");
}

fn rtx4090() -> Platform {
    Platform::default_rtx4090()
}

/// The cache-less starting guideline of the adaptive recipe: under a
/// degraded link every miss pays full price, so the run drifts.
fn low_cache_config() -> TrainingConfig {
    TrainingConfig {
        sampler: SamplerKind::NodeWise,
        fanouts: vec![10, 10],
        batch_size: 256,
        cache_ratio: 0.0,
        cache_policy: CachePolicy::None,
        hidden_dim: 32,
        ..Default::default()
    }
}

/// Profiles through a store, fits, keeps the cache-less guideline in
/// an exploration cache, then runs it adaptively and durably under a
/// persistent 50x link slowdown.
fn adaptive_writer(dir: &Path) -> String {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.03).expect("load");
    let profiler = Profiler::new(
        RuntimeBackend::new(rtx4090()),
        ExecutionOptions {
            epochs: 1,
            train: true,
            train_batches_cap: Some(1),
            ..Default::default()
        },
    )
    .with_threads(4);
    let mut configs = DesignSpace::standard().sample(24, ModelKind::Sage, 5);
    configs.push(low_cache_config());
    let mut store = ProfileStore::open(dir.join("profiles.wal")).expect("open profiles");
    let db = profiler.profile_through(Some(&mut store), None, &dataset, &configs).expect("profile");
    let mut estimator = GrayBoxEstimator::new();
    estimator.fit(&db).expect("fit");

    let config = low_cache_config();
    let estimate = estimator.predict(&Context::new(&dataset, &rtx4090(), config.clone()));
    let exploration = ExplorationResult {
        guideline: Guideline { config, estimate, priority: Priority::ExTimeAccuracy },
        evaluated: Default::default(),
        front: Default::default(),
        stats: DfsStats::default(),
        audit: Default::default(),
        fallback: None,
    };
    // Any key will do: what is compared is the bytes the insert writes.
    let mut cache = ExploreCache::open(dir.join("explore.wal")).expect("open cache");
    assert!(cache.insert(0x7714, &exploration).expect("insert"));

    let link = FaultSpec::new(FaultKind::LinkDegrade).with_magnitude(50.0);
    let opts = ExecutionOptions {
        epochs: 6,
        train_batches_cap: Some(2),
        fault_plan: Some(FaultPlan::new(0xAD4).with_fault(link)),
        ..Default::default()
    };
    let outcome = AdaptiveRunner::new(rtx4090(), DesignSpace::standard(), AdaptOptions::default())
        .run_durable(
            &dataset,
            &exploration,
            &db,
            &opts,
            &RuntimeConstraints::none(),
            &DurabilityOptions::new(dir.join("checkpoints"), 1),
        )
        .expect("adaptive run");
    assert!(!outcome.switches.is_empty(), "the recipe must drift and switch");
    format!("{outcome:?}")
}

/// A cold service lifetime and a restarted one over the same durable
/// profile store and exploration cache.
fn serve_writer(dir: &Path) -> String {
    let options = ServeOptions { queue_capacity: 24, tenant_budget: 8, seed: 31 };
    let mut responses = Vec::new();
    for _lifetime in 0..2 {
        let mut service = NavService::new(options.clone())
            .with_profile_store(ProfileStore::open(dir.join("profiles.wal")).expect("profiles"))
            .with_explore_cache(ExploreCache::open(dir.join("explore.wal")).expect("cache"));
        service.submit(tenant_request(31, 9)).expect("admit");
        responses.push(service.drain().expect("drain"));
    }
    format!("{responses:?}")
}

/// The session ladder: a 40 000-byte device on which the ladder shrinks
/// the cache, micro-batches and reduces the fanouts.
fn session_writer(dir: &Path) -> String {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
    let config = TrainingConfig {
        sampler: SamplerKind::LayerWise,
        fanouts: vec![10, 10],
        locality_eta: 1.0,
        batch_size: 64,
        cache_policy: CachePolicy::Lru,
        cache_ratio: 0.1,
        hidden_dim: 16,
        ..TrainingConfig::default()
    };
    let opts = ExecutionOptions { epochs: 3, seed: 0x10CA1, ..Default::default() };
    let mut platform = rtx4090();
    platform.device = DeviceProfile { mem_capacity_bytes: 40_000, ..platform.device };
    let report = RuntimeBackend::new(platform)
        .execute_durable(&dataset, &config, &opts, &DurabilityOptions::new(dir, 1))
        .expect("the ladder absorbs the pressure");
    assert!(!report.recovery.degradations.is_empty(), "the recipe must walk the ladder");
    format!("{report:?}")
}

#[test]
fn twin_adaptive_runs_write_the_same_bytes() {
    assert_twins("adaptive", adaptive_writer);
}

#[test]
fn twin_service_runs_write_the_same_bytes() {
    assert_twins("serve", serve_writer);
}

#[test]
fn twin_ladder_sessions_write_the_same_bytes() {
    assert_twins("session", session_writer);
}
