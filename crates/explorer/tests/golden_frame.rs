//! Golden exploration-cache frame.
//!
//! `golden/explore_result.frame` holds the payload `ExploreCache`
//! appended for one fixed exploration before the DFS learnt to cut
//! invalid subtrees. The same exploration must still encode to those
//! bytes — fingerprint, candidate order, Pareto front, stats and every
//! audit string — and a cache holding that frame must still hit, so an
//! `ExploreCache` written by an earlier build keeps serving.

use gnnav_estimator::{GrayBoxEstimator, Profiler};
use gnnav_explorer::cache::EXPLORE_RESULT_TAG;
use gnnav_explorer::{
    explore_fingerprint, ExplorationResult, ExploreCache, Explorer, Priority, RuntimeConstraints,
};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};
use gnnav_store::Wal;
use std::path::PathBuf;

const GOLDEN: &[u8] = include_bytes!("golden/explore_result.frame");
const BUDGET: usize = 60;
const SEED: u64 = 0x7A51;

/// The fixed exploration: a memory cap tight enough that the trail
/// holds pruned subtrees and rejected candidates beside accepted ones.
fn explored() -> (u64, ExplorationResult) {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
    let platform = Platform::default_rtx4090();
    let profiler =
        Profiler::new(RuntimeBackend::new(platform.clone()), ExecutionOptions::timing_only())
            .with_threads(4);
    let configs = DesignSpace::standard().sample(25, ModelKind::Sage, 5);
    let db = profiler.profile(&dataset, &configs).expect("profile");
    let mut estimator = GrayBoxEstimator::new();
    estimator.fit(&db).expect("fit");
    let constraints = RuntimeConstraints {
        max_mem_bytes: Some(0.2 * dataset.num_nodes() as f64 * dataset.feat_dim() as f64 * 2.0),
        ..RuntimeConstraints::none()
    };
    let result = Explorer::new(&estimator, BUDGET)
        .with_seed(SEED)
        .explore(&dataset, &platform, ModelKind::Sage, Priority::Balance, &constraints)
        .expect("explore");
    assert!(result.stats.pruned_subtrees > 0 && result.stats.rejected > 0);
    let fingerprint = explore_fingerprint(
        &dataset,
        &platform,
        ModelKind::Sage,
        &DesignSpace::standard(),
        Priority::Balance,
        &constraints,
        BUDGET,
        SEED,
        "golden frame",
    );
    (fingerprint, result)
}

fn temp_wal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnnav-golden-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("explore.wal");
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn the_fixed_exploration_still_encodes_to_the_committed_frame() {
    assert_eq!(GOLDEN[0], EXPLORE_RESULT_TAG);
    assert_eq!(EXPLORE_RESULT_TAG, 1, "a bumped tag orphans every cache written so far");
    let (fingerprint, result) = explored();
    let path = temp_wal("encode");
    let mut cache = ExploreCache::open(&path).expect("open");
    assert!(cache.insert(fingerprint, &result).expect("insert"));
    drop(cache);
    let mut frames = Vec::new();
    Wal::replay(&path, |frame| frames.push(frame.to_vec())).expect("reopen as a plain log");
    assert_eq!(frames.len(), 1);
    let frame = &frames[0];
    assert_eq!(frame.len(), GOLDEN.len(), "frame length");
    let first_difference = frame.iter().zip(GOLDEN).position(|(got, want)| got != want);
    assert_eq!(first_difference, None, "first differing byte offset");
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_cache_holding_the_committed_frame_still_hits() {
    let (fingerprint, result) = explored();
    let path = temp_wal("hit");
    let mut wal = Wal::open(&path).expect("open");
    wal.append(GOLDEN).expect("append");
    drop(wal);
    let mut cache = ExploreCache::open(&path).expect("open over the old frame");
    assert_eq!(cache.undecodable(), 0);
    let hit = cache.lookup(fingerprint).expect("the old frame answers today's fingerprint");
    assert_eq!(format!("{hit:?}"), format!("{result:?}"));
    std::fs::remove_file(&path).ok();
}
