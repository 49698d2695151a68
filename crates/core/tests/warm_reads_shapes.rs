//! A repeat navigation decides from the dataset's shape alone: with
//! both stores populated by a cold run, a freshly loaded `Navigator`
//! profiles nothing, fits nothing, explores nothing, returns the cold
//! run's results, and never synthesizes the dataset's features — the
//! first read after the navigation is the one that allocates the
//! matrix.
//!
//! Lives in its own integration-test binary with one test: the
//! allocation counters are process-wide, so the measured window must
//! be the only thing running.

use gnnavigator::estimator::ProfileStore;
use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::obs::{alloc, names as metric};
use gnnavigator::{ExploreCache, Navigator, NavigatorOptions, RuntimeConstraints};
use std::path::Path;

fn counter(name: &str) -> u64 {
    gnnavigator::obs::global().snapshot().counters.get(name).copied().unwrap_or(0)
}

fn navigator(dir: &Path) -> Navigator {
    let options = NavigatorOptions {
        profile_samples: 20,
        augmentation_graphs: 1,
        augmentation_nodes: 400,
        explore_budget: 200,
        ..Default::default()
    };
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.03).expect("load");
    Navigator::new(dataset, Platform::default_rtx4090(), ModelKind::Sage)
        .with_options(options)
        .with_profile_store(ProfileStore::open(dir.join("profiles.db")).expect("open store"))
        .with_explore_cache(ExploreCache::open(dir.join("explore.wal")).expect("open cache"))
}

#[test]
fn a_warm_navigation_never_draws_the_features() {
    let dir = std::env::temp_dir().join(format!("gnnav-warm-shapes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let none = RuntimeConstraints::none();

    let cold = {
        let mut nav = navigator(&dir);
        nav.prepare().expect("cold prepare");
        let results = nav.generate_all(&none).expect("cold generate");
        assert!(nav.profile_store().map_or(0, ProfileStore::len) > 0, "the cold run profiled");
        format!("{results:?}")
    };

    let mut nav = navigator(&dir);
    let stored = nav.profile_store().map_or(0, ProfileStore::len);
    gnnavigator::obs::global().enable(true);
    let before = [metric::ESTIMATOR_FITS, metric::PROFILER_RECORDS].map(counter);
    let results = nav.generate_all(&none).expect("warm generate");
    let after = [metric::ESTIMATOR_FITS, metric::PROFILER_RECORDS].map(counter);
    gnnavigator::obs::global().enable(false);
    assert_eq!(nav.profile_store().map_or(0, ProfileStore::len), stored, "profiled 0");
    assert_eq!(nav.explore_cache().map_or(u64::MAX, |c| c.inserts()), 0, "inserted 0");
    assert!(format!("{results:?}") == cold, "the warm results are the cold run's");
    assert_eq!(after[0] - before[0], 0, "fitted 0");
    assert_eq!(after[1] - before[1], 0, "replayed 0 profile records");
    assert!(nav.profile_db().is_empty(), "no estimator was needed");

    let dataset = nav.dataset();
    let matrix_bytes = (dataset.num_nodes() * dataset.feat_dim() * 4) as u64;
    alloc::set_tracking(true);
    let before = alloc::stats();
    let first = dataset.features().matrix().len();
    let drawn = alloc::stats().delta_since(&before);
    let again = alloc::stats();
    let second = dataset.features().matrix().len();
    let reread = alloc::stats().delta_since(&again);
    alloc::set_tracking(false);

    assert_eq!((first, second), (dataset.num_nodes() * dataset.feat_dim(), first));
    assert!(
        drawn.alloc_bytes >= matrix_bytes,
        "the first read allocated {} bytes, under the {matrix_bytes}-byte matrix: \
         something drew the features before it",
        drawn.alloc_bytes
    );
    assert_eq!(reread.allocs, 0, "a second read draws nothing");
    let _ = std::fs::remove_dir_all(&dir);
}
