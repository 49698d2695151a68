//! The exploration-cache key a `Navigator` files its result under.
//!
//! The key folds in the navigator's estimator salt (sweep size,
//! augmentation shape, seed and profiling options, rendered as text).
//! A byte moved in that rendering makes every store written so far
//! miss, silently, so the key is pinned here as a constant, captured
//! once and never regenerated.
//!
//! It moved once, on purpose, when `ExecutionOptions` lost its
//! `recovery` and `learning_rate` fields (retry count, backoff base,
//! NaN guard and learning-rate halvings, and the learning rate, became
//! constants of `gnnav-runtime`): the salt renders the profiling
//! options' `Debug`, whose content shrank, while the salt's format
//! string stayed byte for byte. The key before was
//! `0x2b69_1c31_ae56_3df1`.

use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::{ExploreCache, Navigator, NavigatorOptions, Priority, RuntimeConstraints};

/// The key of the Balance guideline for Sage on RD2@0.02 (12 profiled
/// configs, no augmentation, budget 100, everything else default).
const NAVIGATOR_BALANCE_KEY: u64 = 0xf238_cb93_8676_9c14;

#[test]
fn a_navigator_files_its_guideline_under_the_pinned_key() {
    let dir = std::env::temp_dir().join(format!("gnnav-key-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("explore.wal");
    let options = NavigatorOptions {
        profile_samples: 12,
        augmentation_graphs: 0,
        explore_budget: 100,
        ..Default::default()
    };
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
    let mut nav = Navigator::new(dataset, Platform::default_rtx4090(), ModelKind::Sage)
        .with_options(options)
        .with_explore_cache(ExploreCache::open(&path).expect("open"));
    nav.generate_guideline(Priority::Balance, &RuntimeConstraints::none()).expect("navigate");
    drop(nav);

    let mut cache = ExploreCache::open(&path).expect("reopen");
    assert_eq!(cache.len(), 1);
    assert!(cache.lookup(NAVIGATOR_BALANCE_KEY).is_some(), "the result moved to another key");
    let _ = std::fs::remove_dir_all(&dir);
}
