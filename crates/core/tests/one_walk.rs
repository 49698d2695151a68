//! A navigation over every priority walks the design space once:
//! over one `Navigator::generate_all` on fresh stores
//! `estimator.predictions` advances by one walk's `stats.evaluated`,
//! not four, and the exploration log holds the walk once — a base
//! frame, then three decision frames.
//!
//! Lives in its own integration-test binary: the assertions read the
//! process-global metrics registry, which tests running on parallel
//! threads would perturb.

use gnnavigator::graph::{Dataset, DatasetId};
use gnnavigator::hwsim::Platform;
use gnnavigator::nn::ModelKind;
use gnnavigator::store::Wal;
use gnnavigator::{ExploreCache, Navigator, NavigatorOptions, Priority, RuntimeConstraints};

fn counter(name: &str) -> u64 {
    gnnavigator::obs::global().snapshot().counters.get(name).copied().unwrap_or(0)
}

#[test]
fn generate_all_predicts_one_walk_and_writes_it_once() {
    let dir = std::env::temp_dir().join(format!("gnnav-one-walk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("explore.wal");
    let options = NavigatorOptions {
        profile_samples: 12,
        augmentation_graphs: 0,
        explore_budget: 300,
        ..Default::default()
    };
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
    let mut nav = Navigator::new(dataset, Platform::default_rtx4090(), ModelKind::Sage)
        .with_options(options)
        .with_explore_cache(ExploreCache::open(&path).expect("open"));
    nav.prepare().expect("prepare");

    gnnavigator::obs::global().enable(true);
    let before = ["estimator.predictions", "explorer.runs", "explorer.cache.inserts"].map(counter);
    let results = nav.generate_all(&RuntimeConstraints::none()).expect("generate all");
    let after = ["estimator.predictions", "explorer.runs", "explorer.cache.inserts"].map(counter);
    gnnavigator::obs::global().enable(false);

    assert_eq!(results.len(), Priority::ALL.len());
    let one_walk = results[0].stats.evaluated as u64;
    assert_eq!(one_walk, 300 + 4, "the budget and the four template seeds");
    assert_eq!(after[0] - before[0], one_walk, "one prediction per candidate of one walk");
    assert_eq!(after[1] - before[1], 1, "one walk");
    assert_eq!(after[2] - before[2], 4, "four results made durable");

    let mut frames = Vec::new();
    Wal::replay(&path, |frame| frames.push((frame[0], frame.len()))).expect("plain log");
    let tags: Vec<u8> = frames.iter().map(|&(tag, _)| tag).collect();
    assert_eq!(tags, [1, 2, 2, 2], "the walk once, then three decisions over it");
    let decisions: usize = frames[1..].iter().map(|&(_, len)| len).sum();
    assert!(decisions < 2048, "three decision frames take {decisions} bytes");
    let _ = std::fs::remove_dir_all(&dir);
}
