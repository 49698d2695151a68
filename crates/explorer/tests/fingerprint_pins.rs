//! Store-key pins.
//!
//! `ProfileStore` and `ExploreCache` find their entries by these two
//! fingerprints. The constants were captured from the commit before
//! `Dataset` began memoising its `GraphStats`: if either moves, every
//! store written so far silently stops being hit.

use gnnav_estimator::profile_fingerprint;
use gnnav_explorer::{explore_fingerprint, Priority, RuntimeConstraints};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{DesignSpace, TrainingConfig};

const PROFILE_FINGERPRINT: u64 = 0xc18e_6e5d_b052_4c2c;
const EXPLORE_FINGERPRINT: u64 = 0x3b5b_4b7e_8cd0_5055;

#[test]
fn reddit2_keys_are_the_ones_older_stores_were_written_under() {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
    let platform = Platform::default_rtx4090();
    let profile = profile_fingerprint(&dataset, &platform, &TrainingConfig::default());
    let explore = |dataset: &Dataset| {
        explore_fingerprint(
            dataset,
            &platform,
            ModelKind::Sage,
            &DesignSpace::standard(),
            Priority::Balance,
            &RuntimeConstraints::none(),
            600,
            0x7A51,
            "pinned",
        )
    };
    assert_eq!(profile, PROFILE_FINGERPRINT, "profile key is {profile:#018x}");
    let key = explore(&dataset);
    assert_eq!(key, EXPLORE_FINGERPRINT, "explore key is {key:#018x}");
    // A clone carries the memoised statistics; the keys must not care.
    let copy = dataset.clone();
    assert_eq!(profile_fingerprint(&copy, &platform, &TrainingConfig::default()), profile);
    assert_eq!(explore(&copy), explore(&dataset));
}
