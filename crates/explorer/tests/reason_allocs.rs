//! A rejected candidate costs no allocation an accepted one does not, in
//! a test binary of its own: the allocation counters are process-wide
//! (see the header of `gnnav_obs::alloc`), so no other test may
//! allocate beside this one.
//!
//! A rejection keeps the limit it broke and that limit's bound; its
//! sentence is rendered only when someone reads it. A walk whose every
//! leaf is rejected must therefore allocate no more than the same walk
//! with no constraint at all, where every leaf (the budget's 400 and
//! the template seeds) is accepted. Rendering each reason on the walk,
//! as the explorer once did, costs one allocation per rejected leaf:
//! 1 540 against 1 141 when that was so.

use gnnav_estimator::{GrayBoxEstimator, ProfileDb, Profiler};
use gnnav_explorer::{Explorer, Priority, RuntimeConstraints};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_obs::alloc::{set_tracking, stats};
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};

const MODEL: ModelKind = ModelKind::Sage;
const BUDGET: usize = 400;

fn fixture() -> (Dataset, GrayBoxEstimator) {
    let platform = Platform::default_rtx4090();
    let exec = ExecutionOptions {
        epochs: 1,
        train: true,
        train_batches_cap: Some(1),
        ..Default::default()
    };
    let profiler = Profiler::new(RuntimeBackend::new(platform), exec);
    let configs = DesignSpace::standard().sample(12, MODEL, 5);
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
    let mut db = ProfileDb::new();
    db.merge(profiler.profile(&dataset, &configs).expect("profile"));
    let mut estimator = GrayBoxEstimator::new();
    estimator.fit(&db).expect("fit");
    (dataset, estimator)
}

#[test]
fn a_rejected_leaf_allocates_no_more_than_an_accepted_one() {
    let (dataset, estimator) = fixture();
    let platform = Platform::default_rtx4090();
    let explorer = Explorer::new(&estimator, BUDGET);
    // Nothing trains an epoch in a picosecond: every leaf is rejected.
    let all_rejected = RuntimeConstraints { max_time_s: Some(1e-12), ..RuntimeConstraints::none() };
    // Returns the walk's allocation count and its evaluated and
    // rejected candidates.
    let allocs = |constraints: &RuntimeConstraints| {
        set_tracking(true);
        let t0 = stats();
        let result = explorer
            .explore(&dataset, &platform, MODEL, Priority::Balance, constraints)
            .expect("explore");
        let d = stats().delta_since(&t0);
        set_tracking(false);
        (d.allocs, result.stats.evaluated, result.stats.rejected)
    };
    // Once each first, so that nothing initialised lazily is charged
    // to either side.
    allocs(&RuntimeConstraints::none());
    allocs(&all_rejected);

    let (accepting, evaluated, rejected) = allocs(&RuntimeConstraints::none());
    assert!(evaluated > BUDGET && rejected == 0, "{rejected} of {evaluated} rejected");
    let (rejecting, capped_evaluated, rejected) = allocs(&all_rejected);
    assert_eq!(capped_evaluated, evaluated, "both walks evaluate the same leaves");
    assert_eq!(rejected, evaluated, "the capped walk rejects every leaf");
    assert!(
        rejecting <= accepting,
        "{rejected} rejected leaves allocated {rejecting} times, {evaluated} accepted ones \
         {accepting}"
    );
}
