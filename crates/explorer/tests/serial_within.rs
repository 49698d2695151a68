//! An exploration is serial: whatever worker budget the calling thread
//! has, `Explorer::explore` enters no `gnnav-par` region and forks no
//! helper thread, and its result is the width-1 one byte for byte.
//! (Explorations are parallel *across* requests; that is `gnnav-serve`
//! Phase B's business and `determinism.rs`'s there.)
//!
//! One test, in its own integration-test binary: `gnnav_par::stats()`
//! is process-global, and another test's kernels would move it.

use gnnav_estimator::{GrayBoxEstimator, Profiler};
use gnnav_explorer::{Explorer, Priority, RuntimeConstraints};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};

#[test]
fn explore_forks_nothing_and_reads_the_same_at_every_width() {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
    let platform = Platform::default_rtx4090();
    let profiler =
        Profiler::new(RuntimeBackend::new(platform.clone()), ExecutionOptions::timing_only())
            .with_threads(2);
    let configs = DesignSpace::standard().sample(25, ModelKind::Sage, 5);
    let db = profiler.profile(&dataset, &configs).expect("profile");
    let mut estimator = GrayBoxEstimator::new();
    estimator.fit(&db).expect("fit");

    // The largest cache alone breaks this cap, so its subtree is pruned.
    let capped = RuntimeConstraints {
        max_mem_bytes: Some(0.2 * dataset.num_nodes() as f64 * dataset.feat_dim() as f64 * 2.0),
        ..RuntimeConstraints::none()
    };
    for constraints in [RuntimeConstraints::none(), capped] {
        for budget in [400, 4000] {
            let explore = |threads| {
                gnnav_par::with_thread_limit(threads, || {
                    let result = Explorer::new(&estimator, budget)
                        .explore(
                            &dataset,
                            &platform,
                            ModelKind::Sage,
                            Priority::Balance,
                            &constraints,
                        )
                        .expect("explore");
                    assert_eq!(result.stats.evaluated, budget + 4, "four seeds, then the budget");
                    format!("{result:?}")
                })
            };
            let narrow = explore(1);
            assert_eq!(
                narrow.contains("PrunedSubtree"),
                constraints.max_mem_bytes.is_some(),
                "the cap prunes, and only the cap"
            );
            let before = gnnav_par::stats();
            let wide = explore(8);
            let after = gnnav_par::stats();
            assert_eq!(after.helpers_spawned, before.helpers_spawned, "budget {budget}");
            assert_eq!(after.regions, before.regions, "budget {budget}");
            assert_eq!(wide, narrow, "budget {budget} under {constraints:?}");
        }
    }
}
