//! White-box suites over the DFS walk: the production traversal
//! (validity cut, packed visited keys) against a naive reference, and
//! a bound on the leaves it visits per leaf it evaluates.
//!
//! They drive the crate-private `Traversal::expand` and
//! `DfsExplorer::run_with`, so this file is compiled as a unit-test
//! module of `gnnav_explorer::dfs` (see the `#[path]` there), not as an
//! integration-test target of its own.

use super::*;
use gnnav_estimator::Profiler;
use gnnav_graph::DatasetId;
use gnnav_runtime::{ExecutionOptions, RuntimeBackend};
use proptest::prelude::*;
use rand::Rng;
use std::collections::HashSet;
use std::sync::OnceLock;

const MODEL: ModelKind = ModelKind::Sage;

/// One dataset and one fit for every case: the walk reads only the
/// dataset's shape, and any fitted estimator will do for the replay.
fn fixture() -> &'static (Dataset, GrayBoxEstimator) {
    static FIXTURE: OnceLock<(Dataset, GrayBoxEstimator)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let profiler = Profiler::new(
            RuntimeBackend::new(Platform::default_rtx4090()),
            ExecutionOptions::timing_only(),
        )
        .with_threads(4);
        let configs = DesignSpace::standard().sample(25, MODEL, 5);
        let db = profiler.profile(&dataset, &configs).expect("profile");
        let mut estimator = GrayBoxEstimator::new();
        estimator.fit(&db).expect("fit");
        (dataset, estimator)
    })
}

/// The traversal as it was before the validity cut: every subtree is
/// walked to the bottom, every leaf reached (valid or not) enters a
/// `HashSet<Vec<usize>>`, and validity is learnt from `config_at` one
/// leaf at a time. Its leaves' summaries are formatted by
/// `TrainingConfig::summary`, so the decision streams compared below
/// also hold the production walk's per-axis assembly against the format
/// itself.
struct Naive<'a> {
    space: &'a DesignSpace,
    dataset: &'a Dataset,
    max_mem_bytes: Option<f64>,
    visited: HashSet<Vec<usize>>,
}

impl Naive<'_> {
    fn expand(&mut self, restart: &Restart, budget: usize, sink: &mut dyn Sink) -> Expanded {
        let mut expanded = Expanded::default();
        let mut assignment = vec![0usize; self.space.num_axes()];
        self.descend(0, &mut assignment, restart, budget, &mut expanded, sink);
        expanded
    }

    fn descend(
        &mut self,
        depth: usize,
        assignment: &mut Vec<usize>,
        restart: &Restart,
        budget: usize,
        expanded: &mut Expanded,
        sink: &mut dyn Sink,
    ) {
        if expanded.evals >= budget {
            return;
        }
        if depth == self.space.num_axes() {
            expanded.leaves += 1;
            if !self.visited.insert(assignment.clone()) {
                return;
            }
            if let Some(config) = self.space.config_at(assignment, MODEL) {
                let summary = config.summary();
                sink.leaf(config, summary);
                expanded.evals += 1;
            }
            return;
        }
        let axis = restart.axis_order[depth];
        for &value in &restart.orders[axis] {
            assignment[axis] = value;
            if axis == axis::CACHE_RATIO {
                if let Some(max_mem) = self.max_mem_bytes {
                    let ratio = self.space.cache_ratios[value];
                    let cache_lb = ratio
                        * self.dataset.num_nodes() as f64
                        * (self.dataset.feat_dim() as f64 * 2.0);
                    if cache_lb > max_mem {
                        sink.prune(
                            format!("subtree {}={ratio}", self.space.axis_name(axis)),
                            format!(
                                "cache memory lower bound {:.2} MB > max {:.2} MB",
                                cache_lb / 1e6,
                                max_mem / 1e6
                            ),
                        );
                        continue;
                    }
                }
            }
            self.descend(depth + 1, assignment, restart, budget, expanded, sink);
            if expanded.evals >= budget {
                return;
            }
        }
    }
}

/// A random sub-space of the standard one: every axis keeps 1–4 of its
/// values in a shuffled order, so the cache axes come with and without
/// `CachePolicy::None` and ratio 0, and `cache_updates` in all four of
/// `[false]`, `[true]`, `[false, true]`, `[true, false]`.
fn random_space(rng: &mut StdRng) -> DesignSpace {
    fn some<T>(mut pool: Vec<T>, rng: &mut StdRng) -> Vec<T> {
        pool.shuffle(rng);
        let keep = rng.gen_range(1..=pool.len().min(4));
        pool.truncate(keep);
        pool
    }
    let s = DesignSpace::standard();
    DesignSpace {
        samplers: some(s.samplers, rng),
        fanout_options: some(s.fanout_options, rng),
        etas: some(s.etas, rng),
        batch_sizes: some(s.batch_sizes, rng),
        cache_ratios: some(s.cache_ratios, rng),
        cache_policies: some(s.cache_policies, rng),
        cache_updates: some(s.cache_updates, rng),
        pipelined: some(s.pipelined, rng),
        precisions: some(s.precisions, rng),
        hidden_dims: some(s.hidden_dims, rng),
        dropouts: some(s.dropouts, rng),
    }
}

/// A memory cap by what the Eq. 10 bound does with it: 0 = no cap,
/// 1 = prunes no ratio, 2 = prunes every ratio above one of the
/// space's own, 3 = prunes every ratio (0 included).
fn cap(kind: u8, space: &DesignSpace, dataset: &Dataset, rng: &mut StdRng) -> Option<f64> {
    let bound = |ratio: f64| ratio * dataset.num_nodes() as f64 * dataset.feat_dim() as f64 * 2.0;
    match kind {
        0 => None,
        1 => Some(bound(1.0)),
        2 => Some(bound(space.cache_ratios[rng.gen_range(0..space.cache_ratios.len())])),
        _ => Some(-1.0),
    }
}

/// Writes down every decision of one restart on its way to the
/// evaluating sink.
struct Recorder<'s> {
    log: String,
    inner: &'s mut dyn Sink,
}

impl Sink for Recorder<'_> {
    fn leaf(&mut self, config: TrainingConfig, summary: String) {
        self.log.push_str(&format!("leaf {config:?} {summary:?}\n"));
        self.inner.leaf(config, summary);
    }

    fn prune(&mut self, subtree: String, reason: String) {
        self.log.push_str(&format!("prune {subtree:?} {reason:?}\n"));
        self.inner.prune(subtree, reason);
    }
}

/// What one exploration did, as far as the suites compare it.
struct Explored {
    /// Per restart: its evaluation count and its decisions as made.
    restarts: Vec<String>,
    /// The `DfsOutcome`'s Debug rendering.
    outcome: String,
    evaluated: usize,
    leaves: usize,
}

/// Runs one exploration with `expand` as the restart strategy.
fn explore(
    explorer: &DfsExplorer,
    constraints: &RuntimeConstraints,
    mut expand: impl FnMut(&Restart, usize, &mut dyn Sink) -> Expanded,
) -> Explored {
    let (dataset, estimator) = fixture();
    let mut restarts = Vec::new();
    let mut evaluated = 0;
    let (outcome, leaves) = explorer.run_with(
        estimator,
        dataset,
        &Platform::default_rtx4090(),
        constraints,
        &[],
        |restart, budget, sink| {
            let mut recorder = Recorder { log: String::new(), inner: sink };
            let expanded = expand(restart, budget, &mut recorder);
            restarts.push(format!("evals={}\n{}", expanded.evals, recorder.log));
            evaluated += expanded.evals;
            expanded
        },
    );
    Explored { restarts, outcome: format!("{outcome:?}"), evaluated, leaves }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn production_walk_matches_the_naive_reference(
        space_seed in any::<u64>(),
        dfs_seed in any::<u64>(),
        budget in 1usize..501,
        cap_kind in 0u8..4,
    ) {
        let (dataset, _) = fixture();
        let mut rng = StdRng::seed_from_u64(space_seed);
        let space = random_space(&mut rng);
        let constraints = RuntimeConstraints {
            max_mem_bytes: cap(cap_kind, &space, dataset, &mut rng),
            ..RuntimeConstraints::none()
        };
        let explorer = DfsExplorer::new(space.clone(), budget, dfs_seed);

        let mut production = Traversal::new(&space, dataset, MODEL, &constraints);
        let got = explore(&explorer, &constraints, |r, b, s| production.expand(r, b, s));
        let mut naive = Naive {
            space: &space,
            dataset,
            max_mem_bytes: constraints.max_mem_bytes,
            visited: HashSet::new(),
        };
        let want = explore(&explorer, &constraints, |r, b, s| naive.expand(r, b, s));

        prop_assert_eq!(got.restarts.len(), want.restarts.len(), "restart count, {space:?}");
        for (i, (got, want)) in got.restarts.iter().zip(&want.restarts).enumerate() {
            prop_assert_eq!(got, want, "restart {i} diverged on {space:?} under {constraints:?}");
        }
        prop_assert_eq!(got.outcome, want.outcome, "outcome diverged on {space:?}");
        prop_assert!(got.leaves <= want.leaves, "{} leaves > naive {}", got.leaves, want.leaves);
    }
}

#[test]
fn leaves_visited_stay_proportional_to_leaves_evaluated() {
    let (dataset, _) = fixture();
    let space = DesignSpace::standard();
    // The largest cache alone breaks this cap, so its subtree is pruned.
    let capped = RuntimeConstraints {
        max_mem_bytes: Some(0.4 * dataset.num_nodes() as f64 * dataset.feat_dim() as f64 * 2.0),
        ..RuntimeConstraints::none()
    };
    for constraints in [RuntimeConstraints::none(), capped] {
        for budget in [100, 400, 4000] {
            for seed in [1, 0xDF5, 0x7A51] {
                let explorer = DfsExplorer::new(space.clone(), budget, seed);
                let mut walk = Traversal::new(&space, dataset, MODEL, &constraints);
                let Explored { evaluated, leaves, .. } =
                    explore(&explorer, &constraints, |r, b, s| walk.expand(r, b, s));
                assert_eq!(evaluated, budget, "the standard space outlasts every budget here");
                assert!(
                    leaves <= 2 * evaluated + 64,
                    "budget {budget} seed {seed:#x} {constraints:?}: visited {leaves} leaves \
                     for {evaluated} evaluated"
                );
            }
        }
    }
}
