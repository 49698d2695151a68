//! One exploration from its inputs to a cached guideline: the path
//! `Navigator` and `NavService` both take (Fig. 2's explore step).

use crate::explorer::template_seeds;
use crate::{
    explore_fingerprint, ExplorationResult, ExploreCache, Explorer, ExplorerError, Priority,
    RuntimeConstraints,
};
use gnnav_estimator::GrayBoxEstimator;
use gnnav_graph::Dataset;
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::DesignSpace;
use gnnav_store::StoreError;
use std::sync::Arc;

/// An exploration's inputs except the priority. Its four stages run
/// in order: [`fingerprint`](Plan::fingerprint) → [`probe`](Plan::probe)
/// → [`walk`](Plan::walk) → [`commit`](Plan::commit). Between the probe
/// and the walk the caller provisions the estimator (a task-profiled
/// sweep, or a pooled calibration per platform): the one policy its
/// callers do not share. The key and the walk read the same space,
/// budget and seed because both read this one plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The dataset to train on.
    pub dataset: Arc<Dataset>,
    /// The platform to train on.
    pub platform: Platform,
    /// The model to train.
    pub model: ModelKind,
    /// The design space walked.
    pub space: Arc<DesignSpace>,
    /// The hard constraints every guideline must meet.
    pub constraints: RuntimeConstraints,
    /// The leaf-evaluation budget.
    pub budget: usize,
    /// The traversal seed.
    pub seed: u64,
    /// How the estimator is provisioned, rendered as text: folded into
    /// every key, so differently fitted estimators never share entries.
    pub salt: String,
}

impl Plan {
    /// The cache key of the result for `priority`: known before any
    /// estimator is fitted.
    pub fn fingerprint(&self, priority: Priority) -> u64 {
        explore_fingerprint(
            &self.dataset,
            &self.platform,
            self.model,
            &self.space,
            priority,
            &self.constraints,
            self.budget,
            self.seed,
            &self.salt,
        )
    }

    /// All or nothing: the cached results for `keys`, in order, if
    /// `cache` holds every one (`None` without a cache). Every key is
    /// looked up, so every key is metered as a hit or a miss.
    pub fn probe(cache: Option<&mut ExploreCache>, keys: &[u64]) -> Option<Vec<ExplorationResult>> {
        let cache = cache?;
        let hits: Vec<_> = keys.iter().filter_map(|&key| cache.lookup(key).cloned()).collect();
        (hits.len() == keys.len()).then_some(hits)
    }

    /// One walk seeded with the baseline templates, then one decision
    /// per entry of `priorities`: each what [`Explorer::explore`]
    /// returns for its priority, byte for byte.
    ///
    /// # Errors
    ///
    /// Same contract as [`Explorer::explore`].
    pub fn walk(
        &self,
        estimator: &GrayBoxEstimator,
        priorities: &[Priority],
    ) -> Result<Vec<ExplorationResult>, ExplorerError> {
        let explorer = Explorer::new(estimator, self.budget)
            .with_space(Arc::clone(&self.space))
            .with_seed(self.seed);
        let (dataset, platform, constraints) = (&self.dataset, &self.platform, &self.constraints);
        let seeds = template_seeds(self.model);
        explorer.walk_and_decide(dataset, platform, self.model, priorities, constraints, &seeds)
    }

    /// Inserts each result under its key into `cache`, if any; an
    /// insert skips a key the cache already holds.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the log cannot be written.
    pub fn commit(
        cache: Option<&mut ExploreCache>,
        keys: &[u64],
        results: &[ExplorationResult],
    ) -> Result<(), StoreError> {
        let Some(cache) = cache else { return Ok(()) };
        keys.iter().zip(results).try_for_each(|(&key, result)| cache.insert(key, result).map(drop))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnav_estimator::Profiler;
    use gnnav_graph::DatasetId;
    use gnnav_runtime::{ExecutionOptions, RuntimeBackend};

    fn plan_and_estimator() -> (Plan, GrayBoxEstimator) {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let platform = Platform::default_rtx4090();
        let profiler =
            Profiler::new(RuntimeBackend::new(platform.clone()), ExecutionOptions::timing_only());
        let space = DesignSpace::reduced();
        let db = profiler.profile(&dataset, &space.sample(8, ModelKind::Sage, 5)).expect("profile");
        let mut estimator = GrayBoxEstimator::new();
        estimator.fit(&db).expect("fit");
        let plan = Plan {
            dataset: Arc::new(dataset),
            platform,
            model: ModelKind::Sage,
            space: Arc::new(space),
            constraints: RuntimeConstraints::none(),
            budget: 60,
            seed: 0x5EED,
            salt: "plan tests".into(),
        };
        (plan, estimator)
    }

    #[test]
    fn a_plan_keys_and_walks_as_the_explorer_does() {
        let (plan, estimator) = plan_and_estimator();
        let explorer = Explorer::new(&estimator, plan.budget)
            .with_space(Arc::clone(&plan.space))
            .with_seed(plan.seed);
        let (dataset, platform, none) = (&*plan.dataset, &plan.platform, &plan.constraints);
        let all = explorer.explore_all(dataset, platform, plan.model, none).expect("explore all");
        let walked = plan.walk(&estimator, &Priority::ALL).expect("walk");
        assert_eq!(format!("{walked:?}"), format!("{all:?}"));
        let one = explorer.explore(dataset, platform, plan.model, Priority::ExTimeAccuracy, none);
        let walked = plan.walk(&estimator, &[Priority::ExTimeAccuracy]).expect("walk one");
        assert_eq!(format!("{walked:?}"), format!("{:?}", [one.expect("explore")]));
        for priority in Priority::ALL {
            let key = explore_fingerprint(
                dataset,
                platform,
                plan.model,
                &plan.space,
                priority,
                none,
                plan.budget,
                plan.seed,
                &plan.salt,
            );
            assert_eq!(plan.fingerprint(priority), key);
        }
    }

    #[test]
    fn the_probe_serves_all_or_nothing_and_meters_every_key() {
        let (plan, estimator) = plan_and_estimator();
        let dir = std::env::temp_dir().join(format!("gnnav-plan-probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut cache = ExploreCache::open(dir.join("explore.wal")).expect("open");
        let keys = Priority::ALL.map(|p| plan.fingerprint(p));
        assert!(Plan::probe(None, &keys).is_none(), "no cache, no hits");

        let results = plan.walk(&estimator, &Priority::ALL[..2]).expect("walk");
        Plan::commit(Some(&mut cache), &keys[..2], &results).expect("commit");
        assert_eq!(cache.inserts(), 2);
        assert!(Plan::probe(Some(&mut cache), &keys).is_none(), "two of four is a miss");
        assert_eq!((cache.hits(), cache.misses()), (2, 2), "every key metered");
        let hits = Plan::probe(Some(&mut cache), &keys[..2]).expect("both cached");
        assert_eq!(format!("{hits:?}"), format!("{results:?}"));

        Plan::commit(Some(&mut cache), &keys[..2], &results).expect("recommit");
        assert_eq!(cache.inserts(), 2, "a key the cache holds is skipped");
        Plan::commit(None, &keys, &results).expect("no cache, nothing to commit");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
