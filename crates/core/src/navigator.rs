//! The end-to-end GNNavigator workflow (Fig. 2 of the paper).
//!
//! 1. **Inputs** — graph dataset, GNN model, application requirements
//!    (priorities + constraints), hardware platform.
//! 2. **Prepare** — profile the design space on the runtime backend
//!    (plus power-law data enhancement) and fit the gray-box
//!    estimator, on demand: only an exploration needs it, so a
//!    navigation the exploration cache serves fits nothing.
//! 3. **Explore** — generate training guidelines adapted to the
//!    requirements.
//! 4. **Apply** — execute a guideline on the backend and verify the
//!    measured `Perf{T, Γ, Acc}`.

use crate::NavigatorError;
use gnnav_adapt::{AdaptOptions, AdaptiveReport, AdaptiveRunner};
use gnnav_estimator::{GrayBoxEstimator, ProfileDb, ProfileStore, Profiler};
use gnnav_explorer::{
    ExplorationResult, ExploreCache, Explorer, Guideline, Plan, Priority, RuntimeConstraints,
};
use gnnav_graph::Dataset;
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{
    DesignSpace, DurabilityOptions, ExecutionOptions, ExecutionReport, RuntimeBackend, Template,
    TrainingConfig,
};
use std::sync::Arc;

/// Tunables of the navigator pipeline.
#[derive(Debug, Clone)]
pub struct NavigatorOptions {
    /// Design-space samples profiled per dataset for estimator
    /// training.
    pub profile_samples: usize,
    /// Number of power-law augmentation graphs (0 disables the
    /// enhancement step).
    pub augmentation_graphs: usize,
    /// Node count of each augmentation graph.
    pub augmentation_nodes: usize,
    /// Backend options used during profiling (keep cheap).
    pub profile_exec: ExecutionOptions,
    /// Backend options used when applying a guideline (full runs).
    pub apply_exec: ExecutionOptions,
    /// DFS leaf-evaluation budget during exploration.
    pub explore_budget: usize,
    /// The design space to profile over and explore (defaults to
    /// [`DesignSpace::standard`]; shrink the batch axis when running
    /// scaled-down dataset stand-ins).
    pub space: DesignSpace,
    /// Seed for profiling config sampling.
    pub seed: u64,
}

impl Default for NavigatorOptions {
    fn default() -> Self {
        NavigatorOptions {
            profile_samples: 60,
            augmentation_graphs: 2,
            augmentation_nodes: 1500,
            profile_exec: ExecutionOptions {
                epochs: 1,
                train: true,
                train_batches_cap: Some(4),
                // Probe sweeps run dozens of configs; keeping them out
                // of the journal leaves the trace with exactly one
                // backend timeline — the navigated execution.
                journal: false,
                ..Default::default()
            },
            apply_exec: ExecutionOptions::default(),
            explore_budget: 2000,
            space: DesignSpace::standard(),
            seed: 0x7A51,
        }
    }
}

impl NavigatorOptions {
    /// Everything the fitted estimator depends on beyond the dataset
    /// and platform (already fingerprinted directly): sweep size,
    /// augmentation shape, sampling seed, and profiling mode. Folded
    /// into the exploration-cache fingerprint so differently-fitted
    /// estimators never share cache entries.
    fn estimator_salt(&self) -> String {
        format!(
            "samples={} aug={}x{} seed={:#x} profile_exec={:?}",
            self.profile_samples,
            self.augmentation_graphs,
            self.augmentation_nodes,
            self.seed,
            self.profile_exec,
        )
    }
}

/// The adaptive GNN-training navigator.
///
/// # Example
///
/// ```no_run
/// use gnnavigator::{Navigator, Priority, RuntimeConstraints};
/// use gnnavigator::runtime::DurabilityOptions;
/// use gnnav_graph::{Dataset, DatasetId};
/// use gnnav_hwsim::Platform;
/// use gnnav_nn::ModelKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.1)?;
/// let mut nav = Navigator::new(dataset, Platform::default_rtx4090(), ModelKind::Sage)
///     // Optional: checkpoint `apply` every epoch and resume it if killed.
///     .with_checkpoints(DurabilityOptions::new("ckpts", 1));
/// // Profiles and fits the gray-box estimator first: nothing is cached.
/// let result = nav.generate_guideline(Priority::Balance, &RuntimeConstraints::none())?;
/// let report = nav.apply(&result.guideline)?;
/// println!("measured: {} / {:.1} MB / {:.1}%",
///          report.perf.epoch_time, report.perf.peak_mem_mb(),
///          report.perf.accuracy * 100.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Navigator {
    dataset: Arc<Dataset>,
    platform: Platform,
    model: ModelKind,
    backend: RuntimeBackend,
    options: NavigatorOptions,
    estimator: Option<GrayBoxEstimator>,
    profile_db: ProfileDb,
    profile_store: Option<ProfileStore>,
    explore_cache: Option<ExploreCache>,
    checkpoints: Option<DurabilityOptions>,
}

impl Navigator {
    /// Creates a navigator for training `model` on `dataset` over
    /// `platform`.
    pub fn new(dataset: Dataset, platform: Platform, model: ModelKind) -> Self {
        let backend = RuntimeBackend::new(platform.clone());
        Navigator {
            dataset: Arc::new(dataset),
            platform,
            model,
            backend,
            options: NavigatorOptions::default(),
            estimator: None,
            profile_db: ProfileDb::new(),
            profile_store: None,
            explore_cache: None,
            checkpoints: None,
        }
    }

    /// Overrides the pipeline options.
    pub fn with_options(mut self, options: NavigatorOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches a durable [`ProfileStore`]: [`Navigator::prepare`]
    /// skips every configuration the store already covers and appends
    /// each freshly profiled record, so repeat invocations against the
    /// same store re-profile nothing and still fit on a byte-identical
    /// database. A navigation the exploration cache serves in full
    /// never prepares, so it leaves a partially filled store as it
    /// found it.
    pub fn with_profile_store(mut self, store: ProfileStore) -> Self {
        self.profile_store = Some(store);
        self
    }

    /// The attached profile store, if any.
    pub fn profile_store(&self) -> Option<&ProfileStore> {
        self.profile_store.as_ref()
    }

    /// Attaches a durable [`ExploreCache`]:
    /// [`Navigator::generate_guideline`] and [`Navigator::generate_all`]
    /// fingerprint every exploration input and serve a cached
    /// [`ExplorationResult`] when the fingerprint matches, skipping the
    /// DSE and the estimator fit entirely — a repeat invocation returns
    /// the byte-identical guideline for the price of a hash probe (the
    /// cost that remains is reopening the log, one decode per walk
    /// however many priorities were decided over it; see
    /// `explorer::cache`). Fresh explorations are appended, a walk's
    /// first result whole and the others as the few hundred bytes that
    /// differ.
    pub fn with_explore_cache(mut self, cache: ExploreCache) -> Self {
        self.explore_cache = Some(cache);
        self
    }

    /// The attached exploration cache, if any.
    pub fn explore_cache(&self) -> Option<&ExploreCache> {
        self.explore_cache.as_ref()
    }

    /// Makes [`Navigator::apply`] and [`Navigator::apply_adaptive`]
    /// crash-safe: the run writes an atomic checkpoint every
    /// `checkpoints.every` epochs into `checkpoints.dir` and, with
    /// `checkpoints.resume`, continues from the newest valid checkpoint
    /// of the same guideline instead of epoch 0. A run killed at any
    /// epoch boundary and resumed this way produces the byte-identical
    /// report of an uninterrupted run — for the adaptive path with its
    /// drift state and guideline switches intact.
    pub fn with_checkpoints(mut self, checkpoints: DurabilityOptions) -> Self {
        self.checkpoints = Some(checkpoints);
        self
    }

    /// The dataset under navigation.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The bound platform.
    #[cfg(test)]
    pub(crate) fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The profile database the estimator was fitted on: empty until
    /// [`Navigator::prepare`] runs, as it does after a navigation the
    /// exploration cache served in full.
    pub fn profile_db(&self) -> &ProfileDb {
        &self.profile_db
    }

    /// Profiles the design space and fits the gray-box estimator, at
    /// most once: a later call returns the same fit.
    ///
    /// Optional: [`generate_guideline`](Self::generate_guideline),
    /// [`generate_all`](Self::generate_all) and
    /// [`apply_adaptive`](Self::apply_adaptive) call it when they need
    /// an estimator, and a navigation the exploration cache serves in
    /// full never does. Call it to fit ahead of time or to read
    /// [`Navigator::profile_db`].
    ///
    /// # Errors
    ///
    /// Propagates profiling and fitting failures; nothing is fitted
    /// then, and the next call starts over.
    pub fn prepare(&mut self) -> Result<&GrayBoxEstimator, NavigatorError> {
        if self.estimator.is_none() {
            let profiler = Profiler::new(self.backend.clone(), self.options.profile_exec.clone());
            let o = &self.options;
            let configs = o.space.sample(o.profile_samples, self.model, o.seed);
            let mut store = self.profile_store.as_mut();
            let mut db =
                profiler.profile_through(store.as_deref_mut(), None, &self.dataset, &configs)?;
            if o.augmentation_graphs > 0 {
                let aug_configs =
                    o.space.sample((o.profile_samples / 2).max(4), self.model, o.seed ^ 0xA06);
                db.merge(profiler.profile_augmentation(
                    store,
                    o.augmentation_graphs,
                    o.augmentation_nodes,
                    &aug_configs,
                    o.seed ^ 0x9999,
                )?);
            }
            let mut estimator = GrayBoxEstimator::new();
            estimator.fit(&db)?;
            self.profile_db = db;
            self.estimator = Some(estimator);
        }
        Ok(self.estimator.as_ref().expect("fitted above"))
    }

    /// Generates the guideline for one priority.
    ///
    /// With an attached [`ExploreCache`], a fingerprint hit returns the
    /// cached result without fitting or running the DSE; a miss
    /// [prepares](Navigator::prepare), explores and appends the fresh
    /// result.
    ///
    /// # Errors
    ///
    /// Propagates profiling, fitting, exploration and cache-append
    /// failures (the last as [`NavigatorError::Store`]).
    pub fn generate_guideline(
        &mut self,
        priority: Priority,
        constraints: &RuntimeConstraints,
    ) -> Result<ExplorationResult, NavigatorError> {
        Ok(self.navigate(&[priority], constraints)?.remove(0))
    }

    /// Generates guidelines for every priority preset (the Bal /
    /// Ex-TM / Ex-MA / Ex-TA rows of Tab. 1), in [`Priority::ALL`]
    /// order, from one walk of the design space
    /// ([`Explorer::explore_all`]): each result is what
    /// [`generate_guideline`](Self::generate_guideline) returns for its
    /// priority.
    ///
    /// With an attached [`ExploreCache`], four fingerprint hits skip
    /// the fit and the DSE; on any miss the space is walked once and
    /// the results that missed are appended.
    ///
    /// # Errors
    ///
    /// Same contract as [`generate_guideline`](Self::generate_guideline).
    pub fn generate_all(
        &mut self,
        constraints: &RuntimeConstraints,
    ) -> Result<Vec<ExplorationResult>, NavigatorError> {
        self.navigate(&Priority::ALL, constraints)
    }

    /// The navigator's [`Plan`] for `priorities`: its keys probed
    /// first, and only on a miss the task-profiled estimator
    /// [prepared](Navigator::prepare), the space walked once and the
    /// results committed.
    fn navigate(
        &mut self,
        priorities: &[Priority],
        constraints: &RuntimeConstraints,
    ) -> Result<Vec<ExplorationResult>, NavigatorError> {
        let plan = Plan {
            dataset: Arc::clone(&self.dataset),
            platform: self.platform.clone(),
            model: self.model,
            space: Arc::new(self.options.space.clone()),
            constraints: *constraints,
            budget: self.options.explore_budget,
            seed: Explorer::DEFAULT_SEED,
            salt: self.options.estimator_salt(),
        };
        let keys: Vec<u64> = priorities.iter().map(|&p| plan.fingerprint(p)).collect();
        if let Some(hits) = Plan::probe(self.explore_cache.as_mut(), &keys) {
            return Ok(hits);
        }
        let results = plan.walk(self.prepare()?, priorities)?;
        Plan::commit(self.explore_cache.as_mut(), &keys, &results)?;
        Ok(results)
    }

    /// Applies a guideline on the runtime backend (Step 3), returning
    /// the measured performance — crash-safely when
    /// [checkpoints](Navigator::with_checkpoints) are attached.
    ///
    /// # Errors
    ///
    /// Propagates backend and checkpoint-store failures.
    pub fn apply(&self, guideline: &Guideline) -> Result<ExecutionReport, NavigatorError> {
        let (dataset, exec) = (&self.dataset, &self.options.apply_exec);
        Ok(match &self.checkpoints {
            Some(dur) => self.backend.execute_durable(dataset, &guideline.config, exec, dur)?,
            None => self.backend.execute(dataset, &guideline.config, exec)?,
        })
    }

    /// Applies a guideline adaptively (Step 4 extended): trains epoch
    /// by epoch, watches observed time / hit rate / memory against the
    /// exploration's prediction, and on sustained drift re-explores
    /// incrementally and switches the guideline mid-training. With
    /// [checkpoints](Navigator::with_checkpoints) attached, drift
    /// state, switches and the training session checkpoint together.
    ///
    /// Without drift the run is byte-identical to [`Navigator::apply`]
    /// on the same guideline: both are the same epoch loop over the
    /// same execution session.
    ///
    /// A re-exploration refits on [`Navigator::profile_db`], so this
    /// [prepares](Navigator::prepare) first if nothing has yet.
    ///
    /// # Errors
    ///
    /// Propagates profiling, fitting, backend, refit, re-exploration,
    /// and checkpoint-store failures.
    pub fn apply_adaptive(
        &mut self,
        exploration: &ExplorationResult,
        constraints: &RuntimeConstraints,
        adapt: AdaptOptions,
    ) -> Result<AdaptiveReport, NavigatorError> {
        self.prepare()?;
        let runner = AdaptiveRunner::new(self.platform.clone(), self.options.space.clone(), adapt);
        let (dataset, db, exec) = (&self.dataset, &self.profile_db, &self.options.apply_exec);
        Ok(match &self.checkpoints {
            Some(dur) => runner.run_durable(dataset, exploration, db, exec, constraints, dur)?,
            None => runner.run(dataset, exploration, db, exec, constraints)?,
        })
    }

    /// Runs a baseline template under the same execution options, for
    /// comparison rows.
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    pub fn run_template(&self, template: Template) -> Result<ExecutionReport, NavigatorError> {
        let config = template.config(self.model);
        // Comparison rows never journal: the exported trace describes
        // the navigated execution, not the baselines raced against it.
        let opts = ExecutionOptions { journal: false, ..self.options.apply_exec.clone() };
        Ok(self.backend.execute(&self.dataset, &config, &opts)?)
    }

    /// Runs an arbitrary configuration under the apply options.
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    pub fn run_config(&self, config: &TrainingConfig) -> Result<ExecutionReport, NavigatorError> {
        Ok(self.backend.execute(&self.dataset, config, &self.options.apply_exec)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnav_graph::DatasetId;

    fn fast_navigator() -> Navigator {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.03).expect("load");
        let options = NavigatorOptions {
            profile_samples: 20,
            augmentation_graphs: 1,
            augmentation_nodes: 400,
            explore_budget: 200,
            apply_exec: ExecutionOptions {
                epochs: 1,
                train_batches_cap: Some(2),
                ..Default::default()
            },
            ..Default::default()
        };
        Navigator::new(dataset, Platform::default_rtx4090(), ModelKind::Sage).with_options(options)
    }

    #[test]
    fn full_pipeline_runs() {
        let mut nav = fast_navigator();
        nav.prepare().expect("prepare");
        assert!(!nav.profile_db().is_empty());
        let result = nav
            .generate_guideline(Priority::Balance, &RuntimeConstraints::none())
            .expect("explore");
        let report = nav.apply(&result.guideline).expect("apply");
        assert!(report.perf.epoch_time.as_secs() > 0.0);
        assert!(report.perf.accuracy > 0.0, "guideline run trains");
    }

    #[test]
    fn a_guideline_needs_no_prepare() {
        let none = RuntimeConstraints::none();
        let mut prepared = fast_navigator();
        prepared.prepare().expect("prepare");
        let expected = prepared.generate_guideline(Priority::Balance, &none).expect("prepared");

        let mut lazy = fast_navigator();
        let result = lazy.generate_guideline(Priority::Balance, &none).expect("fits on demand");
        assert_eq!(format!("{result:?}"), format!("{expected:?}"), "byte-identical");
        assert_eq!(lazy.profile_db().len(), prepared.profile_db().len());
    }

    #[test]
    fn prepare_fits_once() {
        let mut nav = fast_navigator();
        let ctx = gnnav_estimator::Context::new(
            nav.dataset(),
            nav.platform(),
            Template::Pyg.config(ModelKind::Sage),
        );
        let first = format!("{:?}", nav.prepare().expect("first").predict(&ctx));
        let records = nav.profile_db().len();
        let second = format!("{:?}", nav.prepare().expect("second").predict(&ctx));
        assert_eq!(nav.profile_db().len(), records, "a second prepare merges nothing");
        assert_eq!(second, first, "and fits nothing: the same estimate, bit for bit");
    }

    #[test]
    fn warm_prepare_reuses_store_and_matches_cold_guideline() {
        let dir = std::env::temp_dir().join(format!("gnnav-nav-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let db_path = dir.join("profiles.db");
        let _ = std::fs::remove_file(&db_path);

        let store = ProfileStore::open(&db_path).expect("open cold");
        let mut cold = fast_navigator().with_profile_store(store);
        cold.prepare().expect("cold prepare");
        let cold_guideline = cold
            .generate_guideline(Priority::Balance, &RuntimeConstraints::none())
            .expect("cold explore")
            .guideline;
        let stored = cold.profile_store().expect("store").len();
        assert_eq!(stored, cold.profile_db().len(), "every profiled record persisted");

        let store = ProfileStore::open(&db_path).expect("open warm");
        assert_eq!(store.len(), stored, "records survive reopen");
        let mut warm = fast_navigator().with_profile_store(store);
        warm.prepare().expect("warm prepare");
        assert_eq!(
            warm.profile_store().expect("store").len(),
            stored,
            "warm prepare appends nothing — every config was covered"
        );
        let warm_guideline = warm
            .generate_guideline(Priority::Balance, &RuntimeConstraints::none())
            .expect("warm explore")
            .guideline;
        assert_eq!(warm_guideline.config, cold_guideline.config, "same fit, same guideline");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_guideline_served_from_explore_cache_byte_identically() {
        let dir = std::env::temp_dir().join(format!("gnnav-nav-ecache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let cache_path = dir.join("explore.wal");
        let _ = std::fs::remove_file(&cache_path);

        let cache = ExploreCache::open(&cache_path).expect("open cold");
        let mut cold = fast_navigator().with_explore_cache(cache);
        cold.prepare().expect("cold prepare");
        let cold_result =
            cold.generate_guideline(Priority::Balance, &RuntimeConstraints::none()).expect("cold");
        {
            let cache = cold.explore_cache().expect("cache");
            assert_eq!(cache.hits(), 0, "cold run cannot hit");
            assert_eq!(cache.misses(), 1);
            assert_eq!(cache.inserts(), 1);
        }
        // Same navigator, second call: served from the in-memory index.
        let again =
            cold.generate_guideline(Priority::Balance, &RuntimeConstraints::none()).expect("again");
        assert_eq!(cold.explore_cache().expect("cache").hits(), 1);
        assert_eq!(format!("{again:?}"), format!("{cold_result:?}"));

        // Fresh process equivalent: reopen the log, and the fit and the
        // exploration are skipped outright — byte-identical result,
        // zero candidates evaluated by this navigator.
        let cache = ExploreCache::open(&cache_path).expect("open warm");
        assert_eq!(cache.len(), 1, "result survives reopen");
        let mut warm = fast_navigator().with_explore_cache(cache);
        let warm_result =
            warm.generate_guideline(Priority::Balance, &RuntimeConstraints::none()).expect("warm");
        {
            let cache = warm.explore_cache().expect("cache");
            assert_eq!(cache.hits(), 1, "warm run served from cache");
            assert_eq!(cache.misses(), 0);
            assert_eq!(cache.inserts(), 0, "nothing re-explored, nothing appended");
        }
        assert!(warm.profile_db().is_empty(), "nothing profiled, nothing fitted");
        assert_eq!(format!("{warm_result:?}"), format!("{cold_result:?}"), "byte-identical");

        // A different priority is a different fingerprint: no false hit,
        // and the miss fits on demand.
        let _ = warm
            .generate_guideline(Priority::ExTimeMemory, &RuntimeConstraints::none())
            .expect("other priority");
        assert_eq!(warm.profile_db().len(), cold.profile_db().len());
        let cache = warm.explore_cache().expect("cache");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.inserts(), 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_adaptive_run_after_a_cache_hit_needs_no_prepare() {
        let dir = std::env::temp_dir().join(format!("gnnav-nav-adapt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let cache_path = dir.join("explore.wal");
        let _ = std::fs::remove_file(&cache_path);
        let none = RuntimeConstraints::none();

        let cache = ExploreCache::open(&cache_path).expect("open cold");
        let mut cold = fast_navigator().with_explore_cache(cache);
        cold.prepare().expect("prepare");
        let explored = cold.generate_guideline(Priority::Balance, &none).expect("cold");
        let expected = cold.apply_adaptive(&explored, &none, AdaptOptions::default());

        let cache = ExploreCache::open(&cache_path).expect("open warm");
        let mut warm = fast_navigator().with_explore_cache(cache);
        let served = warm.generate_guideline(Priority::Balance, &none).expect("warm");
        assert_eq!(warm.explore_cache().expect("cache").hits(), 1);
        assert!(warm.profile_db().is_empty(), "the hit fitted nothing");
        let report = warm.apply_adaptive(&served, &none, AdaptOptions::default());
        assert_eq!(
            format!("{:?}", report.expect("fits on demand")),
            format!("{:?}", expected.expect("prepared"))
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The log one `generate_all` leaves — a base frame and three
    /// decision frames — cut at every frame boundary and inside every
    /// frame: a reopen serves exactly the complete prefix, the next
    /// `generate_all` re-inserts the rest, and what a third reopen
    /// serves (and holds on disk) is an uninterrupted run's.
    #[test]
    fn a_walk_log_cut_anywhere_serves_its_complete_prefix_and_is_refilled() {
        use gnnav_store::{Wal, WAL_FRAME_LEN, WAL_HEADER_LEN};
        let dir = std::env::temp_dir().join(format!("gnnav-nav-cuts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("explore.wal");
        let _ = std::fs::remove_file(&path);
        let none = RuntimeConstraints::none();

        let mut nav = fast_navigator().with_explore_cache(ExploreCache::open(&path).expect("open"));
        let uninterrupted = format!("{:?}", nav.generate_all(&none).expect("generate all"));
        assert_eq!(nav.explore_cache().expect("cache").inserts(), 4);
        let log = std::fs::read(&path).expect("read");
        let mut ends = vec![WAL_HEADER_LEN];
        Wal::replay(&path, |frame| ends.push(ends[ends.len() - 1] + WAL_FRAME_LEN + frame.len()))
            .expect("read as a plain log");
        assert_eq!(ends.len(), 5, "one frame per priority");
        assert_eq!(ends[4], log.len());
        let tags: Vec<u8> = ends[..4].iter().map(|&start| log[start + WAL_FRAME_LEN]).collect();
        assert_eq!(tags, [1, 2, 2, 2], "the walk once, then three decisions over it");
        assert!(ends[4] - ends[1] < 2048, "three decision frames take {} bytes", ends[4] - ends[1]);

        let mut cuts = vec![0, WAL_HEADER_LEN / 2, log.len()];
        for frame in ends.windows(2) {
            let (start, end) = (frame[0], frame[1]);
            let payload = start + WAL_FRAME_LEN;
            cuts.extend([start, start + 1, payload, payload + 1, (payload + end) / 2, end - 1]);
        }
        for cut in cuts {
            std::fs::write(&path, &log[..cut]).expect("write cut");
            let complete = ends[1..].iter().filter(|&&end| end <= cut).count();
            let cache = ExploreCache::open(&path).expect("reopen");
            assert_eq!((cache.len(), cache.undecodable()), (complete, 0), "cut at {cut}");
            nav = nav.with_explore_cache(cache);
            let refilled = nav.generate_all(&none).expect("second generate all");
            assert_eq!(format!("{refilled:?}"), uninterrupted, "cut at {cut}");
            {
                let cache = nav.explore_cache().expect("cache");
                assert_eq!(cache.hits(), complete as u64, "cut at {cut}");
                assert_eq!(cache.inserts(), 4 - complete as u64, "cut at {cut}");
            }

            let cache = ExploreCache::open(&path).expect("third reopen");
            assert!(cache.recovery().is_clean(), "cut at {cut}");
            assert_eq!((cache.len(), cache.undecodable()), (4, 0), "cut at {cut}");
            nav = nav.with_explore_cache(cache);
            let served = nav.generate_all(&none).expect("third generate all");
            assert_eq!(format!("{served:?}"), uninterrupted, "cut at {cut}");
            assert_eq!(nav.explore_cache().expect("cache").inserts(), 0, "cut at {cut}");
            assert!(std::fs::read(&path).expect("read") == log, "cut at {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn templates_run_directly() {
        let nav = fast_navigator();
        let report = nav.run_template(Template::Pyg).expect("run");
        assert_eq!(report.perf.hit_rate, 0.0, "PyG has no cache");
    }
}
