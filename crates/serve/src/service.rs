//! The long-lived multi-tenant navigation service.
//!
//! [`NavService`] turns the one-shot `Navigator` pipeline into a
//! request/response loop: tenants [`submit`](NavService::submit)
//! navigation requests into a bounded admission queue and a
//! [`drain`](NavService::drain) wave resolves them together. Each
//! request is one `gnnav_explorer::Plan`, whose stages (fingerprint,
//! probe, walk, commit) are the path `Navigator` takes too; a wave
//! schedules its plans in three phases, and only the middle one forks:
//!
//! 1. **Probe, coalesce, provision (serial).** In admission order each
//!    plan's key is probed in the in-memory map, then the durable
//!    `ExploreCache`; on a miss the plan borrows a neighbor's result
//!    (cache-only rung), rides on an identical plan of the wave, or is
//!    scheduled with a warm estimator from the pool or a calibrated
//!    one. Calibration is one fixed sweep — the same graphs, configs
//!    and execution seed for every platform — so all of it but the
//!    cost model's charge is platform-free: the first pool miss of a
//!    service trains the sweep and keeps each execution's trace, every
//!    later miss (another platform, or one the pool evicted) re-charges
//!    those traces and trains nothing. The fit is the same either way,
//!    bit for bit (`gnnav_runtime::session`).
//! 2. **Walk (parallel).** The scheduled plans' walks run as pure
//!    `(plan, estimator) → result` jobs under
//!    `gnnav_par::par_map_indexed`, which returns results in input
//!    order regardless of width.
//! 3. **Commit (serial).** In admission order each result enters the
//!    durable `ExploreCache` whole, its guideline the in-memory map,
//!    its key the nearest-neighbor index; responses and metering
//!    follow.
//!
//! Admission control is decided entirely at submit time — queue
//! bound, per-tenant token bucket, and the degradation rung derived
//! from the queue depth — so the request/response sequence is a pure
//! function of the submission sequence.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use gnnav_estimator::{ExecutionTraces, GrayBoxEstimator, ProfileDb, ProfileStore, Profiler};
use gnnav_explorer::{ExploreCache, Guideline, Plan, Priority};
use gnnav_graph::Dataset;
use gnnav_nn::ModelKind;
use gnnav_obs::names as metric;
use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};
use gnnav_store::{fnv1a64, ByteWriter, StoreError};

use crate::pool::{platform_fingerprint, EstimatorPool};
use crate::request::{AdmitError, DegradeLevel, NavRequest, NavResponse, ServeTier};

/// Anything that can go wrong while resolving a wave.
#[derive(Debug)]
pub enum ServeError {
    /// Synthetic dataset materialization failed.
    Graph(gnnav_graph::GraphError),
    /// A calibration sweep failed outright.
    Runtime(gnnav_runtime::RuntimeError),
    /// A calibration fit failed.
    Estimator(gnnav_estimator::EstimatorError),
    /// An exploration failed.
    Explorer(gnnav_explorer::ExplorerError),
    /// A durable store operation failed.
    Store(StoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Graph(e) => write!(f, "serve: dataset: {e}"),
            ServeError::Runtime(e) => write!(f, "serve: calibration sweep: {e}"),
            ServeError::Estimator(e) => write!(f, "serve: calibration fit: {e}"),
            ServeError::Explorer(e) => write!(f, "serve: exploration: {e}"),
            ServeError::Store(e) => write!(f, "serve: store: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<gnnav_graph::GraphError> for ServeError {
    fn from(e: gnnav_graph::GraphError) -> Self {
        ServeError::Graph(e)
    }
}
impl From<gnnav_runtime::RuntimeError> for ServeError {
    fn from(e: gnnav_runtime::RuntimeError) -> Self {
        ServeError::Runtime(e)
    }
}
impl From<gnnav_estimator::EstimatorError> for ServeError {
    fn from(e: gnnav_estimator::EstimatorError) -> Self {
        ServeError::Estimator(e)
    }
}
impl From<gnnav_explorer::ExplorerError> for ServeError {
    fn from(e: gnnav_explorer::ExplorerError) -> Self {
        ServeError::Explorer(e)
    }
}
impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// Full DSE budget (evaluated-leaf bound).
const EXPLORE_BUDGET: usize = 400;
/// DSE budget of a degraded admission.
const REDUCED_BUDGET: usize = 100;
/// Estimator-pool LRU bound (warm platforms).
const POOL_CAPACITY: usize = 8;
/// Calibration sweep: synthetic graphs ...
const CALIBRATION_GRAPHS: usize = 2;
/// ... nodes in the first one (each later graph has 137 more) ...
const CALIBRATION_NODES: usize = 400;
/// ... and sampled configurations per graph.
const CALIBRATION_SAMPLES: usize = 16;

/// What a caller sets. Everything else — the budgets, the pool bound,
/// the calibration sweep — is a constant of this module;
/// `gnnavigate serve-bench` sets all three fields from flags.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Admission queue bound; submissions beyond it are rejected. It
    /// also places the degradation rungs: an admission at depth
    /// ≥ ⌈capacity / 2⌉ gets the reduced budget, at depth
    /// ≥ ⌈3 · capacity / 4⌉ cache-only.
    pub queue_capacity: usize,
    /// Token-bucket capacity per tenant (tokens are exploration
    /// requests; one token per admitted request). Every bucket is
    /// refilled to the full budget at each wave drain.
    pub tenant_budget: u32,
    /// Seed for calibration sampling and DSE traversal.
    pub seed: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { queue_capacity: 64, tenant_budget: 8, seed: 0x7A51 }
    }
}

impl ServeOptions {
    /// Everything a pooled fit depends on beyond the platform itself:
    /// the calibration sweep shape and seed. Folded into the
    /// exploration-cache fingerprint so differently-calibrated
    /// services never share cache entries.
    fn estimator_salt(&self, platform_fp: u64) -> String {
        format!(
            "serve cal={}x{} samples={} seed={:#x} platform={:016x}",
            CALIBRATION_GRAPHS, CALIBRATION_NODES, CALIBRATION_SAMPLES, self.seed, platform_fp,
        )
    }
}

/// A request admitted into the queue, stamped with everything the
/// submit-time decision fixed.
#[derive(Debug)]
struct Pending {
    seq: u64,
    request: NavRequest,
    degrade: DegradeLevel,
    submitted_at_us: f64,
}

/// What every calibration of one service shares: the sweep's synthetic
/// graphs, generated at the first pool miss, and the platform-free
/// trace of each of its executions. Both are bounded by the sweep's
/// shape (`CALIBRATION_GRAPHS` graphs, about `CALIBRATION_SAMPLES`
/// traces for each), however many platforms or tenants arrive.
#[derive(Debug, Default)]
struct Calibration {
    graphs: Vec<Dataset>,
    traces: ExecutionTraces,
}

/// The long-lived multi-tenant guideline server.
pub struct NavService {
    options: ServeOptions,
    space: Arc<DesignSpace>,
    pool: EstimatorPool,
    calibration: Calibration,
    profile_store: Option<ProfileStore>,
    explore_cache: Option<ExploreCache>,
    queue: Vec<Pending>,
    /// Remaining tokens per tenant id, for tenants that submitted since
    /// the last drain; any other tenant has the full budget.
    buckets: HashMap<u64, u32>,
    /// The guideline of every completed exploration, by exploration
    /// fingerprint — all a response reads of one. The candidates and
    /// the audit trail go to the durable cache, when one is attached,
    /// and are not kept here.
    results: HashMap<u64, Guideline>,
    /// Nearest-neighbor index: context key → (shape vector,
    /// exploration fingerprint), in first-computed order.
    neighbors: HashMap<u64, Vec<(Vec<f64>, u64)>>,
    /// Materialized datasets by workload shape.
    datasets: HashMap<(usize, usize, usize, usize, u64), Arc<Dataset>>,
    next_seq: u64,
}

impl std::fmt::Debug for NavService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NavService")
            .field("options", &self.options)
            .field("queue_depth", &self.queue.len())
            .field("pooled_estimators", &self.pool.len())
            .field("cached_results", &self.results.len())
            .finish()
    }
}

impl NavService {
    /// Creates a service with no durable backing.
    pub fn new(options: ServeOptions) -> Self {
        NavService {
            space: Arc::new(DesignSpace::standard()),
            pool: EstimatorPool::new(POOL_CAPACITY),
            calibration: Calibration::default(),
            options,
            profile_store: None,
            explore_cache: None,
            queue: Vec::new(),
            buckets: HashMap::new(),
            results: HashMap::new(),
            neighbors: HashMap::new(),
            datasets: HashMap::new(),
            next_seq: 0,
        }
    }

    /// Attaches a durable profile store; calibration sweeps reuse its
    /// records and append fresh ones.
    pub fn with_profile_store(mut self, store: ProfileStore) -> Self {
        self.profile_store = Some(store);
        self
    }

    /// Attaches a durable exploration cache consulted before any DSE
    /// and appended to after each fresh exploration.
    pub fn with_explore_cache(mut self, cache: ExploreCache) -> Self {
        self.explore_cache = Some(cache);
        self
    }

    /// The warm estimator pool.
    pub fn pool(&self) -> &EstimatorPool {
        &self.pool
    }

    /// Pending requests awaiting the next [`drain`](Self::drain).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The attached durable exploration cache, if any.
    pub fn explore_cache(&self) -> Option<&ExploreCache> {
        self.explore_cache.as_ref()
    }

    /// The attached durable profile store, if any.
    pub fn profile_store(&self) -> Option<&ProfileStore> {
        self.profile_store.as_ref()
    }

    /// Admits `request` into the queue or rejects it with a typed
    /// error. Never panics under overload. The degradation rung is
    /// fixed here from the queue depth, so it is independent of how
    /// the wave is later executed.
    pub fn submit(&mut self, request: NavRequest) -> Result<u64, AdmitError> {
        let metrics = gnnav_obs::global();
        let journal = metrics.journal();
        let depth = self.queue.len();
        let capacity = self.options.queue_capacity;
        // A NaN or infinite limit would fail the walk in the middle of
        // a wave, and with it every other request of the wave.
        let non_finite = request.workload.constraints.non_finite_limit();
        let reject = if let Some((limit, _)) = non_finite {
            Some(AdmitError::NonFiniteLimit { tenant: request.tenant, limit })
        } else if depth >= capacity {
            Some(AdmitError::QueueFull { depth, capacity })
        } else {
            let bucket = self.buckets.entry(request.tenant.0).or_insert(self.options.tenant_budget);
            if *bucket == 0 {
                Some(AdmitError::BudgetExhausted { tenant: request.tenant })
            } else {
                *bucket -= 1;
                None
            }
        };
        if let Some(err) = reject {
            metrics.add(metric::SERVE_REQUESTS_REJECTED, 1);
            if journal.is_enabled() {
                // Rejections emit a single instant — never a span —
                // so an overloaded queue cannot leave half-open spans
                // in the trace.
                journal.instant(
                    metric::EVENT_SERVE_REJECT,
                    metric::TRACK_SERVE,
                    None,
                    vec![
                        ("tenant".into(), (request.tenant.0 as f64).into()),
                        ("reason".into(), err.reason().into()),
                    ],
                );
            }
            return Err(err);
        }
        // The rungs sit at ⌈3q/4⌉ (as q − ⌊q/4⌋, which cannot
        // overflow) and ⌈q/2⌉ of the queue bound q.
        let degrade = if depth >= capacity - capacity / 4 {
            DegradeLevel::CacheOnly
        } else if depth >= capacity.div_ceil(2) {
            DegradeLevel::ReducedBudget
        } else {
            DegradeLevel::Full
        };
        if degrade != DegradeLevel::Full {
            metrics.add(metric::SERVE_REQUESTS_DEGRADED, 1);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        metrics.add(metric::SERVE_REQUESTS_ADMITTED, 1);
        if journal.is_enabled() {
            journal.instant(
                metric::EVENT_SERVE_ADMIT,
                metric::TRACK_SERVE,
                None,
                vec![
                    ("seq".into(), (seq as f64).into()),
                    ("tenant".into(), (request.tenant.0 as f64).into()),
                    ("degrade".into(), degrade.label().into()),
                ],
            );
        }
        self.queue.push(Pending { seq, request, degrade, submitted_at_us: journal.now_us() });
        metrics.gauge_set(metric::SERVE_QUEUE_DEPTH, self.queue.len() as f64);
        Ok(seq)
    }

    /// Calibrates a fresh gray-box fit for the plan's platform over
    /// its design space: a fixed,
    /// seeded synthetic sweep (the same graphs, configs and execution
    /// seed for every platform and tenant), profiled through the
    /// shared store when one is attached and through the service's
    /// traces always — so only configs neither covers are executed,
    /// which after the first calibration of a process is none.
    /// Sampling covers all model families so one fit serves every
    /// request on the platform.
    fn calibrate(
        seed: u64,
        mut store: Option<&mut ProfileStore>,
        calibration: &mut Calibration,
        plan: &Plan,
    ) -> Result<GrayBoxEstimator, ServeError> {
        let backend = RuntimeBackend::new(plan.platform.clone());
        let exec = ExecutionOptions {
            epochs: 1,
            train: true,
            train_batches_cap: Some(2),
            seed,
            journal: false,
            ..ExecutionOptions::default()
        };
        let profiler = Profiler::new(backend, exec).with_threads(1);
        let mut db = ProfileDb::new();
        let Calibration { graphs, traces } = calibration;
        if graphs.is_empty() {
            *graphs = (0..CALIBRATION_GRAPHS)
                .map(|g| {
                    Dataset::synthetic(
                        CALIBRATION_NODES + g * 137,
                        3 + g % 3,
                        32,
                        8,
                        seed ^ 0x5E21 ^ (g as u64).wrapping_mul(0x9E37_79B9),
                    )
                })
                .collect::<Result<_, _>>()?;
        }
        for (g, dataset) in graphs.iter().enumerate() {
            let per_model = CALIBRATION_SAMPLES.div_ceil(3);
            for (m, model) in ModelKind::ALL.iter().enumerate() {
                let sample_seed = seed ^ ((g as u64) << 8) ^ m as u64;
                let configs = plan.space.sample(per_model, *model, sample_seed);
                db.merge(profiler.profile_through(
                    store.as_deref_mut(),
                    Some(&mut *traces),
                    dataset,
                    &configs,
                )?);
            }
        }
        let mut est = GrayBoxEstimator::new();
        est.fit(&db)?;
        Ok(est)
    }

    /// A plan's entry in the nearest-neighbor index: its context key
    /// — requests may only borrow results computed for the same
    /// platform, model, priority, and constraints; only the dataset
    /// shape may differ — and its shape vector, of log-scaled size
    /// terms so distance is relative, not absolute.
    fn neighbor(plan: &Plan, priority: Priority) -> (u64, Vec<f64>) {
        let mut w = ByteWriter::new();
        w.put_u64(platform_fingerprint(&plan.platform));
        w.put_str(&format!("{:?}", plan.model));
        w.put_str(priority.label());
        w.put_str(&format!("{:?}", plan.constraints));
        let stats = plan.dataset.stats();
        let shape = vec![
            (stats.num_nodes as f64).ln(),
            (stats.num_edges.max(1) as f64).ln(),
            stats.degrees.mean,
            stats.degrees.skew,
        ];
        (fnv1a64(&w.finish()), shape)
    }

    /// Squared Euclidean distance between shape vectors.
    fn shape_distance(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    /// Resolves every pending request and returns the responses in
    /// admission order. The wave is deterministic at every worker
    /// width: planning and committing are serial, and the parallel
    /// exploration phase is order-preserving and pure.
    pub fn drain(&mut self) -> Result<Vec<NavResponse>, ServeError> {
        let metrics = gnnav_obs::global();
        let journal = metrics.journal();
        let wave_t0 = journal.now_us();
        let pending = std::mem::take(&mut self.queue);
        // Reset here: a wave that fails below has taken the queue too.
        metrics.gauge_set(metric::SERVE_QUEUE_DEPTH, 0.0);

        // --- Phase A: serial probe, coalesce and provision --------
        let mut walks: Vec<(Plan, Priority, u64, Arc<GrayBoxEstimator>)> = Vec::new();
        let mut scheduled: HashSet<u64> = HashSet::new();
        let mut served: Vec<(u64, ServeTier)> = Vec::with_capacity(pending.len());
        for p in &pending {
            let (req, priority) = (&p.request, p.request.workload.priority);
            let shape = req.workload.shape_key();
            if let std::collections::hash_map::Entry::Vacant(slot) = self.datasets.entry(shape) {
                slot.insert(Arc::new(req.workload.materialize()?));
            }
            let platform_fp = platform_fingerprint(&req.platform);
            let plan = Plan {
                dataset: Arc::clone(&self.datasets[&shape]),
                platform: req.platform.clone(),
                model: req.workload.model,
                space: Arc::clone(&self.space),
                constraints: req.workload.constraints,
                budget: if p.degrade == DegradeLevel::Full {
                    EXPLORE_BUDGET
                } else {
                    REDUCED_BUDGET
                },
                seed: self.options.seed,
                salt: self.options.estimator_salt(platform_fp),
            };
            let fp = plan.fingerprint(priority);
            // Tier ladder: memory → durable cache → (cache-only:
            // neighbor) → in-wave coalesce → fresh exploration.
            if !self.results.contains_key(&fp) {
                if let Some(mut hit) = Plan::probe(self.explore_cache.as_mut(), &[fp]) {
                    self.results.insert(fp, hit.remove(0).guideline);
                }
            }
            if self.results.contains_key(&fp) {
                metrics.add(metric::SERVE_CACHE_HITS, 1);
                served.push((fp, ServeTier::ExploreCache));
                continue;
            }
            if p.degrade == DegradeLevel::CacheOnly {
                let (key, shape) = Self::neighbor(&plan, priority);
                // First-inserted wins ties (strict `<`), so the pick
                // is independent of map iteration order.
                let nearest = self.neighbors.get(&key).and_then(|entries| {
                    entries
                        .iter()
                        .map(|(vec, rfp)| (Self::shape_distance(&shape, vec), *rfp))
                        .reduce(|best, next| if next.0 < best.0 { next } else { best })
                });
                if let Some((_, rfp)) = nearest {
                    metrics.add(metric::SERVE_NEIGHBOR_SERVED, 1);
                    served.push((rfp, ServeTier::NearestNeighbor));
                    continue;
                }
                // Nothing to borrow: fall through to a reduced DSE so
                // the tenant still gets a guideline.
            }
            if !scheduled.insert(fp) {
                metrics.add(metric::SERVE_REQUESTS_COALESCED, 1);
                served.push((fp, ServeTier::Coalesced));
                continue;
            }
            // Only a fresh exploration needs an estimator: warm
            // requests resolve above without ever touching the pool
            // (the cache fingerprint depends on the calibration
            // recipe, not the fitted coefficients).
            let (estimator, pool_hit) = self.pool.get_or_insert_with(platform_fp, || {
                let store = self.profile_store.as_mut();
                Self::calibrate(self.options.seed, store, &mut self.calibration, &plan)
            })?;
            served.push((fp, if pool_hit { ServeTier::WarmEstimator } else { ServeTier::Cold }));
            walks.push((plan, priority, fp, estimator));
        }

        // --- Phase B: the plans' walks, in parallel ---------------
        let outputs = gnnav_par::par_map_indexed(&walks, 1, |_, (plan, priority, _, estimator)| {
            plan.walk(estimator, &[*priority])
        });

        // --- Phase C: serial commit in admission order ------------
        for ((plan, priority, fp, _), output) in walks.iter().zip(outputs) {
            let decided = output?;
            metrics.add(metric::SERVE_EXPLORATIONS, 1);
            Plan::commit(self.explore_cache.as_mut(), &[*fp], &decided)?;
            let (key, shape) = Self::neighbor(plan, *priority);
            self.neighbors.entry(key).or_default().push((shape, *fp));
            self.results.insert(*fp, decided[0].guideline.clone());
        }
        let mut responses = Vec::with_capacity(pending.len());
        for (p, &(fp, tier)) in pending.iter().zip(&served) {
            let guideline = self.results.get(&fp).expect("committed before responses");
            metrics.add(metric::SERVE_RESPONSES, 1);
            metrics.observe(
                metric::SERVE_LATENCY,
                ((journal.now_us() - p.submitted_at_us) / 1e6).max(0.0),
            );
            responses.push(NavResponse {
                seq: p.seq,
                tenant: p.request.tenant,
                tier,
                degrade: p.degrade,
                guideline: guideline.clone(),
            });
        }
        // Refill every tenant bucket: the next submit starts a full one.
        self.buckets.clear();
        metrics.add(metric::SERVE_WAVES, 1);
        if journal.is_enabled() {
            journal.span_complete(
                metric::EVENT_SERVE_WAVE,
                metric::TRACK_SERVE,
                wave_t0,
                Some(journal.now_us() - wave_t0),
                None,
                None,
                vec![
                    ("requests".into(), (responses.len() as f64).into()),
                    ("explorations".into(), (walks.len() as f64).into()),
                ],
            );
        }
        Ok(responses)
    }
}
