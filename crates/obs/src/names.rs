//! Canonical metric, event, and track names.
//!
//! Centralized so instrumentation sites, the CLI exporter, and the
//! schema tests agree on spelling. Naming scheme:
//! `<component>.<subject>[.<unit-suffix>]`, with `_s` marking seconds
//! (simulated unless the name says `wall`).
//!
//! # Catalogue
//!
//! Registry series (type / unit / emitting call site):
//!
//! | series | type | unit | emitted by |
//! |---|---|---|---|
//! | `backend.runs` | counter | runs | `RuntimeBackend::execute` |
//! | `backend.batches` | counter | batches | `RuntimeBackend::execute` |
//! | `backend.cache.hits` | counter | lookups | `RuntimeBackend::execute` |
//! | `backend.cache.misses` | counter | lookups | `RuntimeBackend::execute` |
//! | `backend.cache.evictions` | counter | rows | `RuntimeBackend::execute` |
//! | `backend.phase.sample_s` | gauge | sim s/epoch | `RuntimeBackend::execute` (last run) |
//! | `backend.phase.transfer_s` | gauge | sim s/epoch | `RuntimeBackend::execute` (last run) |
//! | `backend.phase.replace_s` | gauge | sim s/epoch | `RuntimeBackend::execute` (last run) |
//! | `backend.phase.compute_s` | gauge | sim s/epoch | `RuntimeBackend::execute` (last run) |
//! | `backend.epoch_time_s` | gauge | sim s/epoch | `RuntimeBackend::execute` (last run) |
//! | `backend.epoch.sim_s` | histogram | sim s | `RuntimeBackend::execute`, one obs/epoch |
//! | `backend.epoch.hit_rate` | histogram | ratio | `RuntimeBackend::execute`, one obs/epoch |
//! | `backend.peak_mem_bytes` | gauge | bytes | `RuntimeBackend::execute` (last run) |
//! | `backend.wall.sample_s` | gauge | wall s | `RuntimeBackend::execute` (last run) |
//! | `backend.wall.train_s` | gauge | wall s | `RuntimeBackend::execute` (last run) |
//! | `backend.execute[.epoch]` | histogram | wall s | span in `RuntimeBackend::execute` |
//! | `backend.loss.last` / `.mean` | gauge | loss | `RuntimeBackend::execute` (last run) |
//! | `profiler.records` | counter | records | `Profiler::profile` |
//! | `profiler.replayed` | counter | records | `Profiler::profile_through`, given traces |
//! | `profiler.failed_configs` | counter | configs | `Profiler::profile` |
//! | `profiler.records_per_s` | gauge | rec/wall s | `Profiler::profile` (last sweep) |
//! | `profiler.thread_utilization` | gauge | ratio | `Profiler::profile` (last sweep) |
//! | `profiler.threads` | gauge | threads | `Profiler::profile` (last sweep) |
//! | `profiler.sweep` | histogram | wall s | span in `Profiler::profile` |
//! | `profiler.sweep.config[.backend.execute[.epoch]]` | histogram | wall s | `span_under` on sweep workers |
//! | `estimator.fits` / `.predictions` | counter | calls | `GrayBoxEstimator` (an exploration's predictions are added once per walk, with the `explorer.*` series, by `Explorer`'s walk) |
//! | `estimator.fit_wall_s` | gauge | wall s | `GrayBoxEstimator::fit` |
//! | `estimator.mape.{time,memory,accuracy}` | gauge | ratio | `GrayBoxEstimator::fit` |
//! | `explorer.runs` | counter | walks | one per walk of the design space: `Explorer::explore` / `explore_from`, and one — not four — per `Explorer::explore_all` |
//! | `explorer.candidates.evaluated` | counter | candidates | `Explorer`'s walk, once per walk |
//! | `explorer.candidates.rejected` | counter | candidates | `Explorer`'s walk, once per walk |
//! | `explorer.subtrees.pruned` | counter | subtrees | `Explorer`'s walk, once per walk |
//! | `bench.constrained.{subtrees_pruned,candidates_rejected,fallbacks}` | counter | subtrees / candidates / guidelines | `perf_baseline`: `explorer.{subtrees.pruned,candidates.rejected,fallbacks}` of one explore capped at the lower quartile of the unconstrained run's time and at 0.9 × the largest cache's Eq. 10 memory bound |
//! | `explorer.front.size` | gauge | candidates | `Explorer::explore` |
//! | `explorer.explore` | histogram | wall s | span in `Explorer::explore` |
//! | `explorer.decide` | histogram | wall s | `Explorer::explore` decision step (flat, not span-nested) |
//! | `explorer.cache.hits` | counter | lookups | `ExploreCache::lookup` |
//! | `explorer.cache.misses` | counter | lookups | `ExploreCache::lookup` |
//! | `explorer.cache.inserts` | counter | results | `ExploreCache::insert`: results made durable, base and decision frames alike (4 per cold `Navigator::generate_all` over 1 walk) |
//! | `faults.injected` | counter | faults | `FaultInjector::inject` |
//! | `faults.injected.<kind>` | counter | faults | `FaultInjector::inject` |
//! | `backend.retries` | counter | retries | `RuntimeBackend::execute` |
//! | `backend.degradations` | counter | ladder steps | `RuntimeBackend::execute` |
//! | `backend.nan_loss_skips` | counter | steps | `RuntimeBackend::execute` |
//! | `profiler.retries` | counter | retries | `Profiler::profile` |
//! | `profiler.quarantined` | counter | configs | `Profiler::profile` |
//! | `explorer.fallbacks` | counter | guidelines | `Explorer::explore` |
//! | `explorer.predictions.nonfinite` | counter | candidates | `Explorer`'s walk |
//! | `nn.matmul.calls` | counter | kernel calls | `RuntimeBackend::execute` |
//! | `nn.matmul.flops` | counter | flops | `RuntimeBackend::execute` |
//! | `nn.matmul_gflops_wall` | gauge | GFLOP/wall s | `RuntimeBackend::execute` (last run) |
//! | `nn.matmul_gflops_floor` | counter | GFLOP/s | `perf_baseline` (the committed throughput floor) |
//! | `nn.kernel.par_tasks` | counter | chunks | `RuntimeBackend::execute` |
//! | `nn.kernel.par_regions` | counter | regions | `RuntimeBackend::execute` |
//! | `par.pool_threads` | gauge | threads | `RuntimeBackend::execute` (last run) |
//! | `adapt.drift_score` | gauge | ratio | `AdaptiveRunner::run`, one/epoch |
//! | `adapt.switches` | counter | switches | `AdaptiveRunner::run`, one/switch |
//! | `adapt.reexplore_ms` | gauge | wall ms | `AdaptiveRunner::run` (last re-exploration) |
//! | `alloc.allocs` | gauge | allocations | `RuntimeBackend::execute` (last run, tracking on) |
//! | `alloc.frees` | gauge | frees | `RuntimeBackend::execute` (last run, tracking on) |
//! | `alloc.alloc_bytes` | gauge | bytes | `RuntimeBackend::execute` (last run, tracking on) |
//! | `alloc.peak_bytes` | gauge | bytes | `RuntimeBackend::execute` (last run, tracking on) |
//! | `alloc.steady_state_allocs_per_epoch` | counter | allocations | `RuntimeBackend::execute`; gated at 0 in CI |
//! | `store.wal.appends` | counter | records | `Wal::append` |
//! | `store.wal.replayed` | counter | records | `Wal::open` recovery scan |
//! | `store.wal.torn_truncated` | counter | tails | `Wal::open` recovery scan |
//! | `store.wal.crc_failures` | counter | records | `Wal::open` recovery scan |
//! | `store.checkpoint.writes` | counter | checkpoints | `write_checkpoint` |
//! | `store.checkpoint.resumes` | counter | checkpoints | `CheckpointDir::load_latest` (accepted) |
//! | `store.checkpoint.rejected` | counter | checkpoints | `read_checkpoint` (damaged), `CheckpointDir::load_latest` (declined) |
//! | `store.checkpoint.bytes` | gauge | bytes | durable drivers (last write) |
//! | `serve.requests.admitted` | counter | requests | `NavService::submit` |
//! | `serve.requests.rejected` | counter | requests | `NavService::submit` |
//! | `serve.requests.degraded` | counter | requests | `NavService::submit` |
//! | `serve.requests.coalesced` | counter | requests | `NavService::drain` |
//! | `serve.responses` | counter | responses | `NavService::drain` |
//! | `serve.explorations` | counter | DSE runs | `NavService::drain` |
//! | `serve.waves` | counter | waves | `NavService::drain` |
//! | `serve.cache.hits` | counter | requests | `NavService::drain` (memory or `ExploreCache`) |
//! | `serve.neighbor.served` | counter | requests | `NavService::drain` (cache-only ladder rung) |
//! | `serve.pool.hits` | counter | lookups | `EstimatorPool::get_or_insert_with` |
//! | `serve.pool.misses` | counter | lookups | `EstimatorPool::get_or_insert_with` |
//! | `serve.pool.evictions` | counter | estimators | `EstimatorPool::get_or_insert_with` |
//! | `serve.queue.depth` | gauge | requests | `NavService` submit/drain |
//! | `serve.latency` | histogram | wall s | `NavService::drain`, one obs/response |
//!
//! Journal events (name @ track / kind / emitting call site):
//!
//! | event | track | kind | emitted by |
//! |---|---|---|---|
//! | `epoch` | `backend` | span (wall + sim) | `RuntimeBackend::execute`, one/epoch |
//! | `sample` / `transfer` / `replace` / `compute` | `phase.<name>` | span (sim only) | `RuntimeBackend::execute`, one/epoch |
//! | `recovery` | `phase.recovery` | span (sim only) | `RuntimeBackend::execute`, one/epoch with recovery time |
//! | `migration` | `phase.migration` | span (sim only) | `ExecutionSession::switch_config`, one/switch |
//! | `alloc` | `backend` | instant | `RuntimeBackend::execute`, one/run with tracking on |
//! | `backend.epoch.hit_rate` | `backend` | counter sample | `RuntimeBackend::execute`, one/epoch |
//! | `profile.config` | `profiler.worker-<i>` | span (wall) | `Profiler::profile`, one/config |
//! | `candidate` | `explorer` | instant | `Explorer`'s walk, one/evaluation |
//! | `prune` | `explorer` | instant | `Explorer`'s walk, one/pruned subtree |
//! | `guideline` | `explorer` | instant | `Explorer::explore`, selected config |
//! | `explore` / `decide` | `explorer` | span (wall) | `Explorer::explore`, one/run |
//! | `explore.cache` | `explorer` | instant | `ExploreCache` lookup/insert |
//! | `fault` | `faults` | instant | `FaultInjector::inject`, one/injection |
//! | `recovery` | `backend` | instant | `RuntimeBackend::execute`, one/recovery action |
//! | `kernels` | `backend` | instant | `RuntimeBackend::execute`, one/run |
//! | `drift` | `adapt` | instant | `AdaptiveRunner::run`, one/epoch with drift verdict |
//! | `switch` | `adapt` | instant | `AdaptiveRunner::run`, one/guideline switch |
//! | `wal.recovery` | `store` | instant | `Wal::open`, when the scan found damage |
//! | `checkpoint` | `store` | instant | `write_checkpoint`, one/write |
//! | `resume` | `store` | instant | `CheckpointDir::load_latest`, one/accepted checkpoint |
//! | `kill` | `store` | instant | durable drivers, one/ProcessKill fired |
//! | `serve.admit` | `serve` | instant | `NavService::submit`, one/admitted request |
//! | `serve.reject` | `serve` | instant | `NavService::submit`, one/rejected request |
//! | `serve.wave` | `serve` | span (wall) | `NavService::drain`, one/wave |

// --- runtime backend -------------------------------------------------

/// Backend executions completed.
pub const BACKEND_RUNS: &str = "backend.runs";
/// Mini-batches processed (all epochs, all runs).
pub const BACKEND_BATCHES: &str = "backend.batches";
/// Feature-cache lookup hits.
pub const CACHE_HITS: &str = "backend.cache.hits";
/// Feature-cache lookup misses.
pub const CACHE_MISSES: &str = "backend.cache.misses";
/// Cache rows evicted/replaced by updates.
pub const CACHE_EVICTIONS: &str = "backend.cache.evictions";
/// Per-epoch simulated host sampling time (gauge, last run).
pub const PHASE_SAMPLE: &str = "backend.phase.sample_s";
/// Per-epoch simulated host→device transfer time.
pub const PHASE_TRANSFER: &str = "backend.phase.transfer_s";
/// Per-epoch simulated cache-replacement time.
pub const PHASE_REPLACE: &str = "backend.phase.replace_s";
/// Per-epoch simulated device compute time.
pub const PHASE_COMPUTE: &str = "backend.phase.compute_s";
/// Per-epoch simulated epoch time (gauge, last run).
pub const EPOCH_TIME: &str = "backend.epoch_time_s";
/// Simulated seconds per epoch (histogram, one observation per epoch).
pub const EPOCH_SIM: &str = "backend.epoch.sim_s";
/// Cache hit rate per epoch (histogram, one observation per epoch).
pub const EPOCH_HIT_RATE: &str = "backend.epoch.hit_rate";
/// Estimated peak device memory of the last run (gauge, bytes).
pub const PEAK_MEM_BYTES: &str = "backend.peak_mem_bytes";
/// Wall time spent in host-side sampling (gauge, last run).
pub const WALL_SAMPLE: &str = "backend.wall.sample_s";
/// Wall time spent in training steps (gauge, last run).
pub const WALL_TRAIN: &str = "backend.wall.train_s";
/// Full `RuntimeBackend::execute` wall time (histogram, seconds).
pub const EXECUTE_WALL: &str = "backend.execute";
/// Last training loss of the most recent run (gauge).
pub const LOSS_LAST: &str = "backend.loss.last";
/// Mean training loss of the most recent run (gauge).
pub const LOSS_MEAN: &str = "backend.loss.mean";
/// Bounded retries of transient faults (sampling + memory claims).
pub const BACKEND_RETRIES: &str = "backend.retries";
/// Graceful-degradation ladder steps taken under persistent OOM.
pub const BACKEND_DEGRADATIONS: &str = "backend.degradations";
/// Training steps skipped by the NaN-loss guard.
pub const BACKEND_NAN_SKIPS: &str = "backend.nan_loss_skips";

// --- gray-box profiler ----------------------------------------------

/// Ground-truth records collected by profiling sweeps.
pub const PROFILER_RECORDS: &str = "profiler.records";
/// Records assembled by re-charging an earlier execution's trace for
/// this platform instead of executing (counted in `profiler.records`
/// too). Only a sweep that was handed traces touches it.
pub const PROFILER_REPLAYED: &str = "profiler.replayed";
/// Configurations that failed to execute during sweeps.
pub const PROFILER_FAILED: &str = "profiler.failed_configs";
/// Records per wall second of the last sweep (gauge).
pub const PROFILER_RECORDS_PER_S: &str = "profiler.records_per_s";
/// Mean worker utilization of the last sweep in [0, 1] (gauge).
pub const PROFILER_UTILIZATION: &str = "profiler.thread_utilization";
/// Worker threads used by the last sweep (gauge).
pub const PROFILER_THREADS: &str = "profiler.threads";
/// Full profiling-sweep wall time (histogram, seconds).
pub const PROFILER_SWEEP_WALL: &str = "profiler.sweep";
/// Per-config retries performed by sweep workers.
pub const PROFILER_RETRIES: &str = "profiler.retries";
/// Configurations quarantined after exhausting their retry budget.
pub const PROFILER_QUARANTINED: &str = "profiler.quarantined";

// --- gray-box estimator ---------------------------------------------

/// `GrayBoxEstimator::fit` invocations.
pub const ESTIMATOR_FITS: &str = "estimator.fits";
/// Wall seconds of the last fit (gauge).
pub const ESTIMATOR_FIT_WALL: &str = "estimator.fit_wall_s";
/// Predictions served; a batch or an exploration adds its count once.
pub const ESTIMATOR_PREDICTIONS: &str = "estimator.predictions";
/// In-sample MAPE of epoch-time prediction after the last fit.
pub const ESTIMATOR_MAPE_TIME: &str = "estimator.mape.time";
/// In-sample MAPE of peak-memory prediction after the last fit.
pub const ESTIMATOR_MAPE_MEMORY: &str = "estimator.mape.memory";
/// In-sample MAPE of accuracy prediction after the last fit (absent
/// in timing-only mode).
pub const ESTIMATOR_MAPE_ACCURACY: &str = "estimator.mape.accuracy";

// --- explorer --------------------------------------------------------

/// Walks of the design space completed (one per `explore`, one per
/// `explore_all` whatever the number of priorities decided over it).
pub const EXPLORER_RUNS: &str = "explorer.runs";
/// Constraint-satisfying candidates evaluated by the search.
pub const EXPLORER_EVALUATED: &str = "explorer.candidates.evaluated";
/// Candidates rejected by runtime constraints.
pub const EXPLORER_REJECTED: &str = "explorer.candidates.rejected";
/// Subtrees pruned by the DFS bound.
pub const EXPLORER_PRUNED: &str = "explorer.subtrees.pruned";
/// Size of the estimated Pareto front of the last exploration (gauge).
pub const EXPLORER_FRONT_SIZE: &str = "explorer.front.size";
/// Full exploration wall time (histogram, seconds).
pub const EXPLORER_EXPLORE_WALL: &str = "explorer.explore";
/// Decision-maker wall time (histogram, seconds; the journal carries
/// the matching monotonic span on the explorer track).
pub const EXPLORER_DECIDE_WALL: &str = "explorer.decide";
/// Exploration-cache lookups answered from the cache.
pub const EXPLORER_CACHE_HITS: &str = "explorer.cache.hits";
/// Exploration-cache lookups that missed.
pub const EXPLORER_CACHE_MISSES: &str = "explorer.cache.misses";
/// Exploration results durably appended to the cache, as base or
/// decision frames.
pub const EXPLORER_CACHE_INSERTS: &str = "explorer.cache.inserts";
/// Explorations that fell back to a nearest-feasible guideline.
pub const EXPLORER_FALLBACKS: &str = "explorer.fallbacks";
/// `explorer.subtrees.pruned` of `perf_baseline`'s constrained probe,
/// measured in its own metrics window (the explorer series proper stay
/// those of the unconstrained run).
pub const BENCH_CONSTRAINED_PRUNED: &str = "bench.constrained.subtrees_pruned";
/// `explorer.candidates.rejected` of `perf_baseline`'s constrained probe.
pub const BENCH_CONSTRAINED_REJECTED: &str = "bench.constrained.candidates_rejected";
/// `explorer.fallbacks` of `perf_baseline`'s constrained probe.
pub const BENCH_CONSTRAINED_FALLBACKS: &str = "bench.constrained.fallbacks";
/// Candidate predictions rejected for non-finite components.
pub const EXPLORER_NONFINITE: &str = "explorer.predictions.nonfinite";

// --- nn kernels and thread pool ---------------------------------------

/// Dense matmul-family kernel invocations (all three variants).
pub const NN_MATMUL_CALLS: &str = "nn.matmul.calls";
/// Floating-point operations performed by the matmul kernels.
pub const NN_MATMUL_FLOPS: &str = "nn.matmul.flops";
/// Matmul throughput of the last run in GFLOP per wall second (gauge;
/// the `wall` suffix keeps it out of deterministic baselines).
pub const NN_MATMUL_GFLOPS: &str = "nn.matmul_gflops_wall";
/// The committed single-thread matmul throughput floor in GFLOP/s
/// (counter, recorded as a whole number). Deliberately *not* a wall
/// series: baking the floor into `BENCH_nn.json` lets
/// `gnnavigate metrics-diff` flag any PR that silently lowers the
/// kernel performance bar, while the measured-vs-floor assertion
/// itself runs in the `gflops_sweep` bench binary.
pub const NN_MATMUL_GFLOPS_FLOOR: &str = "nn.matmul_gflops_floor";
/// Chunks dispatched by the gnnav-par pool inside nn kernels.
pub const NN_KERNEL_PAR_TASKS: &str = "nn.kernel.par_tasks";
/// Parallel regions entered by the gnnav-par pool inside nn kernels.
pub const NN_KERNEL_PAR_REGIONS: &str = "nn.kernel.par_regions";
/// Effective gnnav-par worker budget of the last run (gauge).
pub const PAR_POOL_THREADS: &str = "par.pool_threads";

// --- adaptive training ------------------------------------------------

/// EWMA drift score of the last adaptive epoch (gauge; relative
/// deviation of observed vs predicted per-epoch metrics).
pub const ADAPT_DRIFT_SCORE: &str = "adapt.drift_score";
/// Mid-training guideline switches performed by the adaptive layer.
pub const ADAPT_SWITCHES: &str = "adapt.switches";
/// Wall milliseconds of the last incremental re-exploration (gauge;
/// refit + explore; the `wall`-free name is still excluded from
/// deterministic baselines because adaptive runs never feed them).
pub const ADAPT_REEXPLORE_MS: &str = "adapt.reexplore_ms";

// --- allocation telemetry ---------------------------------------------

/// Heap allocations observed during the last run while tracking was
/// on (gauge, delta over the run).
pub const ALLOC_ALLOCS: &str = "alloc.allocs";
/// Heap frees observed during the last run (gauge, delta).
pub const ALLOC_FREES: &str = "alloc.frees";
/// Bytes allocated during the last run (gauge, delta).
pub const ALLOC_BYTES: &str = "alloc.alloc_bytes";
/// High-water mark of live tracked bytes (gauge, absolute).
pub const ALLOC_PEAK_BYTES: &str = "alloc.peak_bytes";
/// Allocations charged to the per-batch training hot path per
/// steady-state (post-warmup) epoch, rounded up (counter). Zero on a
/// healthy build; pinned to zero in the committed perf baselines so
/// any steady-state allocation regression fails `metrics-diff`.
pub const ALLOC_STEADY_PER_EPOCH: &str = "alloc.steady_state_allocs_per_epoch";

// --- fault injection --------------------------------------------------

/// Total faults injected by the active `FaultPlan`.
pub const FAULTS_INJECTED: &str = "faults.injected";
/// Per-kind injected-fault counter prefix (`faults.injected.<kind>`).
pub const FAULTS_INJECTED_PREFIX: &str = "faults.injected.";

// --- durability store ------------------------------------------------

/// WAL records appended durably.
pub const STORE_WAL_APPENDS: &str = "store.wal.appends";
/// WAL records replayed intact by the recovery scan.
pub const STORE_WAL_REPLAYED: &str = "store.wal.replayed";
/// Torn WAL tails truncated by the recovery scan.
pub const STORE_WAL_TORN_TRUNCATED: &str = "store.wal.torn_truncated";
/// WAL records dropped on CRC failure by the recovery scan.
pub const STORE_WAL_CRC_FAILURES: &str = "store.wal.crc_failures";
/// Checkpoint files written atomically.
pub const STORE_CHECKPOINT_WRITES: &str = "store.checkpoint.writes";
/// Checkpoints a resume restored from: verified and accepted.
pub const STORE_CHECKPOINT_RESUMES: &str = "store.checkpoint.resumes";
/// Checkpoint files rejected (bad magic, version, or checksum, or
/// declined by the resuming run).
pub const STORE_CHECKPOINT_REJECTED: &str = "store.checkpoint.rejected";
/// Encoded size of the last checkpoint payload (gauge, bytes) — the
/// per-epoch durability cost pinned in the perf baselines.
pub const STORE_CHECKPOINT_BYTES: &str = "store.checkpoint.bytes";

// --- navigation service ----------------------------------------------

/// Requests admitted past the bounded queue and the tenant budget.
pub const SERVE_REQUESTS_ADMITTED: &str = "serve.requests.admitted";
/// Requests rejected by admission control (queue full or tenant
/// budget exhausted).
pub const SERVE_REQUESTS_REJECTED: &str = "serve.requests.rejected";
/// Admitted requests whose exploration budget was degraded by queue
/// pressure (reduced budget or cache-only).
pub const SERVE_REQUESTS_DEGRADED: &str = "serve.requests.degraded";
/// Admitted requests coalesced onto another in-wave exploration with
/// an identical fingerprint.
pub const SERVE_REQUESTS_COALESCED: &str = "serve.requests.coalesced";
/// Responses committed in request order.
pub const SERVE_RESPONSES: &str = "serve.responses";
/// Fresh design-space explorations executed by waves.
pub const SERVE_EXPLORATIONS: &str = "serve.explorations";
/// Wave drains completed.
pub const SERVE_WAVES: &str = "serve.waves";
/// Requests served from a prior exploration result (in-memory or the
/// durable `ExploreCache`) without running the DSE.
pub const SERVE_CACHE_HITS: &str = "serve.cache.hits";
/// Cache-only-degraded requests served by the nearest-neighbor index.
pub const SERVE_NEIGHBOR_SERVED: &str = "serve.neighbor.served";
/// Estimator-pool lookups that found a warm fit for the platform.
pub const SERVE_POOL_HITS: &str = "serve.pool.hits";
/// Estimator-pool lookups that had to calibrate a fresh fit.
pub const SERVE_POOL_MISSES: &str = "serve.pool.misses";
/// Warm estimators evicted by the pool's LRU bound.
pub const SERVE_POOL_EVICTIONS: &str = "serve.pool.evictions";
/// Pending requests in the admission queue (gauge).
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue.depth";
/// Submit-to-commit latency per response (histogram, wall seconds;
/// excluded from deterministic baselines like every wall series).
pub const SERVE_LATENCY: &str = "serve.latency";

// --- journal tracks and events ---------------------------------------

/// Journal track for per-epoch backend events.
pub const TRACK_BACKEND: &str = "backend";
/// Journal track prefix for per-phase simulated spans
/// (`phase.sample`, `phase.transfer`, ...).
pub const TRACK_PHASE_PREFIX: &str = "phase.";
/// Journal track prefix for profiler worker threads
/// (`profiler.worker-0`, ...).
pub const TRACK_PROFILER_WORKER_PREFIX: &str = "profiler.worker-";
/// Journal track for explorer decision events.
pub const TRACK_EXPLORER: &str = "explorer";
/// Journal track for fault injections.
pub const TRACK_FAULTS: &str = "faults";
/// Journal track for adaptive-training drift and switch events.
pub const TRACK_ADAPT: &str = "adapt";
/// Journal track for durability events (WAL recovery, checkpoints,
/// resumes, simulated kills).
pub const TRACK_STORE: &str = "store";
/// Journal track for navigation-service admission and wave events.
pub const TRACK_SERVE: &str = "serve";

/// Per-epoch span event on [`TRACK_BACKEND`] (wall + sim clocks).
pub const EVENT_EPOCH: &str = "epoch";
/// Per-config span event on a profiler worker track.
pub const EVENT_PROFILE_CONFIG: &str = "profile.config";
/// Per-candidate audit instant on [`TRACK_EXPLORER`].
pub const EVENT_CANDIDATE: &str = "candidate";
/// Pruned-subtree audit instant on [`TRACK_EXPLORER`].
pub const EVENT_PRUNE: &str = "prune";
/// Selected-guideline audit instant on [`TRACK_EXPLORER`].
pub const EVENT_GUIDELINE: &str = "guideline";
/// Full-exploration monotonic span on [`TRACK_EXPLORER`].
pub const EVENT_EXPLORE: &str = "explore";
/// Decision-maker monotonic span on [`TRACK_EXPLORER`].
pub const EVENT_DECIDE: &str = "decide";
/// Exploration-cache lookup/insert instant on [`TRACK_EXPLORER`].
pub const EVENT_EXPLORE_CACHE: &str = "explore.cache";
/// Per-injection instant on [`TRACK_FAULTS`].
pub const EVENT_FAULT: &str = "fault";
/// Per-recovery-action instant on [`TRACK_BACKEND`].
pub const EVENT_RECOVERY: &str = "recovery";
/// Per-run kernel-stats instant on [`TRACK_BACKEND`] (matmul calls,
/// flops, parallel chunks).
pub const EVENT_KERNELS: &str = "kernels";
/// Per-epoch drift-verdict instant on [`TRACK_ADAPT`].
pub const EVENT_DRIFT: &str = "drift";
/// Per-switch instant on [`TRACK_ADAPT`].
pub const EVENT_SWITCH: &str = "switch";
/// Sim-time guideline-migration span on the `phase.migration` track,
/// one per `switch_config`.
pub const EVENT_MIGRATION: &str = "migration";
/// Per-run allocator-telemetry instant on [`TRACK_BACKEND`] (allocs,
/// frees, bytes, peak; emitted when tracking is on).
pub const EVENT_ALLOC: &str = "alloc";
/// WAL-recovery instant on [`TRACK_STORE`] (emitted when the scan
/// found damage).
pub const EVENT_WAL_RECOVERY: &str = "wal.recovery";
/// Checkpoint-write instant on [`TRACK_STORE`].
pub const EVENT_CHECKPOINT: &str = "checkpoint";
/// Accepted-checkpoint (resume) instant on [`TRACK_STORE`].
pub const EVENT_RESUME: &str = "resume";
/// Simulated process-kill instant on [`TRACK_STORE`], one per
/// `ProcessKill` fault fired by a durable driver.
pub const EVENT_KILL: &str = "kill";
/// Per-admitted-request instant on [`TRACK_SERVE`].
pub const EVENT_SERVE_ADMIT: &str = "serve.admit";
/// Per-rejected-request instant on [`TRACK_SERVE`] — rejections emit
/// only this instant, never an open span.
pub const EVENT_SERVE_REJECT: &str = "serve.reject";
/// Per-wave monotonic span on [`TRACK_SERVE`].
pub const EVENT_SERVE_WAVE: &str = "serve.wave";
