//! Ground-truth profiling for estimator training.
//!
//! The paper trains its estimator "on the ground-truth performance
//! covering the whole design space", augmented with randomly generated
//! power-law graphs (§4.1). [`Profiler`] executes sampled
//! configurations on the runtime backend and records every quantity
//! the gray-box model fits against.

use crate::context::Context;
use crate::store::{profile_fingerprint, ProfileStore};
use crate::traces::ExecutionTraces;
use gnnav_faults::{FaultInjector, FaultKind};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_obs::names as metric;
use gnnav_runtime::{
    ExecutionOptions, ExecutionReport, ExecutionTrace, Perf, RuntimeBackend, RuntimeError,
    TrainingConfig,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Upper bound on how long an injected straggler may actually sleep,
/// so chaos sweeps stay fast regardless of the plan's magnitude.
pub const STRAGGLER_SLEEP_CAP: Duration = Duration::from_millis(250);

/// One profiled run: context plus every measured quantity.
#[derive(Debug, Clone)]
pub struct ProfileRecord {
    /// Which dataset produced the record.
    pub dataset_id: DatasetId,
    /// The candidate context (config ⊕ dataset stats ⊕ platform).
    pub context: Context,
    /// Measured epoch time in seconds.
    pub epoch_time_s: f64,
    /// Measured peak device memory in bytes.
    pub mem_bytes: f64,
    /// Measured final test accuracy.
    pub accuracy: f64,
    /// Measured cumulative cache hit rate.
    pub hit_rate: f64,
    /// Measured mean mini-batch size `|V_i|`.
    pub avg_batch_nodes: f64,
    /// Measured mean mini-batch edge count.
    pub avg_batch_edges: f64,
    /// Per-iteration phase times in seconds (epoch totals divided by
    /// `n_iter`): sample, transfer, replace, compute.
    pub phase_s: [f64; 4],
    /// Iterations per epoch.
    pub n_iter: f64,
}

impl ProfileRecord {
    /// The record of measuring `perf` for `context` on `dataset_id`.
    fn measured(dataset_id: DatasetId, context: Context, perf: Perf) -> Self {
        let n_iter = perf.n_iter.max(1) as f64;
        ProfileRecord {
            dataset_id,
            context,
            epoch_time_s: perf.epoch_time.as_secs(),
            mem_bytes: perf.peak_mem_bytes as f64,
            accuracy: perf.accuracy,
            hit_rate: perf.hit_rate,
            avg_batch_nodes: perf.avg_batch_nodes,
            avg_batch_edges: perf.avg_batch_edges,
            phase_s: [
                perf.phases.sample.as_secs() / n_iter,
                perf.phases.transfer.as_secs() / n_iter,
                perf.phases.replace.as_secs() / n_iter,
                perf.phases.compute.as_secs() / n_iter,
            ],
            n_iter,
        }
    }
}

/// A collection of profile records.
#[derive(Debug, Clone, Default)]
pub struct ProfileDb {
    records: Vec<ProfileRecord>,
}

impl ProfileDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        ProfileDb::default()
    }

    /// Adds one record.
    pub fn push(&mut self, record: ProfileRecord) {
        self.records.push(record);
    }

    /// All records.
    pub fn records(&self) -> &[ProfileRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Splits into (records NOT from `held_out`, records from
    /// `held_out`) — the paper's leave-one-dataset-out protocol
    /// ("established upon the performance across all the datasets
    /// available, except the one waiting for estimation").
    pub fn leave_one_out(&self, held_out: DatasetId) -> (ProfileDb, ProfileDb) {
        let (hold, keep): (Vec<ProfileRecord>, Vec<ProfileRecord>) =
            self.records.iter().cloned().partition(|r| r.dataset_id == held_out);
        (ProfileDb { records: keep }, ProfileDb { records: hold })
    }

    /// Merges another database into this one.
    pub fn merge(&mut self, other: ProfileDb) {
        self.records.extend(other.records);
    }

    /// Merges `records` into this database with an integral fit
    /// weight: each record is inserted `weight` times, so a ridge or
    /// forest fit over the result sees it `weight`-fold. Used by the
    /// adaptive layer's warm-start refit, where a handful of observed
    /// epochs must pull coefficients against a much larger sweep
    /// database. `weight == 0` is a no-op.
    pub fn merge_weighted(&mut self, records: &[ProfileRecord], weight: usize) {
        self.records.reserve(records.len() * weight);
        for _ in 0..weight {
            self.records.extend(records.iter().cloned());
        }
    }
}

impl Extend<ProfileRecord> for ProfileDb {
    fn extend<I: IntoIterator<Item = ProfileRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

impl FromIterator<ProfileRecord> for ProfileDb {
    fn from_iter<I: IntoIterator<Item = ProfileRecord>>(iter: I) -> Self {
        ProfileDb { records: iter.into_iter().collect() }
    }
}

/// One configuration that exhausted its retry budget during a sweep
/// and was quarantined (excluded from the database).
#[derive(Debug, Clone)]
pub struct ConfigFailure {
    /// Index of the failed configuration in the sweep's input slice.
    pub config_index: usize,
    /// Summary of the failed configuration.
    pub config: String,
    /// Rendered final error.
    pub error: String,
    /// Attempts made (1 + retries).
    pub attempts: u32,
    /// Whether the final attempt was classified as a timeout.
    pub timed_out: bool,
}

/// Partial-sweep result: everything that profiled successfully plus
/// the quarantined failures — one bad config no longer kills the run.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Records of every configuration that executed.
    pub db: ProfileDb,
    /// Configurations that exhausted their retries, by sweep order.
    pub failures: Vec<ConfigFailure>,
}

impl SweepReport {
    /// Indices of the quarantined configurations.
    pub fn quarantined(&self) -> Vec<usize> {
        self.failures.iter().map(|f| f.config_index).collect()
    }

    /// Whether every configuration produced a record.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// What one executed configuration of a sweep left: its index in the
/// sweep's input, its record and, when the execution was clean, its
/// platform-free trace.
type Swept = (usize, ProfileRecord, Option<ExecutionTrace>);

/// Retries granted to a configuration that failed to execute, before
/// it is quarantined.
const CONFIG_RETRIES: u32 = 1;

/// Executes configurations on the backend and records ground truth.
#[derive(Debug, Clone)]
pub struct Profiler {
    backend: RuntimeBackend,
    opts: ExecutionOptions,
    /// Number of worker threads for the sweep.
    threads: usize,
    /// Post-hoc per-config wall-time limit: an execution that comes
    /// back slower than this is treated as failed and retried.
    config_timeout: Option<Duration>,
}

impl Profiler {
    /// Creates a profiler running each configuration under `opts`.
    pub fn new(backend: RuntimeBackend, opts: ExecutionOptions) -> Self {
        let threads = std::thread::available_parallelism().map_or(4, |n| n.get()).min(16);
        Profiler { backend, opts, threads, config_timeout: None }
    }

    /// Overrides the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one thread required");
        self.threads = threads;
        self
    }

    /// Sets a per-config wall-time limit. Execution is synchronous,
    /// so the limit is enforced post-hoc: a config whose run exceeds
    /// it is discarded, retried, and eventually quarantined.
    pub fn with_config_timeout(mut self, timeout: Duration) -> Self {
        self.config_timeout = Some(timeout);
        self
    }

    /// Profiles every configuration on `dataset`, in parallel.
    ///
    /// Configurations that fail to execute (e.g. out-of-memory on the
    /// simulated device) are skipped — exactly like infeasible points
    /// in a real profiling campaign.
    ///
    /// # Errors
    ///
    /// Returns an error only if *every* configuration failed, which
    /// indicates a systematic problem rather than infeasible points.
    pub fn profile(
        &self,
        dataset: &Dataset,
        configs: &[TrainingConfig],
    ) -> Result<ProfileDb, RuntimeError> {
        self.profile_through(None, None, dataset, configs)
    }

    /// [`profile`](Self::profile) through what earlier sweeps left, in
    /// the order *store hit → trace hit, re-charged → execute*.
    ///
    /// Configs the durable `store` already covers are read back
    /// instead of executed and fresh records are appended. Of the
    /// rest, a config with a clean trace in `traces` that this
    /// platform could have run unchanged is re-charged
    /// ([`ExecutionTrace::recharge`]) instead of executed, and every
    /// clean execution leaves its trace there for the next platform.
    /// The database comes back in config order whichever tier answered
    /// and is the byte-identical database of a sweep that executed
    /// everything. With neither this is `profile`.
    ///
    /// # Errors
    ///
    /// As [`profile`](Self::profile), plus [`RuntimeError::Store`] when
    /// an append fails.
    pub fn profile_through(
        &self,
        store: Option<&mut ProfileStore>,
        traces: Option<&mut ExecutionTraces>,
        dataset: &Dataset,
        configs: &[TrainingConfig],
    ) -> Result<ProfileDb, RuntimeError> {
        let db = match store {
            None => self.profile_replaying(traces, dataset, configs),
            Some(store) => {
                let platform = self.backend.platform();
                let fps: Vec<u64> =
                    configs.iter().map(|c| profile_fingerprint(dataset, platform, c)).collect();
                let uncovered: Vec<TrainingConfig> = configs
                    .iter()
                    .zip(&fps)
                    .filter(|(_, fp)| !store.contains(**fp))
                    .map(|(c, _)| c.clone())
                    .collect();
                if !uncovered.is_empty() {
                    for record in self.profile_replaying(traces, dataset, &uncovered).records() {
                        store.insert(record)?;
                    }
                }
                // A position the store still lacks failed to execute:
                // skipped, exactly as the store-less sweep skips it.
                fps.iter().filter_map(|fp| store.get(*fp).cloned()).collect()
            }
        };
        if db.is_empty() && !configs.is_empty() {
            return Err(RuntimeError::InvalidConfig(
                "every profiled configuration failed to execute".into(),
            ));
        }
        Ok(db)
    }

    /// The platform-free tier of [`profile_through`](Self::profile_through):
    /// configs whose trace re-charges for this platform become records
    /// without executing, the rest go through one sweep and leave
    /// their traces. Traces are read before the worker loop and
    /// written after it, so the workers share nothing new. Records
    /// come back in config order, failed configs skipped.
    fn profile_replaying(
        &self,
        traces: Option<&mut ExecutionTraces>,
        dataset: &Dataset,
        configs: &[TrainingConfig],
    ) -> ProfileDb {
        let Some(traces) = traces else {
            return self.profile_with_report(dataset, configs).db;
        };
        let platform = self.backend.platform();
        let mut keys = Vec::with_capacity(configs.len());
        let mut slots: Vec<Option<ProfileRecord>> = Vec::with_capacity(configs.len());
        for config in configs {
            let ctx = Context::new(dataset, platform, config.clone());
            let key = ExecutionTraces::key(dataset.id(), &ctx, &self.opts);
            let report = traces.get(&key).and_then(|trace| trace.recharge(platform));
            slots.push(report.map(|r| ProfileRecord::measured(dataset.id(), ctx, r.perf)));
            keys.push(key);
        }
        let replayed = slots.iter().flatten().count() as u64;
        let missing: Vec<usize> = (0..configs.len()).filter(|&i| slots[i].is_none()).collect();
        if !missing.is_empty() {
            let to_execute: Vec<TrainingConfig> =
                missing.iter().map(|&i| configs[i].clone()).collect();
            for (executed, record, trace) in self.sweep(dataset, &to_execute).0 {
                let i = missing[executed];
                slots[i] = Some(record);
                if let Some(trace) = trace {
                    traces.insert(std::mem::take(&mut keys[i]), trace);
                }
            }
        }
        let metrics = gnnav_obs::global();
        metrics.add(metric::PROFILER_RECORDS, replayed);
        metrics.add(metric::PROFILER_REPLAYED, replayed);
        slots.into_iter().flatten().collect()
    }

    /// Like [`profile`](Self::profile), but never gives up on the
    /// sweep: failed configurations are retried up to the configured
    /// budget, quarantined on exhaustion, and reported alongside the
    /// partial database. Worker-level faults (crashes, stragglers)
    /// from the execution options' fault plan are injected here,
    /// keyed by config index.
    pub fn profile_with_report(
        &self,
        dataset: &Dataset,
        configs: &[TrainingConfig],
    ) -> SweepReport {
        let (swept, failures) = self.sweep(dataset, configs);
        SweepReport { db: swept.into_iter().map(|(_, record, _)| record).collect(), failures }
    }

    /// Executes every configuration: what each that ran left, in index
    /// order, and the quarantined rest.
    fn sweep(
        &self,
        dataset: &Dataset,
        configs: &[TrainingConfig],
    ) -> (Vec<Swept>, Vec<ConfigFailure>) {
        let injector =
            self.opts.fault_plan.as_ref().filter(|p| !p.is_empty()).map(FaultInjector::new);
        let metrics = gnnav_obs::global();
        let sweep_span = metrics.span(metric::PROFILER_SWEEP_WALL);
        // Spans opened on worker threads would otherwise record at the
        // top level — their thread-local span stacks are empty — so
        // the sweep's dotted path is captured here and re-anchored per
        // worker with `span_under` (a plain span when the one worker
        // is this thread).
        let sweep_path = sweep_span.path().to_string();
        let journal = metrics.journal();
        // Records carry the config index they came from so the final
        // database order is independent of thread completion order —
        // downstream fits must be deterministic for a given seed.
        let results: Mutex<Vec<Swept>> = Mutex::new(Vec::with_capacity(configs.len()));
        let failed: Mutex<Vec<(usize, ConfigFailure)>> = Mutex::new(Vec::new());
        let busy: Mutex<Vec<Duration>> = Mutex::new(Vec::new());
        let retries_total = AtomicU64::new(0);
        let timeouts_total = AtomicU64::new(0);
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(configs.len().max(1));
        // Register the sweep's workers with the kernel thread pool:
        // while the claim is alive, nested gnnav-par regions (inside
        // the backend's training kernels) see a budget divided by the
        // worker count, so outer x inner never oversubscribes the
        // machine.
        let _pool_claim = gnnav_par::PoolClaim::register(workers);
        // One worker's share of the sweep: configs claimed off `next`
        // until none are left.
        let run_worker = |worker: usize| {
            let started = Instant::now();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= configs.len() {
                    break;
                }
                // One attempt: injected worker faults first,
                // then the real execution, then post-hoc
                // timeout classification. Err carries the
                // rendered cause and whether it was a timeout.
                type Executed = (ExecutionReport, Option<ExecutionTrace>);
                let attempt_once = |attempt: u32| -> Result<Executed, (String, bool)> {
                    if injector.as_ref().is_some_and(|inj| {
                        inj.inject(FaultKind::WorkerCrash, i as u64, attempt, None).is_some()
                    }) {
                        return Err(("injected worker crash".into(), false));
                    }
                    if let Some(secs) = injector
                        .as_ref()
                        .and_then(|inj| inj.inject(FaultKind::Straggler, i as u64, attempt, None))
                    {
                        std::thread::sleep(
                            Duration::from_secs_f64(secs.max(0.0)).min(STRAGGLER_SLEEP_CAP),
                        );
                    }
                    let t0 = Instant::now();
                    let executed = self
                        .backend
                        .execute_traced(dataset, &configs[i], &self.opts)
                        .map_err(|e| (e.to_string(), false))?;
                    if let Some(limit) = self.config_timeout {
                        let elapsed = t0.elapsed();
                        if elapsed > limit {
                            return Err((
                                format!(
                                    "exceeded per-config timeout \
                                                 ({elapsed:?} > {limit:?})"
                                ),
                                true,
                            ));
                        }
                    }
                    Ok(executed)
                };

                let config_span = metrics.span_under(&sweep_path, "config");
                let config_wall_us = journal.is_enabled().then(|| journal.now_us());
                let mut attempt = 0u32;
                let outcome = loop {
                    match attempt_once(attempt) {
                        Ok(executed) => break Ok(executed),
                        Err((error, timed_out)) => {
                            if timed_out {
                                timeouts_total.fetch_add(1, Ordering::Relaxed);
                            }
                            if attempt >= CONFIG_RETRIES {
                                break Err(ConfigFailure {
                                    config_index: i,
                                    config: configs[i].summary(),
                                    error,
                                    attempts: attempt + 1,
                                    timed_out,
                                });
                            }
                            retries_total.fetch_add(1, Ordering::Relaxed);
                            attempt += 1;
                        }
                    }
                };
                if let Some(wall0) = config_wall_us {
                    journal.span_complete(
                        metric::EVENT_PROFILE_CONFIG,
                        format!("{}{worker}", metric::TRACK_PROFILER_WORKER_PREFIX),
                        wall0,
                        Some(journal.now_us() - wall0),
                        None,
                        None,
                        vec![
                            ("config_index".into(), i.into()),
                            ("config".into(), configs[i].summary().into()),
                            ("ok".into(), outcome.is_ok().into()),
                            ("attempts".into(), (attempt as u64 + 1).into()),
                        ],
                    );
                }
                drop(config_span);
                match outcome {
                    Ok((report, trace)) => {
                        let ctx =
                            Context::new(dataset, self.backend.platform(), configs[i].clone());
                        let record = ProfileRecord::measured(dataset.id(), ctx, report.perf);
                        results.lock().push((i, record, trace));
                    }
                    Err(failure) => failed.lock().push((i, failure)),
                }
            }
            busy.lock().push(started.elapsed());
        };
        if workers == 1 {
            // A lone worker overlaps with nothing, so it runs here: a
            // thread of its own would only move every execution's
            // buffers into a second allocator arena, which costs
            // ~10 MiB of peak RSS on a cold navigation and makes the
            // figure depend on how arena and main heap interleave
            // from run to run.
            run_worker(0);
        } else {
            crossbeam::thread::scope(|scope| {
                let run_worker = &run_worker;
                let handles: Vec<_> =
                    (0..workers).map(|worker| scope.spawn(move |_| run_worker(worker))).collect();
                // The scope alone waits for the closures to return, not
                // for the threads to exit. A worker still on its way
                // out holds its allocator arena, so the next sweep's
                // workers (the augmentation graph follows at once)
                // would sometimes be given fresh ones. A real join lets
                // each sweep inherit the arenas the last one warmed.
                for handle in handles {
                    handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                }
            })
            .expect("profiling threads do not panic");
        }
        let mut swept = results.into_inner();
        swept.sort_by_key(|(i, ..)| *i);
        let mut failures = failed.into_inner();
        failures.sort_by_key(|(i, _)| *i);
        let failures: Vec<ConfigFailure> = failures.into_iter().map(|(_, f)| f).collect();

        if metrics.is_enabled() {
            let wall = sweep_span.elapsed().as_secs_f64();
            metrics.add(metric::PROFILER_RECORDS, swept.len() as u64);
            metrics.add(metric::PROFILER_FAILED, failures.len() as u64);
            // Zero-valued adds still register the series, pinning the
            // perf-gate baselines at zero on the no-fault path.
            metrics.add(metric::PROFILER_RETRIES, retries_total.load(Ordering::Relaxed));
            metrics.add(metric::PROFILER_QUARANTINED, failures.len() as u64);
            metrics.add(metric::PROFILER_TIMEOUTS, timeouts_total.load(Ordering::Relaxed));
            metrics.gauge_set(metric::PROFILER_THREADS, workers as f64);
            if wall > 0.0 {
                metrics.gauge_set(metric::PROFILER_RECORDS_PER_S, swept.len() as f64 / wall);
                let busy_total: f64 = busy.lock().iter().map(|d| d.as_secs_f64()).sum();
                metrics.gauge_set(
                    metric::PROFILER_UTILIZATION,
                    (busy_total / (workers as f64 * wall)).clamp(0.0, 1.0),
                );
            }
        }

        (swept, failures)
    }

    /// Profiles `configs` on `count` randomly generated power-law
    /// graphs (the paper's data-enhancement step), each sweep going
    /// [through](Self::profile_through) `store`. Graph `i` uses
    /// `seed + i`.
    ///
    /// # Errors
    ///
    /// Propagates generation errors; skips infeasible configs as in
    /// [`Profiler::profile`].
    pub fn profile_augmentation(
        &self,
        mut store: Option<&mut ProfileStore>,
        count: usize,
        num_nodes: usize,
        configs: &[TrainingConfig],
        seed: u64,
    ) -> Result<ProfileDb, RuntimeError> {
        let mut db = ProfileDb::new();
        for i in 0..count {
            let dataset =
                Dataset::synthetic(num_nodes, 3 + (i % 5), 64, 16, seed.wrapping_add(i as u64))?;
            db.merge(self.profile_through(store.as_deref_mut(), None, &dataset, configs)?);
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnav_hwsim::Platform;
    use gnnav_nn::ModelKind;
    use gnnav_runtime::DesignSpace;

    fn profiler() -> Profiler {
        let opts = ExecutionOptions {
            epochs: 1,
            train: true,
            train_batches_cap: Some(1),
            ..Default::default()
        };
        Profiler::new(RuntimeBackend::new(Platform::default_rtx4090()), opts).with_threads(2)
    }

    fn small_configs(n: usize) -> Vec<TrainingConfig> {
        DesignSpace::standard()
            .sample(n, ModelKind::Sage, 3)
            .into_iter()
            .map(|mut c| {
                c.batch_size = 32;
                c.fanouts = vec![5, 5];
                c.hidden_dim = 16;
                c
            })
            .collect()
    }

    #[test]
    fn profile_records_measured_quantities() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let db = profiler().profile(&dataset, &small_configs(4)).expect("profile");
        assert!(!db.is_empty());
        for r in db.records() {
            assert!(r.epoch_time_s > 0.0);
            assert!(r.mem_bytes > 0.0);
            assert!(r.avg_batch_nodes >= 32.0);
            assert!(r.n_iter >= 1.0);
            assert_eq!(r.dataset_id, DatasetId::Reddit2);
        }
    }

    #[test]
    fn threaded_profile_is_deterministic_and_config_ordered() {
        // Regression: workers used to push records in completion
        // order, so a threaded sweep shuffled the database between
        // runs and diverged from the single-threaded result.
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let cfgs = small_configs(6);
        let threaded = profiler().with_threads(4);
        let serial = profiler().with_threads(1);
        let a = threaded.profile(&dataset, &cfgs).expect("a");
        let b = threaded.profile(&dataset, &cfgs).expect("b");
        let s = serial.profile(&dataset, &cfgs).expect("s");
        assert_eq!(a.len(), s.len());
        assert_eq!(b.len(), s.len());
        for (r, canonical) in a.records().iter().zip(s.records()) {
            assert_eq!(r.context.config, canonical.context.config);
            assert_eq!(r.epoch_time_s, canonical.epoch_time_s);
            assert_eq!(r.mem_bytes, canonical.mem_bytes);
            assert_eq!(r.accuracy, canonical.accuracy);
            assert_eq!(r.phase_s, canonical.phase_s);
        }
        for (r, canonical) in b.records().iter().zip(s.records()) {
            assert_eq!(r.context.config, canonical.context.config);
            assert_eq!(r.epoch_time_s, canonical.epoch_time_s);
        }
    }

    #[test]
    fn threaded_sweep_spans_are_parented() {
        // Regression: worker threads have empty span stacks, so their
        // spans used to record as top-level `backend.execute` instead
        // of under the sweep. Existence-only assertions: the global
        // registry is shared with concurrently running tests.
        let metrics = gnnav_obs::global();
        metrics.enable(true);
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        profiler().with_threads(2).profile(&dataset, &small_configs(3)).expect("profile");
        let snap = metrics.snapshot();
        assert!(
            snap.histograms.contains_key("profiler.sweep.config"),
            "worker config span missing: {:?}",
            snap.histograms.keys().collect::<Vec<_>>()
        );
        assert!(snap.histograms.contains_key("profiler.sweep.config.backend.execute"));
        assert!(snap.histograms.contains_key("profiler.sweep.config.backend.execute.epoch"));
        // A sweep of one worker runs on this thread, where the sweep
        // span is already open: its spans land on the same paths, not
        // under a repeated parent.
        profiler().with_threads(1).profile(&dataset, &small_configs(2)).expect("profile");
        let doubled: Vec<_> = metrics
            .snapshot()
            .histograms
            .into_keys()
            .filter(|path| path.matches("profiler.sweep").count() > 1)
            .collect();
        assert!(doubled.is_empty(), "{doubled:?}");
    }

    #[test]
    fn sweep_journal_records_one_event_per_config() {
        let metrics = gnnav_obs::global();
        metrics.enable(true);
        metrics.journal().enable(true);
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let before = metrics
            .journal()
            .snapshot()
            .events
            .iter()
            .filter(|e| e.name == metric::EVENT_PROFILE_CONFIG)
            .count();
        profiler().with_threads(2).profile(&dataset, &small_configs(3)).expect("profile");
        let events = metrics.journal().snapshot().events;
        let configs: Vec<_> =
            events.iter().filter(|e| e.name == metric::EVENT_PROFILE_CONFIG).collect();
        assert!(configs.len() >= before + 3, "got {} config events", configs.len());
        assert!(configs.iter().all(|e| e.track.starts_with(metric::TRACK_PROFILER_WORKER_PREFIX)));
    }

    #[test]
    fn store_aware_sweep_matches_the_plain_one() {
        // One config list with a duplicate and with a config that
        // fails to execute: store-less, cold-with-store and
        // warm-with-store sweeps must assemble the same database.
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let mut cfgs = small_configs(3);
        cfgs.push(cfgs[0].clone());
        cfgs.insert(1, TrainingConfig { batch_size: 0, ..cfgs[0].clone() });
        let p = profiler();
        let plain = p.profile(&dataset, &cfgs).expect("store-less");
        assert_eq!(plain.len(), 4, "the invalid config is skipped, the duplicate kept");

        let dir = std::env::temp_dir().join(format!("gnnav-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("profiles.wal");
        let mut store = ProfileStore::open(&path).expect("open");
        let cold = p.profile_through(Some(&mut store), None, &dataset, &cfgs).expect("cold");
        assert_eq!(store.len(), 3, "one record per distinct executable config");
        drop(store);
        let mut store = ProfileStore::open(&path).expect("reopen");
        let warm = p.profile_through(Some(&mut store), None, &dataset, &cfgs).expect("warm");
        assert_eq!(store.len(), 3, "a warm sweep appends nothing");
        assert_eq!(format!("{cold:?}"), format!("{plain:?}"));
        assert_eq!(format!("{warm:?}"), format!("{plain:?}"));

        // A store cannot hide a systematic failure.
        let bad = [cfgs[1].clone()];
        assert!(p.profile_through(Some(&mut store), None, &dataset, &bad).is_err());

        // The platform-free tier: traces another platform's sweep left
        // re-charge into the same database, and into the same log. A
        // zero timeout fails every execution, so a complete database
        // under it executed nothing.
        let mut traces = ExecutionTraces::new();
        let a100 = Profiler::new(RuntimeBackend::new(Platform::default_a100()), p.opts.clone());
        a100.profile_through(None, Some(&mut traces), &dataset, &cfgs).expect("record");
        assert_eq!(traces.len(), 3, "one trace per distinct executable config");
        let no_exec = p.clone().with_config_timeout(Duration::ZERO);
        let replay_path = dir.join("replayed.wal");
        let mut replay_store = ProfileStore::open(&replay_path).expect("open");
        let replayed = no_exec
            .profile_through(Some(&mut replay_store), Some(&mut traces), &dataset, &cfgs)
            .expect("replayed");
        assert_eq!(format!("{replayed:?}"), format!("{plain:?}"));
        assert_eq!(traces.len(), 3, "a replayed sweep records nothing");
        drop((store, replay_store));
        assert_eq!(std::fs::read(&replay_path).expect("read"), std::fs::read(&path).expect("read"));
        assert!(no_exec.profile(&dataset, &cfgs).is_err(), "the timeout does fail executions");

        // A sweep under a fault plan is never answered from a clean
        // one's traces: its worker faults still fire.
        let crash = FaultPlan::new(41).with_fault(FaultSpec::new(FaultKind::WorkerCrash));
        assert!(profiler_with_plan(crash)
            .profile_through(None, Some(&mut traces), &dataset, &cfgs)
            .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leave_one_out_partitions() {
        let d1 = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let d2 = Dataset::load_scaled(DatasetId::OgbnArxiv, 0.01).expect("load");
        let p = profiler();
        let mut db = p.profile(&d1, &small_configs(2)).expect("p1");
        db.merge(p.profile(&d2, &small_configs(2)).expect("p2"));
        let (train, test) = db.leave_one_out(DatasetId::Reddit2);
        assert!(train.records().iter().all(|r| r.dataset_id != DatasetId::Reddit2));
        assert!(test.records().iter().all(|r| r.dataset_id == DatasetId::Reddit2));
        assert_eq!(train.len() + test.len(), db.len());
    }

    #[test]
    fn augmentation_uses_synthetic_graphs() {
        let db =
            profiler().profile_augmentation(None, 2, 300, &small_configs(2), 9).expect("augment");
        assert!(db.records().iter().all(|r| r.dataset_id == DatasetId::Synthetic));
        assert!(db.len() >= 2);
    }

    #[test]
    fn collection_traits() {
        let db: ProfileDb = Vec::new().into_iter().collect();
        assert!(db.is_empty());
    }

    use gnnav_faults::{FaultKind, FaultPlan, FaultSpec};

    fn profiler_with_plan(plan: FaultPlan) -> Profiler {
        let opts = ExecutionOptions {
            epochs: 1,
            train: true,
            train_batches_cap: Some(1),
            fault_plan: Some(plan),
            ..Default::default()
        };
        Profiler::new(RuntimeBackend::new(Platform::default_rtx4090()), opts).with_threads(2)
    }

    #[test]
    fn worker_crash_survived_by_retry() {
        // Every config's first attempt crashes; the retry budget (1)
        // absorbs it and the sweep completes in full.
        let plan = FaultPlan::new(41)
            .with_fault(FaultSpec::new(FaultKind::WorkerCrash).with_duration_attempts(1));
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let cfgs = small_configs(3);
        let report = profiler_with_plan(plan).profile_with_report(&dataset, &cfgs);
        assert!(report.is_complete(), "retries should absorb one-shot crashes");
        assert_eq!(report.db.len(), cfgs.len());
        assert!(report.failures.is_empty());
    }

    #[test]
    fn persistent_worker_crash_quarantines_and_errors() {
        // A crash that outlives the retry budget quarantines every
        // config; `profile` then reports the systematic failure as a
        // typed error, never a panic.
        let plan = FaultPlan::new(41).with_fault(FaultSpec::new(FaultKind::WorkerCrash));
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let cfgs = small_configs(3);
        let p = profiler_with_plan(plan);
        let report = p.profile_with_report(&dataset, &cfgs);
        assert!(report.db.is_empty());
        assert_eq!(report.quarantined(), vec![0, 1, 2]);
        for f in &report.failures {
            assert_eq!(f.attempts, 2, "1 retry => 2 attempts");
            assert!(f.error.contains("injected worker crash"));
            assert!(!f.timed_out);
        }
        let err = p.profile(&dataset, &cfgs).expect_err("all failed");
        assert!(err.to_string().contains("every profiled configuration failed"));
    }

    #[test]
    fn windowed_crash_yields_partial_sweep() {
        // Only config 0 crashes (window [0, 1)); the rest of the
        // sweep still lands in the database, in index order.
        let plan =
            FaultPlan::new(41).with_fault(FaultSpec::new(FaultKind::WorkerCrash).with_window(0, 1));
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let cfgs = small_configs(4);
        let report = profiler_with_plan(plan).profile_with_report(&dataset, &cfgs);
        assert!(!report.is_complete());
        assert_eq!(report.quarantined(), vec![0]);
        assert_eq!(report.db.len(), 3);
        // profile() still succeeds on a partial sweep.
        let db = profiler_with_plan(
            FaultPlan::new(41).with_fault(FaultSpec::new(FaultKind::WorkerCrash).with_window(0, 1)),
        )
        .profile(&dataset, &cfgs)
        .expect("partial sweep is not a hard error");
        assert_eq!(db.len(), 3);
    }

    #[test]
    fn wide_sweep_claims_pool_and_bounds_oversubscription() {
        // Regression: a 16-worker sweep must register a PoolClaim so
        // the kernels' nested parallelism divides down — otherwise 16
        // workers x a full per-region budget explodes the thread
        // count. Stragglers (capped at 250ms) keep the sweep alive
        // long enough for the observer to catch the claim.
        let plan =
            FaultPlan::new(77).with_fault(FaultSpec::new(FaultKind::Straggler).with_magnitude(1e9));
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let cfgs = small_configs(16);
        let opts = ExecutionOptions {
            epochs: 1,
            train: true,
            train_batches_cap: Some(1),
            fault_plan: Some(plan),
            ..Default::default()
        };
        let profiler =
            Profiler::new(RuntimeBackend::new(Platform::default_rtx4090()), opts).with_threads(16);
        let sweep = std::thread::spawn(move || profiler.profile_with_report(&dataset, &cfgs));
        let mut peak_claim = 0usize;
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(30) {
            peak_claim = peak_claim.max(gnnav_par::claimed_workers());
            if peak_claim >= 16 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = sweep.join().expect("sweep thread");
        assert!(report.is_complete());
        assert!(peak_claim >= 16, "sweep never registered its 16 workers (peak {peak_claim})");
        // Under a 16-worker claim each nested region's budget is
        // hardware/16 (min 1), so outer x inner stays within 2x the
        // larger of core count and worker count.
        let hw = gnnav_par::hardware_threads();
        let inner = (hw / 16).max(1);
        assert!(16 * inner <= 2 * hw.max(16), "outer x inner budget {} too large", 16 * inner);
        // (Claim release on drop is covered by gnnav-par's own tests;
        // asserting a zero global count here would race with other
        // tests' concurrent sweeps.)
    }

    #[test]
    fn straggler_sleep_is_capped_and_run_completes() {
        let plan =
            FaultPlan::new(41).with_fault(FaultSpec::new(FaultKind::Straggler).with_magnitude(1e9));
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let cfgs = small_configs(2);
        let t0 = Instant::now();
        let report = profiler_with_plan(plan).profile_with_report(&dataset, &cfgs);
        assert!(report.is_complete(), "stragglers slow the sweep but never kill it");
        // 2 configs x 250ms cap, plus real work; well under an
        // uncapped 1e9-second sleep.
        assert!(t0.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn zero_timeout_quarantines_everything_as_timed_out() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let cfgs = small_configs(2);
        let report =
            profiler().with_config_timeout(Duration::ZERO).profile_with_report(&dataset, &cfgs);
        assert!(report.db.is_empty());
        assert_eq!(report.failures.len(), cfgs.len());
        for f in &report.failures {
            assert!(f.timed_out);
            assert!(f.error.contains("timeout"));
        }
    }

    #[test]
    fn faulted_sweeps_are_deterministic() {
        let mk = || {
            FaultPlan::new(99)
                .with_fault(FaultSpec::new(FaultKind::WorkerCrash).with_probability(0.5))
                .with_fault(FaultSpec::new(FaultKind::Straggler).with_probability(0.3))
        };
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let cfgs = small_configs(5);
        let a = profiler_with_plan(mk()).profile_with_report(&dataset, &cfgs);
        let b = profiler_with_plan(mk()).profile_with_report(&dataset, &cfgs);
        assert_eq!(a.quarantined(), b.quarantined());
        assert_eq!(a.db.len(), b.db.len());
        for (ra, rb) in a.db.records().iter().zip(b.db.records()) {
            assert_eq!(ra.epoch_time_s, rb.epoch_time_s);
            assert_eq!(ra.mem_bytes, rb.mem_bytes);
        }
    }
}
