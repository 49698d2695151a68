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

/// What one configuration of a sweep came to: its record and, when the
/// execution was clean, its trace, or the failure that quarantined it;
/// plus the retries and timeouts it took and how long its worker was
/// busy with it.
struct ConfigOutcome {
    result: Result<(ProfileRecord, Option<ExecutionTrace>), ConfigFailure>,
    retries: u64,
    timeouts: u64,
    busy: Duration,
}

/// Retries granted to a configuration that failed to execute, before
/// it is quarantined.
const CONFIG_RETRIES: u32 = 1;

/// Executes configurations on the backend and records ground truth.
#[derive(Debug, Clone)]
pub struct Profiler {
    backend: RuntimeBackend,
    opts: ExecutionOptions,
    /// Most workers the sweep may use; the calling thread's `gnnav-par`
    /// budget bounds it too.
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

    /// Caps the sweep at `threads` workers. The calling thread's budget
    /// ([`gnnav_par::effective_threads`]: `GNNAV_THREADS` or a
    /// [`gnnav_par::with_thread_limit`] override) caps it too.
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
        // config with `span_under` (a plain span on this thread).
        let sweep_path = sweep_span.path().to_string();
        let journal = metrics.journal();
        // The sweep is as wide as `threads`, this thread's budget and
        // the configs allow, and each config's kernels get that budget
        // divided by the width: all of it in a sweep of one, which runs
        // here, on this thread.
        let budget = gnnav_par::effective_threads();
        let workers = self.threads.min(budget).min(configs.len()).max(1);
        let kernel_budget = (budget / workers).max(1);
        // One attempt: injected worker faults first, then the real
        // execution, then post-hoc timeout classification. Err carries
        // the rendered cause and whether it was a timeout.
        type Executed = (ExecutionReport, Option<ExecutionTrace>);
        let attempt_once = |i: usize, attempt: u32| -> Result<Executed, (String, bool)> {
            if injector.as_ref().is_some_and(|inj| {
                inj.inject(FaultKind::WorkerCrash, i as u64, attempt, None).is_some()
            }) {
                return Err(("injected worker crash".into(), false));
            }
            if let Some(secs) = injector
                .as_ref()
                .and_then(|inj| inj.inject(FaultKind::Straggler, i as u64, attempt, None))
            {
                std::thread::sleep(Duration::from_secs_f64(secs.max(0.0)).min(STRAGGLER_SLEEP_CAP));
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
                        format!("exceeded per-config timeout ({elapsed:?} > {limit:?})"),
                        true,
                    ));
                }
            }
            Ok(executed)
        };
        // One config, retries included, on whichever worker claimed it.
        let profile_one = |i: usize| {
            let started = Instant::now();
            let config_span = metrics.span_under(&sweep_path, "config");
            let config_wall_us = journal.is_enabled().then(|| journal.now_us());
            let (mut retries, mut timeouts, mut attempt) = (0, 0, 0u32);
            let result = loop {
                match attempt_once(i, attempt) {
                    Ok(executed) => break Ok(executed),
                    Err((error, timed_out)) => {
                        timeouts += u64::from(timed_out);
                        if attempt >= CONFIG_RETRIES {
                            break Err(ConfigFailure {
                                config_index: i,
                                config: configs[i].summary(),
                                error,
                                attempts: attempt + 1,
                                timed_out,
                            });
                        }
                        retries += 1;
                        attempt += 1;
                    }
                }
            };
            if let Some(wall0) = config_wall_us {
                journal.span_complete(
                    metric::EVENT_PROFILE_CONFIG,
                    format!(
                        "{}{}",
                        metric::TRACK_PROFILER_WORKER_PREFIX,
                        gnnav_par::worker_index()
                    ),
                    wall0,
                    Some(journal.now_us() - wall0),
                    None,
                    None,
                    vec![
                        ("config_index".into(), i.into()),
                        ("config".into(), configs[i].summary().into()),
                        ("ok".into(), result.is_ok().into()),
                        ("attempts".into(), (attempt as u64 + 1).into()),
                    ],
                );
            }
            drop(config_span);
            let result = result.map(|(report, trace)| {
                let ctx = Context::new(dataset, self.backend.platform(), configs[i].clone());
                (ProfileRecord::measured(dataset.id(), ctx, report.perf), trace)
            });
            ConfigOutcome { result, retries, timeouts, busy: started.elapsed() }
        };
        let outcomes = gnnav_par::with_thread_limit(workers, || {
            gnnav_par::par_map_indexed(configs, 1, |i, _| {
                gnnav_par::with_thread_limit(kernel_budget, || profile_one(i))
            })
        });
        let mut swept = Vec::with_capacity(configs.len());
        let mut failures = Vec::new();
        let (mut retries, mut timeouts, mut busy) = (0, 0, Duration::ZERO);
        for (i, outcome) in outcomes.into_iter().enumerate() {
            retries += outcome.retries;
            timeouts += outcome.timeouts;
            busy += outcome.busy;
            match outcome.result {
                Ok((record, trace)) => swept.push((i, record, trace)),
                Err(failure) => failures.push(failure),
            }
        }

        if metrics.is_enabled() {
            let wall = sweep_span.elapsed().as_secs_f64();
            metrics.add(metric::PROFILER_RECORDS, swept.len() as u64);
            metrics.add(metric::PROFILER_FAILED, failures.len() as u64);
            // Zero-valued adds still register the series, pinning the
            // perf-gate baselines at zero on the no-fault path.
            metrics.add(metric::PROFILER_RETRIES, retries);
            metrics.add(metric::PROFILER_QUARANTINED, failures.len() as u64);
            metrics.add(metric::PROFILER_TIMEOUTS, timeouts);
            metrics.gauge_set(metric::PROFILER_THREADS, workers as f64);
            if wall > 0.0 {
                metrics.gauge_set(metric::PROFILER_RECORDS_PER_S, swept.len() as f64 / wall);
                metrics.gauge_set(
                    metric::PROFILER_UTILIZATION,
                    (busy.as_secs_f64() / (workers as f64 * wall)).clamp(0.0, 1.0),
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
        // Configs 1 and 2 crash on every attempt; stragglers delay
        // about a third of all attempts. Whichever worker claims a
        // config, the report — records, quarantine list, attempts — is
        // the same at every width.
        let plan = FaultPlan::new(99)
            .with_fault(FaultSpec::new(FaultKind::WorkerCrash).with_window(1, 3))
            .with_fault(
                FaultSpec::new(FaultKind::Straggler).with_probability(0.3).with_magnitude(0.02),
            );
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let cfgs = small_configs(6);
        let sweep = |threads| {
            gnnav_par::with_thread_limit(8, || {
                profiler_with_plan(plan.clone())
                    .with_threads(threads)
                    .profile_with_report(&dataset, &cfgs)
            })
        };
        let serial = sweep(1);
        assert_eq!(serial.quarantined(), vec![1, 2]);
        assert!(serial.failures.iter().all(|f| f.attempts == 2));
        assert_eq!(serial.db.len(), 4);
        for threads in [2, 4, 8] {
            let wide = sweep(threads);
            assert_eq!(format!("{wide:?}"), format!("{serial:?}"), "with_threads({threads})");
        }
    }
}
