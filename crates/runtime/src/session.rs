//! Epoch-at-a-time execution sessions.
//!
//! [`ExecutionSession`] is the resumable form of
//! [`RuntimeBackend::execute`](crate::RuntimeBackend::execute): the
//! backend's whole epoch loop, opened up so a caller can drive it one
//! epoch at a time, observe per-epoch statistics ([`EpochStats`]), and
//! — between epochs — switch to a different [`TrainingConfig`] without
//! losing the model weights ([`ExecutionSession::switch_config`]).
//! `execute` itself is [`drive`](crate::driver::drive) over a bare
//! session (`new` → N × `run_epoch` → `finish`), so a session driven
//! straight through produces a report byte-identical to the one-shot
//! path. The adaptive layer (`gnnav-adapt`) builds its
//! drift-reexplore-switch loop on this API and runs it through the
//! same driver.
//!
//! # What is platform-free
//!
//! The platform enters an execution in two places only: the
//! [`CostModel`] that prices each mini-batch, and the
//! [`MemoryLedger`]'s capacity. Everything else — batching, sampling,
//! cache hits and replacements, the training steps, accuracy, the
//! ledger's *peak* — is a function of `(dataset, config, options)`.
//! A clean run (no fault plan, no retry, no degradation step, no
//! config switch) therefore leaves an [`ExecutionTrace`]: the seven
//! counts the cost model reads of every mini-batch, in order, plus the
//! report with its simulated times left out.
//! [`ExecutionTrace::recharge`] prices those batches for another
//! platform and returns the report
//! [`RuntimeBackend::execute`](crate::RuntimeBackend::execute) would
//! return there, bit for bit: it calls the same `charge` and the same
//! `accumulate` that `run_epoch` calls, batch by batch in the recorded
//! order, so every floating-point sum is taken in the live loop's
//! order, and it ends in the same `per_epoch` averaging as `finish`.
//! A platform whose capacity is below the recorded peak would have
//! failed a claim and walked the ladder; `recharge` declines it.

use crate::backend::{
    DegradationStep, ExecutionOptions, ExecutionReport, RecoveryLog, BACKOFF_BASE_MS,
    LEARNING_RATE, LINK_STALL_FACTOR, MAX_LR_HALVINGS, MAX_MICRO_BATCH, MAX_RETRIES,
    TARGET_SWAP_AT_FULL_ETA,
};
use crate::checkpoint::{SessionLadder, SessionTotals};
use crate::config::TrainingConfig;
use crate::perf::{Perf, PhaseBreakdown};
use crate::RuntimeError;
use gnnav_cache::{build_cache, CachePolicy, CacheStats, FeatureCache};
use gnnav_faults::{FaultInjector, FaultKind, FaultPlan};
use gnnav_graph::Dataset;
use gnnav_hwsim::{CostModel, MemoryLedger, Platform, Precision, SimTime};
use gnnav_nn::tensor::MatrixView;
use gnnav_nn::{train, Adam, GnnModel};
use gnnav_obs::alloc::AllocStats;
use gnnav_obs::names as metric;
use gnnav_obs::{Journal, Registry, Span};
use gnnav_sampler::{batch_targets, Sampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// What one [`ExecutionSession::run_epoch`] call observed — the
/// per-epoch slice of the quantities the estimator predicts, in the
/// same units the profiler records them.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Zero-based index of the epoch that just ran.
    pub epoch: usize,
    /// Simulated time this epoch consumed, in seconds (includes any
    /// recovery backoff and migration charges that landed in it).
    pub sim_s: f64,
    /// Cache hit rate over this epoch's lookups (0 when the epoch had
    /// no lookups).
    pub hit_rate: f64,
    /// Peak device memory of the run so far, in bytes (the ledger
    /// tracks a cumulative high-water mark).
    pub peak_mem_bytes: usize,
    /// Mini-batches executed this epoch.
    pub batches: usize,
    /// Sampled nodes summed over this epoch's mini-batches.
    pub nodes: usize,
    /// Sampled edges summed over this epoch's mini-batches.
    pub edges: usize,
    /// Per-phase simulated seconds `[sample, transfer, replace,
    /// compute]` this epoch.
    pub phase_s: [f64; 4],
    /// Iterations this epoch (same as `batches` unless sampling was
    /// aborted mid-epoch).
    pub n_iter: usize,
}

/// Everything the cost model reads of one mini-batch. None of it
/// depends on the platform.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BatchCounts {
    /// Nodes sampling added to the targets, `|V_i| − |B^0|` (Eq. 7).
    expansion: usize,
    /// Edges of the sampled subgraph.
    num_edges: usize,
    /// Nodes of the sampled subgraph, `|V_i|`.
    num_nodes: usize,
    /// Feature rows the device cache missed (sent over the link).
    miss_rows: usize,
    /// Feature rows the cache update wrote.
    replaced_rows: usize,
    /// Cache entries resident after the update.
    cache_len: usize,
    /// Aggregate+combine FLOPs of the batch.
    flops: f64,
}

/// Prices one mini-batch on `cost`'s platform: `[sample, transfer,
/// replace, compute]`. The live loop and
/// [`ExecutionTrace::recharge`] both charge through here.
fn charge(
    cost: &CostModel,
    batch: &BatchCounts,
    row_bytes: usize,
    precision: Precision,
) -> [SimTime; 4] {
    [
        cost.t_sample(batch.expansion, batch.num_edges),
        cost.t_transfer(batch.miss_rows * row_bytes),
        cost.t_replace(batch.replaced_rows * row_bytes, batch.cache_len),
        cost.t_compute(batch.flops, batch.num_nodes, precision),
    ]
}

/// Adds one charged mini-batch to the running phase totals and, as one
/// iteration of Eq. 4, to the run's simulated clock.
fn accumulate(
    cost: &CostModel,
    [sample, transfer, replace, compute]: [SimTime; 4],
    pipelined: bool,
    phases: &mut PhaseBreakdown,
    clock: &mut SimTime,
) {
    phases.sample += sample;
    phases.transfer += transfer;
    phases.replace += replace;
    phases.compute += compute;
    *clock += cost.iteration_time(sample, transfer, replace, compute, pipelined);
}

/// Run totals averaged over the epochs that ran: the report's
/// `epoch_time` and `phases`.
fn per_epoch(
    clock: SimTime,
    phases: PhaseBreakdown,
    epochs_run: usize,
) -> (SimTime, PhaseBreakdown) {
    let inv_epochs = 1.0 / epochs_run.max(1) as f64;
    (
        clock * inv_epochs,
        PhaseBreakdown {
            sample: phases.sample * inv_epochs,
            transfer: phases.transfer * inv_epochs,
            replace: phases.replace * inv_epochs,
            compute: phases.compute * inv_epochs,
        },
    )
}

/// The platform-free record of one clean execution (see the module
/// header): enough to price the same run on any platform that could
/// have held it.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionTrace {
    /// Every mini-batch of the run, in execution order across epochs.
    batches: Vec<BatchCounts>,
    row_bytes: usize,
    epochs_run: usize,
    /// The run's report with `epoch_time` and `phases` zeroed — what
    /// is left does not depend on the platform.
    report: ExecutionReport,
}

impl ExecutionTrace {
    /// Mini-batches recorded.
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// Peak device memory of the recorded run: the least capacity a
    /// platform needs for [`recharge`](Self::recharge) to answer.
    pub fn peak_mem_bytes(&self) -> usize {
        self.report.perf.peak_mem_bytes
    }

    /// The report executing the recorded `(dataset, config, options)`
    /// on `platform` would return, or `None` when `platform` cannot
    /// hold the recorded peak (its run would have degraded, so it is
    /// not this one).
    pub fn recharge(&self, platform: &Platform) -> Option<ExecutionReport> {
        if platform.device.mem_capacity_bytes < self.peak_mem_bytes() {
            return None;
        }
        let cost = CostModel::new(platform.clone());
        let config = &self.report.config;
        let mut phases = PhaseBreakdown::default();
        let mut clock = SimTime::ZERO;
        for batch in &self.batches {
            let times = charge(&cost, batch, self.row_bytes, config.precision);
            accumulate(&cost, times, config.pipelined, &mut phases, &mut clock);
        }
        let mut report = self.report.clone();
        (report.perf.epoch_time, report.perf.phases) = per_epoch(clock, phases, self.epochs_run);
        Some(report)
    }
}

/// The training targets in `sampler`'s hot set, which the per-epoch
/// target swap draws from (empty when `η = 0`).
fn hot_train(sampler: &Sampler, dataset: &Dataset) -> Vec<u32> {
    dataset.split().train.iter().copied().filter(|&v| sampler.bias().is_hot(v)).collect()
}

/// A paused-between-epochs backend execution.
///
/// Create with [`new`](Self::new), advance with
/// [`run_epoch`](Self::run_epoch), optionally redirect with
/// [`switch_config`](Self::switch_config), and close with
/// [`finish`](Self::finish). Driving a session straight through is
/// exactly [`RuntimeBackend::execute`](crate::RuntimeBackend::execute).
#[derive(Debug)]
pub struct ExecutionSession<'d> {
    platform: Platform,
    dataset: &'d Dataset,
    opts: ExecutionOptions,
    /// The fault plan, when it schedules anything: the injector proper
    /// borrows its plan and holds no state, so it is rebound per query.
    fault_plan: Option<FaultPlan>,
    cost: CostModel,
    ledger: MemoryLedger,
    model: GnnModel,
    opt: Adam,
    rng: StdRng,
    cache: FeatureCache,
    sampler: Sampler,
    ladder: SessionLadder,
    row_bytes: usize,
    bytes_per_scalar: usize,
    stats_carry: CacheStats,
    hot_train: Vec<u32>,
    x_buf: Vec<f32>,
    label_buf: Vec<u16>,
    target_locals_buf: Vec<u32>,
    alloc_run_start: AllocStats,
    alloc_warmup_allocs: u64,
    alloc_steady_allocs: u64,
    kernel_stats_start: gnnav_nn::tensor::KernelStats,
    par_stats_start: gnnav_par::Stats,
    totals: SessionTotals,
    /// The mini-batches charged so far, while the run can still end
    /// clean: `None` under a fault plan, after a config switch (its
    /// migration is not a batch) and after a resume (the earlier
    /// batches are gone).
    trace: Option<Vec<BatchCounts>>,
    wall_sample: Duration,
    wall_train: Duration,
    metrics: &'static Registry,
    journal: &'static Journal,
    observing: bool,
    journaling: bool,
    _execute_span: Span<'static>,
}

impl<'d> ExecutionSession<'d> {
    /// Validates `config`/`opts` and allocates the whole training
    /// state (model, cache, sampler, ledger) without running any
    /// epoch.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for inconsistent
    /// configurations or fault plans, and [`RuntimeError::Hw`] if the
    /// model plus cache already exceed device memory.
    pub fn new(
        platform: Platform,
        dataset: &'d Dataset,
        config: &TrainingConfig,
        opts: &ExecutionOptions,
    ) -> Result<Self, RuntimeError> {
        config.validate()?;
        if opts.epochs == 0 {
            return Err(RuntimeError::InvalidConfig("epochs must be > 0".into()));
        }
        if let Some(plan) = &opts.fault_plan {
            plan.validate().map_err(|e| RuntimeError::InvalidConfig(e.to_string()))?;
        }
        let fault_plan = opts.fault_plan.clone().filter(|p| !p.is_empty());
        let metrics = gnnav_obs::global();
        let execute_span = metrics.span(metric::EXECUTE_WALL);
        let observing = metrics.is_enabled();
        let journal = metrics.journal();
        let journaling = journal.is_enabled() && opts.journal;
        let graph = dataset.graph();
        let feats = dataset.features();
        let cost = CostModel::new(platform.clone());
        let mut ledger = MemoryLedger::new(platform.device.mem_capacity_bytes);

        // Model + static memory Γ_model.
        let mut model = GnnModel::new(
            config.model,
            feats.dim(),
            config.hidden_dim,
            feats.num_classes(),
            config.num_layers(),
            opts.seed,
        );
        model.set_dropout(config.dropout as f32);
        let bytes_per_scalar = config.precision.bytes();
        ledger.set_model_bytes(model.param_count() * bytes_per_scalar)?;

        // Cache + Γ_cache.
        let row_bytes = feats.dim() * bytes_per_scalar;
        let entries = config.cache_entries(graph.num_nodes());
        ledger.set_cache_bytes(entries * row_bytes)?;
        let cache = build_cache(config.cache_policy, entries, graph);

        let sampler = config.build_sampler(graph)?;
        let hot_train = hot_train(&sampler, dataset);

        Ok(ExecutionSession {
            cost,
            ledger,
            model,
            opt: Adam::new(LEARNING_RATE),
            rng: StdRng::seed_from_u64(opts.seed),
            cache,
            sampler,
            ladder: SessionLadder::new(config, entries),
            row_bytes,
            bytes_per_scalar,
            stats_carry: CacheStats::default(),
            hot_train,
            x_buf: Vec::new(),
            label_buf: Vec::new(),
            target_locals_buf: Vec::new(),
            alloc_run_start: gnnav_obs::alloc::stats(),
            alloc_warmup_allocs: 0,
            alloc_steady_allocs: 0,
            kernel_stats_start: gnnav_nn::kernel_stats(),
            par_stats_start: gnnav_par::stats(),
            totals: SessionTotals::default(),
            trace: fault_plan.is_none().then(Vec::new),
            wall_sample: Duration::ZERO,
            wall_train: Duration::ZERO,
            metrics,
            journal,
            observing,
            journaling,
            _execute_span: execute_span,
            platform,
            dataset,
            opts: opts.clone(),
            fault_plan,
        })
    }

    /// Epochs completed so far.
    pub fn epochs_run(&self) -> usize {
        self.totals.epochs_run
    }

    /// The config currently in effect (post any
    /// [`switch_config`](Self::switch_config)).
    pub fn config(&self) -> &TrainingConfig {
        &self.ladder.config
    }

    /// Total simulated time accumulated so far.
    pub fn sim_time_total(&self) -> SimTime {
        self.totals.epoch_time_total
    }

    /// Recovery actions absorbed so far.
    pub fn recovery(&self) -> &RecoveryLog {
        &self.totals.recovery
    }

    /// Bounded retry with backoff: calls `attempt_once` for attempts
    /// 0, 1, … until it succeeds or [`MAX_RETRIES`] retries are spent.
    /// Each retry's exponential backoff pause goes on the simulated
    /// clock and into the recovery log. Once retries run out, returns the number of
    /// attempts made and the last failure.
    fn with_retries<T, E>(
        &mut self,
        mut attempt_once: impl FnMut(&mut Self, u32) -> Result<T, E>,
    ) -> Result<T, (u32, E)> {
        let mut attempt = 0;
        loop {
            match attempt_once(self, attempt) {
                Ok(done) => return Ok(done),
                Err(e) if attempt >= MAX_RETRIES => return Err((attempt + 1, e)),
                Err(_) => {
                    let pause = SimTime::from_millis(BACKOFF_BASE_MS * f64::from(1u32 << attempt));
                    self.totals.epoch_time_total += pause;
                    self.totals.recovery.recovery_sim += pause;
                    self.totals.recovery.retries += 1;
                    attempt += 1;
                }
            }
        }
    }

    /// Queries the fault schedule at the current simulated time and
    /// counts an injection into the recovery log.
    fn inject_fault(&mut self, kind: FaultKind, site: u64, attempt: u32) -> Option<f64> {
        let sim_us = self.totals.epoch_time_total.as_micros();
        let plan = self.fault_plan.as_ref()?;
        let magnitude = FaultInjector::new(plan).inject(kind, site, attempt, Some(sim_us));
        if magnitude.is_some() {
            self.totals.recovery.faults_injected += 1;
        }
        magnitude
    }

    /// Cumulative cache stats including carries from caches replaced
    /// by ladder shrinks or config switches.
    fn cache_stats_total(&self) -> CacheStats {
        CacheStats {
            lookups: self.stats_carry.lookups + self.cache.stats().lookups,
            hits: self.stats_carry.hits + self.cache.stats().hits,
        }
    }

    /// Replaces the device cache with an empty `policy` cache of
    /// `entries` rows and returns the simulated cost of populating it.
    /// The ledger is claimed first: when the new cache does not fit,
    /// the error leaves the old cache, its statistics and the ledger as
    /// they were. Otherwise the old cache's hit statistics are carried
    /// over before it is dropped.
    fn replace_cache(
        &mut self,
        policy: CachePolicy,
        entries: usize,
    ) -> Result<SimTime, RuntimeError> {
        self.ledger.set_cache_bytes(entries * self.row_bytes)?;
        let old = self.cache.stats();
        self.stats_carry.lookups += old.lookups;
        self.stats_carry.hits += old.hits;
        self.cache = build_cache(policy, entries, self.dataset.graph());
        self.ladder.cache_entries = entries;
        Ok(self.cost.t_replace(entries * self.row_bytes, entries.max(1)))
    }

    /// True when `new` can be switched to without re-initializing the
    /// model: the architecture-shaping fields (model kind, hidden
    /// width, layer count, precision) must match so the trained
    /// weights remain valid.
    pub fn compatible(&self, new: &TrainingConfig) -> bool {
        new.model == self.ladder.config.model
            && new.hidden_dim == self.ladder.config.hidden_dim
            && new.num_layers() == self.ladder.config.num_layers()
            && new.precision == self.ladder.config.precision
    }

    /// Switches the session to `new` between epochs, preserving the
    /// model weights and optimizer state.
    ///
    /// The old cache's hit statistics are carried over, the new cache
    /// is rebuilt (its population charged to simulated time as a
    /// replace-phase migration), the sampler — and with it the hot set
    /// — is rebuilt, and the degradation ladder is reset. Returns the
    /// simulated migration cost, which has already been added to the
    /// session's total.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] when `new` is invalid
    /// or not [`compatible`](Self::compatible), and
    /// [`RuntimeError::Hw`] if the new cache does not fit. Either way
    /// the session is left as it was.
    pub fn switch_config(&mut self, new: &TrainingConfig) -> Result<SimTime, RuntimeError> {
        new.validate()?;
        if !self.compatible(new) {
            return Err(RuntimeError::InvalidConfig(format!(
                "switch_config requires an architecture-compatible config \
                 (model/hidden_dim/layers/precision); have {}, got {}",
                self.ladder.config.summary(),
                new.summary()
            )));
        }
        let graph = self.dataset.graph();
        let entries = new.cache_entries(graph.num_nodes());
        let migration = self.replace_cache(new.cache_policy, entries)?;
        if self.journaling {
            // The migration charge as a sim span on its own phase
            // track, so trace analytics can attribute switch cost.
            self.journal.span_complete(
                metric::EVENT_MIGRATION,
                format!("{}migration", metric::TRACK_PHASE_PREFIX),
                self.journal.now_us(),
                None,
                Some(self.totals.epoch_time_total.as_micros()),
                Some(migration.as_micros()),
                vec![("to".into(), new.summary().into()), ("cache_entries".into(), entries.into())],
            );
        }
        self.totals.epoch_time_total += migration;

        self.sampler = new.build_sampler(graph)?;
        self.hot_train = hot_train(&self.sampler, self.dataset);
        self.model.set_dropout(new.dropout as f32);

        // A switch resets the degradation ladder: the new guideline is
        // expected to fit, and if it does not, the ladder will walk
        // again from the top.
        self.ladder = SessionLadder::new(new, entries);
        self.trace = None;
        Ok(migration)
    }

    /// Captures the session's complete mutable state at the current
    /// epoch boundary (see [`SessionCheckpoint`](crate::SessionCheckpoint)
    /// for the determinism contract). `&mut` only because flattening
    /// the model parameters walks them through `for_each_param_mut`;
    /// observable state is unchanged.
    pub fn checkpoint(&mut self) -> crate::SessionCheckpoint {
        crate::SessionCheckpoint {
            ladder: self.ladder.clone(),
            params: self.model.param_vector(),
            dropout_rng: self.model.dropout_rng_state(),
            opt: self.opt.state(),
            rng: self.rng.state(),
            cache: self.cache.snapshot(),
            stats_carry: self.stats_carry,
            peak_mem_bytes: self.ledger.peak_bytes(),
            totals: self.totals.clone(),
        }
    }

    /// Reconstructs a session from a checkpoint: builds a fresh
    /// session for the checkpointed config, then overwrites every
    /// piece of mutable state the checkpoint captured. The resumed
    /// session continues exactly where [`checkpoint`](Self::checkpoint)
    /// left off.
    ///
    /// # Errors
    ///
    /// The same validation errors as [`new`](Self::new), plus
    /// [`RuntimeError::InvalidConfig`] when the checkpoint does not
    /// fit `dataset` (wrong parameter count, out-of-range cache
    /// nodes).
    pub fn resume(
        platform: Platform,
        dataset: &'d Dataset,
        opts: &ExecutionOptions,
        ckpt: &crate::SessionCheckpoint,
    ) -> Result<Self, RuntimeError> {
        let ladder = &ckpt.ladder;
        let mut s = ExecutionSession::new(platform, dataset, &ladder.config, opts)?;
        s.model.load_param_vector(&ckpt.params).map_err(RuntimeError::InvalidConfig)?;
        s.model.set_dropout_rng_state(ckpt.dropout_rng);
        s.opt.restore(ckpt.opt.clone());
        s.rng = StdRng::from_state(ckpt.rng);
        // Ladder state: the cache may have been shrunk below the
        // config's nominal size, and fanouts may have been reduced.
        if ladder.cache_entries != s.ladder.cache_entries {
            s.replace_cache(ladder.config.cache_policy, ladder.cache_entries)?;
        }
        s.cache.restore(&ckpt.cache).map_err(RuntimeError::InvalidConfig)?;
        if ladder.fanout_reduced {
            s.sampler = ladder.sampled_config().build_sampler(dataset.graph())?;
        }
        s.ladder = ladder.clone();
        s.stats_carry = ckpt.stats_carry;
        s.ledger.restore_peak(ckpt.peak_mem_bytes);
        s.totals = ckpt.totals.clone();
        s.trace = None;
        Ok(s)
    }

    /// Runs one epoch (sampling, transfer, cache update, compute, and
    /// — when enabled — training) and returns what it observed.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RetriesExhausted`] when a fault exceeds
    /// its retry/recovery budget and [`RuntimeError::Graph`] on
    /// sampling failures.
    pub fn run_epoch(&mut self) -> Result<EpochStats, RuntimeError> {
        let epoch = self.totals.epochs_run;
        let dataset = self.dataset;
        let graph = dataset.graph();
        let feats = dataset.features();
        let observing = self.observing;
        let journaling = self.journaling;

        // Per-epoch bookkeeping for the journal and the epoch
        // histograms: snapshot the cumulative phase/cache state at
        // epoch entry and diff it at epoch exit, so the hot batch
        // loop itself stays untouched.
        let epoch_span = observing.then(|| self.metrics.span(metric::EVENT_EPOCH));
        let epoch_wall_us = journaling.then(|| self.journal.now_us());
        let epoch_recovery_us_start = self.totals.recovery.recovery_sim.as_micros();
        let epoch_sim_start = self.totals.epoch_time_total;
        let epoch_phases_start = self.totals.phases;
        let epoch_stats_start = self.cache_stats_total();
        let epoch_batches_start = self.totals.total_batches;
        let epoch_nodes_start = self.totals.total_nodes;
        let epoch_edges_start = self.totals.total_edges;

        let mut epoch_targets = dataset.split().train.clone();
        if self.ladder.config.locality_eta > 0.0 && !self.hot_train.is_empty() {
            use rand::Rng;
            let swap_p = TARGET_SWAP_AT_FULL_ETA * self.ladder.config.locality_eta;
            for t in epoch_targets.iter_mut() {
                if !self.sampler.bias().is_hot(*t) && self.rng.gen::<f64>() < swap_p {
                    *t = self.hot_train[self.rng.gen_range(0..self.hot_train.len())];
                }
            }
        }
        let batches = batch_targets(&epoch_targets, self.ladder.config.batch_size, &mut self.rng);
        self.totals.n_iter = batches.len();
        // Grow the loss history outside the metered hot window so a
        // steady-state epoch never reallocates it mid-batch.
        if self.opts.train {
            self.totals.loss_history.reserve(batches.len());
        }
        if let Some(trace) = &mut self.trace {
            trace.reserve(batches.len());
        }
        for (bi, targets) in batches.iter().enumerate() {
            let batch_site = self.totals.total_batches as u64;

            // A batch attempt — sampling, then the transient memory
            // claim — can be aborted and restarted by the degradation
            // ladder. Nothing else runs until the claim holds, so an
            // aborted attempt leaves no cache lookup, cache update or
            // charge behind.
            let mb = 'batch: loop {
                // Host: sampling, with bounded retry of injected
                // sampler failures.
                self.with_retries(|s, attempt| {
                    match s.inject_fault(FaultKind::SamplerFailure, batch_site, attempt) {
                        Some(_) => Err(()),
                        None => Ok(()),
                    }
                })
                .map_err(|(attempts, ())| RuntimeError::RetriesExhausted {
                    what: "mini-batch sampling".into(),
                    attempts,
                    last_error: "injected sampler failure".into(),
                })?;
                let sample_started = observing.then(Instant::now);
                let mb = self.sampler.sample(graph, targets, &mut self.rng)?;
                if let Some(t0) = sample_started {
                    self.wall_sample += t0.elapsed();
                }

                // Transient memory Γ_runtime: bounded retry with
                // backoff, then the degradation ladder.
                let base_claim = self.model.activation_bytes(mb.num_nodes(), self.bytes_per_scalar)
                    + mb.num_nodes() * self.row_bytes;
                let claimed = self.with_retries(|s, attempt| {
                    let claim = base_claim.div_ceil(s.ladder.micro_batch);
                    let requested =
                        match s.inject_fault(FaultKind::TransientOom, batch_site, attempt) {
                            // A spike multiplies the claim; the cast
                            // saturates at usize::MAX for extreme
                            // magnitudes.
                            Some(spike) => (claim as f64 * spike.max(1.0)).ceil() as usize,
                            None => claim,
                        };
                    s.ledger.begin_batch(requested)
                });
                let (attempts, oom) = match claimed {
                    Ok(()) => {
                        self.ledger.end_batch();
                        break 'batch mb;
                    }
                    Err(exhausted) => exhausted,
                };

                // Retries exhausted: walk the ladder one rung and
                // re-run the batch under the degraded setup. Each
                // rung strictly shrinks remaining headroom to
                // consume (cache halvings are finite, micro-batch
                // is capped, fanout reduction fires once), so this
                // loop terminates.
                let step = if self.ladder.cache_entries > 0 {
                    let from_entries = self.ladder.cache_entries;
                    let to_entries = from_entries / 2;
                    let rebuild =
                        self.replace_cache(self.ladder.config.cache_policy, to_entries)?;
                    self.totals.epoch_time_total += rebuild;
                    self.totals.recovery.recovery_sim += rebuild;
                    DegradationStep::ShrinkCache { from_entries, to_entries }
                } else if self.ladder.micro_batch < MAX_MICRO_BATCH {
                    self.ladder.micro_batch *= 2;
                    let pause = SimTime::from_micros(self.platform.device.launch_overhead_us);
                    self.totals.epoch_time_total += pause;
                    self.totals.recovery.recovery_sim += pause;
                    DegradationStep::MicroBatch { factor: self.ladder.micro_batch }
                } else if !self.ladder.fanout_reduced {
                    self.ladder.fanout_reduced = true;
                    let reduced = self.ladder.sampled_config();
                    self.sampler = reduced.build_sampler(graph)?;
                    DegradationStep::ReduceFanout { fanouts: reduced.fanouts }
                } else {
                    return Err(RuntimeError::RetriesExhausted {
                        what: "transient memory claim (degradation ladder exhausted)".into(),
                        attempts,
                        last_error: oom.to_string(),
                    });
                };
                if journaling {
                    self.journal.instant(
                        metric::EVENT_RECOVERY,
                        metric::TRACK_BACKEND,
                        Some(self.totals.epoch_time_total.as_micros()),
                        vec![
                            ("action".into(), step.label().into()),
                            ("batch".into(), batch_site.into()),
                            ("detail".into(), format!("{step:?}").into()),
                        ],
                    );
                }
                self.totals.recovery.degradations.push(step);
            };

            // Device cache: split hits/misses, transfer the misses —
            // through a possibly degraded link. A stalled link (factor
            // >= LINK_STALL_FACTOR) is retried with backoff; a slow one
            // just stretches the transfer.
            let outcome = self.cache.lookup(&mb.nodes);
            let link_stretch = self
                .with_retries(|s, attempt| {
                    match s.inject_fault(FaultKind::LinkDegrade, batch_site, attempt) {
                        Some(factor) if factor >= LINK_STALL_FACTOR => Err(factor),
                        slow => Ok(slow.map(|factor| factor.max(1.0))),
                    }
                })
                .map_err(|(attempts, factor)| RuntimeError::RetriesExhausted {
                    what: "miss transfer (stalled link)".into(),
                    attempts,
                    last_error: format!("link stalled (degradation factor {factor})"),
                })?;

            // Cache update per policy (frozen dynamic caches stop
            // replacing once full).
            let may_update =
                self.ladder.config.cache_update || self.cache.len() < self.cache.capacity();
            let replaced = if may_update { self.cache.update(&outcome.misses) } else { 0 };
            self.totals.evictions += replaced;

            // The four phase times of the batch. A degraded link
            // stretches the transfer; micro-batching pays one extra
            // kernel launch per additional micro-step.
            let counts = BatchCounts {
                expansion: mb.expansion(),
                num_edges: mb.num_edges(),
                num_nodes: mb.num_nodes(),
                miss_rows: outcome.misses.len(),
                replaced_rows: replaced,
                cache_len: self.cache.len(),
                flops: self.model.flops_per_batch(mb.num_nodes(), mb.num_edges()),
            };
            let mut times =
                charge(&self.cost, &counts, self.row_bytes, self.ladder.config.precision);
            if let Some(factor) = link_stretch {
                times[1] = times[1] * factor;
            }
            if self.ladder.micro_batch > 1 {
                times[3] += SimTime::from_micros(
                    self.platform.device.launch_overhead_us * (self.ladder.micro_batch - 1) as f64,
                );
            }

            accumulate(
                &self.cost,
                times,
                self.ladder.config.pipelined,
                &mut self.totals.phases,
                &mut self.totals.epoch_time_total,
            );
            if let Some(trace) = &mut self.trace {
                trace.push(counts);
            }

            self.totals.total_nodes += mb.num_nodes();
            self.totals.total_edges += mb.num_edges();
            self.totals.total_batches += 1;

            // The actual training step (Algorithm 1 lines 4–8).
            let train_this =
                self.opts.train && self.opts.train_batches_cap.is_none_or(|cap| bi < cap);
            if train_this {
                let train_started = observing.then(Instant::now);
                // Batch preparation: build the subgraph's cached kernel
                // structures (transpose + degree schedule) eagerly so
                // the lazy init doesn't land inside the allocation-
                // metered hot path below. GCN additionally reads the
                // cached degree norms.
                mb.subgraph.agg_schedule();
                if self.ladder.config.model == gnnav_nn::ModelKind::Gcn {
                    mb.subgraph.gcn_inv_sqrt();
                }
                // Allocator window around the per-batch hot path:
                // epoch 0 is warm-up (buffers grow to shape), later
                // epochs must stay allocation-free — the delta feeds
                // the gated `alloc.steady_state_allocs_per_epoch`.
                let alloc_t0 = gnnav_obs::alloc::is_tracking().then(gnnav_obs::alloc::stats);
                feats.gather_into(&mb.nodes, &mut self.x_buf);
                let x = MatrixView::new(mb.num_nodes(), feats.dim(), &self.x_buf);
                feats.gather_labels_into(&mb.nodes, &mut self.label_buf);
                self.target_locals_buf.clear();
                self.target_locals_buf.extend(0..mb.targets_len as u32);
                let step_site = self.totals.train_steps;
                self.totals.train_steps += 1;
                let mut loss = train::train_step_view(
                    &mut self.model,
                    &mut self.opt,
                    &mb.subgraph,
                    x,
                    &self.label_buf,
                    &self.target_locals_buf,
                );
                if self.inject_fault(FaultKind::NanLoss, step_site, 0).is_some() {
                    loss = f32::NAN;
                }
                if !loss.is_finite() {
                    // NaN guard: drop the poisoned step from the
                    // history and anneal the LR; a bounded number
                    // of halvings separates a recoverable blip
                    // from a divergent run.
                    self.totals.recovery.nan_steps_skipped += 1;
                    if self.totals.recovery.lr_halvings >= MAX_LR_HALVINGS {
                        return Err(RuntimeError::RetriesExhausted {
                            what: "NaN-loss recovery (learning-rate floor reached)".into(),
                            attempts: self.totals.recovery.nan_steps_skipped,
                            last_error: format!("non-finite loss at training step {step_site}"),
                        });
                    }
                    self.opt.set_lr(self.opt.lr() * 0.5);
                    self.totals.recovery.lr_halvings += 1;
                    if journaling {
                        self.journal.instant(
                            metric::EVENT_RECOVERY,
                            metric::TRACK_BACKEND,
                            Some(self.totals.epoch_time_total.as_micros()),
                            vec![
                                ("action".into(), "nan_guard".into()),
                                ("step".into(), step_site.into()),
                                ("lr".into(), (self.opt.lr() as f64).into()),
                            ],
                        );
                    }
                } else {
                    self.totals.loss_history.push(loss);
                }
                if let Some(t0) = alloc_t0 {
                    let d = gnnav_obs::alloc::stats().delta_since(&t0);
                    if epoch == 0 {
                        self.alloc_warmup_allocs += d.allocs;
                    } else {
                        self.alloc_steady_allocs += d.allocs;
                    }
                }
                if let Some(t0) = train_started {
                    self.wall_train += t0.elapsed();
                }
            }
        }

        // The epoch's observed slice, computed unconditionally (a few
        // subtractions) so the adaptive layer can watch even when the
        // metrics registry is off.
        let epoch_sim_s = self.totals.epoch_time_total.as_secs() - epoch_sim_start.as_secs();
        let stats = self.cache_stats_total();
        let epoch_lookups = stats.lookups - epoch_stats_start.lookups;
        let epoch_hits = stats.hits - epoch_stats_start.hits;
        let epoch_hit_rate =
            if epoch_lookups > 0 { epoch_hits as f64 / epoch_lookups as f64 } else { 0.0 };
        let phase_s = [
            self.totals.phases.sample.as_secs() - epoch_phases_start.sample.as_secs(),
            self.totals.phases.transfer.as_secs() - epoch_phases_start.transfer.as_secs(),
            self.totals.phases.replace.as_secs() - epoch_phases_start.replace.as_secs(),
            self.totals.phases.compute.as_secs() - epoch_phases_start.compute.as_secs(),
        ];

        if observing {
            self.metrics.observe(metric::EPOCH_SIM, epoch_sim_s);
            self.metrics.observe(metric::EPOCH_HIT_RATE, epoch_hit_rate);
            if journaling {
                let wall0 = epoch_wall_us.unwrap_or(0.0);
                let wall_dur = self.journal.now_us() - wall0;
                let sim0 = epoch_sim_start.as_micros();
                let sim_dur = epoch_sim_s * 1e6;
                self.journal.span_complete(
                    metric::EVENT_EPOCH,
                    metric::TRACK_BACKEND,
                    wall0,
                    Some(wall_dur),
                    Some(sim0),
                    Some(sim_dur),
                    vec![
                        ("epoch".into(), epoch.into()),
                        (
                            "batches".into(),
                            (self.totals.total_batches - epoch_batches_start).into(),
                        ),
                        ("hit_rate".into(), epoch_hit_rate.into()),
                    ],
                );
                // One sim-only span per phase, each on its own
                // track, anchored at the epoch's simulated start:
                // the phases overlap inside the epoch window, so
                // side-by-side tracks read as a per-epoch phase
                // breakdown rather than a serial schedule.
                for (phase_name, sim_delta) in [
                    ("sample", phase_s[0]),
                    ("transfer", phase_s[1]),
                    ("replace", phase_s[2]),
                    ("compute", phase_s[3]),
                ] {
                    self.journal.span_complete(
                        phase_name,
                        format!("{}{}", metric::TRACK_PHASE_PREFIX, phase_name),
                        wall0,
                        None,
                        Some(sim0),
                        Some(sim_delta * 1e6),
                        Vec::new(),
                    );
                }
                // Backoff pauses and ladder work get their own phase
                // track so recovery time is attributed, not residual.
                let recovery_us =
                    self.totals.recovery.recovery_sim.as_micros() - epoch_recovery_us_start;
                if recovery_us > 0.0 {
                    self.journal.span_complete(
                        metric::EVENT_RECOVERY,
                        format!("{}recovery", metric::TRACK_PHASE_PREFIX),
                        wall0,
                        None,
                        Some(sim0),
                        Some(recovery_us),
                        Vec::new(),
                    );
                }
                self.journal.counter(
                    metric::EPOCH_HIT_RATE,
                    metric::TRACK_BACKEND,
                    epoch_hit_rate,
                    Some(sim0 + sim_dur),
                );
            }
        }
        drop(epoch_span);

        self.totals.epochs_run += 1;
        Ok(EpochStats {
            epoch,
            sim_s: epoch_sim_s,
            hit_rate: epoch_hit_rate,
            peak_mem_bytes: self.ledger.peak_bytes(),
            batches: self.totals.total_batches - epoch_batches_start,
            nodes: self.totals.total_nodes - epoch_nodes_start,
            edges: self.totals.total_edges - epoch_edges_start,
            phase_s,
            n_iter: self.totals.n_iter,
        })
    }

    /// Evaluates accuracy, averages the accumulated totals over the
    /// epochs that ran, flushes the metric accumulators, and produces
    /// the final [`ExecutionReport`].
    pub fn finish(self) -> Result<ExecutionReport, RuntimeError> {
        self.finish_traced().map(|(report, _)| report)
    }

    /// [`finish`](Self::finish), plus the run's [`ExecutionTrace`]
    /// when it ended clean: straight through under one config, no
    /// fault plan, no retry, no degradation step.
    pub fn finish_traced(
        mut self,
    ) -> Result<(ExecutionReport, Option<ExecutionTrace>), RuntimeError> {
        let dataset = self.dataset;
        let graph = dataset.graph();
        let feats = dataset.features();
        let accuracy = if self.opts.train {
            let x = MatrixView::new(graph.num_nodes(), feats.dim(), feats.matrix());
            train::evaluate(&mut self.model, graph, x, feats.labels(), &dataset.split().test)
        } else {
            0.0
        };

        let total_stats = self.cache_stats_total();
        let (epoch_time, phases) =
            per_epoch(self.totals.epoch_time_total, self.totals.phases, self.totals.epochs_run);
        let perf = Perf {
            epoch_time,
            peak_mem_bytes: self.ledger.peak_bytes(),
            accuracy,
            hit_rate: total_stats.hit_rate(),
            avg_batch_nodes: self.totals.total_nodes as f64
                / self.totals.total_batches.max(1) as f64,
            avg_batch_edges: self.totals.total_edges as f64
                / self.totals.total_batches.max(1) as f64,
            n_iter: self.totals.n_iter,
            phases,
        };

        if self.observing {
            let metrics = self.metrics;
            let stats = total_stats;
            metrics.add(metric::BACKEND_RUNS, 1);
            metrics.add(metric::BACKEND_BATCHES, self.totals.total_batches as u64);
            metrics.add(metric::CACHE_HITS, stats.hits as u64);
            metrics.add(metric::CACHE_MISSES, (stats.lookups - stats.hits) as u64);
            metrics.add(metric::CACHE_EVICTIONS, self.totals.evictions as u64);
            // Recovery counters are added even when zero so the
            // perf-gate baselines pin them at zero on the clean path.
            metrics.add(metric::FAULTS_INJECTED, 0);
            metrics.add(metric::BACKEND_RETRIES, self.totals.recovery.retries as u64);
            metrics
                .add(metric::BACKEND_DEGRADATIONS, self.totals.recovery.degradations.len() as u64);
            metrics.add(metric::BACKEND_NAN_SKIPS, self.totals.recovery.nan_steps_skipped as u64);
            metrics.gauge_set(metric::PHASE_SAMPLE, perf.phases.sample.as_secs());
            metrics.gauge_set(metric::PHASE_TRANSFER, perf.phases.transfer.as_secs());
            metrics.gauge_set(metric::PHASE_REPLACE, perf.phases.replace.as_secs());
            metrics.gauge_set(metric::PHASE_COMPUTE, perf.phases.compute.as_secs());
            metrics.gauge_set(metric::EPOCH_TIME, perf.epoch_time.as_secs());
            metrics.gauge_set(metric::PEAK_MEM_BYTES, perf.peak_mem_bytes as f64);
            metrics.gauge_set(metric::WALL_SAMPLE, self.wall_sample.as_secs_f64());
            metrics.gauge_set(metric::WALL_TRAIN, self.wall_train.as_secs_f64());
            if let Some(&last) = self.totals.loss_history.last() {
                let mean = self.totals.loss_history.iter().sum::<f32>()
                    / self.totals.loss_history.len() as f32;
                metrics.gauge_set(metric::LOSS_LAST, last as f64);
                metrics.gauge_set(metric::LOSS_MEAN, mean as f64);
            }
            // Kernel-level counters: deltas of the process-global nn /
            // gnnav-par stats across this execution (concurrent
            // executions may interleave into each other's deltas; the
            // perf baselines run serially, where the deltas are exact).
            let kernel_stats = gnnav_nn::kernel_stats();
            let par_stats = gnnav_par::stats();
            let matmul_calls = kernel_stats.matmul_calls - self.kernel_stats_start.matmul_calls;
            let matmul_flops = kernel_stats.matmul_flops - self.kernel_stats_start.matmul_flops;
            let par_tasks = par_stats.tasks - self.par_stats_start.tasks;
            let par_regions = par_stats.regions - self.par_stats_start.regions;
            metrics.add(metric::NN_MATMUL_CALLS, matmul_calls);
            metrics.add(metric::NN_MATMUL_FLOPS, matmul_flops);
            metrics.add(metric::NN_KERNEL_PAR_TASKS, par_tasks);
            metrics.add(metric::NN_KERNEL_PAR_REGIONS, par_regions);
            metrics.gauge_set(metric::PAR_POOL_THREADS, gnnav_par::effective_threads() as f64);
            let train_wall = self.wall_train.as_secs_f64();
            if train_wall > 0.0 {
                metrics.gauge_set(metric::NN_MATMUL_GFLOPS, matmul_flops as f64 / train_wall / 1e9);
            }
            if self.journaling {
                self.journal.instant(
                    metric::EVENT_KERNELS,
                    metric::TRACK_BACKEND,
                    Some(self.totals.epoch_time_total.as_micros()),
                    vec![
                        ("matmul_calls".into(), matmul_calls.into()),
                        ("matmul_flops".into(), matmul_flops.into()),
                        ("par_tasks".into(), par_tasks.into()),
                        ("par_regions".into(), par_regions.into()),
                    ],
                );
            }
            if gnnav_obs::alloc::is_tracking() {
                let d = gnnav_obs::alloc::stats().delta_since(&self.alloc_run_start);
                metrics.gauge_set(metric::ALLOC_ALLOCS, d.allocs as f64);
                metrics.gauge_set(metric::ALLOC_FREES, d.frees as f64);
                metrics.gauge_set(metric::ALLOC_BYTES, d.alloc_bytes as f64);
                metrics.gauge_set(metric::ALLOC_PEAK_BYTES, d.peak_bytes as f64);
                // Ceiling division so even a single steady-state
                // allocation trips the zero-pinned perf gate.
                let steady_epochs = self.totals.epochs_run.saturating_sub(1).max(1) as u64;
                metrics.add(
                    metric::ALLOC_STEADY_PER_EPOCH,
                    self.alloc_steady_allocs.div_ceil(steady_epochs),
                );
                if self.journaling {
                    self.journal.instant(
                        metric::EVENT_ALLOC,
                        metric::TRACK_BACKEND,
                        Some(self.totals.epoch_time_total.as_micros()),
                        vec![
                            ("allocs".into(), d.allocs.into()),
                            ("frees".into(), d.frees.into()),
                            ("alloc_bytes".into(), d.alloc_bytes.into()),
                            ("peak_bytes".into(), d.peak_bytes.into()),
                            ("warmup_allocs".into(), self.alloc_warmup_allocs.into()),
                            ("steady_allocs".into(), self.alloc_steady_allocs.into()),
                        ],
                    );
                }
            }
        }
        let clean =
            self.totals.recovery.retries == 0 && self.totals.recovery.degradations.is_empty();
        let batches = self.trace.take().filter(|_| clean);
        let report = ExecutionReport {
            perf,
            loss_history: self.totals.loss_history,
            config: self.ladder.config,
            recovery: self.totals.recovery,
        };
        let trace = batches.map(|batches| ExecutionTrace {
            batches,
            row_bytes: self.row_bytes,
            epochs_run: self.totals.epochs_run,
            report: ExecutionReport {
                perf: Perf {
                    epoch_time: SimTime::ZERO,
                    phases: PhaseBreakdown::default(),
                    ..report.perf
                },
                ..report.clone()
            },
        });
        Ok((report, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeBackend;
    use gnnav_graph::DatasetId;
    use gnnav_hwsim::DeviceProfile;

    /// A switch whose cache does not fit is refused and leaves the
    /// session as it was: the run reports what a twin never asked to
    /// switch reports, each cache hit counted once.
    #[test]
    fn a_rejected_switch_leaves_the_session_untouched() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        // Small batches: a batch's transient claim is far below a
        // whole-graph cache.
        let config = TrainingConfig {
            batch_size: 8,
            fanouts: vec![1, 1],
            hidden_dim: 16,
            ..TrainingConfig::default()
        };
        let opts = ExecutionOptions { epochs: 2, ..Default::default() };
        let clean = RuntimeBackend::new(Platform::default_rtx4090())
            .execute(&dataset, &config, &opts)
            .expect("run");
        // Exactly the room the run needs: a whole-graph cache cannot fit.
        let mut platform = Platform::default_rtx4090();
        platform.device =
            DeviceProfile { mem_capacity_bytes: clean.perf.peak_mem_bytes, ..platform.device };
        let run = |switch: bool| {
            let mut session =
                ExecutionSession::new(platform.clone(), &dataset, &config, &opts).expect("open");
            session.run_epoch().expect("epoch 0");
            if switch {
                let whole = TrainingConfig { cache_ratio: 1.0, ..config.clone() };
                let refused = session.switch_config(&whole);
                assert!(matches!(refused, Err(RuntimeError::Hw(_))), "{refused:?}");
            }
            session.run_epoch().expect("epoch 1");
            session.finish().expect("finish")
        };
        assert_eq!(format!("{:?}", run(true)), format!("{:?}", run(false)));
    }
}
