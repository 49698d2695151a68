//! The adaptive execution loop: run, watch, re-explore, switch.

use crate::drift::{DriftDetector, EpochSignal};
use crate::durable::AdaptiveCheckpoint;
use crate::AdaptError;
use gnnav_estimator::{Context, GrayBoxEstimator, PerfEstimate, ProfileDb, ProfileRecord};
use gnnav_explorer::{
    decide, AuditAction, AuditRecord, EvaluatedCandidate, ExplorationResult, Explorer,
    RuntimeConstraints,
};
use gnnav_graph::Dataset;
use gnnav_hwsim::Platform;
use gnnav_obs::names as metric;
use gnnav_runtime::{
    drive, DurabilityOptions, EpochLoop, EpochStats, ExecutionOptions, ExecutionReport,
    ExecutionSession, RuntimeError, TrainingConfig,
};
use std::time::Instant;

/// Hard cap on mid-training guideline switches.
const MAX_SWITCHES: usize = 3;

/// How strongly each observed epoch pulls the warm-start refit:
/// observed records are replicated until they carry roughly
/// `OBSERVED_WEIGHT : 1` mass against the original profile sweep.
const OBSERVED_WEIGHT: usize = 4;

/// Leaf-evaluation budget of each incremental re-exploration (small:
/// the search is seeded from the previous Pareto front). Its traversal
/// seed is [`Explorer::DEFAULT_SEED`].
const REEXPLORE_BUDGET: usize = 120;

/// Options of the adaptive loop. Everything else about it is fixed:
/// the drift band smooths with factor 0.4 and triggers after 2
/// consecutive drifting epochs, a run switches guidelines at most 3
/// times, each refit weighs the observed epochs 4 : 1 against the
/// profile sweep, and each re-exploration evaluates at most 120
/// candidates from [`Explorer::DEFAULT_SEED`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptOptions {
    /// EWMA drift level above which an epoch counts as drifting
    /// (strict `>`: a series sitting exactly at it never fires).
    pub drift_threshold: f64,
}

impl Default for AdaptOptions {
    fn default() -> Self {
        AdaptOptions { drift_threshold: 0.75 }
    }
}

impl AdaptOptions {
    pub(crate) fn validate(&self) -> Result<(), AdaptError> {
        let t = self.drift_threshold;
        if !(t.is_finite() && t > 0.0) {
            return Err(AdaptError::InvalidOptions(format!(
                "drift threshold {t} must be finite and > 0"
            )));
        }
        Ok(())
    }
}

/// One executed mid-training guideline switch.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchPlan {
    /// Zero-based epoch after which the switch took effect.
    pub epoch: usize,
    /// The configuration being abandoned.
    pub from: TrainingConfig,
    /// The configuration adopted.
    pub to: TrainingConfig,
    /// Cache-migration cost charged to simulated time, in seconds.
    pub migration_sim_s: f64,
    /// The refreshed estimator's prediction for the new guideline.
    pub predicted: PerfEstimate,
    /// The drift EWMA that triggered the re-exploration.
    pub drift_ewma: f64,
    /// Wall-clock cost of the re-exploration (refit + search), in
    /// milliseconds. Advisory only — never charged to simulated time.
    pub reexplore_wall_ms: f64,
}

/// What one adaptive run produced.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// The final execution report (perf averaged over all epochs,
    /// regardless of which guideline ran them).
    pub report: ExecutionReport,
    /// Every switch performed, in order.
    pub switches: Vec<SwitchPlan>,
    /// Per-epoch smoothed drift scores (EWMA), one per epoch run.
    pub drift_scores: Vec<f64>,
    /// Re-explorations performed (each may or may not have switched).
    pub reexplorations: u32,
    /// Audit records appended by the adaptive layer (one
    /// [`AuditAction::Switched`] entry per switch).
    pub audit: Vec<AuditRecord>,
}

/// Drives training epoch by epoch, watching for estimator drift and
/// re-exploring incrementally when it is sustained.
///
/// The loop is deterministic: identical dataset, guideline, options,
/// and fault plan reproduce the same switches bit for bit, and a run
/// that never triggers executes exactly the static code path (the
/// underlying [`ExecutionSession`] is the same one
/// `RuntimeBackend::execute` uses).
///
/// # Example
///
/// ```no_run
/// use gnnav_adapt::{AdaptOptions, AdaptiveRunner};
/// use gnnav_estimator::{GrayBoxEstimator, Profiler};
/// use gnnav_explorer::{Explorer, Priority, RuntimeConstraints};
/// use gnnav_graph::{Dataset, DatasetId};
/// use gnnav_hwsim::Platform;
/// use gnnav_nn::ModelKind;
/// use gnnav_runtime::{DesignSpace, ExecutionOptions, RuntimeBackend};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.05)?;
/// let platform = Platform::default_rtx4090();
/// let profiler = Profiler::new(
///     RuntimeBackend::new(platform.clone()),
///     ExecutionOptions::timing_only(),
/// );
/// let configs = DesignSpace::reduced().sample(12, ModelKind::Sage, 5);
/// let db = profiler.profile(&dataset, &configs)?;
/// let mut estimator = GrayBoxEstimator::new();
/// estimator.fit(&db)?;
/// let exploration = Explorer::new(&estimator, 200).explore(
///     &dataset, &platform, ModelKind::Sage,
///     Priority::Balance, &RuntimeConstraints::none())?;
///
/// let runner = AdaptiveRunner::new(platform, AdaptOptions::default());
/// let outcome = runner.run(&dataset, &exploration, &db,
///                          &ExecutionOptions::default(),
///                          &RuntimeConstraints::none())?;
/// println!("switches: {}", outcome.switches.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveRunner {
    platform: Platform,
    opts: AdaptOptions,
}

impl AdaptiveRunner {
    /// Creates a runner bound to one simulated platform.
    pub fn new(platform: Platform, opts: AdaptOptions) -> Self {
        AdaptiveRunner { platform, opts }
    }

    /// Runs `exec_opts.epochs` epochs of the explored guideline,
    /// adapting when drift is sustained.
    ///
    /// `exploration` supplies the initial guideline, its prediction
    /// (the drift baseline), and the Pareto front that seeds each
    /// re-exploration; `profile_db` is the sweep the estimator was
    /// fitted on, extended in place (on a copy) with observed epochs at
    /// refit time; `constraints` are re-evaluated against the
    /// *remaining* time budget before each re-exploration.
    ///
    /// # Errors
    ///
    /// [`AdaptError::Runtime`] when an epoch or switch fails,
    /// [`AdaptError::Estimator`] / [`AdaptError::Explorer`] when a
    /// refit or re-exploration fails, [`AdaptError::InvalidOptions`]
    /// for inconsistent adaptive options.
    pub fn run(
        &self,
        dataset: &Dataset,
        exploration: &ExplorationResult,
        profile_db: &ProfileDb,
        exec_opts: &ExecutionOptions,
        constraints: &RuntimeConstraints,
    ) -> Result<AdaptiveReport, AdaptError> {
        self.run_with(dataset, exploration, profile_db, exec_opts, constraints, None)
    }

    /// [`run`](Self::run) with crash-safe durability: the same
    /// [`drive`] loop, persisting into `dur.dir`. Each checkpoint holds
    /// the *entire* adaptive state (see [`AdaptiveCheckpoint`]), and
    /// one is resumed only if its run started from this
    /// `exploration`'s guideline. A run killed at any boundary and
    /// re-invoked with the same arguments produces an
    /// [`AdaptiveReport`] whose report, switches, and drift history
    /// match the uninterrupted run (only the advisory
    /// `reexplore_wall_ms` wall-clock field may differ).
    ///
    /// # Errors
    ///
    /// Everything [`run`](Self::run) returns, plus
    /// [`RuntimeError::Killed`] and [`RuntimeError::Store`] wrapped in
    /// [`AdaptError::Runtime`].
    pub fn run_durable(
        &self,
        dataset: &Dataset,
        exploration: &ExplorationResult,
        profile_db: &ProfileDb,
        exec_opts: &ExecutionOptions,
        constraints: &RuntimeConstraints,
        dur: &DurabilityOptions,
    ) -> Result<AdaptiveReport, AdaptError> {
        self.run_with(dataset, exploration, profile_db, exec_opts, constraints, Some(dur))
    }

    fn run_with(
        &self,
        dataset: &Dataset,
        exploration: &ExplorationResult,
        profile_db: &ProfileDb,
        exec_opts: &ExecutionOptions,
        constraints: &RuntimeConstraints,
        dur: Option<&DurabilityOptions>,
    ) -> Result<AdaptiveReport, AdaptError> {
        self.opts.validate()?;
        let metrics = gnnav_obs::global();
        if metrics.is_enabled() {
            // Register the switch counter at zero so clean adaptive
            // runs still expose the series.
            metrics.add(metric::ADAPT_SWITCHES, 0);
        }
        let adapt_loop =
            AdaptLoop { runner: self, dataset, exploration, profile_db, exec_opts, constraints };
        drive(&adapt_loop, exec_opts, dur)?.into_report()
    }
}

/// What the adaptive loop keeps beside its training session: all of
/// it, in this order, follows the session payload in an adaptive
/// checkpoint.
#[derive(Debug, Clone)]
pub(crate) struct AdaptState {
    /// Prediction for the running guideline (the drift baseline).
    pub(crate) predicted: PerfEstimate,
    /// Seed configs of the next re-exploration.
    pub(crate) seeds: Vec<TrainingConfig>,
    /// The EWMA drift band.
    pub(crate) drift: DriftDetector,
    /// Observed epochs, the warm-start refit's extra records.
    pub(crate) observed: Vec<ObservedEpoch>,
    /// Switches performed so far.
    pub(crate) switches: Vec<SwitchPlan>,
    /// Per-epoch drift EWMAs.
    pub(crate) drift_scores: Vec<f64>,
    /// Audit records appended by the adaptive layer.
    pub(crate) audit: Vec<AuditRecord>,
    /// Re-explorations performed.
    pub(crate) reexplorations: u32,
    /// Degradation count already accounted for.
    pub(crate) seen_degradations: usize,
}

/// One observed epoch in the profiler's units (phase times per
/// iteration; accuracy 0 so the accuracy fit, which filters on
/// `accuracy > 0`, ignores it). It names no dataset or platform: each
/// refit rebuilds its [`ProfileRecord`].
#[derive(Debug, Clone)]
pub(crate) struct ObservedEpoch {
    pub(crate) config: TrainingConfig,
    pub(crate) epoch_time_s: f64,
    pub(crate) mem_bytes: f64,
    pub(crate) accuracy: f64,
    pub(crate) hit_rate: f64,
    pub(crate) avg_batch_nodes: f64,
    pub(crate) avg_batch_edges: f64,
    pub(crate) phase_s: [f64; 4],
    pub(crate) n_iter: f64,
}

impl ObservedEpoch {
    /// The epoch `stats` measured while running `config`.
    fn of(config: &TrainingConfig, stats: &EpochStats) -> Self {
        let n_iter = stats.n_iter.max(1) as f64;
        let batches = stats.batches.max(1) as f64;
        ObservedEpoch {
            config: config.clone(),
            epoch_time_s: stats.sim_s,
            mem_bytes: stats.peak_mem_bytes as f64,
            accuracy: 0.0,
            hit_rate: stats.hit_rate,
            avg_batch_nodes: stats.nodes as f64 / batches,
            avg_batch_edges: stats.edges as f64 / batches,
            phase_s: stats.phase_s.map(|s| s / n_iter),
            n_iter,
        }
    }

    /// This epoch as a profile record of `dataset` on `platform`.
    fn record(&self, dataset: &Dataset, platform: &Platform) -> ProfileRecord {
        ProfileRecord {
            dataset_id: dataset.id(),
            context: Context::new(dataset, platform, self.config.clone()),
            epoch_time_s: self.epoch_time_s,
            mem_bytes: self.mem_bytes,
            accuracy: self.accuracy,
            hit_rate: self.hit_rate,
            avg_batch_nodes: self.avg_batch_nodes,
            avg_batch_edges: self.avg_batch_edges,
            phase_s: self.phase_s,
            n_iter: self.n_iter,
        }
    }
}

/// A running adaptive loop: the (possibly switched or degraded)
/// training session and the state kept beside it.
struct AdaptRun<'d> {
    session: ExecutionSession<'d>,
    state: AdaptState,
}

impl AdaptRun<'_> {
    /// Finishes the session and assembles the adaptive report.
    fn into_report(self) -> Result<AdaptiveReport, AdaptError> {
        let AdaptState { switches, drift_scores, reexplorations, audit, .. } = self.state;
        let report = self.session.finish()?;
        Ok(AdaptiveReport { report, switches, drift_scores, reexplorations, audit })
    }
}

/// The adaptive run as an [`EpochLoop`]: everything fixed for the run.
/// The priority of every re-exploration is the exploration's own.
struct AdaptLoop<'a, 'd> {
    runner: &'a AdaptiveRunner,
    dataset: &'d Dataset,
    exploration: &'a ExplorationResult,
    profile_db: &'a ProfileDb,
    exec_opts: &'a ExecutionOptions,
    constraints: &'a RuntimeConstraints,
}

impl<'d> EpochLoop for AdaptLoop<'_, 'd> {
    type Run = AdaptRun<'d>;
    type Error = AdaptError;
    const LABEL: &'static str = "adapt";

    /// Opens a fresh adaptive loop on the explored guideline.
    fn open(&self) -> Result<Self::Run, RuntimeError> {
        let guideline = &self.exploration.guideline;
        let session = ExecutionSession::new(
            self.runner.platform.clone(),
            self.dataset,
            &guideline.config,
            self.exec_opts,
        )?;
        let state = AdaptState {
            predicted: guideline.estimate,
            seeds: front_configs(self.exploration, session.config()),
            drift: DriftDetector::default(),
            observed: Vec::with_capacity(self.exec_opts.epochs),
            switches: Vec::new(),
            drift_scores: Vec::with_capacity(self.exec_opts.epochs),
            audit: Vec::new(),
            reexplorations: 0,
            seen_degradations: 0,
        };
        Ok(AdaptRun { session, state })
    }

    /// Resumes the session of a checkpoint taken by this run; the
    /// state is the checkpoint's own.
    fn restore(&self, payload: &[u8]) -> Result<Option<Self::Run>, RuntimeError> {
        let ckpt = match AdaptiveCheckpoint::decode(payload) {
            Ok(ckpt) if *ckpt.initial_config() == self.exploration.guideline.config => ckpt,
            _ => return Ok(None),
        };
        let session = ExecutionSession::resume(
            self.runner.platform.clone(),
            self.dataset,
            self.exec_opts,
            &ckpt.session,
        )?;
        Ok(Some(AdaptRun { session, state: ckpt.state }))
    }

    fn epochs_run(run: &Self::Run) -> usize {
        run.session.epochs_run()
    }

    /// Runs one epoch: execute, score drift, re-explore and possibly
    /// switch. The epoch index is taken from the session itself so a
    /// resumed loop continues where the checkpoint left off.
    fn step(&self, run: &mut Self::Run) -> Result<(), AdaptError> {
        let AdaptRun { session, state } = run;
        let metrics = gnnav_obs::global();
        let journal = metrics.journal();
        let epoch = session.epochs_run();
        let stats = session.run_epoch()?;
        state.observed.push(ObservedEpoch::of(session.config(), &stats));

        let verdict = state.drift.observe(
            self.runner.opts.drift_threshold,
            &EpochSignal {
                time_s: state.predicted.time_s,
                hit_rate: state.predicted.hit_rate,
                mem_bytes: state.predicted.mem_bytes,
            },
            &EpochSignal {
                time_s: stats.sim_s,
                hit_rate: stats.hit_rate,
                mem_bytes: stats.peak_mem_bytes as f64,
            },
        );
        state.drift_scores.push(verdict.ewma);
        if metrics.is_enabled() {
            metrics.gauge_set(metric::ADAPT_DRIFT_SCORE, verdict.ewma);
        }
        if journal.is_enabled() {
            journal.instant(
                metric::EVENT_DRIFT,
                metric::TRACK_ADAPT,
                Some(session.sim_time_total().as_secs() * 1e6),
                vec![
                    ("epoch".into(), (epoch as u64).into()),
                    ("score".into(), verdict.score.into()),
                    ("ewma".into(), verdict.ewma.into()),
                    ("triggered".into(), verdict.triggered.into()),
                ],
            );
        }

        // A recovery-ladder degradation means the config we are
        // executing is no longer the config we planned — re-explore
        // even if the drift band has not caught up yet.
        let degradations = session.recovery().degradations.len();
        let degraded = degradations > state.seen_degradations;
        state.seen_degradations = degradations;

        let remaining = self.exec_opts.epochs - (epoch + 1);
        if (verdict.triggered || degraded) && remaining > 0 && state.switches.len() < MAX_SWITCHES {
            state.reexplorations += 1;
            self.reexplore(session, state, epoch, verdict.ewma)?;
            // Whether we switched (new baseline) or stayed (the
            // refreshed search endorsed the current config), the
            // drift band restarts: a cooldown against thrashing.
            state.drift.reset();
        }
        Ok(())
    }

    fn encode(run: &mut Self::Run) -> Vec<u8> {
        AdaptiveCheckpoint { session: run.session.checkpoint(), state: run.state.clone() }.encode()
    }
}

impl AdaptLoop<'_, '_> {
    /// One incremental re-exploration after `epoch`: warm-start refit
    /// on observed epochs, seeded DFS under the remaining budget,
    /// compatibility filter, switch if the decision differs from the
    /// running config.
    fn reexplore(
        &self,
        session: &mut ExecutionSession<'_>,
        state: &mut AdaptState,
        epoch: usize,
        drift_ewma: f64,
    ) -> Result<(), AdaptError> {
        let metrics = gnnav_obs::global();
        let journal = metrics.journal();
        let started = Instant::now();
        let platform = &self.runner.platform;
        let priority = self.exploration.guideline.priority;

        // Warm-start refit: replicate the observed epochs until they
        // carry ~OBSERVED_WEIGHT:1 mass against the original sweep, so
        // the ridge coefficients are pulled toward what the hardware is
        // actually doing without discarding the sweep's coverage.
        let observed: Vec<ProfileRecord> =
            state.observed.iter().map(|o| o.record(self.dataset, platform)).collect();
        let mut db = self.profile_db.clone();
        let weight = (OBSERVED_WEIGHT * db.len().div_ceil(observed.len().max(1))).max(1);
        db.merge_weighted(&observed, weight);
        let mut estimator = GrayBoxEstimator::new();
        estimator.fit(&db)?;

        // The time constraint applies to the epochs still ahead: spend
        // of the epochs already run shrinks the per-epoch allowance.
        let total_epochs = self.exec_opts.epochs;
        let tightened = remaining_budget(
            self.constraints,
            total_epochs,
            total_epochs - (epoch + 1),
            session.sim_time_total().as_secs(),
        );

        let explorer = Explorer::new(&estimator, REEXPLORE_BUDGET);
        let result = explorer.explore_from(
            self.dataset,
            platform,
            session.config().model,
            priority,
            &tightened,
            &state.seeds,
        )?;

        // Mid-training we can only adopt configs that preserve the
        // model weights (same architecture/precision); re-decide over
        // the compatible survivors rather than trusting the global pick.
        let compatible: Vec<EvaluatedCandidate> =
            result.evaluated.iter().filter(|c| session.compatible(&c.config)).cloned().collect();
        let reexplore_wall_ms = started.elapsed().as_secs_f64() * 1e3;
        if metrics.is_enabled() {
            metrics.gauge_set(metric::ADAPT_REEXPLORE_MS, reexplore_wall_ms);
        }

        let pick = match decide(&compatible, priority) {
            Some(g) if g.config != *session.config() => g,
            _ => {
                state.seeds = front_configs(&result, session.config());
                return Ok(());
            }
        };

        let from = session.config().clone();
        let migration = session.switch_config(&pick.config)?;
        state.seeds = front_configs(&result, session.config());

        let reason = format!(
            "drift EWMA {drift_ewma:.3} after epoch {epoch}; re-explored {} candidates \
             ({} weight-compatible) under the remaining budget",
            result.evaluated.len(),
            compatible.len(),
        );
        state.audit.push(AuditRecord {
            config: pick.config.summary(),
            estimate: Some(pick.estimate),
            action: AuditAction::Switched,
            reason: reason.into(),
            seed_candidate: false,
        });
        if metrics.is_enabled() {
            metrics.add(metric::ADAPT_SWITCHES, 1);
        }
        if journal.is_enabled() {
            journal.instant(
                metric::EVENT_SWITCH,
                metric::TRACK_ADAPT,
                Some(session.sim_time_total().as_secs() * 1e6),
                vec![
                    ("epoch".into(), (epoch as u64).into()),
                    ("from".into(), from.summary().into()),
                    ("to".into(), pick.config.summary().into()),
                    ("migration_s".into(), migration.as_secs().into()),
                ],
            );
        }

        state.predicted = pick.estimate;
        state.switches.push(SwitchPlan {
            epoch,
            from,
            to: pick.config,
            migration_sim_s: migration.as_secs(),
            predicted: pick.estimate,
            drift_ewma,
            reexplore_wall_ms,
        });
        Ok(())
    }
}

/// The Pareto-front configurations of `result`, with `current`
/// prepended — the seed set of the next re-exploration.
fn front_configs(result: &ExplorationResult, current: &TrainingConfig) -> Vec<TrainingConfig> {
    let mut seeds = vec![current.clone()];
    for &i in result.front.iter() {
        let c = &result.evaluated[i].config;
        if c != current {
            seeds.push(c.clone());
        }
    }
    seeds
}

/// Splits the remaining time budget evenly over the remaining epochs:
/// per-epoch allowance `min(max_t, (total − spent) / remaining)`,
/// floored at zero so an overspent run asks for the fastest feasible
/// config instead of a negative-time one.
fn remaining_budget(
    constraints: &RuntimeConstraints,
    total_epochs: usize,
    remaining_epochs: usize,
    sim_spent_s: f64,
) -> RuntimeConstraints {
    let mut tightened = *constraints;
    if let Some(max_t) = constraints.max_time_s {
        let total = max_t * total_epochs as f64;
        let left = (total - sim_spent_s).max(0.0);
        tightened.max_time_s = Some((left / remaining_epochs.max(1) as f64).min(max_t));
    }
    tightened
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_validate() {
        assert!(AdaptOptions::default().validate().is_ok());
    }

    #[test]
    fn bad_options_are_rejected() {
        for drift_threshold in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            let o = AdaptOptions { drift_threshold };
            assert!(
                matches!(o.validate(), Err(AdaptError::InvalidOptions(_))),
                "{drift_threshold}"
            );
        }
    }

    #[test]
    fn remaining_budget_tightens_with_spend() {
        let c = RuntimeConstraints { max_time_s: Some(2.0), ..RuntimeConstraints::none() };
        // 10 epochs * 2 s = 20 s total; 12 s spent after 4 epochs
        // leaves 8 s over 6 epochs.
        let t = remaining_budget(&c, 10, 6, 12.0);
        assert!((t.max_time_s.unwrap() - 8.0 / 6.0).abs() < 1e-12);
        // Underspend never loosens beyond the original per-epoch cap.
        let t = remaining_budget(&c, 10, 6, 1.0);
        assert_eq!(t.max_time_s, Some(2.0));
        // Overspend floors at zero rather than going negative.
        let t = remaining_budget(&c, 10, 2, 25.0);
        assert_eq!(t.max_time_s, Some(0.0));
        // No constraint stays no constraint.
        let t = remaining_budget(&RuntimeConstraints::none(), 10, 5, 12.0);
        assert_eq!(t.max_time_s, None);
    }

    #[test]
    fn observed_epochs_use_per_iteration_phases() {
        let stats = EpochStats {
            epoch: 0,
            sim_s: 4.0,
            hit_rate: 0.5,
            peak_mem_bytes: 1_000_000,
            batches: 4,
            nodes: 400,
            edges: 4000,
            phase_s: [1.0, 1.0, 1.0, 1.0],
            n_iter: 4,
        };
        let o = ObservedEpoch::of(&TrainingConfig::default(), &stats);
        assert_eq!(o.phase_s, [0.25, 0.25, 0.25, 0.25]);
        assert_eq!(o.n_iter, 4.0);
        assert_eq!(o.avg_batch_nodes, 100.0);
        assert_eq!(o.accuracy, 0.0, "observed records must not pollute the accuracy fit");

        let dataset =
            gnnav_graph::Dataset::load_scaled(gnnav_graph::DatasetId::Reddit2, 0.01).expect("load");
        let r = o.record(&dataset, &Platform::default_rtx4090());
        assert_eq!((r.dataset_id, &r.context.config), (dataset.id(), &o.config));
        assert_eq!((r.phase_s, r.n_iter, r.accuracy), (o.phase_s, o.n_iter, o.accuracy));
    }
}
