//! The reconfigurable runtime backend.
//!
//! [`RuntimeBackend::execute`] runs Algorithm 1 of the paper under a
//! [`TrainingConfig`]: per iteration it samples a mini-batch on the
//! host, splits it against the device cache, charges transfer for the
//! misses, updates the cache, and performs a *real* training step with
//! the NN substrate — while the hardware simulator supplies phase
//! times and the memory ledger enforces device capacity.

use crate::checkpoint::{DurabilityOptions, SessionCheckpoint};
use crate::config::TrainingConfig;
use crate::driver::{drive, EpochLoop};
use crate::perf::Perf;
use crate::session::{ExecutionSession, ExecutionTrace};
use crate::RuntimeError;
use gnnav_faults::FaultPlan;
use gnnav_graph::Dataset;
use gnnav_hwsim::{Platform, SimTime};

/// Probability (at `η = 1`) that a cold training target is replaced
/// by a hot one during locality-aware target scheduling.
pub const TARGET_SWAP_AT_FULL_ETA: f64 = 0.65;

/// Largest micro-batch division the degradation ladder will try
/// before falling through to fanout reduction.
pub const MAX_MICRO_BATCH: usize = 16;

/// A `LinkDegrade` fault with magnitude at or above this factor is a
/// *stall* (the transfer never completes) and is retried with
/// backoff; below it, the magnitude just multiplies transfer time.
pub const LINK_STALL_FACTOR: f64 = 1e6;

/// Options controlling one backend execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionOptions {
    /// Number of epochs to simulate (and train).
    pub epochs: usize,
    /// Whether to actually train the GNN (accuracy is 0 when false —
    /// used by timing-only sweeps).
    pub train: bool,
    /// Train on at most this many mini-batches per epoch (timing still
    /// covers every batch). `None` trains on all batches.
    pub train_batches_cap: Option<usize>,
    /// RNG seed for batching, sampling, and model init.
    pub seed: u64,
    /// Learning rate of the Adam optimizer.
    pub learning_rate: f32,
    /// Deterministic fault schedule injected into this run; `None`
    /// runs clean.
    pub fault_plan: Option<FaultPlan>,
    /// How the backend retries and degrades around faults.
    pub recovery: RecoveryPolicy,
    /// Whether this execution writes span/instant events into the
    /// journal (when the journal itself is enabled). Profiler probe
    /// runs and comparison templates set this to `false` so the
    /// exported trace carries exactly one backend timeline — the
    /// navigated execution.
    pub journal: bool,
}

impl Default for ExecutionOptions {
    fn default() -> Self {
        ExecutionOptions {
            epochs: 3,
            train: true,
            train_batches_cap: None,
            seed: 0x6AA7,
            learning_rate: 0.01,
            fault_plan: None,
            recovery: RecoveryPolicy::default(),
            journal: true,
        }
    }
}

impl ExecutionOptions {
    /// Fast timing-only options (no training, 1 epoch).
    pub fn timing_only() -> Self {
        ExecutionOptions { epochs: 1, train: false, ..ExecutionOptions::default() }
    }
}

/// How [`RuntimeBackend::execute`] retries transient faults and
/// degrades under persistent pressure.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Bounded retries per fault site before escalating (to the
    /// degradation ladder for memory claims, to a typed error for
    /// sampling failures).
    pub max_retries: u32,
    /// Base backoff pause in simulated milliseconds; doubles on each
    /// retry and is charged to epoch time.
    pub backoff_base_ms: f64,
    /// When on, a non-finite training loss is skipped (not recorded)
    /// and the learning rate is halved instead of poisoning the
    /// loss history.
    pub nan_guard: bool,
    /// How many LR halvings the NaN guard may spend before declaring
    /// the run unrecoverable.
    pub max_lr_halvings: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { max_retries: 3, backoff_base_ms: 1.0, nan_guard: true, max_lr_halvings: 8 }
    }
}

/// One step of the graceful-degradation ladder, in escalation order:
/// shrink the feature cache, split the batch into micro-batches,
/// finally reduce sampling fanout.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DegradationStep {
    /// Halved the cache to free Γ_cache for the batch claim.
    ShrinkCache {
        /// Entries before the shrink.
        from_entries: usize,
        /// Entries after the shrink.
        to_entries: usize,
    },
    /// Split each batch's transient claim across this many
    /// micro-steps (extra kernel launches are charged).
    MicroBatch {
        /// Current division factor.
        factor: usize,
    },
    /// Halved the sampling fanouts (min 1) to shrink mini-batches.
    ReduceFanout {
        /// The fanouts now in effect.
        fanouts: Vec<usize>,
    },
}

impl DegradationStep {
    /// Stable action label for journal events.
    pub fn label(&self) -> &'static str {
        match self {
            DegradationStep::ShrinkCache { .. } => "shrink_cache",
            DegradationStep::MicroBatch { .. } => "micro_batch",
            DegradationStep::ReduceFanout { .. } => "reduce_fanout",
        }
    }
}

/// What the run had to absorb and how it recovered — part of every
/// [`ExecutionReport`]; all-zero on a clean run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryLog {
    /// Faults the plan injected into this run.
    pub faults_injected: u64,
    /// Bounded retries performed (sampling + memory claims).
    pub retries: u32,
    /// Degradation-ladder steps taken, in order.
    pub degradations: Vec<DegradationStep>,
    /// Training steps skipped by the NaN guard.
    pub nan_steps_skipped: u32,
    /// Learning-rate halvings spent by the NaN guard.
    pub lr_halvings: u32,
    /// Simulated time charged to backoff pauses and ladder work.
    pub recovery_sim: SimTime,
}

impl RecoveryLog {
    /// True when the run needed no recovery at all.
    pub fn is_clean(&self) -> bool {
        self.faults_injected == 0
            && self.retries == 0
            && self.degradations.is_empty()
            && self.nan_steps_skipped == 0
    }
}

/// Full result of a backend execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// The measured performance triple and diagnostics.
    pub perf: Perf,
    /// Per-training-step loss history.
    pub loss_history: Vec<f32>,
    /// The configuration that produced this report.
    pub config: TrainingConfig,
    /// Faults absorbed and recovery actions taken.
    pub recovery: RecoveryLog,
}

/// The reconfigurable backend bound to one hardware platform.
///
/// # Example
///
/// A timing-only run on a small synthetic slice of Reddit2 (runs in a
/// doctest):
///
/// ```
/// use gnnav_runtime::{ExecutionOptions, RuntimeBackend, TrainingConfig};
/// use gnnav_graph::{Dataset, DatasetId};
/// use gnnav_hwsim::Platform;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01)?;
/// let backend = RuntimeBackend::new(Platform::default_rtx4090());
/// let report = backend.execute(&dataset, &TrainingConfig::default(),
///                              &ExecutionOptions::timing_only())?;
/// assert!(report.perf.epoch_time.as_secs() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeBackend {
    platform: Platform,
}

impl RuntimeBackend {
    /// Creates a backend on `platform`.
    pub fn new(platform: Platform) -> Self {
        RuntimeBackend { platform }
    }

    /// The bound platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Executes training of `dataset` under `config`, returning the
    /// measured performance.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for inconsistent
    /// configurations, [`RuntimeError::Hw`] if the device runs out of
    /// memory, or [`RuntimeError::Graph`] on sampling failures.
    pub fn execute(
        &self,
        dataset: &Dataset,
        config: &TrainingConfig,
        opts: &ExecutionOptions,
    ) -> Result<ExecutionReport, RuntimeError> {
        self.execute_traced(dataset, config, opts).map(|(report, _)| report)
    }

    /// [`execute`](Self::execute), plus the platform-free
    /// [`ExecutionTrace`] of the run when it ended clean — what
    /// [`ExecutionTrace::recharge`] needs to return this same report
    /// for another platform without running anything.
    ///
    /// # Errors
    ///
    /// As [`execute`](Self::execute).
    pub fn execute_traced(
        &self,
        dataset: &Dataset,
        config: &TrainingConfig,
        opts: &ExecutionOptions,
    ) -> Result<(ExecutionReport, Option<ExecutionTrace>), RuntimeError> {
        drive(&SessionLoop { platform: &self.platform, dataset, config, opts }, opts, None)?
            .finish_traced()
    }

    /// [`execute`](Self::execute) with crash-safe durability: the same
    /// [`drive`] loop, persisting into `dur.dir` (resume, checkpoint
    /// cadence and the crash/corruption fault kinds are documented
    /// there). A checkpoint is resumed only if it was written by a run
    /// of this same `config`. A run killed at any boundary and
    /// re-invoked with the same arguments finishes with a report
    /// byte-identical to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// Everything [`execute`](Self::execute) returns, plus
    /// [`RuntimeError::Killed`] and [`RuntimeError::Store`].
    pub fn execute_durable(
        &self,
        dataset: &Dataset,
        config: &TrainingConfig,
        opts: &ExecutionOptions,
        dur: &DurabilityOptions,
    ) -> Result<ExecutionReport, RuntimeError> {
        drive(&SessionLoop { platform: &self.platform, dataset, config, opts }, opts, Some(dur))?
            .finish()
    }
}

/// The static run as an [`EpochLoop`]: a bare [`ExecutionSession`]
/// under one fixed config.
struct SessionLoop<'a, 'd> {
    platform: &'a Platform,
    dataset: &'d Dataset,
    config: &'a TrainingConfig,
    opts: &'a ExecutionOptions,
}

impl<'d> EpochLoop for SessionLoop<'_, 'd> {
    type Run = ExecutionSession<'d>;
    type Error = RuntimeError;
    const LABEL: &'static str = "session";

    fn open(&self) -> Result<Self::Run, RuntimeError> {
        ExecutionSession::new(self.platform.clone(), self.dataset, self.config, self.opts)
    }

    fn restore(&self, payload: &[u8]) -> Result<Option<Self::Run>, RuntimeError> {
        match SessionCheckpoint::decode(payload) {
            Ok(ckpt) if ckpt.ladder.config == *self.config => {
                ExecutionSession::resume(self.platform.clone(), self.dataset, self.opts, &ckpt)
                    .map(Some)
            }
            _ => Ok(None),
        }
    }

    fn epochs_run(run: &Self::Run) -> usize {
        run.epochs_run()
    }

    fn step(&self, run: &mut Self::Run) -> Result<(), RuntimeError> {
        run.run_epoch().map(drop)
    }

    fn encode(run: &mut Self::Run) -> Vec<u8> {
        run.checkpoint().encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnav_cache::CachePolicy;
    use gnnav_graph::DatasetId;

    fn tiny_dataset() -> Dataset {
        Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load")
    }

    fn small_config() -> TrainingConfig {
        TrainingConfig {
            batch_size: 64,
            fanouts: vec![5, 5],
            hidden_dim: 16,
            ..TrainingConfig::default()
        }
    }

    fn fast_opts() -> ExecutionOptions {
        ExecutionOptions { epochs: 1, train_batches_cap: Some(2), ..Default::default() }
    }

    #[test]
    fn execute_produces_consistent_report() {
        let d = tiny_dataset();
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        let r = backend.execute(&d, &small_config(), &fast_opts()).expect("run");
        assert!(r.perf.epoch_time.as_secs() > 0.0);
        assert!(r.perf.peak_mem_bytes > 0);
        assert!(r.perf.n_iter >= 1);
        assert!(r.perf.avg_batch_nodes >= 64.0);
        assert!(!r.loss_history.is_empty());
        assert!(r.perf.accuracy >= 0.0 && r.perf.accuracy <= 1.0);
    }

    #[test]
    fn timing_only_skips_training() {
        let d = tiny_dataset();
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        let r =
            backend.execute(&d, &small_config(), &ExecutionOptions::timing_only()).expect("run");
        assert!(r.loss_history.is_empty());
        assert_eq!(r.perf.accuracy, 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = tiny_dataset();
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        let a = backend.execute(&d, &small_config(), &fast_opts()).expect("run");
        let b = backend.execute(&d, &small_config(), &fast_opts()).expect("run");
        // The whole triple (and every diagnostic) must reproduce
        // bit-for-bit, not just the headline numbers.
        assert_eq!(a.perf, b.perf);
        assert_eq!(a.loss_history, b.loss_history);
    }

    #[test]
    fn zero_batches_yield_finite_zero_averages() {
        // An empty train split runs zero mini-batches; the batch
        // averages must come out 0.0, not NaN from a 0/0.
        let base = tiny_dataset();
        let test = base.split().test.clone();
        let d = base
            .with_split(gnnav_graph::Split { train: Vec::new(), val: Vec::new(), test })
            .expect("split");
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        let r =
            backend.execute(&d, &small_config(), &ExecutionOptions::timing_only()).expect("run");
        assert_eq!(r.perf.avg_batch_nodes, 0.0);
        assert_eq!(r.perf.avg_batch_edges, 0.0);
        assert_eq!(r.perf.n_iter, 0);
        assert!(r.loss_history.is_empty());
    }

    #[test]
    fn cache_reduces_transfer_time() {
        let d = tiny_dataset();
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        let mut no_cache = small_config();
        no_cache.cache_policy = CachePolicy::None;
        no_cache.cache_ratio = 0.0;
        let mut cached = small_config();
        cached.cache_policy = CachePolicy::StaticDegree;
        cached.cache_ratio = 0.5;
        let opts = ExecutionOptions::timing_only();
        let r0 = backend.execute(&d, &no_cache, &opts).expect("run");
        let r1 = backend.execute(&d, &cached, &opts).expect("run");
        assert_eq!(r0.perf.hit_rate, 0.0);
        assert!(r1.perf.hit_rate > 0.3, "hit rate {}", r1.perf.hit_rate);
        assert!(r1.perf.phases.transfer < r0.perf.phases.transfer);
        // But the cache costs memory.
        assert!(r1.perf.peak_mem_bytes > r0.perf.peak_mem_bytes);
    }

    #[test]
    fn pipelining_reduces_epoch_time() {
        let d = tiny_dataset();
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        let mut serial = small_config();
        serial.pipelined = false;
        let mut piped = small_config();
        piped.pipelined = true;
        let opts = ExecutionOptions::timing_only();
        let rs = backend.execute(&d, &serial, &opts).expect("run");
        let rp = backend.execute(&d, &piped, &opts).expect("run");
        assert!(rp.perf.epoch_time < rs.perf.epoch_time);
    }

    #[test]
    fn oom_reported_on_tiny_device() {
        use gnnav_hwsim::DeviceProfile;
        let d = tiny_dataset();
        let mut platform = Platform::default_rtx4090();
        platform.device = DeviceProfile {
            mem_capacity_bytes: 1000, // absurdly small
            ..platform.device
        };
        let backend = RuntimeBackend::new(platform);
        let err =
            backend.execute(&d, &small_config(), &ExecutionOptions::timing_only()).unwrap_err();
        assert!(matches!(err, RuntimeError::Hw(_)));
    }

    #[test]
    fn zero_epochs_rejected() {
        let d = tiny_dataset();
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        let opts = ExecutionOptions { epochs: 0, ..Default::default() };
        assert!(matches!(
            backend.execute(&d, &small_config(), &opts),
            Err(RuntimeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn training_actually_learns_on_products() {
        // PR is the easy dataset: even a short run beats the 1/47
        // random-guess floor by a wide margin.
        let d = Dataset::load_scaled(DatasetId::OgbnProducts, 0.02).expect("load");
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        let opts = ExecutionOptions { epochs: 4, ..Default::default() };
        let r = backend.execute(&d, &small_config(), &opts).expect("run");
        assert!(r.perf.accuracy > 0.3, "accuracy {}", r.perf.accuracy);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use gnnav_faults::{FaultKind, FaultPlan, FaultSpec};
    use gnnav_graph::DatasetId;

    fn tiny_dataset() -> Dataset {
        Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load")
    }

    fn small_config() -> TrainingConfig {
        TrainingConfig {
            batch_size: 64,
            fanouts: vec![5, 5],
            hidden_dim: 16,
            ..TrainingConfig::default()
        }
    }

    fn opts_with(plan: FaultPlan) -> ExecutionOptions {
        ExecutionOptions {
            epochs: 1,
            train_batches_cap: Some(4),
            fault_plan: Some(plan),
            ..Default::default()
        }
    }

    #[test]
    fn transient_oom_survived_with_retries() {
        let d = tiny_dataset();
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        // A huge spike on the first two batches that clears on the
        // third attempt — within the default retry budget.
        let plan = FaultPlan::new(11).with_fault(
            FaultSpec::new(FaultKind::TransientOom)
                .with_magnitude(1e12)
                .with_window(0, 2)
                .with_duration_attempts(2),
        );
        let r = backend.execute(&d, &small_config(), &opts_with(plan)).expect("survive");
        assert_eq!(r.recovery.retries, 4, "2 faulty batches x 2 failed attempts");
        assert!(r.recovery.faults_injected >= 4);
        assert!(r.recovery.degradations.is_empty());
        assert!(r.recovery.recovery_sim > SimTime::ZERO);
        assert!(!r.recovery.is_clean());
        assert!(r.perf.epoch_time.as_secs() > 0.0);
    }

    #[test]
    fn transient_oom_persistent_exhausts_ladder_with_typed_error() {
        let d = tiny_dataset();
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        // Persistent astronomically-large spike: retries, every ladder
        // rung, and fanout reduction all fail — the error must be
        // typed, never a panic.
        let plan = FaultPlan::new(12)
            .with_fault(FaultSpec::new(FaultKind::TransientOom).with_magnitude(1e15));
        let err = backend.execute(&d, &small_config(), &opts_with(plan)).unwrap_err();
        assert!(
            matches!(err, RuntimeError::RetriesExhausted { .. }),
            "expected RetriesExhausted, got {err}"
        );
        assert!(err.to_string().contains("degradation ladder exhausted"));
    }

    #[test]
    fn degradation_ladder_absorbs_real_memory_pressure() {
        use gnnav_hwsim::DeviceProfile;
        let d = tiny_dataset();
        let config = small_config();
        let opts = ExecutionOptions { epochs: 1, train_batches_cap: Some(2), ..Default::default() };

        // Measure the clean peak, then rerun on a device that cannot
        // quite hold it: the ladder must shrink the cache instead of
        // aborting.
        let clean = RuntimeBackend::new(Platform::default_rtx4090())
            .execute(&d, &config, &opts)
            .expect("clean run");
        let mut platform = Platform::default_rtx4090();
        platform.device =
            DeviceProfile { mem_capacity_bytes: clean.perf.peak_mem_bytes - 1, ..platform.device };
        let r = RuntimeBackend::new(platform).execute(&d, &config, &opts).expect("degraded run");
        assert!(
            r.recovery
                .degradations
                .iter()
                .any(|s| matches!(s, DegradationStep::ShrinkCache { .. })),
            "expected a cache shrink, got {:?}",
            r.recovery.degradations
        );
        assert_eq!(r.recovery.faults_injected, 0, "no injection involved");
        assert!(r.perf.peak_mem_bytes < clean.perf.peak_mem_bytes);
        // Degradation costs simulated time.
        assert!(r.recovery.recovery_sim > SimTime::ZERO);
    }

    #[test]
    fn sampler_failure_survived_then_exhausted() {
        let d = tiny_dataset();
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        let transient = FaultPlan::new(13).with_fault(
            FaultSpec::new(FaultKind::SamplerFailure).with_window(0, 3).with_duration_attempts(2),
        );
        let r = backend.execute(&d, &small_config(), &opts_with(transient)).expect("survive");
        assert_eq!(r.recovery.retries, 6, "3 faulty batches x 2 failed attempts");

        let persistent = FaultPlan::new(13).with_fault(FaultSpec::new(FaultKind::SamplerFailure));
        let err = backend.execute(&d, &small_config(), &opts_with(persistent)).unwrap_err();
        match err {
            RuntimeError::RetriesExhausted { what, attempts, .. } => {
                assert!(what.contains("sampling"), "what: {what}");
                assert_eq!(attempts, 4, "initial attempt + 3 retries");
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn link_degrade_stretches_transfer_and_stall_errors_out() {
        let d = tiny_dataset();
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        let opts = |plan| ExecutionOptions { train: false, ..opts_with(plan) };

        let clean = backend
            .execute(
                &d,
                &small_config(),
                &ExecutionOptions { train: false, ..opts_with(FaultPlan::new(0)) },
            )
            .expect("clean");
        let slow = FaultPlan::new(14)
            .with_fault(FaultSpec::new(FaultKind::LinkDegrade).with_magnitude(50.0));
        let r = backend.execute(&d, &small_config(), &opts(slow)).expect("degraded");
        assert!(
            r.perf.phases.transfer > clean.perf.phases.transfer * 10.0,
            "50x link degradation must dominate transfer time ({} vs {})",
            r.perf.phases.transfer,
            clean.perf.phases.transfer
        );

        // A persistent stall exhausts its retries.
        let stalled = FaultPlan::new(14)
            .with_fault(FaultSpec::new(FaultKind::LinkDegrade).with_magnitude(LINK_STALL_FACTOR));
        let err = backend.execute(&d, &small_config(), &opts(stalled)).unwrap_err();
        assert!(err.to_string().contains("stalled link"), "got {err}");

        // A transient stall (clears within the retry budget) survives.
        let blip = FaultPlan::new(14).with_fault(
            FaultSpec::new(FaultKind::LinkDegrade)
                .with_magnitude(LINK_STALL_FACTOR)
                .with_duration_attempts(1),
        );
        let r = backend.execute(&d, &small_config(), &opts(blip)).expect("blip survived");
        assert!(r.recovery.retries > 0);
    }

    #[test]
    fn nan_guard_skips_steps_and_halves_lr() {
        let d = tiny_dataset();
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        let plan =
            FaultPlan::new(15).with_fault(FaultSpec::new(FaultKind::NanLoss).with_window(0, 3));
        let clean =
            backend.execute(&d, &small_config(), &opts_with(FaultPlan::new(15))).expect("clean");
        let r = backend.execute(&d, &small_config(), &opts_with(plan)).expect("guarded");
        assert_eq!(r.recovery.nan_steps_skipped, 3);
        assert_eq!(r.recovery.lr_halvings, 3);
        assert_eq!(r.loss_history.len() + 3, clean.loss_history.len());
        assert!(r.loss_history.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn nan_guard_exhaustion_is_typed_error() {
        let d = tiny_dataset();
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        let plan = FaultPlan::new(16).with_fault(FaultSpec::new(FaultKind::NanLoss));
        let opts = ExecutionOptions {
            recovery: RecoveryPolicy { max_lr_halvings: 1, ..Default::default() },
            ..opts_with(plan)
        };
        let err = backend.execute(&d, &small_config(), &opts).unwrap_err();
        match err {
            RuntimeError::RetriesExhausted { what, .. } => {
                assert!(what.contains("NaN"), "what: {what}")
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn nan_guard_off_keeps_old_behavior() {
        let d = tiny_dataset();
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        let plan =
            FaultPlan::new(17).with_fault(FaultSpec::new(FaultKind::NanLoss).with_window(0, 1));
        let opts = ExecutionOptions {
            recovery: RecoveryPolicy { nan_guard: false, ..Default::default() },
            ..opts_with(plan)
        };
        let r = backend.execute(&d, &small_config(), &opts).expect("no guard, no error");
        assert!(r.loss_history.iter().any(|l| l.is_nan()), "NaN recorded verbatim");
        assert_eq!(r.recovery.nan_steps_skipped, 0);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let d = tiny_dataset();
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        let plan = FaultPlan::new(18)
            .with_fault(
                FaultSpec::new(FaultKind::TransientOom)
                    .with_probability(0.5)
                    .with_magnitude(1e12)
                    .with_duration_attempts(1),
            )
            .with_fault(FaultSpec::new(FaultKind::NanLoss).with_probability(0.5))
            .with_fault(
                FaultSpec::new(FaultKind::LinkDegrade).with_probability(0.5).with_magnitude(3.0),
            );
        let a = backend.execute(&d, &small_config(), &opts_with(plan.clone())).expect("a");
        let b = backend.execute(&d, &small_config(), &opts_with(plan)).expect("b");
        assert_eq!(a.perf, b.perf);
        assert_eq!(a.loss_history, b.loss_history);
        assert_eq!(a.recovery, b.recovery);
        assert!(!a.recovery.is_clean(), "plan at p=0.5 should have fired somewhere");
    }

    #[test]
    fn invalid_plan_and_policy_rejected_as_config_errors() {
        let d = tiny_dataset();
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        let bad_plan =
            FaultPlan::new(0).with_fault(FaultSpec::new(FaultKind::NanLoss).with_probability(2.0));
        assert!(matches!(
            backend.execute(&d, &small_config(), &opts_with(bad_plan)),
            Err(RuntimeError::InvalidConfig(_))
        ));
        let bad_policy = ExecutionOptions {
            recovery: RecoveryPolicy { backoff_base_ms: f64::NAN, ..Default::default() },
            ..ExecutionOptions::timing_only()
        };
        assert!(matches!(
            backend.execute(&d, &small_config(), &bad_policy),
            Err(RuntimeError::InvalidConfig(_))
        ));
    }
}

#[cfg(test)]
mod overhead_tests {
    use super::*;
    use crate::config::TrainingConfig;
    use gnnav_graph::DatasetId;

    /// With per-iteration overhead, halving the batch size (doubling
    /// n_iter) must NOT halve epoch time — the fixed cost per
    /// iteration caps the benefit of giant batches (and the cost of
    /// small ones scales with their count).
    #[test]
    fn per_iteration_overhead_limits_batch_scaling() {
        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
        let backend = RuntimeBackend::new(Platform::default_rtx4090());
        let opts = ExecutionOptions::timing_only();
        let run = |batch: usize| {
            let config = TrainingConfig { batch_size: batch, ..TrainingConfig::default() };
            backend.execute(&dataset, &config, &opts).expect("run").perf
        };
        let small = run(16);
        let large = run(128);
        // 8x fewer iterations must not yield an 8x speedup.
        let speedup = small.epoch_time.as_secs() / large.epoch_time.as_secs();
        assert!(speedup < 8.0, "batch scaling speedup {speedup} unexpectedly ideal");
        assert!(speedup > 1.0, "larger batches should still help somewhat");
    }
}
