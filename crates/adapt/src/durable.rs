//! Crash-safe durability for the adaptive loop.
//!
//! [`AdaptiveRunner::run_durable`] mirrors the runtime backend's
//! `execute_durable`: it checkpoints the *entire* adaptive state (the
//! wrapped [`SessionCheckpoint`] plus the drift detector, the observed
//! warm-start records, the re-exploration seeds, and every switch
//! already taken) after every K completed epochs, honors injected
//! `ProcessKill` / `TornWrite` / `BitFlip` faults, and resumes from
//! the newest verifiable checkpoint. A killed adaptive run re-invoked
//! with the same arguments finishes with a report byte-identical to
//! the uninterrupted run — including the same switches at the same
//! epochs.

use crate::runner::AdaptState;
use crate::{AdaptError, AdaptiveReport, AdaptiveRunner, DriftDetector};
use gnnav_estimator::{Context, PerfEstimate, ProfileDb, ProfileRecord};
use gnnav_explorer::{AuditAction, AuditRecord, ExplorationResult, RuntimeConstraints};
use gnnav_faults::{FaultInjector, FaultKind};
use gnnav_graph::Dataset;
use gnnav_obs::names as metric;
use gnnav_runtime::checkpoint::{get_config, put_config, LINEAGE_WAL};
use gnnav_runtime::{
    DurabilityOptions, ExecutionOptions, ExecutionSession, RuntimeError, SessionCheckpoint,
    TrainingConfig,
};
use gnnav_store::{ByteReader, ByteWriter, CheckpointDir, StoreError, Wal};

/// Leading payload byte of an adaptive checkpoint — distinct from the
/// runtime session tag so neither layer resumes from the other's file.
pub const ADAPT_PAYLOAD_TAG: u8 = 2;

/// One observed epoch, stored as its config plus measurements; the
/// [`Context`] is rebuilt from the dataset and platform at resume.
#[derive(Debug, Clone)]
struct ObservedEpoch {
    config: TrainingConfig,
    epoch_time_s: f64,
    mem_bytes: f64,
    accuracy: f64,
    hit_rate: f64,
    avg_batch_nodes: f64,
    avg_batch_edges: f64,
    phase_s: [f64; 4],
    n_iter: f64,
}

/// Everything the adaptive loop needs to continue after a crash.
///
/// Wraps the runtime's [`SessionCheckpoint`] (model weights, optimizer
/// and RNG state, cache contents, simulated clock) and adds the
/// adaptive layer's own state: the drift detector's EWMA band, the
/// observed epochs that feed the warm-start refit, the re-exploration
/// seed set, the current prediction baseline, and the accumulated
/// switches/audit/drift history that the final [`AdaptiveReport`]
/// reproduces verbatim.
#[derive(Debug, Clone)]
pub struct AdaptiveCheckpoint {
    session: SessionCheckpoint,
    predicted: PerfEstimate,
    seeds: Vec<TrainingConfig>,
    detector: (Option<f64>, u32, u64),
    observed: Vec<ObservedEpoch>,
    switches: Vec<crate::SwitchPlan>,
    drift_scores: Vec<f64>,
    audit: Vec<AuditRecord>,
    reexplorations: u32,
    seen_degradations: usize,
}

fn put_estimate(w: &mut ByteWriter, e: &PerfEstimate) {
    w.put_f64(e.time_s);
    w.put_f64(e.mem_bytes);
    w.put_f64(e.accuracy);
    w.put_f64(e.batch_nodes);
    w.put_f64(e.hit_rate);
}

fn get_estimate(r: &mut ByteReader) -> Result<PerfEstimate, StoreError> {
    Ok(PerfEstimate {
        time_s: r.get_f64()?,
        mem_bytes: r.get_f64()?,
        accuracy: r.get_f64()?,
        batch_nodes: r.get_f64()?,
        hit_rate: r.get_f64()?,
    })
}

fn action_tag(a: AuditAction) -> u8 {
    match a {
        AuditAction::Accepted => 0,
        AuditAction::Rejected => 1,
        AuditAction::PrunedSubtree => 2,
        AuditAction::Selected => 3,
        AuditAction::Fallback => 4,
        AuditAction::Switched => 5,
    }
}

fn action_from_tag(t: u8) -> Result<AuditAction, StoreError> {
    Ok(match t {
        0 => AuditAction::Accepted,
        1 => AuditAction::Rejected,
        2 => AuditAction::PrunedSubtree,
        3 => AuditAction::Selected,
        4 => AuditAction::Fallback,
        5 => AuditAction::Switched,
        t => return Err(StoreError::decode(format!("unknown audit-action tag {t}"))),
    })
}

impl AdaptiveCheckpoint {
    /// Captures the adaptive loop's full state.
    pub(crate) fn capture(state: &mut AdaptState<'_>) -> AdaptiveCheckpoint {
        AdaptiveCheckpoint {
            session: state.session.checkpoint(),
            predicted: state.predicted,
            seeds: state.seeds.clone(),
            detector: state.detector.state(),
            observed: state
                .observed
                .iter()
                .map(|r| ObservedEpoch {
                    config: r.context.config.clone(),
                    epoch_time_s: r.epoch_time_s,
                    mem_bytes: r.mem_bytes,
                    accuracy: r.accuracy,
                    hit_rate: r.hit_rate,
                    avg_batch_nodes: r.avg_batch_nodes,
                    avg_batch_edges: r.avg_batch_edges,
                    phase_s: r.phase_s,
                    n_iter: r.n_iter,
                })
                .collect(),
            switches: state.switches.clone(),
            drift_scores: state.drift_scores.clone(),
            audit: state.audit.clone(),
            reexplorations: state.reexplorations,
            seen_degradations: state.seen_degradations,
        }
    }

    /// Serializes to the versioned binary payload (tag
    /// [`ADAPT_PAYLOAD_TAG`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(ADAPT_PAYLOAD_TAG);
        let session = self.session.encode();
        w.put_usize(session.len());
        w.put_raw(&session);
        put_estimate(&mut w, &self.predicted);
        w.put_usize(self.seeds.len());
        for c in &self.seeds {
            put_config(&mut w, c);
        }
        let (ewma, streak, observed_epochs) = self.detector;
        match ewma {
            Some(v) => {
                w.put_bool(true);
                w.put_f64(v);
            }
            None => w.put_bool(false),
        }
        w.put_u32(streak);
        w.put_u64(observed_epochs);
        w.put_usize(self.observed.len());
        for o in &self.observed {
            put_config(&mut w, &o.config);
            w.put_f64(o.epoch_time_s);
            w.put_f64(o.mem_bytes);
            w.put_f64(o.accuracy);
            w.put_f64(o.hit_rate);
            w.put_f64(o.avg_batch_nodes);
            w.put_f64(o.avg_batch_edges);
            for p in o.phase_s {
                w.put_f64(p);
            }
            w.put_f64(o.n_iter);
        }
        w.put_usize(self.switches.len());
        for s in &self.switches {
            w.put_usize(s.epoch);
            put_config(&mut w, &s.from);
            put_config(&mut w, &s.to);
            w.put_f64(s.migration_sim_s);
            put_estimate(&mut w, &s.predicted);
            w.put_f64(s.drift_ewma);
            w.put_f64(s.reexplore_wall_ms);
        }
        w.put_usize(self.drift_scores.len());
        for &d in &self.drift_scores {
            w.put_f64(d);
        }
        w.put_usize(self.audit.len());
        for a in &self.audit {
            w.put_str(&a.config);
            match &a.estimate {
                Some(e) => {
                    w.put_bool(true);
                    put_estimate(&mut w, e);
                }
                None => w.put_bool(false),
            }
            w.put_u8(action_tag(a.action));
            w.put_str(&a.reason);
            w.put_bool(a.seed_candidate);
        }
        w.put_u32(self.reexplorations);
        w.put_usize(self.seen_degradations);
        w.finish()
    }

    /// Decodes a payload produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// [`StoreError::Decode`] on a foreign tag, truncation, trailing
    /// bytes, or any unknown enum tag.
    pub fn decode(payload: &[u8]) -> Result<AdaptiveCheckpoint, StoreError> {
        let mut r = ByteReader::new(payload);
        let tag = r.get_u8()?;
        if tag != ADAPT_PAYLOAD_TAG {
            return Err(StoreError::decode(format!(
                "payload tag {tag} is not an adaptive checkpoint (want {ADAPT_PAYLOAD_TAG})"
            )));
        }
        let session_len = r.get_usize()?;
        let session = SessionCheckpoint::decode(r.get_raw(session_len)?)?;
        let predicted = get_estimate(&mut r)?;
        let n = r.get_usize()?;
        let mut seeds = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            seeds.push(get_config(&mut r)?);
        }
        let ewma = if r.get_bool()? { Some(r.get_f64()?) } else { None };
        let streak = r.get_u32()?;
        let observed_epochs = r.get_u64()?;
        let n = r.get_usize()?;
        let mut observed = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            observed.push(ObservedEpoch {
                config: get_config(&mut r)?,
                epoch_time_s: r.get_f64()?,
                mem_bytes: r.get_f64()?,
                accuracy: r.get_f64()?,
                hit_rate: r.get_f64()?,
                avg_batch_nodes: r.get_f64()?,
                avg_batch_edges: r.get_f64()?,
                phase_s: [r.get_f64()?, r.get_f64()?, r.get_f64()?, r.get_f64()?],
                n_iter: r.get_f64()?,
            });
        }
        let n = r.get_usize()?;
        let mut switches = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            switches.push(crate::SwitchPlan {
                epoch: r.get_usize()?,
                from: get_config(&mut r)?,
                to: get_config(&mut r)?,
                migration_sim_s: r.get_f64()?,
                predicted: get_estimate(&mut r)?,
                drift_ewma: r.get_f64()?,
                reexplore_wall_ms: r.get_f64()?,
            });
        }
        let n = r.get_usize()?;
        let mut drift_scores = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            drift_scores.push(r.get_f64()?);
        }
        let n = r.get_usize()?;
        let mut audit = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            audit.push(AuditRecord {
                config: r.get_str()?,
                estimate: if r.get_bool()? { Some(get_estimate(&mut r)?) } else { None },
                action: action_from_tag(r.get_u8()?)?,
                reason: r.get_str()?.into(),
                seed_candidate: r.get_bool()?,
            });
        }
        let reexplorations = r.get_u32()?;
        let seen_degradations = r.get_usize()?;
        if !r.is_exhausted() {
            return Err(StoreError::decode(format!(
                "{} trailing bytes after adaptive checkpoint",
                r.remaining()
            )));
        }
        Ok(AdaptiveCheckpoint {
            session,
            predicted,
            seeds,
            detector: (ewma, streak, observed_epochs),
            observed,
            switches,
            drift_scores,
            audit,
            reexplorations,
            seen_degradations,
        })
    }
}

fn store_err(e: StoreError) -> AdaptError {
    AdaptError::Runtime(RuntimeError::from(e))
}

impl AdaptiveRunner {
    /// Rebuilds the adaptive loop from a checkpoint taken on this
    /// platform.
    fn restore_state<'d>(
        &self,
        dataset: &'d Dataset,
        exploration: &ExplorationResult,
        exec_opts: &ExecutionOptions,
        ckpt: AdaptiveCheckpoint,
    ) -> Result<AdaptState<'d>, AdaptError> {
        let metrics = gnnav_obs::global();
        if metrics.is_enabled() {
            metrics.add(metric::ADAPT_SWITCHES, 0);
        }
        let session =
            ExecutionSession::resume(self.platform.clone(), dataset, exec_opts, &ckpt.session)?;
        let mut detector = DriftDetector::new(self.opts.drift.clone());
        let (ewma, streak, observed_epochs) = ckpt.detector;
        detector.restore(ewma, streak, observed_epochs);
        let observed = ckpt
            .observed
            .into_iter()
            .map(|o| ProfileRecord {
                dataset_id: dataset.id(),
                context: Context::new(dataset, &self.platform, o.config),
                epoch_time_s: o.epoch_time_s,
                mem_bytes: o.mem_bytes,
                accuracy: o.accuracy,
                hit_rate: o.hit_rate,
                avg_batch_nodes: o.avg_batch_nodes,
                avg_batch_edges: o.avg_batch_edges,
                phase_s: o.phase_s,
                n_iter: o.n_iter,
            })
            .collect();
        Ok(AdaptState {
            session,
            priority: exploration.guideline.priority,
            predicted: ckpt.predicted,
            seeds: ckpt.seeds,
            detector,
            observed,
            switches: ckpt.switches,
            drift_scores: ckpt.drift_scores,
            audit: ckpt.audit,
            reexplorations: ckpt.reexplorations,
            seen_degradations: ckpt.seen_degradations,
        })
    }

    /// Runs the adaptive loop with crash-safe durability: resume from
    /// the newest verifiable checkpoint in `dur.dir` (when
    /// `dur.resume`), checkpoint every `dur.every` completed epochs,
    /// and honor the crash/corruption fault kinds in
    /// `exec_opts.fault_plan` exactly like the runtime backend's
    /// durable driver:
    ///
    /// - `ProcessKill` at epoch-boundary site `e` aborts with
    ///   [`RuntimeError::Killed`] before epoch `e` runs (the attempt
    ///   number is the lineage's persisted kill count, so
    ///   `duration_attempts` bounds kills per checkpoint directory).
    /// - `TornWrite` / `BitFlip` at site `e` corrupt the checkpoint
    ///   written after epoch `e`, exercising the resume fallback.
    ///
    /// A run killed at any boundary and re-invoked with the same
    /// arguments produces an [`AdaptiveReport`] whose report,
    /// switches, and drift history match the uninterrupted run
    /// (only the advisory `reexplore_wall_ms` wall-clock field may
    /// differ).
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
        self.opts.validate()?;
        let ckpts = CheckpointDir::create(&dur.dir, "adapt").map_err(store_err)?;
        let mut lineage = Wal::open(dur.dir.join(LINEAGE_WAL)).map_err(store_err)?;
        let kill_attempt = lineage.len() as u32;
        let every = dur.every.max(1);

        let mut state = None;
        if dur.resume {
            if let Some((_, payload)) = ckpts.load_latest().map_err(store_err)? {
                match AdaptiveCheckpoint::decode(&payload) {
                    Ok(ckpt) => {
                        state = Some(self.restore_state(dataset, exploration, exec_opts, ckpt)?);
                    }
                    Err(_) => {
                        // CRC-valid but undecodable (foreign tag or
                        // incompatible shape): reject like any other
                        // damaged checkpoint and cold-start.
                        let metrics = gnnav_obs::global();
                        if metrics.is_enabled() {
                            metrics.add(metric::STORE_CHECKPOINT_REJECTED, 1);
                        }
                    }
                }
            }
        }
        let mut state = match state {
            Some(s) => s,
            None => self.cold_state(dataset, exploration, exec_opts)?,
        };

        let kill_injector =
            exec_opts.fault_plan.as_ref().filter(|p| !p.is_empty()).map(FaultInjector::new);
        while state.session.epochs_run() < exec_opts.epochs {
            let epoch = state.session.epochs_run();
            if let Some(inj) = &kill_injector {
                if inj.inject(FaultKind::ProcessKill, epoch as u64, kill_attempt, None).is_some() {
                    // Record the kill in the lineage log so the next
                    // life sees attempt+1, then "die".
                    lineage.append(&(epoch as u64).to_le_bytes()).map_err(store_err)?;
                    let metrics = gnnav_obs::global();
                    let journal = metrics.journal();
                    if journal.is_enabled() {
                        journal.instant(
                            metric::EVENT_KILL,
                            metric::TRACK_STORE,
                            None,
                            vec![
                                ("epoch".into(), epoch.into()),
                                ("attempt".into(), (kill_attempt as u64).into()),
                            ],
                        );
                    }
                    return Err(AdaptError::Runtime(RuntimeError::Killed { epoch }));
                }
            }
            self.step_epoch(&mut state, dataset, profile_db, constraints, exec_opts.epochs)?;
            let done = state.session.epochs_run();
            if done % every == 0 && done < exec_opts.epochs {
                let payload = AdaptiveCheckpoint::capture(&mut state).encode();
                ckpts.write(done, &payload).map_err(store_err)?;
                let metrics = gnnav_obs::global();
                if metrics.is_enabled() {
                    metrics.gauge_set(metric::STORE_CHECKPOINT_BYTES, payload.len() as f64);
                }
                if let Some(inj) = &kill_injector {
                    let site = (done - 1) as u64;
                    let path = ckpts.path_for(done);
                    if let Some(m) = inj.inject(FaultKind::TornWrite, site, 0, None) {
                        gnnav_store::corrupt::torn_write(&path, m.max(1.0) as u64)
                            .map_err(store_err)?;
                    }
                    if let Some(m) = inj.inject(FaultKind::BitFlip, site, 0, None) {
                        gnnav_store::corrupt::bit_flip(&path, m.max(0.0) as u64, 3)
                            .map_err(store_err)?;
                    }
                }
            }
        }
        state.into_report()
    }
}
