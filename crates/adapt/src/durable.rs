//! The adaptive loop's checkpoint payload.
//!
//! [`AdaptiveRunner::run_durable`] persists through the runtime's one
//! epoch driver; what it persists is defined here: the *entire*
//! adaptive state (the wrapped [`SessionCheckpoint`] plus the drift
//! detector, the observed warm-start records, the re-exploration
//! seeds, and every switch already taken). A killed adaptive run
//! re-invoked with the same arguments finishes with a report
//! byte-identical to the uninterrupted run — including the same
//! switches at the same epochs.

use crate::runner::AdaptState;
use crate::{AdaptiveRunner, DriftDetector, SwitchPlan};
use gnnav_estimator::{Context, PerfEstimate, ProfileRecord};
use gnnav_explorer::{AuditRecord, ExplorationResult};
use gnnav_graph::Dataset;
use gnnav_obs::names as metric;
use gnnav_runtime::{
    ExecutionOptions, ExecutionSession, RuntimeError, SessionCheckpoint, TrainingConfig,
};
use gnnav_store::{decode_tagged, encode_tagged, wire_struct, ByteReader, ByteWriter, StoreError};

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
/// switches/audit/drift history that the final
/// [`AdaptiveReport`](crate::AdaptiveReport) reproduces verbatim.
#[derive(Debug, Clone)]
pub struct AdaptiveCheckpoint {
    session: SessionCheckpoint,
    predicted: PerfEstimate,
    seeds: Vec<TrainingConfig>,
    detector: (Option<f64>, u32, u64),
    observed: Vec<ObservedEpoch>,
    switches: Vec<SwitchPlan>,
    drift_scores: Vec<f64>,
    audit: Vec<AuditRecord>,
    reexplorations: u32,
    seen_degradations: usize,
}

impl AdaptiveCheckpoint {
    /// The config the checkpointed run started from — what identifies
    /// the run, since a switch replaces the session's own config.
    pub(crate) fn initial_config(&self) -> &TrainingConfig {
        self.switches.first().map_or(&self.session.config, |s| &s.from)
    }

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
        encode_tagged(ADAPT_PAYLOAD_TAG, self)
    }

    /// Decodes a payload produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// [`StoreError::Decode`] on a foreign tag, truncation, trailing
    /// bytes, or any unknown enum tag.
    pub fn decode(payload: &[u8]) -> Result<AdaptiveCheckpoint, StoreError> {
        decode_tagged(payload, ADAPT_PAYLOAD_TAG, "an adaptive checkpoint")
    }
}

wire_struct!(ObservedEpoch, TrainingConfig::MIN_BYTES + 11 * 8, {
    config,
    epoch_time_s,
    mem_bytes,
    accuracy,
    hit_rate,
    avg_batch_nodes,
    avg_batch_edges,
    phase_s,
    n_iter,
});

wire_struct!(SwitchPlan, 8 + 2 * TrainingConfig::MIN_BYTES + 8 + PerfEstimate::MIN_BYTES + 8 + 8, {
    epoch,
    from,
    to,
    migration_sim_s,
    predicted,
    drift_ewma,
    reexplore_wall_ms,
});

/// The session's own payload, length-prefixed.
fn put_session(w: &mut ByteWriter, session: &SessionCheckpoint) {
    let payload = session.encode();
    w.put_usize(payload.len());
    w.put_raw(&payload);
}

fn get_session(r: &mut ByteReader) -> Result<SessionCheckpoint, StoreError> {
    let len = r.get_usize()?;
    SessionCheckpoint::decode(r.get_raw(len)?)
}

// The body of an adaptive checkpoint payload: the session's own
// payload, then the adaptive layer's state.
wire_struct!(AdaptiveCheckpoint,
    8 + 1 + SessionCheckpoint::MIN_BYTES // the session payload
        + PerfEstimate::MIN_BYTES
        + 8 // seeds
        + 1 + 4 + 8 // detector
        + 8 + 8 + 8 + 8 // observed, switches, drift scores, audit
        + 4 + 8, // re-explorations, degradations seen
    {
        session with put_session, get_session,
        predicted,
        seeds,
        detector,
        observed,
        switches,
        drift_scores,
        audit,
        reexplorations,
        seen_degradations,
    }
);

impl AdaptiveRunner {
    /// Rebuilds the adaptive loop from a checkpoint taken on this
    /// platform.
    pub(crate) fn restore_state<'d>(
        &self,
        dataset: &'d Dataset,
        exploration: &ExplorationResult,
        exec_opts: &ExecutionOptions,
        ckpt: AdaptiveCheckpoint,
    ) -> Result<AdaptState<'d>, RuntimeError> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnav_explorer::AuditAction;
    use gnnav_hwsim::SimTime;
    use gnnav_nn::AdamState;
    use gnnav_runtime::{PhaseBreakdown, RecoveryLog};

    fn config(batch_size: usize) -> TrainingConfig {
        TrainingConfig { batch_size, ..TrainingConfig::default() }
    }

    fn estimate(time_s: f64) -> PerfEstimate {
        PerfEstimate {
            time_s,
            mem_bytes: 2.5e8,
            accuracy: 0.75,
            batch_nodes: 1234.5,
            hit_rate: 0.25,
        }
    }

    /// A hand-built checkpoint exercising every field of the layout:
    /// two seeds, a live EWMA, one observed epoch, one switch, and
    /// audit records with and without an estimate.
    fn sample_checkpoint() -> AdaptiveCheckpoint {
        let mut session = SessionCheckpoint {
            config: config(128),
            eff_config: config(128),
            cache_entries: 32,
            micro_batch: 1,
            fanout_reduced: false,
            params: vec![0.5, -1.25],
            dropout_rng: [1, 2, 3, 4],
            opt: AdamState { lr: 0.01, t: 7, m: vec![vec![0.1]], v: vec![vec![0.2]] },
            rng: [9, 8, 7, 6],
            cache: Default::default(),
            stats_carry: Default::default(),
            peak_mem_bytes: 123_456,
            phases: PhaseBreakdown::default(),
            epoch_time_total: SimTime::from_secs(6.75),
            total_nodes: 1000,
            total_edges: 5000,
            total_batches: 12,
            n_iter: 6,
            loss_history: vec![1.5, 1.2],
            recovery: RecoveryLog::default(),
            evictions: 17,
            epochs_run: 2,
            train_steps: 12,
            faults_injected: 0,
        };
        session.cache.capacity = 32;
        session.cache.resident = vec![3, 1, 4];
        session.stats_carry.lookups = 100;
        session.stats_carry.hits = 40;
        AdaptiveCheckpoint {
            session,
            predicted: estimate(1.5),
            seeds: vec![config(128), config(256)],
            detector: (Some(0.625), 2, 3),
            observed: vec![ObservedEpoch {
                config: config(64),
                epoch_time_s: 2.0,
                mem_bytes: 3.0e8,
                accuracy: 0.0,
                hit_rate: 0.5,
                avg_batch_nodes: 900.0,
                avg_batch_edges: 4000.0,
                phase_s: [0.1, 0.2, 0.3, 0.4],
                n_iter: 6.0,
            }],
            switches: vec![SwitchPlan {
                epoch: 1,
                from: config(64),
                to: config(128),
                migration_sim_s: 0.125,
                predicted: estimate(1.5),
                drift_ewma: 0.875,
                reexplore_wall_ms: 3.5,
            }],
            drift_scores: vec![0.25, 0.875],
            audit: vec![
                AuditRecord {
                    config: config(128).summary(),
                    estimate: Some(estimate(1.5)),
                    action: AuditAction::Switched,
                    reason: "drift".into(),
                    seed_candidate: false,
                },
                AuditRecord {
                    config: "pruned".into(),
                    estimate: None,
                    action: AuditAction::PrunedSubtree,
                    reason: "memory bound".into(),
                    seed_candidate: true,
                },
            ],
            reexplorations: 1,
            seen_degradations: 0,
        }
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let ckpt = sample_checkpoint();
        let decoded = AdaptiveCheckpoint::decode(&ckpt.encode()).expect("decode");
        assert_eq!(format!("{decoded:?}"), format!("{ckpt:?}"));
        assert_eq!(decoded.initial_config().batch_size, 64, "the first switch's `from`");
    }

    #[test]
    fn the_checkpoint_holds_the_codec_laws() {
        gnnav_store::laws::assert_laws(&sample_checkpoint());
        let no_fanouts = TrainingConfig { fanouts: Vec::new(), ..TrainingConfig::default() };
        let mut session = sample_checkpoint().session;
        session.config = no_fanouts.clone();
        session.eff_config = no_fanouts;
        session.params.clear();
        session.opt = AdamState { lr: 0.0, t: 0, m: Vec::new(), v: Vec::new() };
        session.cache = Default::default();
        session.loss_history.clear();
        gnnav_store::laws::assert_smallest(&AdaptiveCheckpoint {
            session,
            predicted: estimate(1.5),
            seeds: Vec::new(),
            detector: (None, 0, 0),
            observed: Vec::new(),
            switches: Vec::new(),
            drift_scores: Vec::new(),
            audit: Vec::new(),
            reexplorations: 0,
            seen_degradations: 0,
        });
    }

    #[test]
    fn decode_rejects_foreign_tag_truncation_and_trailing() {
        let bytes = sample_checkpoint().encode();

        // A static-session payload is not an adaptive checkpoint.
        let session = sample_checkpoint().session.encode();
        assert!(AdaptiveCheckpoint::decode(&session).is_err());

        let truncated = &bytes[..bytes.len() - 3];
        assert!(AdaptiveCheckpoint::decode(truncated).is_err());

        let mut trailing = bytes.clone();
        trailing.push(0);
        let err = AdaptiveCheckpoint::decode(&trailing).expect_err("trailing");
        assert!(err.to_string().contains("trailing"));

        // After the last audit record's action tag come its reason
        // (8 + 12 bytes), its seed flag, `reexplorations` (4) and
        // `seen_degradations` (8).
        let mut bad_action = bytes.clone();
        let at = bytes.len() - 34;
        assert_eq!(bad_action[at], 2, "PrunedSubtree tag");
        bad_action[at] = 99;
        let err = AdaptiveCheckpoint::decode(&bad_action).expect_err("bad action");
        assert!(err.to_string().contains("audit-action"));
    }

    #[test]
    fn an_impossible_list_prefix_is_refused_where_it_is_read() {
        // The seed count follows the tag, the session's length and
        // bytes, and the predicted estimate (five `f64`).
        let ckpt = sample_checkpoint();
        let mut bytes = ckpt.encode();
        let at = 1 + 8 + ckpt.session.encode().len() + 5 * 8;
        assert_eq!(bytes[at..at + 8], 2u64.to_le_bytes(), "the seed count");
        bytes[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let err = AdaptiveCheckpoint::decode(&bytes).expect_err("impossible prefix");
        assert!(
            matches!(&err, StoreError::Decode { detail } if detail.contains("length prefix 1099511627776")),
            "{err}"
        );
    }

    #[test]
    fn payload_bytes_are_pinned() {
        // Every byte of the tag-2 layout, including the parts encoded
        // by `explorer::cache`'s estimate/audit codec.
        let bytes = sample_checkpoint().encode();
        assert_eq!((bytes.len(), gnnav_store::crc32(&bytes)), (1353, 0xd8f2_b01e));
    }
}
