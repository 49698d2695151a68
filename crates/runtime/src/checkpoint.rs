//! Crash-safe checkpoint/resume for backend executions.
//!
//! [`SessionCheckpoint`] captures *everything* an
//! [`ExecutionSession`](crate::ExecutionSession) needs to continue a
//! run bit-for-bit: model weights, optimizer slots, every RNG stream
//! position, the cache's resident set and eviction bookkeeping, the
//! simulated clock, and all accumulated report state. The determinism
//! contract is strict — a run killed at any epoch boundary and resumed
//! from its latest checkpoint produces a final `ExecutionReport`
//! byte-identical to the uninterrupted run.
//!
//! [`drive`](crate::driver::drive) is the one function that writes and
//! reads these payloads: it checkpoints every K epochs into a
//! [`CheckpointDir`](gnnav_store::CheckpointDir), resumes from the
//! newest one that verifies and belongs to the run asked for, and
//! honors the crash/corruption fault kinds (`ProcessKill`,
//! `TornWrite`, `BitFlip`) so chaos tests can kill and corrupt a run
//! at every epoch boundary.

use crate::backend::{DegradationStep, RecoveryLog};
use crate::config::{SamplerKind, TrainingConfig};
use crate::perf::PhaseBreakdown;
use gnnav_cache::{CachePolicy, CacheSnapshot, CacheStats};
use gnnav_hwsim::{DeviceProfile, HostProfile, LinkProfile, Platform, Precision, SimTime};
use gnnav_nn::{AdamState, ModelKind};
use gnnav_store::{
    decode_tagged, encode_tagged, wire_enum, wire_struct, ByteReader, ByteWriter, StoreError, Wire,
};
use std::path::PathBuf;

/// Leading payload byte of a static-session checkpoint, so a resume
/// path never mis-decodes a checkpoint written by a different driver
/// (the adaptive runner uses its own tag).
pub const SESSION_PAYLOAD_TAG: u8 = 1;

/// File name of the lineage log inside a checkpoint directory: one
/// record per simulated process kill, so the kill count survives even
/// when no checkpoint does.
pub const LINEAGE_WAL: &str = "lineage.wal";

/// Where and how often a [driven](crate::driver::drive) run persists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// Directory holding checkpoints and the lineage log.
    pub dir: PathBuf,
    /// Checkpoint after every `every` completed epochs.
    pub every: usize,
    /// Whether to resume from the newest verifiable checkpoint in
    /// `dir` (cold-starts when none survives).
    pub resume: bool,
}

impl DurabilityOptions {
    /// Durability into `dir`, checkpointing every `every` epochs, with
    /// resume enabled.
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> Self {
        DurabilityOptions { dir: dir.into(), every: every.max(1), resume: true }
    }
}

/// Where a session stands on the degradation ladder, under the config
/// it was asked to run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionLadder {
    /// The requested config (becomes the report's config).
    pub config: TrainingConfig,
    /// The config in effect after degradation-ladder steps.
    pub eff_config: TrainingConfig,
    /// Cache entries currently allocated (post any ladder shrinks).
    pub cache_entries: usize,
    /// Current micro-batch division factor.
    pub micro_batch: usize,
    /// Whether fanout reduction already fired.
    pub fanout_reduced: bool,
}

impl SessionLadder {
    /// The top of the ladder for `config` with a cache of
    /// `cache_entries` rows: nothing degraded yet.
    pub(crate) fn new(config: &TrainingConfig, cache_entries: usize) -> Self {
        SessionLadder {
            config: config.clone(),
            eff_config: config.clone(),
            cache_entries,
            micro_batch: 1,
            fanout_reduced: false,
        }
    }
}

/// What a session has accumulated towards its report; all zero at a
/// cold start.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionTotals {
    /// Accumulated per-phase simulated time.
    pub phases: PhaseBreakdown,
    /// Total simulated time so far.
    pub epoch_time_total: SimTime,
    /// Sampled nodes summed over all batches so far.
    pub total_nodes: usize,
    /// Sampled edges summed over all batches so far.
    pub total_edges: usize,
    /// Mini-batches executed so far (also the batch fault site).
    pub total_batches: usize,
    /// Iterations of the most recent epoch.
    pub n_iter: usize,
    /// Per-training-step loss history.
    pub loss_history: Vec<f32>,
    /// Recovery actions absorbed so far.
    pub recovery: RecoveryLog,
    /// Cache evictions so far.
    pub evictions: usize,
    /// Epochs completed.
    pub epochs_run: usize,
    /// Training steps taken (the NaN-loss fault site).
    pub train_steps: u64,
}

/// The complete mutable state of an execution session at an epoch
/// boundary. Everything that feeds the final report or any later
/// epoch's behavior is here; purely diagnostic wall-clock and
/// allocator counters are deliberately excluded (they restart from
/// zero and never enter the report's deterministic fields).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    /// The config and the degradation ladder's position.
    pub ladder: SessionLadder,
    /// Flattened model parameters, in `for_each_param_mut` order.
    pub params: Vec<f32>,
    /// Dropout RNG stream position.
    pub dropout_rng: [u64; 4],
    /// Adam optimizer state (lr, step count, moment slots).
    pub opt: AdamState,
    /// Batching/sampling RNG stream position.
    pub rng: [u64; 4],
    /// The device cache's observable state.
    pub cache: CacheSnapshot,
    /// Hit statistics carried from caches replaced by ladder shrinks
    /// or config switches.
    pub stats_carry: CacheStats,
    /// Memory ledger high-water mark in bytes.
    pub peak_mem_bytes: usize,
    /// The report state accumulated so far.
    pub totals: SessionTotals,
    /// Faults injected by the session's plan so far.
    pub faults_injected: u64,
}

wire_enum!(impl Wire for SamplerKind as "sampler" { NodeWise = 0, LayerWise = 1, SubgraphWise = 2 });
wire_enum!(fn put_policy, get_policy for CachePolicy as "cache-policy" {
    None = 0, StaticDegree = 1, Fifo = 2, Lru = 3, Lfu = 4,
});
wire_enum!(fn put_precision, get_precision for Precision as "precision" { Fp32 = 0, Fp16 = 1 });
wire_enum!(fn put_model, get_model for ModelKind as "model" { Gcn = 0, Sage = 1, Gat = 2 });

// The stable field order every store shares: the checkpoints, the
// profile-store key and the exploration cache's frames. Fewest bytes:
// no fanouts.
wire_struct!(TrainingConfig, 1 + 8 + 8 + 8 + 8 + 1 + 1 + 1 + 1 + 1 + 8 + 8, {
    sampler,
    fanouts,
    locality_eta,
    batch_size,
    cache_ratio,
    cache_policy with put_policy, get_policy,
    cache_update,
    pipelined,
    precision with put_precision, get_precision,
    model with put_model, get_model,
    hidden_dim,
    dropout,
});

wire_struct!(fn put_host, get_host for HostProfile {
    name, sample_mvps, mem_bandwidth_gbs, iteration_overhead_us,
});
wire_struct!(fn put_device, get_device for DeviceProfile {
    name, compute_tflops, mem_bandwidth_gbs, mem_capacity_bytes, launch_overhead_us, fp16_speedup,
});
wire_struct!(fn put_link, get_link for LinkProfile { name, bandwidth_gbs, latency_us });
wire_struct!(
    /// Every field of a [`Platform`], in the stable order the
    /// profile-store key, the exploration fingerprint and the serve
    /// pool's platform fingerprint share: two platforms encode alike
    /// only when they are equal.
    pub fn put_platform, get_platform for Platform {
        host with put_host, get_host,
        device with put_device, get_device,
        link with put_link, get_link,
    }
);

fn put_sim_time(w: &mut ByteWriter, t: &SimTime) {
    w.put_f64(t.as_secs());
}

fn get_sim_time(r: &mut ByteReader) -> Result<SimTime, StoreError> {
    let secs = r.get_f64()?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(StoreError::decode(format!("invalid simulated duration {secs}")));
    }
    Ok(SimTime::from_secs(secs))
}

wire_struct!(PhaseBreakdown, 4 * 8, {
    sample with put_sim_time, get_sim_time,
    transfer with put_sim_time, get_sim_time,
    replace with put_sim_time, get_sim_time,
    compute with put_sim_time, get_sim_time,
});

/// A tag, then the step's fields.
impl Wire for DegradationStep {
    // The tag and one `usize` or list prefix.
    const MIN_BYTES: usize = 1 + 8;

    fn put(&self, w: &mut ByteWriter) {
        match self {
            DegradationStep::ShrinkCache { from_entries, to_entries } => {
                w.put_u8(0);
                from_entries.put(w);
                to_entries.put(w);
            }
            DegradationStep::MicroBatch { factor } => {
                w.put_u8(1);
                factor.put(w);
            }
            DegradationStep::ReduceFanout { fanouts } => {
                w.put_u8(2);
                fanouts.put(w);
            }
        }
    }

    fn get(r: &mut ByteReader) -> Result<Self, StoreError> {
        Ok(match r.get_u8()? {
            0 => DegradationStep::ShrinkCache {
                from_entries: Wire::get(r)?,
                to_entries: Wire::get(r)?,
            },
            1 => DegradationStep::MicroBatch { factor: Wire::get(r)? },
            2 => DegradationStep::ReduceFanout { fanouts: Wire::get(r)? },
            t => return Err(StoreError::decode(format!("unknown degradation tag {t}"))),
        })
    }
}

wire_struct!(RecoveryLog, 8 + 4 + 8 + 4 + 4 + 8, {
    faults_injected,
    retries,
    degradations,
    nan_steps_skipped,
    lr_halvings,
    recovery_sim with put_sim_time, get_sim_time,
});

wire_struct!(fn put_stats, get_stats for CacheStats { lookups, hits });
wire_struct!(fn put_cache, get_cache for CacheSnapshot {
    capacity, resident, freq, heap, seq, stats with put_stats, get_stats,
});
wire_struct!(fn put_adam, get_adam for AdamState { lr, t, m, v });

wire_struct!(SessionLadder,
    2 * TrainingConfig::MIN_BYTES + 8 + 8 + 1,
    { config, eff_config, cache_entries, micro_batch, fanout_reduced }
);

wire_struct!(SessionTotals,
    PhaseBreakdown::MIN_BYTES
        + 8 + 4 * 8 + 8 // epoch time, four totals, loss history
        + RecoveryLog::MIN_BYTES
        + 3 * 8, // evictions, epochs, steps
    {
        phases,
        epoch_time_total with put_sim_time, get_sim_time,
        total_nodes,
        total_edges,
        total_batches,
        n_iter,
        loss_history,
        recovery,
        evictions,
        epochs_run,
        train_steps,
    }
);

// The body of a session checkpoint payload (tag `SESSION_PAYLOAD_TAG`).
// Records encode as their fields in order: nesting changes no byte.
wire_struct!(SessionCheckpoint,
    SessionLadder::MIN_BYTES
        + 8 + 4 * 8 // params, dropout RNG
        + 4 + 8 + 8 + 8 // optimizer: lr, step, two slot lists
        + 4 * 8 // batching RNG
        + 8 + 8 + 8 + 8 + 8 + 2 * 8 // cache snapshot
        + 2 * 8 + 8 // carried stats, peak memory
        + SessionTotals::MIN_BYTES
        + 8, // faults
    {
        ladder,
        params,
        dropout_rng,
        opt with put_adam, get_adam,
        rng,
        cache with put_cache, get_cache,
        stats_carry with put_stats, get_stats,
        peak_mem_bytes,
        totals,
        faults_injected,
    }
);

impl SessionCheckpoint {
    /// Encodes the checkpoint into its durable payload form.
    pub fn encode(&self) -> Vec<u8> {
        encode_tagged(SESSION_PAYLOAD_TAG, self)
    }

    /// Decodes a payload previously produced by
    /// [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Typed [`StoreError::Decode`] on a foreign payload tag,
    /// truncation, unknown enum tags, or trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<SessionCheckpoint, StoreError> {
        decode_tagged(payload, SESSION_PAYLOAD_TAG, "a session checkpoint")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RecoveryLog;

    fn sample_checkpoint() -> SessionCheckpoint {
        SessionCheckpoint {
            ladder: SessionLadder {
                config: TrainingConfig::default(),
                eff_config: TrainingConfig { fanouts: vec![5, 5], ..TrainingConfig::default() },
                cache_entries: 32,
                micro_batch: 2,
                fanout_reduced: true,
            },
            params: vec![0.5, -1.25, f32::NAN],
            dropout_rng: [1, 2, 3, 4],
            opt: AdamState { lr: 0.01, t: 7, m: vec![vec![0.1], vec![]], v: vec![vec![0.2]] },
            rng: [9, 8, 7, 6],
            cache: CacheSnapshot {
                capacity: 32,
                resident: vec![3, 1, 4],
                freq: vec![0, 2, 0, 1, 1],
                heap: vec![(2, 0, 1), (1, 1, 3)],
                seq: 2,
                stats: CacheStats { lookups: 10, hits: 4 },
            },
            stats_carry: CacheStats { lookups: 100, hits: 40 },
            peak_mem_bytes: 123_456,
            totals: SessionTotals {
                phases: PhaseBreakdown {
                    sample: SimTime::from_secs(1.0),
                    transfer: SimTime::from_secs(2.0),
                    replace: SimTime::from_secs(0.5),
                    compute: SimTime::from_secs(3.25),
                },
                epoch_time_total: SimTime::from_secs(6.75),
                total_nodes: 1000,
                total_edges: 5000,
                total_batches: 12,
                n_iter: 6,
                loss_history: vec![1.5, 1.2, 1.1],
                recovery: RecoveryLog {
                    faults_injected: 3,
                    retries: 2,
                    degradations: vec![
                        DegradationStep::ShrinkCache { from_entries: 64, to_entries: 32 },
                        DegradationStep::MicroBatch { factor: 2 },
                        DegradationStep::ReduceFanout { fanouts: vec![5, 5] },
                    ],
                    nan_steps_skipped: 1,
                    lr_halvings: 1,
                    recovery_sim: SimTime::from_secs(0.25),
                },
                evictions: 17,
                epochs_run: 2,
                train_steps: 12,
            },
            faults_injected: 3,
        }
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let ckpt = sample_checkpoint();
        let decoded = SessionCheckpoint::decode(&ckpt.encode()).expect("decode");
        // NaN params break PartialEq; compare on the Debug rendering,
        // which is also the byte-identity standard the durability
        // tests use.
        assert_eq!(format!("{decoded:?}"), format!("{ckpt:?}"));
        // And the NaN bits themselves survive.
        assert_eq!(decoded.params[2].to_bits(), ckpt.params[2].to_bits());
    }

    #[test]
    fn the_checkpoint_holds_the_codec_laws() {
        gnnav_store::laws::assert_laws(&sample_checkpoint());
        let config = TrainingConfig { fanouts: Vec::new(), ..TrainingConfig::default() };
        gnnav_store::laws::assert_smallest(&SessionCheckpoint {
            ladder: SessionLadder::new(&config, 0),
            params: Vec::new(),
            opt: AdamState { lr: 0.0, t: 0, m: Vec::new(), v: Vec::new() },
            cache: CacheSnapshot::default(),
            totals: SessionTotals::default(),
            ..sample_checkpoint()
        });
        gnnav_store::laws::assert_smallest(&SessionLadder::new(&config, 0));
        gnnav_store::laws::assert_smallest(&SessionTotals::default());
    }

    #[test]
    fn decode_rejects_foreign_tag_truncation_and_trailing() {
        let bytes = sample_checkpoint().encode();

        let mut foreign = bytes.clone();
        foreign[0] = 0xEE;
        assert!(SessionCheckpoint::decode(&foreign).is_err());

        let truncated = &bytes[..bytes.len() - 3];
        assert!(SessionCheckpoint::decode(truncated).is_err());

        let mut trailing = bytes.clone();
        trailing.push(0);
        let err = SessionCheckpoint::decode(&trailing).expect_err("trailing");
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn decode_rejects_unknown_enum_tags() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.encode();
        // Byte 1 is the config's sampler tag.
        let mut bad = bytes.clone();
        bad[1] = 99;
        let err = SessionCheckpoint::decode(&bad).expect_err("bad sampler");
        assert!(err.to_string().contains("sampler"));
    }

    #[test]
    fn payload_bytes_are_pinned() {
        // The length alone is pinned by `bench.checkpoint.bytes_per_write`;
        // this pins every byte of the tag-1 layout.
        let bytes = sample_checkpoint().encode();
        assert_eq!((bytes.len(), gnnav_store::crc32(&bytes)), (657, 0xbf2a_ad72));
    }

    #[test]
    fn an_impossible_list_prefix_is_refused_where_it_is_read() {
        // The degradation count sits before the three steps (17 + 9 +
        // 25 bytes) and the 48 bytes of counters that end the payload.
        let mut bytes = sample_checkpoint().encode();
        let at = bytes.len() - 48 - 51 - 8;
        assert_eq!(bytes[at..at + 8], 3u64.to_le_bytes(), "the degradation count");
        bytes[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let err = SessionCheckpoint::decode(&bytes).expect_err("impossible prefix");
        assert!(
            matches!(&err, StoreError::Decode { detail } if detail.contains("length prefix 1099511627776")),
            "{err}"
        );
        // The bound the adaptive layer uses per config is exact.
        let mut w = ByteWriter::new();
        TrainingConfig { fanouts: Vec::new(), ..TrainingConfig::default() }.put(&mut w);
        assert_eq!(w.len(), TrainingConfig::MIN_BYTES);
    }

    #[test]
    fn durability_options_clamp_every() {
        let d = DurabilityOptions::new("/tmp/x", 0);
        assert_eq!(d.every, 1);
    }

    #[test]
    fn checkpoint_resume_midrun_is_byte_identical() {
        use crate::{ExecutionOptions, ExecutionSession, RuntimeBackend};
        use gnnav_graph::{Dataset, DatasetId};
        use gnnav_hwsim::Platform;

        let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");
        let config = TrainingConfig {
            batch_size: 64,
            fanouts: vec![5, 5],
            hidden_dim: 16,
            ..TrainingConfig::default()
        };
        let opts = ExecutionOptions { epochs: 3, ..Default::default() };
        let platform = Platform::default_rtx4090();
        let backend = RuntimeBackend::new(platform.clone());

        let straight = backend.execute(&dataset, &config, &opts).expect("straight");

        let mut first =
            ExecutionSession::new(platform.clone(), &dataset, &config, &opts).expect("open");
        first.run_epoch().expect("epoch 0");
        let ckpt = first.checkpoint();
        drop(first);
        // The checkpoint survives a full encode/decode round trip
        // before resuming — the same path a real crash takes.
        let ckpt = SessionCheckpoint::decode(&ckpt.encode()).expect("decode");
        let mut resumed =
            ExecutionSession::resume(platform, &dataset, &opts, &ckpt).expect("resume");
        while resumed.epochs_run() < opts.epochs {
            resumed.run_epoch().expect("epoch");
        }
        let report = resumed.finish().expect("finish");
        assert_eq!(
            format!("{report:?}"),
            format!("{straight:?}"),
            "resumed report must be byte-identical to the uninterrupted run"
        );
    }
}
