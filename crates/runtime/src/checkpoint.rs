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
use crate::config::TrainingConfig;
use crate::perf::PhaseBreakdown;
use gnnav_cache::{CachePolicy, CacheSnapshot, CacheStats};
use gnnav_hwsim::{DeviceProfile, HostProfile, LinkProfile, Platform, Precision, SimTime};
use gnnav_nn::{AdamState, ModelKind};
use gnnav_store::{ByteReader, ByteWriter, StoreError};
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

/// The complete mutable state of an execution session at an epoch
/// boundary. Everything that feeds the final report or any later
/// epoch's behavior is here; purely diagnostic wall-clock and
/// allocator counters are deliberately excluded (they restart from
/// zero and never enter the report's deterministic fields).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    /// The requested config (becomes the report's config).
    pub config: TrainingConfig,
    /// The config in effect after degradation-ladder steps.
    pub eff_config: TrainingConfig,
    /// Cache entries currently allocated (post any ladder shrinks).
    pub cache_entries: usize,
    /// Degradation ladder: current micro-batch division factor.
    pub micro_batch: usize,
    /// Degradation ladder: whether fanout reduction already fired.
    pub fanout_reduced: bool,
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
    /// Faults injected by the session's plan so far.
    pub faults_injected: u64,
}

fn put_sampler(w: &mut ByteWriter, s: crate::SamplerKind) {
    w.put_u8(match s {
        crate::SamplerKind::NodeWise => 0,
        crate::SamplerKind::LayerWise => 1,
        crate::SamplerKind::SubgraphWise => 2,
    });
}

fn get_sampler(r: &mut ByteReader) -> Result<crate::SamplerKind, StoreError> {
    match r.get_u8()? {
        0 => Ok(crate::SamplerKind::NodeWise),
        1 => Ok(crate::SamplerKind::LayerWise),
        2 => Ok(crate::SamplerKind::SubgraphWise),
        t => Err(StoreError::decode(format!("unknown sampler tag {t}"))),
    }
}

fn put_policy(w: &mut ByteWriter, p: CachePolicy) {
    w.put_u8(match p {
        CachePolicy::None => 0,
        CachePolicy::StaticDegree => 1,
        CachePolicy::Fifo => 2,
        CachePolicy::Lru => 3,
        CachePolicy::Lfu => 4,
        _ => unreachable!("cache policy {p:?} needs a checkpoint tag"),
    });
}

fn get_policy(r: &mut ByteReader) -> Result<CachePolicy, StoreError> {
    match r.get_u8()? {
        0 => Ok(CachePolicy::None),
        1 => Ok(CachePolicy::StaticDegree),
        2 => Ok(CachePolicy::Fifo),
        3 => Ok(CachePolicy::Lru),
        4 => Ok(CachePolicy::Lfu),
        t => Err(StoreError::decode(format!("unknown cache-policy tag {t}"))),
    }
}

/// Fewest bytes one [`put_config`] record takes: a config without
/// fanouts.
pub const MIN_CONFIG_BYTES: usize = 1 + 8 + 8 + 8 + 8 + 1 + 1 + 1 + 1 + 1 + 8 + 8;

/// Fewest bytes one encoded degradation step takes: its tag and one
/// `usize` or slice prefix.
const MIN_DEGRADATION_BYTES: usize = 1 + 8;

/// Bytes of one encoded cache-heap entry: frequency, sequence, node.
const HEAP_ENTRY_BYTES: usize = 4 + 8 + 4;

/// Appends a [`TrainingConfig`] to a checkpoint payload in the stable
/// field order (shared with the adaptive layer's checkpoint format).
pub fn put_config(w: &mut ByteWriter, c: &TrainingConfig) {
    put_sampler(w, c.sampler);
    w.put_usize_slice(&c.fanouts);
    w.put_f64(c.locality_eta);
    w.put_usize(c.batch_size);
    w.put_f64(c.cache_ratio);
    put_policy(w, c.cache_policy);
    w.put_bool(c.cache_update);
    w.put_bool(c.pipelined);
    w.put_u8(match c.precision {
        Precision::Fp32 => 0,
        Precision::Fp16 => 1,
    });
    w.put_u8(match c.model {
        ModelKind::Gcn => 0,
        ModelKind::Sage => 1,
        ModelKind::Gat => 2,
        _ => unreachable!("model kind {:?} needs a checkpoint tag", c.model),
    });
    w.put_usize(c.hidden_dim);
    w.put_f64(c.dropout);
}

/// Reads back a [`TrainingConfig`] written by [`put_config`],
/// rejecting unknown enum tags with a typed decode error.
pub fn get_config(r: &mut ByteReader) -> Result<TrainingConfig, StoreError> {
    Ok(TrainingConfig {
        sampler: get_sampler(r)?,
        fanouts: r.get_usize_vec()?,
        locality_eta: r.get_f64()?,
        batch_size: r.get_usize()?,
        cache_ratio: r.get_f64()?,
        cache_policy: get_policy(r)?,
        cache_update: r.get_bool()?,
        pipelined: r.get_bool()?,
        precision: match r.get_u8()? {
            0 => Precision::Fp32,
            1 => Precision::Fp16,
            t => return Err(StoreError::decode(format!("unknown precision tag {t}"))),
        },
        model: match r.get_u8()? {
            0 => ModelKind::Gcn,
            1 => ModelKind::Sage,
            2 => ModelKind::Gat,
            t => return Err(StoreError::decode(format!("unknown model tag {t}"))),
        },
        hidden_dim: r.get_usize()?,
        dropout: r.get_f64()?,
    })
}

/// Appends every field of a [`Platform`] in the stable order the
/// profile-store key, the exploration fingerprint and the serve pool's
/// platform fingerprint share: two platforms encode alike only when
/// they are equal.
pub fn put_platform(w: &mut ByteWriter, p: &Platform) {
    w.put_str(&p.host.name);
    w.put_f64(p.host.sample_mvps);
    w.put_f64(p.host.mem_bandwidth_gbs);
    w.put_f64(p.host.iteration_overhead_us);
    w.put_str(&p.device.name);
    w.put_f64(p.device.compute_tflops);
    w.put_f64(p.device.mem_bandwidth_gbs);
    w.put_usize(p.device.mem_capacity_bytes);
    w.put_f64(p.device.launch_overhead_us);
    w.put_f64(p.device.fp16_speedup);
    w.put_str(&p.link.name);
    w.put_f64(p.link.bandwidth_gbs);
    w.put_f64(p.link.latency_us);
}

/// Reads back a [`Platform`] written by [`put_platform`], with a typed
/// decode error on truncated bytes or a name that is not UTF-8.
pub fn get_platform(r: &mut ByteReader) -> Result<Platform, StoreError> {
    let host = HostProfile {
        name: r.get_str()?,
        sample_mvps: r.get_f64()?,
        mem_bandwidth_gbs: r.get_f64()?,
        iteration_overhead_us: r.get_f64()?,
    };
    let device = DeviceProfile {
        name: r.get_str()?,
        compute_tflops: r.get_f64()?,
        mem_bandwidth_gbs: r.get_f64()?,
        mem_capacity_bytes: r.get_usize()?,
        launch_overhead_us: r.get_f64()?,
        fp16_speedup: r.get_f64()?,
    };
    let link =
        LinkProfile { name: r.get_str()?, bandwidth_gbs: r.get_f64()?, latency_us: r.get_f64()? };
    Ok(Platform { host, device, link })
}

fn put_sim_time(w: &mut ByteWriter, t: SimTime) {
    w.put_f64(t.as_secs());
}

fn get_sim_time(r: &mut ByteReader) -> Result<SimTime, StoreError> {
    let secs = r.get_f64()?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(StoreError::decode(format!("invalid simulated duration {secs}")));
    }
    Ok(SimTime::from_secs(secs))
}

fn put_rng(w: &mut ByteWriter, s: [u64; 4]) {
    for x in s {
        w.put_u64(x);
    }
}

fn get_rng(r: &mut ByteReader) -> Result<[u64; 4], StoreError> {
    Ok([r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?])
}

fn put_recovery(w: &mut ByteWriter, log: &RecoveryLog) {
    w.put_u64(log.faults_injected);
    w.put_u32(log.retries);
    w.put_usize(log.degradations.len());
    for step in &log.degradations {
        match step {
            DegradationStep::ShrinkCache { from_entries, to_entries } => {
                w.put_u8(0);
                w.put_usize(*from_entries);
                w.put_usize(*to_entries);
            }
            DegradationStep::MicroBatch { factor } => {
                w.put_u8(1);
                w.put_usize(*factor);
            }
            DegradationStep::ReduceFanout { fanouts } => {
                w.put_u8(2);
                w.put_usize_slice(fanouts);
            }
        }
    }
    w.put_u32(log.nan_steps_skipped);
    w.put_u32(log.lr_halvings);
    put_sim_time(w, log.recovery_sim);
}

fn get_recovery(r: &mut ByteReader) -> Result<RecoveryLog, StoreError> {
    let faults_injected = r.get_u64()?;
    let retries = r.get_u32()?;
    let n = r.get_len(MIN_DEGRADATION_BYTES)?;
    let mut degradations = Vec::with_capacity(n);
    for _ in 0..n {
        degradations.push(match r.get_u8()? {
            0 => DegradationStep::ShrinkCache {
                from_entries: r.get_usize()?,
                to_entries: r.get_usize()?,
            },
            1 => DegradationStep::MicroBatch { factor: r.get_usize()? },
            2 => DegradationStep::ReduceFanout { fanouts: r.get_usize_vec()? },
            t => return Err(StoreError::decode(format!("unknown degradation tag {t}"))),
        });
    }
    Ok(RecoveryLog {
        faults_injected,
        retries,
        degradations,
        nan_steps_skipped: r.get_u32()?,
        lr_halvings: r.get_u32()?,
        recovery_sim: get_sim_time(r)?,
    })
}

fn put_cache_snapshot(w: &mut ByteWriter, s: &CacheSnapshot) {
    w.put_usize(s.capacity);
    w.put_u32_slice(&s.resident);
    w.put_u32_slice(&s.freq);
    w.put_usize(s.heap.len());
    for &(freq, seq, node) in &s.heap {
        w.put_u32(freq);
        w.put_u64(seq);
        w.put_u32(node);
    }
    w.put_u64(s.seq);
    w.put_usize(s.stats.lookups);
    w.put_usize(s.stats.hits);
}

fn get_cache_snapshot(r: &mut ByteReader) -> Result<CacheSnapshot, StoreError> {
    let capacity = r.get_usize()?;
    let resident = r.get_u32_vec()?;
    let freq = r.get_u32_vec()?;
    let n = r.get_len(HEAP_ENTRY_BYTES)?;
    let mut heap = Vec::with_capacity(n);
    for _ in 0..n {
        heap.push((r.get_u32()?, r.get_u64()?, r.get_u32()?));
    }
    Ok(CacheSnapshot {
        capacity,
        resident,
        freq,
        heap,
        seq: r.get_u64()?,
        stats: CacheStats { lookups: r.get_usize()?, hits: r.get_usize()? },
    })
}

impl SessionCheckpoint {
    /// Encodes the checkpoint into its durable payload form.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(SESSION_PAYLOAD_TAG);
        put_config(&mut w, &self.config);
        put_config(&mut w, &self.eff_config);
        w.put_usize(self.cache_entries);
        w.put_usize(self.micro_batch);
        w.put_bool(self.fanout_reduced);
        w.put_f32_slice(&self.params);
        put_rng(&mut w, self.dropout_rng);
        w.put_f32(self.opt.lr);
        w.put_u64(self.opt.t);
        w.put_usize(self.opt.m.len());
        for m in &self.opt.m {
            w.put_f32_slice(m);
        }
        w.put_usize(self.opt.v.len());
        for v in &self.opt.v {
            w.put_f32_slice(v);
        }
        put_rng(&mut w, self.rng);
        put_cache_snapshot(&mut w, &self.cache);
        w.put_usize(self.stats_carry.lookups);
        w.put_usize(self.stats_carry.hits);
        w.put_usize(self.peak_mem_bytes);
        for t in
            [self.phases.sample, self.phases.transfer, self.phases.replace, self.phases.compute]
        {
            put_sim_time(&mut w, t);
        }
        put_sim_time(&mut w, self.epoch_time_total);
        w.put_usize(self.total_nodes);
        w.put_usize(self.total_edges);
        w.put_usize(self.total_batches);
        w.put_usize(self.n_iter);
        w.put_f32_slice(&self.loss_history);
        put_recovery(&mut w, &self.recovery);
        w.put_usize(self.evictions);
        w.put_usize(self.epochs_run);
        w.put_u64(self.train_steps);
        w.put_u64(self.faults_injected);
        w.finish()
    }

    /// Decodes a payload previously produced by
    /// [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Typed [`StoreError::Decode`] on a foreign payload tag,
    /// truncation, unknown enum tags, or trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<SessionCheckpoint, StoreError> {
        let mut r = ByteReader::new(payload);
        let tag = r.get_u8()?;
        if tag != SESSION_PAYLOAD_TAG {
            return Err(StoreError::decode(format!(
                "payload tag {tag} is not a session checkpoint (expected {SESSION_PAYLOAD_TAG})"
            )));
        }
        let config = get_config(&mut r)?;
        let eff_config = get_config(&mut r)?;
        let cache_entries = r.get_usize()?;
        let micro_batch = r.get_usize()?;
        let fanout_reduced = r.get_bool()?;
        let params = r.get_f32_vec()?;
        let dropout_rng = get_rng(&mut r)?;
        let lr = r.get_f32()?;
        let t = r.get_u64()?;
        // A moment slot takes at least its 8-byte length prefix.
        let n_m = r.get_len(8)?;
        let mut m = Vec::with_capacity(n_m);
        for _ in 0..n_m {
            m.push(r.get_f32_vec()?);
        }
        let n_v = r.get_len(8)?;
        let mut v = Vec::with_capacity(n_v);
        for _ in 0..n_v {
            v.push(r.get_f32_vec()?);
        }
        let rng = get_rng(&mut r)?;
        let cache = get_cache_snapshot(&mut r)?;
        let stats_carry = CacheStats { lookups: r.get_usize()?, hits: r.get_usize()? };
        let peak_mem_bytes = r.get_usize()?;
        let phases = PhaseBreakdown {
            sample: get_sim_time(&mut r)?,
            transfer: get_sim_time(&mut r)?,
            replace: get_sim_time(&mut r)?,
            compute: get_sim_time(&mut r)?,
        };
        let ckpt = SessionCheckpoint {
            config,
            eff_config,
            cache_entries,
            micro_batch,
            fanout_reduced,
            params,
            dropout_rng,
            opt: AdamState { lr, t, m, v },
            rng,
            cache,
            stats_carry,
            peak_mem_bytes,
            phases,
            epoch_time_total: get_sim_time(&mut r)?,
            total_nodes: r.get_usize()?,
            total_edges: r.get_usize()?,
            total_batches: r.get_usize()?,
            n_iter: r.get_usize()?,
            loss_history: r.get_f32_vec()?,
            recovery: get_recovery(&mut r)?,
            evictions: r.get_usize()?,
            epochs_run: r.get_usize()?,
            train_steps: r.get_u64()?,
            faults_injected: r.get_u64()?,
        };
        if !r.is_exhausted() {
            return Err(StoreError::decode(format!(
                "{} trailing bytes after session checkpoint",
                r.remaining()
            )));
        }
        Ok(ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RecoveryLog;

    fn sample_checkpoint() -> SessionCheckpoint {
        SessionCheckpoint {
            config: TrainingConfig::default(),
            eff_config: TrainingConfig { fanouts: vec![5, 5], ..TrainingConfig::default() },
            cache_entries: 32,
            micro_batch: 2,
            fanout_reduced: true,
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
        put_config(&mut w, &TrainingConfig { fanouts: Vec::new(), ..TrainingConfig::default() });
        assert_eq!(w.len(), MIN_CONFIG_BYTES);
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
