//! Byte pins of every record kind the durable stores write, built only
//! from public constructors and the stores' own insert paths.
//!
//! Each pin is `(len, crc32)` of one payload as written: the four
//! frames `ExploreCache` appends for one walk decided under every
//! priority (a base frame, then three decision frames), the
//! `ProfileStore` frames of records that between them use every
//! dataset, sampler, cache-policy, precision and model tag, and one
//! `SessionCheckpoint` with non-default tags in both configs and every
//! degradation step. A renumbered tag table, a reordered field or a
//! changed list layout moves a pin.

use gnnav_estimator::{Context, PerfEstimate, ProfileRecord, ProfileStore};
use gnnav_explorer::{
    AuditAction, AuditRecord, DfsStats, EvaluatedCandidate, ExplorationResult, ExploreCache,
    Guideline, Priority,
};
use gnnav_graph::DatasetId;
use gnnav_hwsim::{Platform, Precision, SimTime};
use gnnav_nn::{AdamState, ModelKind};
use gnnav_runtime::{
    DegradationStep, DesignSpace, PhaseBreakdown, RecoveryLog, SamplerKind, SessionCheckpoint,
    SessionLadder, SessionTotals, TrainingConfig,
};
use gnnav_store::{crc32, Wal};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn pin(bytes: &[u8]) -> (usize, u32) {
    (bytes.len(), crc32(bytes))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnnav-codec-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn frames_of(path: &Path) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    Wal::replay(path, |frame| frames.push(frame.to_vec())).expect("read as a plain log");
    frames
}

/// The `i`-th config of a cycle through every tag of every enum field
/// (the standard space lists each of the five cache policies once).
fn config(i: usize) -> TrainingConfig {
    let policies = DesignSpace::standard().cache_policies;
    assert_eq!(policies.len(), 5);
    TrainingConfig {
        sampler: SamplerKind::ALL[i % 3],
        fanouts: (0..i % 4).map(|k| 3 + 2 * k + i).collect(),
        locality_eta: 0.125 * i as f64,
        batch_size: 64 << (i % 5),
        cache_ratio: 0.1 + 0.2 * (i % 5) as f64,
        cache_policy: policies[i % 5],
        cache_update: i.is_multiple_of(2),
        pipelined: !i.is_multiple_of(3),
        precision: [Precision::Fp32, Precision::Fp16][i % 2],
        model: [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat][i % 3],
        hidden_dim: 16 * (1 + i % 4),
        dropout: 0.05 * (i % 7) as f64,
    }
}

fn estimate(i: usize) -> PerfEstimate {
    PerfEstimate {
        time_s: 0.5 + i as f64 / 8.0,
        mem_bytes: 1.5e8 * (1 + i) as f64,
        accuracy: [0.75, -0.0, f64::from_bits(0x7FF8_0000_0000_1234)][i % 3],
        batch_nodes: 900.0 + i as f64,
        hit_rate: 0.25 * (i % 5) as f64,
    }
}

fn record(i: usize, action: AuditAction, with_estimate: bool) -> AuditRecord {
    AuditRecord {
        config: config(i).summary(),
        estimate: with_estimate.then(|| estimate(i)),
        action,
        reason: format!("reason {i}: Γ ≤ {}", 0.5 * i as f64).into(),
        seed_candidate: i % 2 == 1,
    }
}

/// One walk decided under `priority`: five candidates, a front, stats,
/// and a trail whose records hold all six actions.
fn result(priority: Priority, n: usize) -> ExplorationResult {
    let evaluated = (0..5).map(|i| EvaluatedCandidate { config: config(i), estimate: estimate(i) });
    let walk = vec![
        record(0, AuditAction::Accepted, true),
        record(1, AuditAction::Rejected, true),
        record(2, AuditAction::PrunedSubtree, false),
        record(3, AuditAction::Switched, true),
        record(4, AuditAction::Accepted, true),
    ];
    let (last, fallback) = match n % 2 {
        0 => (record(5 + n, AuditAction::Selected, true), None),
        _ => (record(5 + n, AuditAction::Fallback, true), Some(format!("no feasible #{n}"))),
    };
    let audit: Vec<AuditRecord> = walk.into_iter().chain([last]).collect();
    ExplorationResult {
        guideline: Guideline { config: config(n + 1), estimate: estimate(n + 1), priority },
        evaluated: Arc::new(evaluated.collect()),
        front: Arc::new(vec![0, 2, 4]),
        stats: DfsStats { evaluated: 5, rejected: 1, pruned_subtrees: 1 },
        audit: audit.into(),
        fallback,
    }
}

#[test]
fn explore_cache_frames_are_pinned() {
    let dir = temp_dir("explore");
    let path = dir.join("explore.wal");
    let mut cache = ExploreCache::open(&path).expect("open");
    for (n, (&priority, fingerprint)) in Priority::ALL.iter().zip(0xA0u64..).enumerate() {
        assert!(cache.insert(fingerprint, &result(priority, n)).expect("insert"));
    }
    drop(cache);
    let frames = frames_of(&path);
    assert_eq!(frames.iter().map(|f| f[0]).collect::<Vec<_>>(), [1, 2, 2, 2]);
    let pins: Vec<(usize, u32)> = frames.iter().map(|f| pin(f)).collect();
    assert_eq!(
        pins,
        [(1542, 0x4074_8c84), (300, 0x236f_009a), (295, 0x8ab8_ecf1), (276, 0x2749_0144),]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_store_frames_are_pinned() {
    let ids = [
        DatasetId::Synthetic,
        DatasetId::OgbnArxiv,
        DatasetId::OgbnProducts,
        DatasetId::Reddit,
        DatasetId::Reddit2,
    ];
    let platforms = [Platform::default_rtx4090(), Platform::default_m90()];
    let dir = temp_dir("profile");
    let path = dir.join("profiles.wal");
    let mut store = ProfileStore::open(&path).expect("open");
    for (i, &dataset_id) in ids.iter().enumerate() {
        let context = Context {
            config: config(i),
            num_nodes: 1000.0 * (i + 1) as f64,
            num_edges: 7919.5 * (i + 1) as f64,
            avg_degree: 7.25,
            skew: 31.0 + i as f64,
            intra_fraction: 0.625,
            feat_dim: 64.0,
            num_classes: 16.0 + i as f64,
            num_train: 500.0,
            platform: Arc::new(platforms[i % 2].clone()),
        };
        let record = ProfileRecord {
            dataset_id,
            context,
            epoch_time_s: 0.125 * (i + 1) as f64,
            mem_bytes: 2.5e8,
            accuracy: [0.5, -0.0, f64::NAN][i % 3],
            hit_rate: 0.2 * i as f64,
            avg_batch_nodes: 1234.5,
            avg_batch_edges: 5678.25,
            phase_s: [0.1, 0.2, 0.3, 0.4 + i as f64],
            n_iter: 6.0,
        };
        assert!(store.insert(&record).expect("insert"));
    }
    drop(store);
    let pins: Vec<(usize, u32)> = frames_of(&path).iter().map(|f| pin(f)).collect();
    assert_eq!(
        pins,
        [
            (336, 0x37a4_dc86),
            (342, 0x1b5c_8982),
            (352, 0xf83e_07c4),
            (358, 0xe7c9_b21d),
            (336, 0xd266_0c90),
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_session_checkpoint_with_every_degradation_is_pinned() {
    let mut ckpt = SessionCheckpoint {
        ladder: SessionLadder {
            config: config(4),
            cache_entries: 48,
            micro_batch: 4,
            fanout_reduced: true,
        },
        params: vec![0.5, -1.25, f32::from_bits(0x7FC0_0123), -0.0],
        dropout_rng: [11, 12, 13, u64::MAX],
        opt: AdamState {
            lr: 0.005,
            t: 9,
            m: vec![vec![0.1, 0.2], vec![], vec![-0.3]],
            v: vec![vec![0.4], vec![0.5, 0.6]],
        },
        rng: [21, 22, 23, 24],
        cache: Default::default(),
        stats_carry: Default::default(),
        peak_mem_bytes: 987_654,
        totals: SessionTotals {
            phases: PhaseBreakdown {
                sample: SimTime::from_secs(1.5),
                transfer: SimTime::from_secs(0.25),
                replace: SimTime::from_secs(0.0),
                compute: SimTime::from_secs(4.125),
            },
            epoch_time_total: SimTime::from_secs(5.875),
            total_nodes: 4321,
            total_edges: 87_654,
            total_batches: 18,
            n_iter: 9,
            loss_history: vec![2.5, 1.75, f32::NAN],
            recovery: RecoveryLog {
                faults_injected: 5,
                retries: 3,
                degradations: vec![
                    DegradationStep::ShrinkCache { from_entries: 96, to_entries: 48 },
                    DegradationStep::MicroBatch { factor: 4 },
                    DegradationStep::ReduceFanout { fanouts: vec![6, 4, 2] },
                ],
                nan_steps_skipped: 2,
                lr_halvings: 1,
                recovery_sim: SimTime::from_secs(0.75),
            },
            evictions: 31,
            epochs_run: 3,
            train_steps: 27,
        },
    };
    ckpt.cache.capacity = 48;
    ckpt.cache.resident = vec![7, 3, 9];
    ckpt.cache.freq = vec![0, 1, 0, 4, 0, 0, 0, 2];
    ckpt.cache.heap = vec![(4, 0, 3), (2, 1, 7), (1, 2, 9)];
    ckpt.cache.seq = 3;
    ckpt.cache.stats.lookups = 40;
    ckpt.cache.stats.hits = 12;
    ckpt.stats_carry.lookups = 400;
    ckpt.stats_carry.hits = 120;
    let default = TrainingConfig::default();
    assert_ne!(
        (ckpt.ladder.config.sampler, ckpt.ladder.config.cache_policy),
        (default.sampler, default.cache_policy)
    );
    let bytes = ckpt.encode();
    assert_eq!(pin(&bytes), (635, 0x7ed6_95fd));
    // The pinned bytes still decode to the checkpoint they came from.
    let decoded = SessionCheckpoint::decode(&bytes).expect("decode");
    assert_eq!(format!("{decoded:?}"), format!("{ckpt:?}"));
}
