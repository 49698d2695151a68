//! The bytes a durable session run writes, pinned.
//!
//! Each run goes through `RuntimeBackend::execute_durable` with a
//! checkpoint after every epoch, so every epoch boundary's session
//! payload lands on disk. For each run this file pins the
//! `(epoch, file length, CRC-32 of the file)` of every
//! `session-NNNNNN.ckpt` written, and an FNV-1a digest of the final
//! report's `Debug` rendering (Rust prints floats shortest-round-trip,
//! so equal text is equal bits). The files hold the tag-3 payload: the
//! ladder record with the requested config only, and the injection
//! count once, inside the recovery log. The runs:
//!
//! - the degradation ladder of `locality_pins.rs`: a 40 000-byte device
//!   on which the ladder shrinks the cache, micro-batches and finally
//!   rebuilds the sampler at reduced fanouts;
//! - a run under a fault plan whose sampler failure, link stretch, link
//!   stall, transient memory spike and NaN loss are each absorbed, on a
//!   device exactly as large as the clean run's peak, so that a
//!   persistent mild spike also walks the ladder: every field of the
//!   recovery log is non-zero.
//!
//! Each checkpoint of both runs, decoded, must also count one cache
//! lookup per sampled node: a batch attempt the ladder aborts looks
//! nothing up.
//!
//! There is deliberately no regeneration switch: if a later change
//! moves these bytes on purpose, print the `Pins` of each run from a scratch test,
//! review the diff, and replace the constants by hand.

use gnnav_cache::CachePolicy;
use gnnav_faults::{FaultKind, FaultPlan, FaultSpec};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::{DeviceProfile, Platform};
use gnnav_runtime::{
    DegradationStep, DurabilityOptions, ExecutionOptions, ExecutionReport, RuntimeBackend,
    SamplerKind, SessionCheckpoint, TrainingConfig,
};
use gnnav_store::{crc32, fnv1a64, read_checkpoint, CheckpointDir};

/// `(epoch, file length, CRC-32)` of every checkpoint, then the
/// report digest.
type Pins = (Vec<(usize, usize, u32)>, u64);

fn config() -> TrainingConfig {
    TrainingConfig {
        sampler: SamplerKind::LayerWise,
        fanouts: vec![10, 10],
        locality_eta: 1.0,
        batch_size: 64,
        cache_policy: CachePolicy::Lru,
        cache_ratio: 0.1,
        hidden_dim: 16,
        ..TrainingConfig::default()
    }
}

fn opts() -> ExecutionOptions {
    ExecutionOptions { epochs: 3, seed: 0x10CA1, ..Default::default() }
}

fn with_capacity(mem_capacity_bytes: usize) -> Platform {
    let mut platform = Platform::default_rtx4090();
    platform.device = DeviceProfile { mem_capacity_bytes, ..platform.device };
    platform
}

/// Runs durably into a fresh directory, checkpointing every epoch,
/// and reads back what the run left there. Every checkpoint, decoded,
/// must have looked up one cache row per sampled node: a batch attempt
/// the ladder aborts looks nothing up.
fn run_durable(
    tag: &str,
    dataset: &Dataset,
    platform: Platform,
    opts: &ExecutionOptions,
) -> (Pins, ExecutionReport) {
    let dir = std::env::temp_dir().join(format!("gnnav-session-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let report = RuntimeBackend::new(platform)
        .execute_durable(dataset, &config(), opts, &DurabilityOptions::new(&dir, 1))
        .expect("the run absorbs every fault");
    let ckpts = CheckpointDir::create(&dir, "session").expect("dir");
    let epochs = ckpts.epochs().expect("list");
    let files = epochs
        .iter()
        .map(|&epoch| {
            let bytes = std::fs::read(ckpts.path_for(epoch)).expect("read");
            (epoch, bytes.len(), crc32(&bytes))
        })
        .collect();
    for &epoch in &epochs {
        let payload = read_checkpoint(&ckpts.path_for(epoch)).expect("verify");
        let ckpt = SessionCheckpoint::decode(&payload).expect("decode");
        assert_eq!(
            ckpt.stats_carry.lookups + ckpt.cache.stats.lookups,
            ckpt.totals.total_nodes,
            "{tag}: cache lookups against sampled nodes after epoch {epoch}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    ((files, fnv1a64(format!("{report:?}").as_bytes())), report)
}

fn ladder(dataset: &Dataset) -> (Pins, ExecutionReport) {
    run_durable("ladder", dataset, with_capacity(40_000), &opts())
}

fn faulted(dataset: &Dataset) -> (Pins, ExecutionReport) {
    let clean = RuntimeBackend::new(Platform::default_rtx4090())
        .execute(dataset, &config(), &opts())
        .expect("clean run");
    // Specs of one kind are consulted in order, so each windowed spec
    // goes before the persistent one it overrides.
    let plan = FaultPlan::new(0x5E55)
        .with_fault(
            FaultSpec::new(FaultKind::SamplerFailure).with_window(1, 2).with_duration_attempts(2),
        )
        .with_fault(FaultSpec::new(FaultKind::LinkDegrade).with_window(2, 3).with_magnitude(3.0))
        .with_fault(
            FaultSpec::new(FaultKind::LinkDegrade)
                .with_window(3, 4)
                // At or above the backend's stall factor (1e6).
                .with_magnitude(1e9)
                .with_duration_attempts(1),
        )
        .with_fault(
            FaultSpec::new(FaultKind::TransientOom)
                .with_window(5, 6)
                .with_magnitude(1e12)
                .with_duration_attempts(2),
        )
        .with_fault(FaultSpec::new(FaultKind::TransientOom).with_magnitude(1.5))
        .with_fault(FaultSpec::new(FaultKind::NanLoss).with_window(4, 5));
    let opts = ExecutionOptions { fault_plan: Some(plan), ..opts() };
    run_durable("faulted", dataset, with_capacity(clean.perf.peak_mem_bytes), &opts)
}

#[test]
fn durable_session_runs_write_the_pinned_bytes() {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.01).expect("load");

    let (pins, report) = ladder(&dataset);
    assert!(
        report
            .recovery
            .degradations
            .iter()
            .any(|s| matches!(s, DegradationStep::ReduceFanout { .. })),
        "the ladder must reach a fanout rebuild: {:?}",
        report.recovery.degradations
    );
    assert_eq!(
        pins,
        (vec![(1, 74_718, 0x90bd_8e98), (2, 74_730, 0xeb85_d9f6)], 0x74c7_ee61_8dbb_3cf3),
        "ladder"
    );

    let (pins, report) = faulted(&dataset);
    let r = &report.recovery;
    assert!(
        r.faults_injected > 0
            && r.retries > 0
            && !r.degradations.is_empty()
            && r.nan_steps_skipped > 0
            && r.lr_halvings > 0
            && r.recovery_sim.as_secs() > 0.0,
        "every recovery field is exercised: {r:?}"
    );
    assert_eq!(
        pins,
        (vec![(1, 74_666, 0xbb23_554b), (2, 74_674, 0xea66_5be3)], 0xbd92_f458_7a95_1e65),
        "faulted"
    );
}
