//! Criterion benches for the codec layer: reopening an exploration
//! cache that holds what one navigation leaves (a budget-2 000 walk's
//! base frame and three decision frames over it — what a warm
//! navigation replays), encoding and decoding a real training
//! checkpoint (Reddit2 stand-in at scale 0.02, after one epoch), and
//! the CRC-32 of each: the log's bytes (≈ 555 KB, as one frame would
//! hold them) and the checkpoint's payload (≈ 295 KB).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gnnav_bench::benchmark_shape_estimator;
use gnnav_explorer::{ExploreCache, Explorer, RuntimeConstraints};
use gnnav_graph::{Dataset, DatasetId};
use gnnav_hwsim::Platform;
use gnnav_nn::ModelKind;
use gnnav_runtime::{ExecutionOptions, ExecutionSession, SessionCheckpoint, TrainingConfig};
use gnnavigator::store::crc32;
use std::path::PathBuf;

/// A log holding one budget-2 000 walk decided under all four
/// priorities, in a directory of its own.
fn one_walk_log() -> (PathBuf, PathBuf) {
    let estimator = benchmark_shape_estimator();
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.05).expect("load");
    let results = Explorer::new(&estimator, 2000)
        .explore_all(
            &dataset,
            &Platform::default_rtx4090(),
            ModelKind::Sage,
            &RuntimeConstraints::none(),
        )
        .expect("explore");
    let dir = std::env::temp_dir().join(format!("gnnav-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("explore.wal");
    let mut cache = ExploreCache::open(&path).expect("open");
    for (fingerprint, result) in (1u64..).zip(&results) {
        assert!(cache.insert(fingerprint, result).expect("insert"));
    }
    (dir, path)
}

fn training_checkpoint() -> SessionCheckpoint {
    let dataset = Dataset::load_scaled(DatasetId::Reddit2, 0.02).expect("load");
    let opts = ExecutionOptions { epochs: 2, ..ExecutionOptions::default() };
    let mut session = ExecutionSession::new(
        Platform::default_rtx4090(),
        &dataset,
        &TrainingConfig::default(),
        &opts,
    )
    .expect("open");
    session.run_epoch().expect("epoch");
    session.checkpoint()
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.sample_size(50);
    let (dir, path) = one_walk_log();
    group.bench_function("explore_cache_open_one_walk", |b| {
        b.iter(|| {
            let cache = ExploreCache::open(&path).expect("open");
            assert_eq!((cache.len(), cache.undecodable()), (4, 0));
            cache
        });
    });
    let ckpt = training_checkpoint();
    let payload = ckpt.encode();
    group.bench_function("session_checkpoint_encode", |b| b.iter(|| ckpt.encode()));
    group.bench_function("session_checkpoint_decode", |b| {
        b.iter(|| SessionCheckpoint::decode(&payload).expect("decode"));
    });
    let log = std::fs::read(&path).expect("read log");
    group.bench_function("crc32_navigation_log", |b| b.iter(|| crc32(black_box(&log))));
    group.bench_function("crc32_session_checkpoint", |b| b.iter(|| crc32(black_box(&payload))));
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
