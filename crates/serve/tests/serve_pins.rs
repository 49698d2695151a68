//! What `NavService` serves, pinned as constants captured once and
//! never regenerated:
//!
//! - the exploration-cache key of one request's result, which folds in
//!   the service's estimator salt (the calibration recipe and the
//!   platform, rendered as text): a byte moved there makes every store
//!   written so far miss, silently;
//! - FNV-1a digests of a zipf load run's transcript, in memory and
//!   against durable stores (plus the exploration log's bytes). Each
//!   transcript line carries the tier, the guideline's config summary
//!   and its estimate, so these pin every guideline served.

use gnnav_estimator::ProfileStore;
use gnnav_explorer::ExploreCache;
use gnnav_serve::{run_load, tenant_request, LoadGenOptions, NavService, ServeOptions};
use gnnav_store::fnv1a64;

/// The key of tenant 9's result under `fast_options(0x7A51)`.
const TENANT_9_KEY: u64 = 0x4cf3_dd23_398d_8ade;
/// `run_load`'s transcript under `fast_options(0x7A51)`, no stores.
const TRANSCRIPT_DIGEST: u64 = 0x5982_2cf4_b4a3_4b7e;
/// The same run against durable stores: its transcript ...
const DURABLE_TRANSCRIPT_DIGEST: u64 = 0x5982_2cf4_b4a3_4b7e;
/// ... and the exploration log it leaves.
const DURABLE_WAL_DIGEST: u64 = 0x80d7_22e7_f888_2ed4;

/// `determinism.rs`'s options.
fn fast_options(seed: u64) -> ServeOptions {
    ServeOptions {
        queue_capacity: 24,
        tenant_budget: 4,
        degrade_depth: 12,
        cache_only_depth: 18,
        explore_budget: 120,
        reduced_budget: 40,
        pool_capacity: 4,
        calibration_graphs: 1,
        calibration_nodes: 250,
        calibration_samples: 6,
        seed,
    }
}

fn load() -> LoadGenOptions {
    LoadGenOptions { tenants: 1000, requests: 96, burst: 32, zipf_exponent: 1.1, seed: 0x7A51 }
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gnnav-serve-pins-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn a_request_is_filed_under_the_pinned_key() {
    let dir = scratch_dir("key");
    let path = dir.join("explore.wal");
    let mut service = NavService::new(fast_options(0x7A51))
        .with_explore_cache(ExploreCache::open(&path).expect("open"));
    service.submit(tenant_request(0x7A51, 9)).expect("admit");
    service.drain().expect("wave");
    drop(service);

    let mut cache = ExploreCache::open(&path).expect("reopen");
    assert_eq!(cache.len(), 1);
    assert!(cache.lookup(TENANT_9_KEY).is_some(), "the result moved to another key");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_in_memory_transcript_is_pinned() {
    let mut service = NavService::new(fast_options(0x7A51));
    let transcript = run_load(&mut service, &load()).expect("load run").transcript;
    assert_eq!(fnv1a64(transcript.as_bytes()), TRANSCRIPT_DIGEST, "{transcript}");
}

#[test]
fn the_durable_transcript_and_log_are_pinned() {
    let dir = scratch_dir("durable");
    let wal = dir.join("explore.wal");
    let mut service = NavService::new(fast_options(0x7A51))
        .with_profile_store(ProfileStore::open(dir.join("profiles.wal")).expect("open profiles"))
        .with_explore_cache(ExploreCache::open(&wal).expect("open cache"));
    let transcript = run_load(&mut service, &load()).expect("load run").transcript;
    drop(service);
    let log = std::fs::read(&wal).expect("read log");
    assert_eq!(fnv1a64(transcript.as_bytes()), DURABLE_TRANSCRIPT_DIGEST, "{transcript}");
    assert_eq!(fnv1a64(&log), DURABLE_WAL_DIGEST, "{} bytes", log.len());
    let _ = std::fs::remove_dir_all(&dir);
}
