//! What `NavService` serves at the configuration `serve-bench` ships,
//! pinned as constants captured once and never regenerated:
//!
//! - the exploration-cache key of one request's result, which folds in
//!   the service's estimator salt (the calibration recipe and the
//!   platform, rendered as text): a byte moved there makes every store
//!   written so far miss, silently;
//! - FNV-1a digests of a zipf load run's transcript, in memory and
//!   against durable stores (plus the exploration log's bytes), under
//!   a load whose bursts reach both degradation rungs and the queue
//!   bound. Each transcript line carries the tier, the rung, the
//!   guideline's config summary and its estimate, so these pin every
//!   guideline served.
//!
//! Captured while the budgets, the pool bound, the calibration sweep
//! and the rungs were still fields of `ServeOptions`, at their
//! defaults; they are constants (the rungs derived from the queue
//! bound) with the same values now.

use gnnav_estimator::ProfileStore;
use gnnav_explorer::ExploreCache;
use gnnav_serve::{run_load, tenant_request, LoadGenOptions, NavService, ServeOptions};
use gnnav_store::fnv1a64;

/// The same four pins at the configuration `serve-bench` ships:
/// tenant 9's key under `shipped_options()` ...
const SHIPPED_TENANT_9_KEY: u64 = 0xf731_a978_1744_f949;
/// ... `run_load`'s transcript under `shipped_load()`, no stores ...
const SHIPPED_TRANSCRIPT_DIGEST: u64 = 0xac60_f7ae_7c8a_93b2;
/// ... the same run against durable stores: its transcript ...
const SHIPPED_DURABLE_TRANSCRIPT_DIGEST: u64 = 0xac60_f7ae_7c8a_93b2;
/// ... and the exploration log it leaves.
const SHIPPED_DURABLE_WAL_DIGEST: u64 = 0x35f6_5033_7d5f_1bf4;

/// The service `serve-bench` runs at its default flags.
fn shipped_options() -> ServeOptions {
    ServeOptions { seed: 0x7A51, ..ServeOptions::default() }
}

/// Three bursts of 80 against a queue of 64: every burst reaches both
/// degradation rungs and the queue bound.
fn shipped_load() -> LoadGenOptions {
    LoadGenOptions { requests: 240, ..LoadGenOptions::default() }
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gnnav-serve-pins-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn a_request_is_filed_under_the_pinned_key_at_the_shipped_configuration() {
    let dir = scratch_dir("shipped-key");
    let path = dir.join("explore.wal");
    let mut service = NavService::new(shipped_options())
        .with_explore_cache(ExploreCache::open(&path).expect("open"));
    service.submit(tenant_request(0x7A51, 9)).expect("admit");
    service.drain().expect("wave");
    drop(service);

    let mut cache = ExploreCache::open(&path).expect("reopen");
    assert_eq!(cache.len(), 1);
    assert!(cache.lookup(SHIPPED_TENANT_9_KEY).is_some(), "the result moved to another key");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_in_memory_transcript_is_pinned_at_the_shipped_configuration() {
    let mut service = NavService::new(shipped_options());
    let transcript = run_load(&mut service, &shipped_load()).expect("load run").transcript;
    assert!(transcript.contains("degrade=reduced"), "the load must reach the reduced rung");
    assert!(transcript.contains("degrade=cache-only"), "and the cache-only rung");
    assert!(transcript.contains("queue-full"), "and the queue bound");
    assert_eq!(fnv1a64(transcript.as_bytes()), SHIPPED_TRANSCRIPT_DIGEST, "{transcript}");
}

#[test]
fn the_durable_transcript_and_log_are_pinned_at_the_shipped_configuration() {
    let dir = scratch_dir("shipped-durable");
    let wal = dir.join("explore.wal");
    let mut service = NavService::new(shipped_options())
        .with_profile_store(ProfileStore::open(dir.join("profiles.wal")).expect("open profiles"))
        .with_explore_cache(ExploreCache::open(&wal).expect("open cache"));
    let transcript = run_load(&mut service, &shipped_load()).expect("load run").transcript;
    drop(service);
    let log = std::fs::read(&wal).expect("read log");
    assert_eq!(fnv1a64(transcript.as_bytes()), SHIPPED_DURABLE_TRANSCRIPT_DIGEST, "{transcript}");
    assert_eq!(fnv1a64(&log), SHIPPED_DURABLE_WAL_DIGEST, "{} bytes", log.len());
    let _ = std::fs::remove_dir_all(&dir);
}
