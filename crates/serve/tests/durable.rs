//! Durable backing: a restarted service warm-starts from the shared
//! `ProfileStore` and `ExploreCache` — the repeat tenant's guideline
//! is an explore-cache hit and calibration re-profiles nothing — and
//! the store a service writes does not depend on whether its
//! calibrations trained or re-charged.

use std::path::Path;
use std::sync::Mutex;

use gnnav_estimator::ProfileStore;
use gnnav_explorer::ExploreCache;
use gnnav_hwsim::Platform;
use gnnav_obs::names as metric;
use gnnav_serve::{tenant_request, NavRequest, NavService, ServeOptions, ServeTier};

/// Serializes the tests of this file: one reads a global counter's
/// delta, and every calibration moves it.
static METRICS_LOCK: Mutex<()> = Mutex::new(());

fn fast_options(seed: u64) -> ServeOptions {
    ServeOptions {
        queue_capacity: 24,
        tenant_budget: 8,
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

#[test]
fn restart_warm_starts_from_durable_stores() {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("gnnav-serve-dur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let profiles = dir.join("profiles.wal");
    let explorations = dir.join("explorations.wal");

    // First service lifetime: cold calibration + cold exploration.
    let (cold_config, profiled) = {
        let mut service = NavService::new(fast_options(31))
            .with_profile_store(ProfileStore::open(&profiles).expect("open profiles"))
            .with_explore_cache(ExploreCache::open(&explorations).expect("open cache"));
        service.submit(tenant_request(31, 9)).expect("admit");
        let resp = service.drain().expect("cold wave");
        assert_eq!(resp[0].tier, ServeTier::Cold);
        assert_eq!(service.explore_cache().unwrap().len(), 1);
        let profiled = service.profile_store().unwrap().len();
        assert!(profiled > 0, "calibration must append profile records");
        (format!("{:?}", resp[0].guideline.config), profiled)
    };

    // Restarted service: same stores, same options, same tenant.
    let mut service = NavService::new(fast_options(31))
        .with_profile_store(ProfileStore::open(&profiles).expect("reopen profiles"))
        .with_explore_cache(ExploreCache::open(&explorations).expect("reopen cache"));
    service.submit(tenant_request(31, 9)).expect("admit");
    let resp = service.drain().expect("warm wave");
    // The pool is cold after restart, but the exploration fingerprint
    // matches the durable cache, so no DSE runs and no calibration is
    // needed: cache hits resolve before the estimator pool is
    // touched.
    assert_eq!(resp[0].tier, ServeTier::ExploreCache);
    assert_eq!(service.pool().misses(), 0, "cache hits must not calibrate");
    assert_eq!(service.explore_cache().unwrap().hits(), 1);
    assert_eq!(
        service.profile_store().unwrap().len(),
        profiled,
        "restart calibration must reuse stored profile records, not re-profile"
    );
    assert_eq!(format!("{:?}", resp[0].guideline.config), cold_config);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The first tenant of the stream on each preset, in preset order.
fn one_tenant_per_preset(seed: u64) -> Vec<NavRequest> {
    [Platform::default_rtx4090(), Platform::default_a100(), Platform::default_m90()]
        .iter()
        .map(|platform| {
            (0..256)
                .map(|tenant| tenant_request(seed, tenant))
                .find(|request| request.platform == *platform)
                .expect("the tenant stream covers every preset")
        })
        .collect()
}

fn service_over(profiles: &Path) -> NavService {
    NavService::new(fast_options(32))
        .with_profile_store(ProfileStore::open(profiles).expect("open profiles"))
}

fn backend_runs() -> u64 {
    gnnav_obs::global().snapshot().counters.get(metric::BACKEND_RUNS).copied().unwrap_or(0)
}

#[test]
fn the_store_is_the_same_bytes_whether_calibrations_trained_or_recharged() {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("gnnav-serve-dur-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let tenants = one_tenant_per_preset(32);

    // One service meets all three platforms: it trains the first
    // calibration and re-charges the other two.
    let shared = dir.join("shared.wal");
    {
        let mut service = service_over(&shared);
        for request in &tenants {
            service.submit(request.clone()).expect("admit");
        }
        service.drain().expect("wave");
        assert_eq!(service.pool().misses(), 3);
    }

    // Three services in turn, one platform each, into one path: each
    // starts without traces, so each trains.
    let serial = dir.join("serial.wal");
    for request in &tenants {
        let mut service = service_over(&serial);
        service.submit(request.clone()).expect("admit");
        service.drain().expect("wave");
        assert_eq!(service.pool().misses(), 1);
    }
    let bytes = std::fs::read(&shared).expect("read shared");
    assert!(!bytes.is_empty());
    assert_eq!(bytes, std::fs::read(&serial).expect("read serial"));

    // A restart over the store calibrates all three platforms from
    // records: nothing executes, nothing is appended.
    let metrics = gnnav_obs::global();
    metrics.enable(true);
    let runs_before = backend_runs();
    let mut service = service_over(&shared);
    for request in &tenants {
        service.submit(request.clone()).expect("admit");
    }
    service.drain().expect("restart wave");
    assert_eq!(service.pool().misses(), 3);
    assert_eq!(backend_runs(), runs_before, "a covered platform executes nothing");
    metrics.enable(false);
    drop(service);
    assert_eq!(bytes, std::fs::read(&shared).expect("read shared again"));

    let _ = std::fs::remove_dir_all(&dir);
}
