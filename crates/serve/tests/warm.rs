//! Warm-path behavior: a repeat request serves from the exploration
//! cache without invoking the DSE (`explorer.candidates.evaluated`
//! delta is zero), the estimator pool reuses fits per platform, and a
//! calibration that re-charges an earlier one's executions fits what a
//! calibration that trained would have fitted.

use std::sync::Mutex;

use gnnav_hwsim::Platform;
use gnnav_obs::names as metric;
use gnnav_serve::{
    platform_fingerprint, tenant_request, NavRequest, NavService, ServeOptions, ServeTier,
};

/// Serializes the tests that read global metric deltas.
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

fn counter(name: &str) -> u64 {
    gnnav_obs::global().snapshot().counters.get(name).copied().unwrap_or(0)
}

/// Executions one calibration of `fast_options` trains: one graph,
/// six sampled configs.
const CALIBRATION_RUNS: u64 = 6;

fn presets() -> [Platform; 3] {
    [Platform::default_rtx4090(), Platform::default_a100(), Platform::default_m90()]
}

/// The `nth` distinct workload the tenant stream puts on `platform`.
fn tenant_on(seed: u64, platform: &Platform, nth: usize) -> NavRequest {
    let mut seen: Vec<NavRequest> = Vec::new();
    for tenant in 0..256 {
        let request = tenant_request(seed, tenant);
        if request.platform == *platform && seen.iter().all(|r| r.workload != request.workload) {
            seen.push(request);
        }
    }
    seen.into_iter().nth(nth).expect("the tenant stream covers every preset several times")
}

/// The pooled fit for `platform`, rendered (floats print exhaustively,
/// so equal text is equal coefficients and equal trees).
fn pooled_fit(service: &NavService, platform: &Platform) -> String {
    format!("{:?}", service.pool().peek(platform_fingerprint(platform)).expect("warm fit"))
}

#[test]
fn warm_request_serves_without_invoking_the_dse() {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let metrics = gnnav_obs::global();
    metrics.enable(true);

    let mut service = NavService::new(fast_options(21));
    service.submit(tenant_request(21, 5)).expect("cold admit");
    let cold = service.drain().expect("cold wave");
    assert_eq!(cold.len(), 1);
    assert_eq!(cold[0].tier, ServeTier::Cold, "first request calibrates and explores");

    let evaluated_before = counter(metric::EXPLORER_EVALUATED);
    let cache_hits_before = counter(metric::SERVE_CACHE_HITS);
    assert!(evaluated_before > 0, "the cold wave must have run a DSE");

    service.submit(tenant_request(21, 5)).expect("warm admit");
    let warm = service.drain().expect("warm wave");
    assert_eq!(warm.len(), 1);
    assert_eq!(warm[0].tier, ServeTier::ExploreCache);
    assert_eq!(
        counter(metric::EXPLORER_EVALUATED),
        evaluated_before,
        "cache-hit requests must not invoke the DSE"
    );
    assert_eq!(counter(metric::SERVE_CACHE_HITS), cache_hits_before + 1);
    // Identical inputs ⇒ identical guideline.
    assert_eq!(
        format!("{:?}", cold[0].guideline.config),
        format!("{:?}", warm[0].guideline.config)
    );
    metrics.enable(false);
}

#[test]
fn same_platform_reuses_the_identical_pooled_fit() {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut service = NavService::new(fast_options(22));
    // Two tenants, same platform preset, different workloads: find a
    // pair by scanning the deterministic tenant attribute stream.
    let a = tenant_request(22, 0);
    let mut pair = None;
    for t in 1..64 {
        let b = tenant_request(22, t);
        if b.platform == a.platform && b.workload != a.workload {
            pair = Some(b);
            break;
        }
    }
    let b = pair.expect("some tenant shares tenant 0's platform");

    let platform_fp = gnnav_serve::platform_fingerprint(&a.platform);
    service.submit(a).expect("admit a");
    service.drain().expect("wave a");
    assert_eq!(service.pool().misses(), 1);
    let fitted = format!("{:?}", service.pool().peek(platform_fp).expect("warm fit"));

    service.submit(b).expect("admit b");
    let resp = service.drain().expect("wave b");
    assert_eq!(service.pool().misses(), 1, "platform fit must be reused");
    assert_eq!(service.pool().hits(), 1);
    // Same-platform reuse returns the identical fit, coefficient for
    // coefficient.
    assert_eq!(fitted, format!("{:?}", service.pool().peek(platform_fp).expect("still warm")));
    // A different workload on a warm platform explores fresh.
    assert_eq!(resp[0].tier, ServeTier::WarmEstimator);
}

#[test]
fn a_recharged_calibration_fits_what_a_trained_one_fits() {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let metrics = gnnav_obs::global();
    metrics.enable(true);

    // One service, one wave, a tenant on each preset: the first pool
    // miss trains the sweep, the other two re-charge it.
    let runs_before = counter(metric::BACKEND_RUNS);
    let replayed_before = counter(metric::PROFILER_REPLAYED);
    let mut shared = NavService::new(fast_options(23));
    for platform in presets() {
        shared.submit(tenant_on(23, &platform, 0)).expect("admit");
    }
    let responses = shared.drain().expect("wave");
    assert!(responses.iter().all(|r| r.tier == ServeTier::Cold));
    assert_eq!(shared.pool().misses(), 3);
    assert_eq!(counter(metric::BACKEND_RUNS) - runs_before, CALIBRATION_RUNS);
    assert_eq!(counter(metric::PROFILER_REPLAYED) - replayed_before, 2 * CALIBRATION_RUNS);

    // The oracle: a fresh service that only ever saw one platform has
    // nothing to re-charge, so its fit comes from training.
    for platform in presets() {
        let runs_before = counter(metric::BACKEND_RUNS);
        let mut alone = NavService::new(fast_options(23));
        alone.submit(tenant_on(23, &platform, 0)).expect("admit");
        alone.drain().expect("wave");
        assert_eq!(counter(metric::BACKEND_RUNS) - runs_before, CALIBRATION_RUNS);
        assert_eq!(
            pooled_fit(&shared, &platform),
            pooled_fit(&alone, &platform),
            "{}",
            platform.device.name
        );
    }
    metrics.enable(false);
}

#[test]
fn recalibrating_an_evicted_platform_trains_nothing() {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let metrics = gnnav_obs::global();
    metrics.enable(true);

    let runs_before = counter(metric::BACKEND_RUNS);
    let [a, b, _] = presets();
    let mut service = NavService::new(ServeOptions { pool_capacity: 1, ..fast_options(24) });
    service.submit(tenant_on(24, &a, 0)).expect("admit");
    service.drain().expect("wave 1");
    let first_fit = pooled_fit(&service, &a);
    service.submit(tenant_on(24, &b, 0)).expect("admit");
    service.drain().expect("wave 2");
    // A fresh workload, so the request reaches the pool at all.
    service.submit(tenant_on(24, &a, 1)).expect("admit");
    let responses = service.drain().expect("wave 3");

    assert_eq!(responses[0].tier, ServeTier::Cold, "the pool had evicted the platform");
    assert_eq!(service.pool().misses(), 3);
    assert_eq!(service.pool().evictions(), 2);
    assert_eq!(
        counter(metric::BACKEND_RUNS) - runs_before,
        CALIBRATION_RUNS,
        "three calibrations, one of them trained"
    );
    assert_eq!(pooled_fit(&service, &a), first_fit);
    metrics.enable(false);
}

#[test]
fn platforms_differing_only_in_fp16_speedup_do_not_share_a_fit() {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let stock = tenant_request(25, 3);
    let mut tuned = stock.clone();
    tuned.platform.device.fp16_speedup *= 2.0;
    assert_ne!(platform_fingerprint(&stock.platform), platform_fingerprint(&tuned.platform));

    let mut service = NavService::new(fast_options(25));
    service.submit(stock.clone()).expect("admit");
    service.submit(tuned.clone()).expect("admit");
    let responses = service.drain().expect("wave");
    assert_eq!(service.pool().misses(), 2, "one fit per platform");
    assert!(responses.iter().all(|r| r.tier == ServeTier::Cold));
    // FP16 candidates are charged differently, so the fits differ.
    assert_ne!(pooled_fit(&service, &stock.platform), pooled_fit(&service, &tuned.platform));
}
