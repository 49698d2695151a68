//! Admission-control behavior: typed rejections, the degradation
//! ladder, and the no-partial-spans guarantee for rejected requests.

use std::sync::Mutex;

use gnnav_explorer::ExplorerError;
use gnnav_obs::names as metric;
use gnnav_serve::{
    tenant_request, AdmitError, DegradeLevel, NavService, ServeError, ServeOptions, TenantId,
};

/// Serializes the tests that toggle the global journal.
static JOURNAL_LOCK: Mutex<()> = Mutex::new(());

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

#[test]
fn queue_full_returns_typed_error_without_panicking() {
    let mut service =
        NavService::new(ServeOptions { queue_capacity: 3, tenant_budget: 100, ..fast_options(11) });
    for tenant in 0..3 {
        service.submit(tenant_request(11, tenant)).expect("under capacity");
    }
    let err = service.submit(tenant_request(11, 3)).expect_err("queue is full");
    assert_eq!(err, AdmitError::QueueFull { depth: 3, capacity: 3 });
    assert!(err.to_string().contains("queue full"));
    // The queue is untouched by the rejection.
    assert_eq!(service.queue_depth(), 3);
}

#[test]
fn tenant_budget_exhaustion_returns_typed_error() {
    let mut service = NavService::new(ServeOptions { tenant_budget: 2, ..fast_options(12) });
    service.submit(tenant_request(12, 7)).expect("first token");
    service.submit(tenant_request(12, 7)).expect("second token");
    let err = service.submit(tenant_request(12, 7)).expect_err("bucket empty");
    assert_eq!(err, AdmitError::BudgetExhausted { tenant: TenantId(7) });
    // Other tenants are unaffected.
    service.submit(tenant_request(12, 8)).expect("different tenant");
}

#[test]
fn a_drain_refills_the_bucket_to_the_full_budget() {
    let mut service = NavService::new(ServeOptions { tenant_budget: 2, ..fast_options(15) });
    for _ in 0..2 {
        service.submit(tenant_request(15, 7)).expect("initial token");
    }
    service.submit(tenant_request(15, 7)).expect_err("bucket empty");
    service.drain().expect("wave resolves");
    for round in 0..2 {
        service.submit(tenant_request(15, 7)).unwrap_or_else(|e| panic!("refill {round}: {e}"));
    }
    let err = service.submit(tenant_request(15, 7)).expect_err("refilled bucket empty");
    assert_eq!(err, AdmitError::BudgetExhausted { tenant: TenantId(7) });
}

#[test]
fn a_zero_budget_fails_the_wave_with_a_typed_error() {
    // Once at the full budget, once at the reduced one every admission
    // gets when the degrade rung starts at depth 0.
    for (explore_budget, reduced_budget, degrade_depth) in [(0, 40, 12), (120, 0, 0)] {
        let mut service = NavService::new(ServeOptions {
            explore_budget,
            reduced_budget,
            degrade_depth,
            ..fast_options(14)
        });
        service.submit(tenant_request(14, 0)).expect("admitted");
        let err = service.drain().expect_err("no exploration runs on a zero budget");
        assert!(
            matches!(err, ServeError::Explorer(ExplorerError::ZeroBudget)),
            "{explore_budget}/{reduced_budget}: {err}"
        );
    }
}

#[test]
fn degradation_ladder_follows_queue_depth() {
    let mut service = NavService::new(ServeOptions {
        queue_capacity: 24,
        tenant_budget: 100,
        degrade_depth: 4,
        cache_only_depth: 8,
        ..fast_options(13)
    });
    for tenant in 0..12 {
        service.submit(tenant_request(13, tenant)).expect("admitted");
    }
    let responses = service.drain().expect("wave resolves");
    assert_eq!(responses.len(), 12);
    for (i, r) in responses.iter().enumerate() {
        let expect = if i >= 8 {
            DegradeLevel::CacheOnly
        } else if i >= 4 {
            DegradeLevel::ReducedBudget
        } else {
            DegradeLevel::Full
        };
        assert_eq!(r.degrade, expect, "request {i}");
    }
}

#[test]
fn rejected_requests_leave_no_partial_journal_spans() {
    let _guard = JOURNAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let journal = gnnav_obs::global().journal();
    journal.enable(true);
    journal.reset();

    let mut service =
        NavService::new(ServeOptions { queue_capacity: 2, tenant_budget: 1, ..fast_options(14) });
    service.submit(tenant_request(14, 1)).expect("admitted");
    // Queue-full and budget-exhausted rejections.
    service.submit(tenant_request(14, 1)).expect_err("budget");
    service.submit(tenant_request(14, 2)).expect("admitted");
    service.submit(tenant_request(14, 3)).expect_err("queue full");

    let snapshot = journal.snapshot();
    journal.enable(false);
    let serve_events: Vec<_> =
        snapshot.events.iter().filter(|e| e.track.as_ref() == metric::TRACK_SERVE).collect();
    let rejects: Vec<_> =
        serve_events.iter().filter(|e| e.name.as_ref() == metric::EVENT_SERVE_REJECT).collect();
    assert_eq!(rejects.len(), 2, "one instant per rejection");
    for e in &serve_events {
        // No wave ran: the serve track must hold only instants —
        // rejections can never open a span.
        assert!(
            matches!(e.kind, gnnav_obs::journal::EventKind::Instant),
            "unexpected non-instant serve event {:?}",
            e.name
        );
    }
}
