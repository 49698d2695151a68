//! Admission-control behavior: typed rejections, the degradation
//! ladder, and the no-partial-spans guarantee for rejected requests.

use std::sync::{Mutex, MutexGuard};

use gnnav_obs::journal::ArgValue;
use gnnav_obs::names as metric;
use gnnav_serve::{
    tenant_request, AdmitError, DegradeLevel, NavRequest, NavService, ServeOptions, TenantId,
};

/// Serializes the tests of this file: some toggle the global journal,
/// and every submit writes to it while it is on.
static JOURNAL_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    JOURNAL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn fast_options(seed: u64) -> ServeOptions {
    ServeOptions { queue_capacity: 24, tenant_budget: 4, seed }
}

/// Tenant `tenant`'s request with one runtime limit set to `value`.
fn with_limit(seed: u64, tenant: usize, limit: &str, value: f64) -> NavRequest {
    let mut request = tenant_request(seed, tenant);
    let constraints = &mut request.workload.constraints;
    match limit {
        "max_time_s" => constraints.max_time_s = Some(value),
        "max_mem_bytes" => constraints.max_mem_bytes = Some(value),
        _ => constraints.min_accuracy = Some(value),
    }
    request
}

#[test]
fn queue_full_returns_typed_error_without_panicking() {
    let _guard = serial();
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
    let _guard = serial();
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
    let _guard = serial();
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
fn a_non_finite_limit_is_refused_at_submit_and_takes_no_token() {
    let _guard = serial();
    for limit in ["max_time_s", "max_mem_bytes", "min_accuracy"] {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut service =
                NavService::new(ServeOptions { tenant_budget: 1, ..fast_options(16) });
            let err = service
                .submit(with_limit(16, 7, limit, value))
                .expect_err("a non-finite limit is refused");
            assert_eq!(err.reason(), "non-finite-limit", "{limit} = {value}");
            assert!(err.to_string().contains(limit), "{err}");
            assert_eq!(service.queue_depth(), 0);
            // The refused request took none of tenant 7's one token.
            service.submit(tenant_request(16, 7)).expect("the token is still there");
        }
    }
}

#[test]
fn a_non_finite_limit_leaves_the_rest_of_the_wave_answered() {
    let _guard = serial();
    let mut service = NavService::new(fast_options(17));
    for tenant in 0..3 {
        service.submit(tenant_request(17, tenant)).expect("admitted");
    }
    service.submit(with_limit(17, 3, "max_time_s", f64::NAN)).expect_err("refused at submit");
    let responses = service.drain().expect("the wave holds only well-formed requests");
    let tenants: Vec<u64> = responses.iter().map(|r| r.tenant.0).collect();
    assert_eq!(tenants, [0, 1, 2]);
}

#[test]
fn degradation_ladder_follows_queue_depth() {
    let _guard = serial();
    // A bound of 12 puts the rungs at depths 6 and 9.
    let mut service =
        NavService::new(ServeOptions { queue_capacity: 12, tenant_budget: 100, seed: 13 });
    for tenant in 0..12 {
        service.submit(tenant_request(13, tenant)).expect("admitted");
    }
    let responses = service.drain().expect("wave resolves");
    assert_eq!(responses.len(), 12);
    for (i, r) in responses.iter().enumerate() {
        let expect = if i >= 9 {
            DegradeLevel::CacheOnly
        } else if i >= 6 {
            DegradeLevel::ReducedBudget
        } else {
            DegradeLevel::Full
        };
        assert_eq!(r.degrade, expect, "request {i}");
    }
}

#[test]
fn the_rungs_sit_at_a_half_and_three_quarters_of_the_queue_bound() {
    let _guard = serial();
    let journal = gnnav_obs::global().journal();
    // (bound, first reduced depth, first cache-only depth); `None`
    // where the bound admits no request that deep.
    let cases = [
        (1, None, None),
        (2, Some(1), None),
        (3, Some(2), None),
        (4, Some(2), Some(3)),
        (5, Some(3), Some(4)),
        (24, Some(12), Some(18)),
        (64, Some(32), Some(48)),
    ];
    for (bound, reduced, cache_only) in cases {
        journal.enable(true);
        journal.reset();
        let mut service =
            NavService::new(ServeOptions { queue_capacity: bound, tenant_budget: 100, seed: 18 });
        for tenant in 0..bound {
            service.submit(tenant_request(18, tenant)).expect("under the bound");
        }
        let snapshot = journal.snapshot();
        journal.enable(false);
        let rungs: Vec<String> = snapshot
            .events
            .iter()
            .filter(|e| e.name.as_ref() == metric::EVENT_SERVE_ADMIT)
            .filter_map(|e| match e.args.iter().find(|(k, _)| k.as_ref() == "degrade") {
                Some((_, ArgValue::Str(label))) => Some(label.clone()),
                _ => None,
            })
            .collect();
        let expect: Vec<&str> = (0..bound)
            .map(|depth| {
                if cache_only.is_some_and(|d| depth >= d) {
                    "cache-only"
                } else if reduced.is_some_and(|d| depth >= d) {
                    "reduced"
                } else {
                    "full"
                }
            })
            .collect();
        assert_eq!(rungs, expect, "bound {bound}");
    }
}

#[test]
fn rejected_requests_leave_no_partial_journal_spans() {
    let _guard = serial();
    let journal = gnnav_obs::global().journal();
    journal.enable(true);
    journal.reset();

    let mut service =
        NavService::new(ServeOptions { queue_capacity: 2, tenant_budget: 1, ..fast_options(14) });
    service.submit(tenant_request(14, 1)).expect("admitted");
    // Budget-exhausted, non-finite-limit and queue-full rejections.
    service.submit(tenant_request(14, 1)).expect_err("budget");
    service.submit(with_limit(14, 2, "min_accuracy", f64::NAN)).expect_err("limit");
    service.submit(tenant_request(14, 2)).expect("admitted");
    service.submit(tenant_request(14, 3)).expect_err("queue full");

    let snapshot = journal.snapshot();
    journal.enable(false);
    let serve_events: Vec<_> =
        snapshot.events.iter().filter(|e| e.track.as_ref() == metric::TRACK_SERVE).collect();
    let rejects: Vec<_> =
        serve_events.iter().filter(|e| e.name.as_ref() == metric::EVENT_SERVE_REJECT).collect();
    assert_eq!(rejects.len(), 3, "one instant per rejection");
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
