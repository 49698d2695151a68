//! A wave that fails still takes the whole queue, and the
//! `serve.queue.depth` gauge says so: after a failed `drain`,
//! `queue_depth()` and the gauge both read 0.
//!
//! Lives in its own integration-test binary: it reads the
//! process-global metrics registry, which tests running on parallel
//! threads would perturb.

use gnnav_obs::names as metric;
use gnnav_serve::{tenant_request, NavService, ServeError, ServeOptions};

fn depth_gauge() -> Option<f64> {
    gnnav_obs::global().snapshot().gauges.get(metric::SERVE_QUEUE_DEPTH).copied()
}

#[test]
fn a_failed_drain_leaves_the_depth_gauge_at_the_queue_depth() {
    let mut service = NavService::new(ServeOptions::default());
    gnnav_obs::global().enable(true);
    for tenant in 0..3 {
        let mut request = tenant_request(15, tenant);
        // A dataset with no features: its materialization, the first
        // thing the wave does with the request, fails.
        request.workload.feat_dim = 0;
        service.submit(request).expect("admitted");
    }
    assert_eq!(depth_gauge(), Some(3.0));
    let err = service.drain().expect_err("no dataset has zero features");
    assert!(matches!(err, ServeError::Graph(_)), "{err}");
    let gauge = depth_gauge();
    gnnav_obs::global().enable(false);
    assert_eq!(service.queue_depth(), 0, "the failed wave took the queue");
    assert_eq!(gauge, Some(0.0), "and the gauge must not read its old depth");
}
