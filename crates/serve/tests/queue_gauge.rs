//! A wave that fails still takes the whole queue, and the
//! `serve.queue.depth` gauge says so: after a failed `drain`,
//! `queue_depth()` and the gauge both read 0.
//!
//! Lives in its own integration-test binary: it reads the
//! process-global metrics registry, which tests running on parallel
//! threads would perturb.

use gnnav_explorer::ExplorerError;
use gnnav_obs::names as metric;
use gnnav_serve::{tenant_request, NavService, ServeError, ServeOptions};

fn depth_gauge() -> Option<f64> {
    gnnav_obs::global().snapshot().gauges.get(metric::SERVE_QUEUE_DEPTH).copied()
}

#[test]
fn a_failed_drain_leaves_the_depth_gauge_at_the_queue_depth() {
    let options = ServeOptions {
        explore_budget: 0,
        calibration_graphs: 1,
        calibration_nodes: 250,
        calibration_samples: 6,
        ..ServeOptions::default()
    };
    let mut service = NavService::new(options);
    gnnav_obs::global().enable(true);
    for tenant in 0..3 {
        service.submit(tenant_request(15, tenant)).expect("admitted");
    }
    assert_eq!(depth_gauge(), Some(3.0));
    let err = service.drain().expect_err("no exploration runs on a zero budget");
    assert!(matches!(err, ServeError::Explorer(ExplorerError::ZeroBudget)), "{err}");
    let gauge = depth_gauge();
    gnnav_obs::global().enable(false);
    assert_eq!(service.queue_depth(), 0, "the failed wave took the queue");
    assert_eq!(gauge, Some(0.0), "and the gauge must not read its old depth");
}
