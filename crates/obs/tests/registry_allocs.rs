//! Recording into a known series allocates nothing, in a test binary of
//! its own: the allocation counters are process-wide (see the header of
//! `alloc_tracking.rs`), so no other test may allocate beside this one.
//!
//! A registry copies a series' name when the series is created and
//! never again: a thousand records of each kind on names it already
//! holds must leave the allocation count near zero. Every argument goes
//! through `black_box` so that an optimised build cannot fold the calls.

use gnnav_obs::alloc::{set_tracking, stats};
use gnnav_obs::Registry;
use std::hint::black_box;

#[test]
fn recording_a_known_series_does_not_allocate() {
    let registry = Registry::new();
    registry.enable(true);
    registry.add("test.counter", 1);
    registry.gauge_set("test.gauge", 0.5);
    registry.observe("test.hist", 1e-3);

    set_tracking(true);
    let t0 = stats();
    for i in 0..1_000u64 {
        registry.add(black_box("test.counter"), black_box(1));
        registry.gauge_set(black_box("test.gauge"), black_box(i as f64));
        registry.observe(black_box("test.hist"), black_box(1e-3 * i as f64));
    }
    set_tracking(false);
    let d = stats().delta_since(&t0);
    assert!(d.allocs < 10, "3 000 records on known series allocated {} times", d.allocs);

    let snap = registry.snapshot();
    assert_eq!(snap.counters["test.counter"], 1_001);
    assert_eq!(snap.gauges["test.gauge"], 999.0);
    assert_eq!(snap.histograms["test.hist"].count, 1_001);
}
