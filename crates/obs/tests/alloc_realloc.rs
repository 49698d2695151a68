//! A reallocation is a free and an allocation, in a test binary of its
//! own: the counters are process-wide, and `alloc_tracking.rs`'s test
//! asserts that they stay still while tracking is off, which no other
//! test of its binary may disturb by switching tracking on.

use gnnav_obs::alloc::{set_tracking, stats};
use std::hint::black_box;

#[test]
fn realloc_counts_a_free_and_an_alloc() {
    set_tracking(true);
    let t0 = stats();
    let mut v: Vec<u8> = black_box(Vec::with_capacity(16));
    v.resize(1024, 0u8); // forces realloc
    drop(black_box(v));
    set_tracking(false);
    let d = stats().delta_since(&t0);
    assert!(d.allocs >= 2, "{d:?}");
    assert!(d.frees >= 2, "{d:?}");
}
