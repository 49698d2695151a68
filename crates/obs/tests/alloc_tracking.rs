//! The allocation-tracking switch, in a test binary of its own.
//!
//! The counters are process-wide, so a test asserting that they stay
//! still is only sound where no other test allocates beside it: another
//! test's thread could load the switch as on just before it went off
//! and record after the "quiescent" snapshot was taken, and so could
//! the harness thread handling that test's end. This file therefore
//! holds one test; `alloc_realloc.rs` holds the other. Every allocation
//! goes through `black_box`: an optimised build may otherwise elide an
//! allocation that is freed unread, and the counters would see nothing.

use gnnav_obs::alloc::{is_tracking, set_tracking, stats};
use std::hint::black_box;

#[test]
fn tracking_switch_gates_recording() {
    // Disabled: allocations leave the counters untouched.
    assert!(!is_tracking());
    let before = stats();
    let v: Vec<u8> = black_box(Vec::with_capacity(4096));
    drop(v);
    assert_eq!(stats(), before, "disabled path must be a passthrough");

    // Enabled: an allocation and its free are both observed.
    set_tracking(true);
    let t0 = stats();
    let v: Vec<u8> = black_box(Vec::with_capacity(8192));
    drop(v);
    set_tracking(false);
    let d = stats().delta_since(&t0);
    assert!(d.allocs >= 1, "{d:?}");
    assert!(d.frees >= 1, "{d:?}");
    assert!(d.alloc_bytes >= 8192, "{d:?}");
    assert!(d.free_bytes >= 8192, "{d:?}");
    // The peak covers the window's 8 192 bytes above the live count it
    // started from. That count is signed and may be below zero (a free,
    // by any thread, of memory allocated before tracking ran), so it is
    // read as allocated minus freed, not from the clamped `live_bytes`.
    let start = t0.alloc_bytes as i64 - t0.free_bytes as i64;
    assert!(stats().peak_bytes as i64 >= start + 8192, "{start} {:?}", stats());

    // Off again: quiescent.
    let after = stats();
    let v: Vec<u8> = black_box(Vec::with_capacity(4096));
    drop(v);
    assert_eq!(stats(), after);
}
