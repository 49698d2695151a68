//! Opt-in whole-process allocation telemetry.
//!
//! This crate installs a counting [`GlobalAlloc`] wrapper around
//! [`std::alloc::System`] for every binary in the workspace. While
//! tracking is **off** (the default) each allocator call costs
//! exactly one relaxed atomic load and a not-taken branch before
//! delegating to the system allocator — the `obs_overhead` bench pins
//! this. While **on**, it counts allocations, frees, bytes, and the
//! live-byte peak in process-wide atomics.
//!
//! Tracking follows the *global* registry's switch: calling
//! [`Registry::enable`](crate::Registry::enable) on
//! [`global()`](crate::global) toggles it (isolated registries in
//! tests leave process state alone), and [`set_tracking`] toggles it
//! directly for tight measurement windows.
//!
//! The runtime backend samples [`stats`] around its per-batch
//! training hot path and surfaces the deltas as `alloc.*` gauges plus
//! an `alloc` journal instant; the
//! `alloc.steady_state_allocs_per_epoch` counter turns the "training
//! steady state performs zero heap allocation" claim into a
//! CI-gated invariant (see `docs/OBSERVABILITY.md`).
//!
//! Counts are process-wide: a concurrent thread allocating inside a
//! measurement window is charged to it. Measurement windows that must
//! be exact therefore run single-threaded (the perf baseline pins
//! `GNNAV_THREADS=1`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

struct CountingAlloc;

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREE_BYTES: AtomicU64 = AtomicU64::new(0);
// Signed: frees of memory allocated before tracking was enabled would
// otherwise underflow.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// The slow path is deliberately out of line so the disabled fast
/// path stays a load + branch + tail call.
#[cold]
#[inline(never)]
fn record_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

#[cold]
#[inline(never)]
fn record_free(size: usize) {
    FREES.fetch_add(1, Ordering::Relaxed);
    FREE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        System.alloc(layout)
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if TRACKING.load(Ordering::Relaxed) {
            record_free(layout.size());
        }
        System.dealloc(ptr, layout)
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        System.alloc_zeroed(layout)
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            record_free(layout.size());
            record_alloc(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Point-in-time allocator counters. Counters only move while
/// tracking is on; they are never reset (take deltas with
/// [`AllocStats::delta_since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Heap allocations observed (reallocs count one alloc + one free).
    pub allocs: u64,
    /// Heap frees observed.
    pub frees: u64,
    /// Bytes allocated.
    pub alloc_bytes: u64,
    /// Bytes freed.
    pub free_bytes: u64,
    /// Live (allocated minus freed) bytes right now, clamped at zero.
    pub live_bytes: u64,
    /// High-water mark of live bytes since tracking first ran.
    pub peak_bytes: u64,
}

impl AllocStats {
    /// Counter deltas since `earlier` (saturating); `live_bytes` and
    /// `peak_bytes` keep their current absolute values, since a
    /// point-in-time level has no meaningful delta.
    pub fn delta_since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            frees: self.frees.saturating_sub(earlier.frees),
            alloc_bytes: self.alloc_bytes.saturating_sub(earlier.alloc_bytes),
            free_bytes: self.free_bytes.saturating_sub(earlier.free_bytes),
            live_bytes: self.live_bytes,
            peak_bytes: self.peak_bytes,
        }
    }
}

/// Turns allocation tracking on or off.
pub fn set_tracking(on: bool) {
    TRACKING.store(on, Ordering::Relaxed);
}

/// Whether allocation tracking is on.
#[inline]
pub fn is_tracking() -> bool {
    TRACKING.load(Ordering::Relaxed)
}

/// Reads the current allocator counters.
pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        free_bytes: FREE_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed).max(0) as u64,
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed).max(0) as u64,
    }
}
