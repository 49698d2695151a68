//! Warm estimator pool keyed by platform fingerprint.
//!
//! Calibrating a gray-box fit means profiling real sweeps on the
//! tenant's platform — by far the most expensive step of a cold
//! navigation. The pool keeps the most recently used fits warm under
//! an LRU bound so repeat platforms skip calibration entirely.
//!
//! A fit is per platform because the cost model's charges are; the
//! executions under them are not. What a miss costs therefore depends
//! on whether the service has calibrated before: its first miss
//! trains the calibration sweep, every later one — a new platform, or
//! one this pool evicted — re-charges the traces the first one left
//! (see `service`), about a twentieth of the work. The pool itself
//! knows none of this: it calls the `fit` it is handed.

use gnnav_estimator::GrayBoxEstimator;
use gnnav_hwsim::Platform;
use gnnav_obs::names as metric;
use gnnav_runtime::checkpoint::put_platform;
use gnnav_store::{fnv1a64, ByteWriter};
use std::sync::Arc;

/// Fingerprints every field of a [`Platform`] (the one list,
/// [`put_platform`]): two platforms share a pooled estimator only when
/// they are byte-identical.
pub fn platform_fingerprint(p: &Platform) -> u64 {
    let mut w = ByteWriter::new();
    put_platform(&mut w, p);
    fnv1a64(&w.finish())
}

/// Bounded LRU pool of fitted estimators keyed by
/// [`platform_fingerprint`]. Hits, misses, and evictions are metered
/// as `serve.pool.*`. Fits are handed out shared (`Arc`): a wave's
/// exploration jobs keep theirs alive without copying the forests,
/// even when a later request of the same wave evicts it.
#[derive(Debug)]
pub struct EstimatorPool {
    capacity: usize,
    /// LRU order: least recently used first, most recent last.
    entries: Vec<(u64, Arc<GrayBoxEstimator>)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl EstimatorPool {
    /// Creates an empty pool holding at most `capacity` fits
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        EstimatorPool {
            capacity: capacity.max(1),
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of warm fits currently pooled.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The LRU bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups that found a warm fit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to calibrate.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fits evicted by the LRU bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whether a warm fit for `fp` is pooled (no LRU touch).
    pub fn contains(&self, fp: u64) -> bool {
        self.entries.iter().any(|(k, _)| *k == fp)
    }

    /// The pooled fit for `fp`, if warm (no LRU touch, no metering).
    pub fn peek(&self, fp: u64) -> Option<&GrayBoxEstimator> {
        self.entries.iter().find(|(k, _)| *k == fp).map(|(_, est)| est.as_ref())
    }

    /// Returns the warm fit for `fp`, calibrating one with `fit` on a
    /// miss. A hit moves the entry to most-recently-used; a miss may
    /// evict the least recently used entry. The flag is `true` on a
    /// hit.
    pub fn get_or_insert_with<E>(
        &mut self,
        fp: u64,
        fit: impl FnOnce() -> Result<GrayBoxEstimator, E>,
    ) -> Result<(Arc<GrayBoxEstimator>, bool), E> {
        let metrics = gnnav_obs::global();
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == fp) {
            self.hits += 1;
            metrics.add(metric::SERVE_POOL_HITS, 1);
            let entry = self.entries.remove(pos);
            let est = Arc::clone(&entry.1);
            self.entries.push(entry);
            return Ok((est, true));
        }
        self.misses += 1;
        metrics.add(metric::SERVE_POOL_MISSES, 1);
        let est = Arc::new(fit()?);
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
            self.evictions += 1;
            metrics.add(metric::SERVE_POOL_EVICTIONS, 1);
        }
        self.entries.push((fp, Arc::clone(&est)));
        Ok((est, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(tag: u64) -> Result<GrayBoxEstimator, std::convert::Infallible> {
        let _ = tag;
        Ok(GrayBoxEstimator::new())
    }

    #[test]
    fn platform_fingerprint_distinguishes_presets() {
        let a = platform_fingerprint(&Platform::default_rtx4090());
        let b = platform_fingerprint(&Platform::default_a100());
        let c = platform_fingerprint(&Platform::default_m90());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Byte-identical platforms fingerprint identically.
        assert_eq!(a, platform_fingerprint(&Platform::default_rtx4090()));
    }

    #[test]
    fn platform_fingerprint_reads_every_field() {
        // `device.fp16_speedup` was once left out: two platforms
        // differing only there shared one fit.
        let edits: [fn(&mut Platform); 13] = [
            |hw| hw.host.name.push('x'),
            |hw| hw.host.sample_mvps += 1.0,
            |hw| hw.host.mem_bandwidth_gbs += 1.0,
            |hw| hw.host.iteration_overhead_us += 1.0,
            |hw| hw.device.name.push('x'),
            |hw| hw.device.compute_tflops += 1.0,
            |hw| hw.device.mem_bandwidth_gbs += 1.0,
            |hw| hw.device.mem_capacity_bytes += 1,
            |hw| hw.device.launch_overhead_us += 1.0,
            |hw| hw.device.fp16_speedup += 1.0,
            |hw| hw.link.name.push('x'),
            |hw| hw.link.bandwidth_gbs += 1.0,
            |hw| hw.link.latency_us += 1.0,
        ];
        let base = Platform::default_a100();
        for (field, edit) in edits.iter().enumerate() {
            let mut edited = base.clone();
            edit(&mut edited);
            assert_ne!(edited, base);
            assert_ne!(platform_fingerprint(&edited), platform_fingerprint(&base), "field {field}");
        }
    }

    #[test]
    fn lru_evicts_least_recently_used_at_the_boundary() {
        let mut pool = EstimatorPool::new(2);
        pool.get_or_insert_with(1, || dummy(1)).unwrap();
        pool.get_or_insert_with(2, || dummy(2)).unwrap();
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.evictions(), 0);
        // Touch 1 so 2 becomes least recently used.
        let (_, hit) = pool.get_or_insert_with(1, || dummy(1)).unwrap();
        assert!(hit);
        // Inserting a third evicts exactly one entry: 2, not 1.
        pool.get_or_insert_with(3, || dummy(3)).unwrap();
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.evictions(), 1);
        assert!(pool.contains(1));
        assert!(!pool.contains(2));
        assert!(pool.contains(3));
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.misses(), 3);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let mut pool = EstimatorPool::new(0);
        assert_eq!(pool.capacity(), 1);
        pool.get_or_insert_with(1, || dummy(1)).unwrap();
        pool.get_or_insert_with(2, || dummy(2)).unwrap();
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.evictions(), 1);
    }
}
