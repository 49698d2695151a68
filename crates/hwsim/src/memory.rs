//! Device memory ledger.
//!
//! Tracks the three components of the paper's Eq. 9:
//! `Γ = Γ_model + Γ_cache + Γ_runtime`, enforces the device capacity,
//! and records the peak footprint that the evaluation tables report.

use crate::HwError;

/// Accounting of device memory over a training run.
///
/// # Example
///
/// ```
/// use gnnav_hwsim::MemoryLedger;
///
/// # fn main() -> Result<(), gnnav_hwsim::HwError> {
/// let mut mem = MemoryLedger::new(1_000_000);
/// mem.set_model_bytes(100_000)?;
/// mem.set_cache_bytes(400_000)?;
/// mem.begin_batch(300_000)?; // transient activations
/// mem.end_batch();
/// assert_eq!(mem.peak_bytes(), 800_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryLedger {
    capacity: usize,
    model: usize,
    cache: usize,
    runtime: usize,
    peak: usize,
}

impl MemoryLedger {
    /// Creates a ledger for a device with `capacity_bytes` of memory.
    pub fn new(capacity_bytes: usize) -> Self {
        MemoryLedger { capacity: capacity_bytes, model: 0, cache: 0, runtime: 0, peak: 0 }
    }

    /// Sets the static model footprint `Γ_model`.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::OutOfMemory`] if the total would exceed
    /// capacity.
    pub fn set_model_bytes(&mut self, bytes: usize) -> Result<(), HwError> {
        self.try_set(|m| m.model = bytes)
    }

    /// Sets the cache footprint `Γ_cache`.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::OutOfMemory`] if the total would exceed
    /// capacity.
    pub fn set_cache_bytes(&mut self, bytes: usize) -> Result<(), HwError> {
        self.try_set(|m| m.cache = bytes)
    }

    /// Claims transient per-batch memory `Γ_runtime` for the current
    /// iteration.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::OutOfMemory`] if the total would exceed
    /// capacity; the claim is rolled back.
    pub fn begin_batch(&mut self, bytes: usize) -> Result<(), HwError> {
        self.try_set(|m| m.runtime = bytes)
    }

    /// Releases the current batch's transient memory.
    pub fn end_batch(&mut self) {
        self.runtime = 0;
    }

    fn try_set(&mut self, apply: impl FnOnce(&mut Self)) -> Result<(), HwError> {
        let mut next = self.clone();
        apply(&mut next);
        // An overflowing sum cannot possibly fit (capacity is a
        // usize), so it is reported as OOM, not a panic — fault
        // injection deliberately produces absurd claims.
        let total = next
            .model
            .checked_add(next.cache)
            .and_then(|t| t.checked_add(next.runtime))
            .unwrap_or(usize::MAX);
        if total > next.capacity {
            return Err(HwError::OutOfMemory { requested: total, capacity: next.capacity });
        }
        *self = next;
        self.peak = self.peak.max(total);
        Ok(())
    }

    /// Bytes currently free (capacity minus model, cache, runtime) —
    /// what a transmission strategy may claim for caching.
    #[cfg(test)]
    pub(crate) fn free_bytes(&self) -> usize {
        self.capacity.saturating_sub(self.model + self.cache + self.runtime)
    }

    /// Current `Γ_model`.
    pub fn model_bytes(&self) -> usize {
        self.model
    }

    /// Current `Γ_cache`.
    pub fn cache_bytes(&self) -> usize {
        self.cache
    }

    /// Current `Γ_runtime`.
    pub fn runtime_bytes(&self) -> usize {
        self.runtime
    }

    /// Peak total footprint observed so far — the `Γ` the evaluation
    /// reports.
    pub fn peak_bytes(&self) -> usize {
        self.peak
    }

    /// Restores a previously observed peak (checkpoint resume): the
    /// recorded high-water mark becomes the max of the current and
    /// restored values, so a resumed run reports the same peak as an
    /// uninterrupted one.
    pub fn restore_peak(&mut self, peak_bytes: usize) {
        self.peak = self.peak.max(peak_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_accumulate_and_peak_tracks() {
        let mut m = MemoryLedger::new(100);
        m.set_model_bytes(10).expect("fits");
        m.set_cache_bytes(40).expect("fits");
        m.begin_batch(30).expect("fits");
        assert_eq!(m.peak_bytes(), 80);
        m.end_batch();
        assert_eq!(m.runtime_bytes(), 0);
        m.begin_batch(20).expect("fits");
        assert_eq!(m.peak_bytes(), 80, "peak keeps the max");
        assert_eq!(m.free_bytes(), 30);
    }

    #[test]
    fn oom_rejected_and_rolled_back() {
        let mut m = MemoryLedger::new(100);
        m.set_cache_bytes(90).expect("fits");
        let err = m.begin_batch(20).unwrap_err();
        assert!(matches!(err, HwError::OutOfMemory { requested: 110, capacity: 100 }));
        // Rolled back: runtime still 0, cache intact.
        assert_eq!(m.runtime_bytes(), 0);
        assert_eq!(m.cache_bytes(), 90);
        assert_eq!(m.peak_bytes(), 90);
    }

    #[test]
    fn resizing_cache_down_frees_capacity() {
        let mut m = MemoryLedger::new(100);
        m.set_cache_bytes(80).expect("fits");
        m.set_cache_bytes(10).expect("shrink ok");
        m.begin_batch(80).expect("fits now");
    }

    #[test]
    fn failed_claim_then_retry_sequence_is_clean() {
        // A rejected claim must leave every component AND the peak
        // exactly as they were, so a retry (possibly after freeing
        // memory) starts from pristine state.
        let mut m = MemoryLedger::new(100);
        m.set_model_bytes(20).expect("fits");
        m.set_cache_bytes(50).expect("fits");
        let before = m.clone();
        for _ in 0..3 {
            assert!(m.begin_batch(40).is_err(), "claim over capacity");
            assert_eq!(m, before, "failed claim must not mutate the ledger");
        }
        // Shrink the cache (the degradation ladder's first rung),
        // then the same claim fits.
        m.set_cache_bytes(30).expect("shrink ok");
        m.begin_batch(40).expect("fits after shrink");
        assert_eq!(m.peak_bytes(), 90);
        m.end_batch();
    }

    #[test]
    fn failed_cache_resize_rolls_back() {
        let mut m = MemoryLedger::new(100);
        m.set_cache_bytes(40).expect("fits");
        m.begin_batch(30).expect("fits");
        assert!(m.set_cache_bytes(80).is_err(), "would exceed capacity");
        assert_eq!(m.cache_bytes(), 40, "prior cache size kept");
        assert_eq!(m.runtime_bytes(), 30, "runtime untouched");
        assert_eq!(m.peak_bytes(), 70, "peak untouched by the failure");
    }

    #[test]
    fn absurd_claims_report_oom_instead_of_overflowing() {
        let mut m = MemoryLedger::new(100);
        m.set_model_bytes(50).expect("fits");
        let err = m.begin_batch(usize::MAX).unwrap_err();
        assert!(matches!(err, HwError::OutOfMemory { .. }));
        assert_eq!(m.runtime_bytes(), 0);
        assert_eq!(m.free_bytes(), 50);
    }

    #[test]
    fn error_displays_sizes() {
        let e = HwError::OutOfMemory { requested: 10, capacity: 5 };
        let s = e.to_string();
        assert!(s.contains("10") && s.contains('5'));
    }
}
