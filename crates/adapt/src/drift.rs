//! EWMA drift detection over observed-vs-predicted epoch metrics.

/// EWMA smoothing factor: the weight of each new epoch's score.
const ALPHA: f64 = 0.4;

/// Consecutive drifting epochs required before the detector triggers
/// a re-exploration.
const SUSTAIN: u32 = 2;

/// What [`DriftDetector::observe`] concluded about one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftVerdict {
    /// Raw per-epoch score: the largest relative deviation among the
    /// finite observed/predicted pairs (0 when every pair was
    /// unusable).
    pub score: f64,
    /// The smoothed (EWMA) score.
    pub ewma: f64,
    /// Whether the EWMA exceeds the threshold this epoch.
    pub drifting: bool,
    /// Whether drift has been sustained long enough to act on.
    pub triggered: bool,
}

/// One epoch's predicted or observed metric triple, in the units the
/// estimator emits: per-epoch simulated seconds, hit rate in `[0, 1]`,
/// peak memory in bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSignal {
    /// Per-epoch simulated time in seconds.
    pub time_s: f64,
    /// Cache hit rate in `[0, 1]`.
    pub hit_rate: f64,
    /// Peak device memory in bytes.
    pub mem_bytes: f64,
}

/// Compares observed per-epoch metrics against estimator predictions
/// with an EWMA band and reports when the deviation is sustained.
///
/// The score is scale-free: time and memory contribute their relative
/// deviation `|obs − pred| / pred`, hit rate its absolute deviation
/// (it is already a ratio). Non-finite or non-positive components are
/// skipped rather than poisoning the average, so NaN inputs can never
/// trigger (or suppress) a re-exploration on their own.
///
/// The band is an EWMA with smoothing factor 0.4 (the first epoch
/// seeds it with its own score), and drift triggers once it has stayed
/// above the threshold for 2 consecutive epochs. Only the threshold is
/// a parameter, passed to each [`observe`](Self::observe); the
/// detector is its state alone (the band, the streak, the epochs
/// seen), which an adaptive checkpoint persists as it is.
///
/// # Example
///
/// ```
/// use gnnav_adapt::DriftDetector;
/// use gnnav_adapt::drift::EpochSignal;
///
/// let mut det = DriftDetector::default();
/// let pred = EpochSignal { time_s: 1.0, hit_rate: 0.5, mem_bytes: 1e9 };
/// let ok = EpochSignal { time_s: 1.1, hit_rate: 0.5, mem_bytes: 1e9 };
/// let slow = EpochSignal { time_s: 3.0, hit_rate: 0.5, mem_bytes: 1e9 };
///
/// assert!(!det.observe(0.5, &pred, &ok).drifting);      // within band
/// assert!(!det.observe(0.5, &pred, &slow).triggered);   // drifting, not sustained
/// assert!(det.observe(0.5, &pred, &slow).triggered);    // second in a row: act
/// ```
#[derive(Debug, Clone, Default)]
pub struct DriftDetector {
    pub(crate) ewma: Option<f64>,
    pub(crate) streak: u32,
    pub(crate) observed: u64,
}

impl DriftDetector {
    /// Epochs observed since creation or the last [`reset`](Self::reset).
    pub fn epochs_observed(&self) -> u64 {
        self.observed
    }

    /// Clears the EWMA, streak, and epoch count — called after a
    /// guideline switch, when the prediction baseline changes.
    pub fn reset(&mut self) {
        *self = DriftDetector::default();
    }

    /// Scores one epoch against `threshold`, the EWMA level above
    /// which an epoch counts as drifting (strict `>`: a series sitting
    /// exactly at the threshold never fires). Returns the verdict;
    /// `triggered` stays false until 2 consecutive drifting epochs
    /// accumulate.
    pub fn observe(
        &mut self,
        threshold: f64,
        predicted: &EpochSignal,
        observed: &EpochSignal,
    ) -> DriftVerdict {
        let score = epoch_score(predicted, observed);
        self.observed += 1;
        let ewma = match self.ewma {
            None => score,
            Some(prev) => ALPHA * score + (1.0 - ALPHA) * prev,
        };
        self.ewma = Some(ewma);
        let drifting = ewma > threshold;
        self.streak = if drifting { self.streak + 1 } else { 0 };
        DriftVerdict { score, ewma, drifting, triggered: self.streak >= SUSTAIN }
    }
}

/// Largest relative deviation among the usable components; 0 when no
/// component is usable.
fn epoch_score(predicted: &EpochSignal, observed: &EpochSignal) -> f64 {
    let mut score = 0.0f64;
    let rel = |pred: f64, obs: f64| -> Option<f64> {
        if pred.is_finite() && obs.is_finite() && pred > 0.0 && obs >= 0.0 {
            Some((obs - pred).abs() / pred)
        } else {
            None
        }
    };
    if let Some(d) = rel(predicted.time_s, observed.time_s) {
        score = score.max(d);
    }
    if predicted.hit_rate.is_finite() && observed.hit_rate.is_finite() {
        score = score.max((observed.hit_rate - predicted.hit_rate).abs());
    }
    if let Some(d) = rel(predicted.mem_bytes, observed.mem_bytes) {
        score = score.max(d);
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(time_s: f64, hit_rate: f64, mem_bytes: f64) -> EpochSignal {
        EpochSignal { time_s, hit_rate, mem_bytes }
    }

    #[test]
    fn zero_epochs_never_triggered() {
        let det = DriftDetector::default();
        assert_eq!(det.epochs_observed(), 0);
        // A detector that never observed anything has no verdict to
        // act on; the runner only consults verdicts from observe().
    }

    #[test]
    fn matching_series_stays_quiet() {
        let mut det = DriftDetector::default();
        let p = sig(1.0, 0.5, 1e9);
        for _ in 0..10 {
            let v = det.observe(0.5, &p, &p);
            assert_eq!(v.score, 0.0);
            assert!(!v.drifting && !v.triggered);
        }
    }

    #[test]
    fn constant_series_exactly_at_threshold_is_not_drift() {
        // threshold comparison is strict: a deviation pinned exactly
        // at the boundary must never fire.
        let mut det = DriftDetector::default();
        let pred = sig(1.0, 0.0, 1e9);
        let obs = sig(1.5, 0.0, 1e9); // relative deviation exactly 0.5
        for _ in 0..20 {
            let v = det.observe(0.5, &pred, &obs);
            assert_eq!(v.ewma, 0.5);
            assert!(!v.drifting, "boundary value fired");
            assert!(!v.triggered);
        }
    }

    #[test]
    fn just_above_threshold_fires_on_the_second_epoch() {
        let mut det = DriftDetector::default();
        let (pred, obs) = (sig(1.0, 0.0, 1e9), sig(1.5001, 0.0, 1e9));
        let v = det.observe(0.5, &pred, &obs);
        assert!(v.drifting && !v.triggered);
        let v = det.observe(0.5, &pred, &obs);
        assert!(v.drifting && v.triggered);
    }

    #[test]
    fn sustain_requires_consecutive_epochs() {
        let mut det = DriftDetector::default();
        let pred = sig(1.0, 0.0, 1e9);
        let bad = sig(2.5, 0.0, 1e9); // score 1.5
        assert!(!det.observe(1.0, &pred, &bad).triggered); // EWMA 1.5
                                                           // An in-band epoch breaks the streak: EWMA 0.9.
        assert!(!det.observe(1.0, &pred, &pred).drifting);
        let v = det.observe(1.0, &pred, &bad); // EWMA 1.14
        assert!(v.drifting && !v.triggered, "the streak must restart");
        assert!(det.observe(1.0, &pred, &bad).triggered); // EWMA 1.284
    }

    #[test]
    fn nan_components_are_skipped_not_propagated() {
        let mut det = DriftDetector::default();
        // NaN observed time, matching hit/mem: unusable component is
        // dropped, score is finite zero.
        let v = det.observe(0.5, &sig(1.0, 0.5, 1e9), &sig(f64::NAN, 0.5, 1e9));
        assert_eq!(v.score, 0.0);
        assert!(v.ewma.is_finite());
        assert!(!v.triggered);
        // All-NaN pair: still finite, still quiet.
        let nan = sig(f64::NAN, f64::NAN, f64::NAN);
        let v = det.observe(0.5, &nan, &nan);
        assert_eq!(v.score, 0.0);
        assert!(!v.triggered);
        // Zero/negative predictions are as unusable as NaN.
        let v = det.observe(0.5, &sig(0.0, f64::INFINITY, -5.0), &sig(3.0, 0.2, 1e9));
        assert_eq!(v.score, 0.0);
    }

    #[test]
    fn reset_clears_streak() {
        let mut det = DriftDetector::default();
        let pred = sig(1.0, 0.0, 1e9);
        let bad = sig(9.0, 0.0, 1e9);
        det.observe(0.5, &pred, &bad);
        det.reset();
        assert_eq!(det.epochs_observed(), 0);
        assert!(!det.observe(0.5, &pred, &bad).triggered, "streak must restart");
        assert!(det.observe(0.5, &pred, &bad).triggered);
    }

    #[test]
    fn ewma_smooths_single_spikes() {
        let mut det = DriftDetector::default();
        let pred = sig(1.0, 0.0, 1e9);
        det.observe(0.5, &pred, &pred);
        // One 3x spike against a calm history moves the band by ALPHA
        // of its score.
        let v = det.observe(0.5, &pred, &sig(3.0, 0.0, 1e9));
        assert_eq!(v.score, 2.0);
        assert_eq!(v.ewma, ALPHA * 2.0);
    }
}
