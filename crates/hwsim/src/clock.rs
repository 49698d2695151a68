//! Simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// A span of simulated time, stored in seconds.
///
/// Newtype so simulated durations cannot be confused with wall-clock
/// measurements or raw floats.
///
/// # Example
///
/// ```
/// use gnnav_hwsim::SimTime;
///
/// let t = SimTime::from_micros(1500.0) + SimTime::from_secs(0.001);
/// assert!((t.as_secs() - 0.0025).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Zero duration.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "duration must be finite and >= 0");
        SimTime(secs)
    }

    /// Creates a duration from microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `micros` is negative or not finite.
    pub fn from_micros(micros: f64) -> Self {
        Self::from_secs(micros * 1e-6)
    }

    /// Creates a duration from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is negative or not finite.
    pub fn from_millis(millis: f64) -> Self {
        Self::from_secs(millis * 1e-3)
    }

    /// The duration in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The duration in microseconds (the unit Chrome trace-event
    /// timestamps use, see `gnnav_obs::journal`).
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// The larger of two durations (models parallel composition, as in
    /// the `max` of the paper's Eq. 4).
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.1}us", self.0 * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert!((SimTime::from_millis(2.0).as_secs() - 0.002).abs() < 1e-15);
        assert!((SimTime::from_micros(5.0).as_secs() - 5e-6).abs() < 1e-15);
        assert!((SimTime::from_millis(2.0).as_micros() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let mut t = SimTime::from_secs(1.0) + SimTime::from_secs(0.5);
        t += SimTime::from_secs(0.5);
        assert_eq!(t.as_secs(), 2.0);
        assert_eq!((t * 2.0).as_secs(), 4.0);
        assert_eq!(t.max(SimTime::from_secs(5.0)).as_secs(), 5.0);
    }

    #[test]
    fn sum_over_iterator() {
        let total: SimTime = (0..4).map(|_| SimTime::from_millis(1.0)).sum();
        assert!((total.as_secs() - 0.004).abs() < 1e-15);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimTime::from_secs(1.5).to_string(), "1.500s");
        assert_eq!(SimTime::from_millis(2.0).to_string(), "2.000ms");
        assert_eq!(SimTime::from_micros(3.0).to_string(), "3.0us");
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn negative_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }
}
