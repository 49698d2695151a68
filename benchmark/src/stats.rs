//! Order statistics used for every reported timing.

/// Sorted copy of `values` (NaNs are a bug in the caller).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// `(q1, median, q3)` of a non-empty sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (quantile_sorted(&s, 0.25), quantile_sorted(&s, 0.5), quantile_sorted(&s, 0.75))
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [u32; 6] = [99, 98, 95, 90, 75, 50];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it in a sample of `n`; the median when even p75 has
/// fewer (so a tail is never a single outlier).
pub fn tail_percentile(n: usize) -> u32 {
    TAIL_LADDER.into_iter().find(|&p| n as f64 * (100 - p) as f64 / 100.0 >= 10.0).unwrap_or(50)
}

/// Value at percentile `p` (nearest-rank from above, so exactly
/// `floor(n·(100−p)/100)` samples lie strictly beyond it).
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let s = sorted(values);
    let beyond = s.len() * (100 - p.min(100)) as usize / 100;
    s[s.len() - 1 - beyond.min(s.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        let (q1, m, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, m, q3), (2.0, 3.0, 4.0));
        let (q1, _, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((q1, q3), (1.75, 3.25));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1), 50);
        assert_eq!(tail_percentile(19), 50);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(499), 95);
        assert_eq!(tail_percentile(500), 98);
        assert_eq!(tail_percentile(800), 98);
        assert_eq!(tail_percentile(999), 98);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(1600), 99);
    }

    #[test]
    fn percentile_leaves_the_stated_count_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99), 990.0); // 991..=1000 lie beyond
        assert_eq!(percentile(&v, 50), 500.0);
        assert_eq!(percentile(&v, 100), 1000.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }
}
