//! Order statistics used for every reported figure.

/// The quantile of operation times a gated timing is read at. The hosts
/// this runs on are shared: for seconds to minutes at a time a neighbour
/// slows every operation by up to two thirds, so a run's median says how
/// busy the neighbour was. The fastest twentieth of a few hundred
/// operations spread over seconds repeats from run to run, because some of
/// them always fall into a quiet stretch; it is the speed of the program on
/// an undisturbed host, which is what a change to the program moves. The
/// plain medians are printed beside it as per-layer metrics.
pub const FAST: f64 = 0.05;
/// Set-up is repeated only a few times and part of it is waiting on poll
/// ticks, not computing, so it is read at its lower quartile instead.
pub const SETUP: f64 = 0.25;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count. NaN when
/// empty, which the result writer turns into a missing metric.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of unsorted values, `q` in `0..=1`; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A tail percentile is reported only when at least ten samples lie beyond
/// it; with fewer it is one or two outliers, not a percentile.
pub fn tail_supported(samples: usize, q: f64) -> bool {
    // 100 × (1 − 0.9) is a hair under 10 in floating point.
    (samples as f64) * (1.0 - q) >= 10.0 - 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.50), 50.0);
        assert_eq!(quantile(&v, 0.90), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v[..1], 0.99), 100.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail_supported(100, 0.90));
        assert!(!tail_supported(99, 0.90));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        // 200 samples support p90 (20 beyond) but not p99 (2 beyond).
        assert!(tail_supported(200, 0.90) && !tail_supported(200, 0.99));
    }

    #[test]
    fn fast_quantile_ignores_disturbed_operations() {
        // Forty operations; a neighbour slows all but six of them.
        let mut seconds = vec![1.6; 40];
        for quiet in [3, 9, 17, 18, 30, 39] {
            seconds[quiet] = 1.0;
        }
        assert_eq!(quantile(&seconds, FAST), 1.0);
        assert_eq!(median(&seconds), 1.6);
        // With few samples the fast quantile is the fastest one.
        assert_eq!(quantile(&[3.0, 2.0, 4.0], FAST), 2.0);
        assert_eq!(quantile(&[3.0, 2.0, 4.0], SETUP), 2.0);
        assert_eq!(quantile(&[9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], SETUP), 3.0);
    }
}
