//! Order statistics for timings.
//!
//! A timing is reported as its median plus tail percentiles, and a tail
//! percentile only when the sample supports it: at least [`MIN_BEYOND`]
//! samples must lie beyond it (so a p99 needs 1 000 samples). Every
//! reported value carries the sample count it came from.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample of measurements.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The median (mean of the two middle values for even `n`); `None`
    /// for an empty sample.
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(self.sorted[n / 2]),
            _ => Some((self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0),
        }
    }

    /// The nearest-rank `q`-quantile, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn tail(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        // The epsilon keeps `0.9 * 100 = 90.000…01` at rank 90.
        let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
        (n >= rank + MIN_BEYOND).then(|| self.sorted[rank - 1])
    }

    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// First and third quartiles by the "exclusive" method of Python's
    /// `statistics.quantiles(values, n=4)`, so calibration spreads match
    /// the ones an outside checker computes. Needs two or more samples.
    pub fn quartiles(&self) -> Option<(f64, f64)> {
        let n = self.sorted.len();
        if n < 2 {
            return None;
        }
        let m = n + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (self.sorted[j - 1] * (4.0 - delta) + self.sorted[j] * delta) / 4.0
        };
        Some((cut(1), cut(3)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Sample {
        Sample::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(ramp(999).tail(0.99), None);
        // 1 000 samples: rank 990, with exactly ten beyond.
        assert_eq!(ramp(1000).tail(0.99), Some(990.0));
        assert_eq!(ramp(5000).tail(0.99), Some(4950.0));
    }

    #[test]
    fn p90_and_p50_follow_the_same_rule() {
        assert_eq!(ramp(99).tail(0.9), None);
        assert_eq!(ramp(100).tail(0.9), Some(90.0));
        assert_eq!(ramp(19).tail(0.5), None);
        assert_eq!(ramp(20).tail(0.5), Some(10.0));
    }

    #[test]
    fn median_is_defined_for_any_nonempty_sample_and_n_is_reported() {
        assert_eq!(Sample::default().median(), None);
        assert_eq!(Sample::default().tail(0.5), None);
        assert_eq!(ramp(1).median(), Some(1.0));
        assert_eq!(ramp(4).median(), Some(2.5));
        assert_eq!(ramp(5).median(), Some(3.0));
        assert_eq!(ramp(5).n(), 5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(ramp(10).quartiles(), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(ramp(5).quartiles(), Some((1.5, 4.5)));
        assert_eq!(ramp(1).quartiles(), None);
    }
}
