//! Percentiles with their sample counts, and the geometric mean.

use std::fmt;

/// The fewest samples that must lie beyond a reported p90 for it to count
/// as measured rather than as an extreme of a small sample.
pub const MIN_BEYOND_P90: usize = 10;

/// Median and p90 of one sample, with the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle values for an even count); 0 when
    /// empty.
    pub p50: f64,
    /// Nearest-rank 90th percentile: the smallest sample with at least 90 %
    /// of the samples at or below it; 0 when empty.
    pub p90: f64,
    /// Samples strictly after the p90 rank.
    pub beyond_p90: usize,
}

impl Summary {
    /// Summarises `samples` (any order; NaNs are not expected).
    pub fn of(samples: &[f64]) -> Self {
        let n = samples.len();
        if n == 0 {
            return Summary { n, p50: 0.0, p90: 0.0, beyond_p90: 0 };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 =
            if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
        let rank = (9 * n).div_ceil(10); // 1-based nearest rank
        Summary { n, p50, p90: sorted[rank - 1], beyond_p90: n - rank }
    }

    /// `true` when fewer than [`MIN_BEYOND_P90`] samples lie beyond the p90,
    /// so the p90 is no more than one of the largest few samples.
    pub fn p90_flagged(&self) -> bool {
        self.beyond_p90 < MIN_BEYOND_P90
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p50 {:.3} p90 {:.3} (n={}, {} beyond p90",
            self.p50, self.p90, self.n, self.beyond_p90
        )?;
        if self.p90_flagged() {
            write!(f, ", FLAG: p90 has fewer than {MIN_BEYOND_P90} samples beyond it")?;
        }
        write!(f, ")")
    }
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_p90_use_the_stated_ranks() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.n, s.p50, s.p90, s.beyond_p90), (3, 3.0, 5.0, 0));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.p50, 2.5);
        assert_eq!(s.p90, 4.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.p90, s.beyond_p90), (9.0, 1));
        assert_eq!(Summary::of(&[]), Summary { n: 0, p50: 0.0, p90: 0.0, beyond_p90: 0 });
    }

    #[test]
    fn p90_is_flagged_below_ten_samples_beyond_it() {
        let samples = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        let s = Summary::of(&samples(99));
        assert_eq!((s.p90, s.beyond_p90), (90.0, 9));
        assert!(s.p90_flagged());
        assert!(s.to_string().contains("FLAG"));
        let s = Summary::of(&samples(100));
        assert_eq!((s.p90, s.beyond_p90), (90.0, 10));
        assert!(!s.p90_flagged());
        assert!(!s.to_string().contains("FLAG"));
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[8.0]) - 8.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
