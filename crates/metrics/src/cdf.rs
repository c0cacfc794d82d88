//! Empirical cumulative distribution functions (Figure 13).

use std::fmt;

/// An empirical CDF over `f64` samples.
///
/// # Examples
///
/// ```
/// use msn_metrics::Cdf;
///
/// let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(cdf.fraction_below(2.5), 0.5);
/// assert_eq!(cdf.quantile(0.5), 2.0);
/// assert_eq!(cdf.median(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples, or `None` if `samples` is empty.
    ///
    /// # Panics
    ///
    /// Panics if any sample is not finite.
    pub fn from_samples(mut samples: Vec<f64>) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "samples must be finite"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Some(Cdf { sorted: samples })
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false` (construction rejects empty sample sets).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x` — the CDF value F(x).
    pub fn fraction_below(&self, x: f64) -> f64 {
        let k = self.sorted.partition_point(|&v| v <= x);
        k as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), lower-interpolation convention:
    /// the smallest sample `v` with `F(v) >= q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if q <= 0.0 {
            return self.sorted[0];
        }
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[idx - 1]
    }

    /// Median (0.5 quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }
}

impl fmt::Display for Cdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cdf(n={}, median={:.3}, mean={:.3}, range [{:.3}, {:.3}])",
            self.len(),
            self.median(),
            self.mean(),
            self.min(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_none() {
        assert!(Cdf::from_samples(vec![]).is_none());
    }

    #[test]
    fn fraction_below_is_monotone_step() {
        let cdf = Cdf::from_samples(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!(cdf.fraction_below(0.5), 0.0);
        assert!((cdf.fraction_below(1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((cdf.fraction_below(2.5) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cdf.fraction_below(10.0), 1.0);
    }

    #[test]
    fn quantiles() {
        let cdf = Cdf::from_samples((1..=10).map(|i| i as f64).collect()).unwrap();
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(0.1), 1.0);
        assert_eq!(cdf.quantile(0.5), 5.0);
        assert_eq!(cdf.quantile(1.0), 10.0);
        assert_eq!(cdf.median(), 5.0);
        assert_eq!(cdf.min(), 1.0);
        assert_eq!(cdf.max(), 10.0);
        assert_eq!(cdf.mean(), 5.5);
    }

    #[test]
    fn identical_samples() {
        let cdf = Cdf::from_samples(vec![7.0; 5]).unwrap();
        assert_eq!(cdf.median(), 7.0);
        assert_eq!(cdf.fraction_below(6.9), 0.0);
        assert_eq!(cdf.fraction_below(7.0), 1.0);
    }
}
