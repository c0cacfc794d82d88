//! Streaming summary statistics.

use std::fmt;

/// Streaming min / max / mean / standard deviation over `f64`
/// samples (Welford's online algorithm).
///
/// # Examples
///
/// ```
/// use msn_metrics::Summary;
///
/// let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.std(), 2.138089935299395);
/// assert_eq!(s.min(), 2.0);
/// assert_eq!(s.max(), 9.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "samples must be finite");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Returns `true` before any sample was added.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Arithmetic mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n−1 denominator; 0 for < 2 samples).
    pub fn std(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Standard error of the mean (0 for < 2 samples).
    pub fn std_err(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.std() / (self.n as f64).sqrt()
        }
    }

    /// Half-width of the normal-approximation 95 % confidence interval
    /// of the mean (`1.96 · std_err`; 0 for < 2 samples).
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_err()
    }

    /// Smallest sample (+∞ for an empty summary).
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (−∞ for an empty summary).
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.add(x);
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} std={:.3} min={:.3} max={:.3}",
            self.n,
            self.mean(),
            self.std(),
            self.min,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std(), 0.0);
        assert_eq!(Summary::default(), s);
        let mut d = Summary::default();
        d.add(5.0);
        assert_eq!((d.min(), d.max()), (5.0, 5.0));
    }

    #[test]
    fn single_sample() {
        let mut s = Summary::new();
        s.add(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.std(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn matches_two_pass_computation() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let s: Summary = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.std() - var.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn ci95_shrinks_with_samples() {
        let small: Summary = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        let big: Summary = (0..100).map(|i| 1.0 + (i % 4) as f64).collect();
        assert!(small.ci95_half_width() > 0.0);
        assert!(big.ci95_half_width() < small.ci95_half_width());
        assert_eq!(Summary::new().ci95_half_width(), 0.0);
        let one: Summary = [5.0].into_iter().collect();
        assert_eq!(one.std_err(), 0.0);
    }

    #[test]
    fn extend_accumulates() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0]);
        s.extend([3.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        Summary::new().add(f64::NAN);
    }
}
