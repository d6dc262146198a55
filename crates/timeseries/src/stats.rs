//! Aggregate statistics of a series over a logical window length.
//!
//! Sparse and RLE series omit zero entries, but correlation normalization
//! (Eq. 1 of the paper) needs moments *over the whole window*, zeros
//! included. [`SeriesStats`] therefore carries the sum and sum of squares of
//! the stored entries plus the logical window length `n`, so means and
//! variances are computed as if the zeros were present.

/// First and second moments of a signal over a logical window of `n` ticks.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::SeriesStats;
/// // Signal [2, 0, 0, 2] over a 4-tick window, stored sparsely.
/// let stats = SeriesStats::from_entries([2.0, 2.0], 4);
/// assert_eq!(stats.mean(), 1.0);
/// assert_eq!(stats.variance(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SeriesStats {
    n: u64,
    sum: f64,
    sum_sq: f64,
}

impl SeriesStats {
    /// Accumulates stats from the non-zero entries of a signal whose logical
    /// window spans `window_len` ticks.
    pub fn from_entries<I: IntoIterator<Item = f64>>(entries: I, window_len: u64) -> Self {
        let mut s = SeriesStats {
            n: window_len,
            sum: 0.0,
            sum_sq: 0.0,
        };
        for v in entries {
            s.sum += v;
            s.sum_sq += v * v;
        }
        s
    }

    /// Creates stats directly from precomputed moments.
    pub fn from_moments(window_len: u64, sum: f64, sum_sq: f64) -> Self {
        SeriesStats {
            n: window_len,
            sum,
            sum_sq,
        }
    }

    /// The logical window length in ticks (zeros included).
    pub fn window_len(&self) -> u64 {
        self.n
    }

    /// Sum of all values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sum of squared values.
    pub fn sum_sq(&self) -> f64 {
        self.sum_sq
    }

    /// Mean over the logical window (zero for an empty window).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Population variance over the logical window.
    ///
    /// Clamped at zero to absorb floating-point cancellation.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum_sq / self.n as f64 - mean * mean).max(0.0)
    }

    /// Population standard deviation over the logical window.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// `Σ (x_i − x̄)²` over the logical window — the energy of the centered
    /// signal, the quantity appearing in Eq. 1's denominator.
    pub fn centered_energy(&self) -> f64 {
        self.variance() * self.n as f64
    }

    /// Merges two stats over disjoint stretches of the same signal.
    pub fn merge(&self, other: &SeriesStats) -> SeriesStats {
        SeriesStats {
            n: self.n + other.n,
            sum: self.sum + other.sum,
            sum_sq: self.sum_sq + other.sum_sq,
        }
    }
}

/// Streaming mean/std accumulator for scalar observations (used for delay
/// histories and report summaries; not window-based).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (zero if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (zero if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_match_dense_computation() {
        // signal: [3, 0, 1, 0, 0] -> n=5
        let stats = SeriesStats::from_entries([3.0, 1.0], 5);
        let dense = [3.0, 0.0, 1.0, 0.0, 0.0];
        let mean: f64 = dense.iter().sum::<f64>() / 5.0;
        let var: f64 = dense.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / 5.0;
        assert!((stats.mean() - mean).abs() < 1e-12);
        assert!((stats.variance() - var).abs() < 1e-12);
        assert!((stats.centered_energy() - var * 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_window_is_zero() {
        let stats = SeriesStats::from_entries([], 0);
        assert_eq!(stats.mean(), 0.0);
        assert_eq!(stats.variance(), 0.0);
        assert_eq!(stats.std_dev(), 0.0);
    }

    #[test]
    fn merge_is_concatenation() {
        let a = SeriesStats::from_entries([1.0, 2.0], 4);
        let b = SeriesStats::from_entries([3.0], 2);
        let merged = a.merge(&b);
        let direct = SeriesStats::from_entries([1.0, 2.0, 3.0], 6);
        assert_eq!(merged, direct);
    }

    #[test]
    fn variance_never_negative() {
        // Constant signal has zero variance; cancellation must not push it below.
        let stats = SeriesStats::from_entries(std::iter::repeat_n(0.1, 1000), 1000);
        assert!(stats.variance() >= 0.0);
        assert!(stats.variance() < 1e-12);
    }

    #[test]
    fn welford_matches_direct() {
        let xs = [4.0, 7.0, 13.0, 16.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 4);
        assert!((w.mean() - 10.0).abs() < 1e-12);
        let var = xs.iter().map(|x| (x - 10.0) * (x - 10.0)).sum::<f64>() / 4.0;
        assert!((w.variance() - var).abs() < 1e-9);
    }

    #[test]
    fn welford_single_observation() {
        let mut w = Welford::new();
        w.push(5.0);
        assert_eq!(w.mean(), 5.0);
        assert_eq!(w.variance(), 0.0);
    }
}
