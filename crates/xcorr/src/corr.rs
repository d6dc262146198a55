//! The result type shared by all correlation engines.

/// A lag-indexed correlation series: `values[d] = r(d) = Σ_t x(t) · y(t+d)`
/// for `d ∈ [0, max_lag)`.
///
/// All engines in this crate produce bit-comparable `CorrSeries` for the
/// same inputs (up to floating-point association order), which is how the
/// optimized engines are validated against the reference implementation.
///
/// # Example
///
/// ```
/// use e2eprof_xcorr::CorrSeries;
/// let c = CorrSeries::new(vec![0.0, 5.0, 1.0]);
/// assert_eq!(c.max_lag(), 3);
/// assert_eq!(c.value_at(1), 5.0);
/// assert_eq!(c.peak(), Some((1, 5.0)));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CorrSeries {
    values: Vec<f64>,
}

impl CorrSeries {
    /// Wraps a vector of per-lag values (index = lag in ticks).
    pub fn new(values: Vec<f64>) -> Self {
        CorrSeries { values }
    }

    /// An all-zero series over `max_lag` lags.
    pub fn zeros(max_lag: u64) -> Self {
        CorrSeries {
            values: vec![0.0; max_lag as usize],
        }
    }

    /// Number of lags covered (the `T_u/τ` bound).
    pub fn max_lag(&self) -> u64 {
        self.values.len() as u64
    }

    /// The per-lag values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access for in-place accumulation (incremental engine).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The value at lag `d` (zero beyond the bound).
    pub fn value_at(&self, d: u64) -> f64 {
        self.values.get(d as usize).copied().unwrap_or(0.0)
    }

    /// The lag with the largest value, if the series is non-empty.
    pub fn peak(&self) -> Option<(u64, f64)> {
        self.values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("non-finite correlation value"))
            .map(|(i, &v)| (i as u64, v))
    }

    /// Maximum absolute element-wise difference to another series of the
    /// same lag bound (used to validate engines against each other).
    ///
    /// # Panics
    ///
    /// Panics if the lag bounds differ.
    pub fn max_abs_diff(&self, other: &CorrSeries) -> f64 {
        assert_eq!(self.values.len(), other.values.len(), "lag bound mismatch");
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_finds_max() {
        let c = CorrSeries::new(vec![1.0, 3.0, 2.0]);
        assert_eq!(c.peak(), Some((1, 3.0)));
    }

    #[test]
    fn peak_of_empty_is_none() {
        assert_eq!(CorrSeries::zeros(0).peak(), None);
    }

    #[test]
    fn value_beyond_bound_is_zero() {
        let c = CorrSeries::new(vec![1.0]);
        assert_eq!(c.value_at(5), 0.0);
    }

    #[test]
    fn max_abs_diff_is_linf() {
        let a = CorrSeries::new(vec![1.0, 2.0, 3.0]);
        let b = CorrSeries::new(vec![1.5, 2.0, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }
}
