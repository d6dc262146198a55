//! Bounded-lag correlation on zero-suppressed signals ("burst compression").
//!
//! Enterprise traffic is bursty: long quiet zones contribute nothing to
//! `r(d) = Σ x(t) y(t+d)`, so the sum only needs the non-zero entries. For a
//! compression factor `k` (fraction of ticks that are quiet), the cost drops
//! from `O((W/τ)(T_u/τ))` to `O(((W/τ)/k)(T_u/τ))` — the paper's third
//! optimization.

use crate::corr::CorrSeries;
use e2eprof_timeseries::SparseSeries;

/// Computes `r(d) = Σ_t x(t) · y(t + d)` for `d ∈ [0, max_lag)` from sparse
/// signals, skipping quiet zones entirely.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::{DenseSeries, Tick};
/// use e2eprof_xcorr::sparse;
/// let x = DenseSeries::new(Tick::new(0), vec![1.0, 0.0, 2.0]).to_sparse();
/// let y = DenseSeries::new(Tick::new(0), vec![0.0, 1.0, 0.0, 2.0]).to_sparse();
/// let r = sparse::correlate(&x, &y, 2);
/// assert_eq!(r.values(), &[0.0, 5.0]);
/// ```
pub fn correlate(x: &SparseSeries, y: &SparseSeries, max_lag: u64) -> CorrSeries {
    let ye = y.entries();
    let mut out = CorrSeries::zeros(max_lag);
    let o = out.values_mut();
    let mut lo = 0usize;
    for xe in x.entries() {
        let t = xe.tick().index();
        // First y entry with tick >= t (lag 0). Monotone in t, so `lo` only
        // moves forward across x entries.
        while lo < ye.len() && ye[lo].tick().index() < t {
            lo += 1;
        }
        let mut j = lo;
        while j < ye.len() {
            let d = ye[j].tick().index() - t;
            if d >= max_lag {
                break;
            }
            o[d as usize] += xe.value() * ye[j].value();
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use e2eprof_timeseries::{DenseSeries, Tick};

    fn ds(start: u64, v: Vec<f64>) -> DenseSeries {
        DenseSeries::new(Tick::new(start), v)
    }

    #[test]
    fn matches_dense_engine_on_small_signal() {
        let x = ds(0, vec![0.0, 3.0, 0.0, 0.0, 1.0, 1.0, 0.0, 2.0]);
        let y = ds(0, vec![1.0, 0.0, 0.0, 3.0, 0.0, 0.0, 1.0, 1.0, 0.0, 2.0]);
        let d = dense::correlate(&x, &y, 6);
        let s = correlate(&x.to_sparse(), &y.to_sparse(), 6);
        assert!(d.max_abs_diff(&s) < 1e-12);
    }

    #[test]
    fn matches_dense_engine_with_offset_spans() {
        let x = ds(100, vec![1.0, 0.0, 2.0, 0.0, 1.0]);
        let y = ds(97, vec![5.0, 0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 1.0, 4.0]);
        let d = dense::correlate(&x, &y, 8);
        let s = correlate(&x.to_sparse(), &y.to_sparse(), 8);
        assert!(d.max_abs_diff(&s) < 1e-12);
    }

    #[test]
    fn y_entries_before_x_are_skipped() {
        // y has activity before x's first entry: only non-negative lags count.
        let x = ds(10, vec![1.0]);
        let y = ds(
            0,
            vec![9.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0],
        );
        let r = correlate(&x.to_sparse(), &y.to_sparse(), 3);
        assert_eq!(r.values(), &[4.0, 0.0, 0.0]);
    }

    #[test]
    fn empty_signals_yield_zero() {
        let x = SparseSeries::empty(Tick::new(0), 100);
        let y = SparseSeries::empty(Tick::new(0), 100);
        let r = correlate(&x, &y, 10);
        assert!(r.values().iter().all(|&v| v == 0.0));
    }
}
