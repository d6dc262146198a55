//! Direct bounded-lag correlation on uncompressed signals.
//!
//! This is the paper's "no compression" variant: Eq. 1's numerator computed
//! directly, with the single optimization of bounding the lag range by the
//! maximum transaction delay `T_u` — `O((W/τ) · (T_u/τ))` instead of
//! `O((W/τ)²)`. It doubles as the reference implementation the optimized
//! engines are tested against.
//!
//! Each lag is one dot product of the overlapping window portions, computed
//! by the [`simd`] kernel (AVX2/SSE2 on x86_64, 4-lane
//! unrolled scalar elsewhere) — on dense windows this engine is
//! memory-bandwidth-bound rather than ALU-bound.

use crate::corr::CorrSeries;
use crate::simd;
use e2eprof_timeseries::DenseSeries;

/// Computes `r(d) = Σ_t x(t) · y(t + d)` for `d ∈ [0, max_lag)`.
///
/// `t` ranges over `x`'s span; `y` is treated as zero outside its span, so
/// the two series may cover different tick ranges (e.g. the target signal
/// extends `T_u` ticks past the source window).
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::{DenseSeries, Tick};
/// use e2eprof_xcorr::dense;
/// let x = DenseSeries::new(Tick::new(0), vec![1.0, 0.0, 2.0]);
/// let y = DenseSeries::new(Tick::new(0), vec![0.0, 1.0, 0.0, 2.0]);
/// let r = dense::correlate(&x, &y, 2);
/// // lag 1: x(0)·y(1) + x(2)·y(3) = 1 + 4
/// assert_eq!(r.values(), &[0.0, 5.0]);
/// ```
pub fn correlate(x: &DenseSeries, y: &DenseSeries, max_lag: u64) -> CorrSeries {
    let (xv, yv) = (x.values(), y.values());
    let off = x.start().index() as i64 - y.start().index() as i64;
    let mut out = CorrSeries::zeros(max_lag);
    for (d, slot) in out.values_mut().iter_mut().enumerate() {
        // y index j = i + d + off must lie in [0, yv.len()).
        let shift = d as i64 + off;
        let i_lo = (-shift).max(0) as usize;
        let i_hi = (yv.len() as i64 - shift).clamp(0, xv.len() as i64) as usize;
        if i_lo >= i_hi {
            continue; // no overlap at this lag: the slot stays zero
        }
        let j_lo = (i_lo as i64 + shift) as usize;
        let j_hi = (i_hi as i64 + shift) as usize;
        *slot = simd::dot(&xv[i_lo..i_hi], &yv[j_lo..j_hi]);
    }
    out
}

/// Full-range correlation: every lag from 0 to `x.len() + y.len()`.
///
/// This is what the un-optimized Eq. 1 (or the FFT route) computes; used as
/// a baseline in complexity comparisons.
pub fn correlate_full(x: &DenseSeries, y: &DenseSeries) -> CorrSeries {
    correlate(x, y, x.len() + y.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2eprof_timeseries::Tick;

    #[test]
    fn identical_signals_peak_at_zero_lag() {
        let x = DenseSeries::new(Tick::new(0), vec![1.0, 2.0, 3.0]);
        let r = correlate(&x, &x, 3);
        assert_eq!(r.values()[0], 14.0);
        assert!(r.values()[1] < r.values()[0]);
        assert_eq!(r.peak().unwrap().0, 0);
    }

    #[test]
    fn shifted_copy_peaks_at_shift() {
        let x = DenseSeries::new(Tick::new(0), vec![0.0, 5.0, 1.0, 0.0, 0.0, 0.0]);
        let y = DenseSeries::new(Tick::new(0), vec![0.0, 0.0, 0.0, 5.0, 1.0, 0.0]);
        let r = correlate(&x, &y, 5);
        assert_eq!(r.peak().unwrap().0, 2);
    }

    #[test]
    fn misaligned_spans_are_handled() {
        // Same underlying signal, but y's storage starts later.
        let x = DenseSeries::new(Tick::new(10), vec![1.0, 0.0, 2.0]);
        let y = DenseSeries::new(Tick::new(11), vec![1.0, 0.0, 2.0]);
        // y(t) equals x(t-1): lag 1 aligns them.
        let r = correlate(&x, &y, 3);
        assert_eq!(r.value_at(1), 5.0);
    }

    #[test]
    fn disjoint_signals_correlate_to_zero() {
        let x = DenseSeries::new(Tick::new(0), vec![1.0, 1.0]);
        let y = DenseSeries::new(Tick::new(100), vec![1.0, 1.0]);
        let r = correlate(&x, &y, 10);
        assert!(r.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn full_range_covers_all_overlaps() {
        let x = DenseSeries::new(Tick::new(0), vec![1.0]);
        let y = DenseSeries::new(Tick::new(0), vec![0.0, 0.0, 7.0]);
        let r = correlate_full(&x, &y);
        assert_eq!(r.value_at(2), 7.0);
        assert_eq!(r.max_lag(), 4);
    }

    #[test]
    fn zero_lag_bound_yields_empty() {
        let x = DenseSeries::new(Tick::new(0), vec![1.0]);
        let r = correlate(&x, &x, 0);
        assert_eq!(r.max_lag(), 0);
    }
}
