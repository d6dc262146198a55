//! Bounded-lag correlation directly on run-length-encoded signals.
//!
//! The paper's key observation (Section 3.5): "the correlation of
//! overlapping sequences in the series can be computed in a single step."
//! The contribution of a pair of runs `(s_x, l_x, v_x)` and `(s_y, l_y,
//! v_y)` to `r(d)` is `v_x · v_y · overlap(d)`, where `overlap(d)` is the
//! cross-correlation of two boxcars — a trapezoid in `d`. A trapezoid's
//! *second difference* is just four impulses, so each run pair costs O(1):
//! four updates to a second-difference accumulator, resolved by a double
//! prefix sum at the end. Total cost `O(runs_x · runs_y(within lag bound) +
//! T_u/τ)` — the `k·r` speedup factor of the paper's complexity analysis.

use crate::corr::CorrSeries;
use e2eprof_timeseries::RleSeries;

/// Computes `r(d) = Σ_t x(t) · y(t + d)` for `d ∈ [0, max_lag)` from RLE
/// signals, processing each overlapping run pair in constant time.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::{DenseSeries, Tick};
/// use e2eprof_xcorr::rle;
/// let x = DenseSeries::new(Tick::new(0), vec![1.0, 1.0, 1.0]).to_sparse().to_rle();
/// let y = DenseSeries::new(Tick::new(0), vec![0.0, 2.0, 2.0, 2.0]).to_sparse().to_rle();
/// let r = rle::correlate(&x, &y, 3);
/// // Trapezoid: overlap of the 3-run and the shifted 3-run, scaled by 2.
/// assert_eq!(r.values(), &[4.0, 6.0, 4.0]);
/// ```
pub fn correlate(x: &RleSeries, y: &RleSeries, max_lag: u64) -> CorrSeries {
    let mut diff2 = Vec::new();
    match accumulate(x, y, max_lag, &mut diff2) {
        Some(fold) => CorrSeries::new(resolve(&diff2, fold).collect()),
        None => CorrSeries::zeros(max_lag),
    }
}

/// The impulses of a second-difference image that fell at negative lags,
/// folded into a linear + constant term: an impulse `e` at `p < 0`
/// contributes `e·(d − p + 1) = e·(d+1) + e·(−p)` to every lag `d ≥ 0`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Fold {
    lin: f64,
    cst: f64,
}

/// Accumulates the second-difference image of `r(d) = Σ_t x(t)·y(t+d)`,
/// `d ∈ [0, max_lag)`, into `diff2` (resized to `max_lag` and zeroed
/// first) and returns the folded negative-lag term; [`resolve`] turns
/// the two back into the lagged products.
///
/// Returns `None` — leaving `diff2` untouched — when either signal has no
/// run at all: every product is then `+0.0`, and the caller can skip the
/// resolve sweep over the lag axis as well.
pub(crate) fn accumulate(
    x: &RleSeries,
    y: &RleSeries,
    max_lag: u64,
    diff2: &mut Vec<f64>,
) -> Option<Fold> {
    let yr = y.runs();
    if x.runs().is_empty() || yr.is_empty() {
        return None;
    }
    diff2.clear();
    diff2.resize(max_lag as usize, 0.0);
    let diff2 = diff2.as_mut_slice();
    let l = max_lag as i64;
    let mut fold = Fold::default();

    let mut lo = 0usize;
    for rx in x.runs() {
        let sx = rx.start().index() as i64;
        let lx = rx.len() as i64;
        let vx = rx.value();
        // Skip y runs that end at or before this x run's start: they can
        // only produce negative lags. Run ends are increasing, and sx is
        // increasing across x runs, so this pointer is monotone.
        while lo < yr.len() && (yr[lo].end().index() as i64) <= sx {
            lo += 1;
        }
        for ry in &yr[lo..] {
            let sy = ry.start().index() as i64;
            if sy >= sx + lx + l - 1 {
                // Minimum lag of this pair is already ≥ L.
                break;
            }
            let ly = ry.len() as i64;
            let w = vx * ry.value();
            // Boxcar cross-correlation trapezoid: second difference is
            // +w at p1, −w at p1+lx, −w at p1+ly, +w at p1+lx+ly,
            // where p1 = (sy − sx) − (lx − 1) is the smallest lag with
            // non-zero overlap.
            let p1 = sy - sx - (lx - 1);
            if p1 >= 0 && p1 + lx + ly < l {
                // Interior pair — nearly all of them once L spans many
                // runs: the four impulses land inside the buffer, in the
                // same order the boundary path applies them (so two
                // impulses sharing a slot, lx == ly, add up identically).
                let p = p1 as usize;
                let (lx, ly) = (lx as usize, ly as usize);
                diff2[p] += w;
                diff2[p + lx] -= w;
                diff2[p + ly] -= w;
                diff2[p + lx + ly] += w;
                continue;
            }
            for (p, e) in [(p1, w), (p1 + lx, -w), (p1 + ly, -w), (p1 + lx + ly, w)] {
                if p >= l {
                    continue;
                }
                if p < 0 {
                    fold.lin += e;
                    fold.cst += e * (-p) as f64;
                } else {
                    diff2[p as usize] += e;
                }
            }
        }
    }
    Some(fold)
}

/// Resolves a second-difference image into its lagged products, lag by
/// lag: a double prefix sum plus the folded linear/constant terms.
pub(crate) fn resolve(diff2: &[f64], fold: Fold) -> impl Iterator<Item = f64> + '_ {
    let mut slope = 0.0f64;
    let mut value = 0.0f64;
    // d + 1, counted in floating point (exact far beyond any lag bound).
    let mut d1 = 0.0f64;
    diff2.iter().map(move |&e| {
        slope += e;
        value += slope;
        d1 += 1.0;
        value + fold.lin * d1 + fold.cst
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use e2eprof_timeseries::{DenseSeries, Tick};

    fn ds(start: u64, v: Vec<f64>) -> DenseSeries {
        DenseSeries::new(Tick::new(start), v)
    }

    fn check_against_dense(x: &DenseSeries, y: &DenseSeries, max_lag: u64) {
        let expect = dense::correlate(x, y, max_lag);
        let got = correlate(&x.to_sparse().to_rle(), &y.to_sparse().to_rle(), max_lag);
        assert!(
            expect.max_abs_diff(&got) < 1e-9,
            "expect {:?} got {:?}",
            expect.values(),
            got.values()
        );
    }

    #[test]
    fn single_run_pair_trapezoid() {
        check_against_dense(
            &ds(0, vec![1.0, 1.0, 1.0, 0.0]),
            &ds(0, vec![0.0, 2.0, 2.0, 2.0, 2.0, 0.0]),
            6,
        );
    }

    #[test]
    fn y_activity_before_x_gives_negative_lags_only() {
        check_against_dense(&ds(10, vec![1.0, 1.0]), &ds(0, vec![3.0, 3.0, 3.0]), 5);
    }

    #[test]
    fn runs_straddling_lag_bound() {
        // Pair whose trapezoid extends beyond L: must be truncated exactly.
        check_against_dense(
            &ds(0, vec![1.0, 1.0, 1.0, 1.0, 1.0]),
            &ds(3, vec![2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]),
            4,
        );
    }

    #[test]
    fn trapezoid_partially_negative() {
        // x run later than y run: part of the trapezoid sits at d < 0.
        check_against_dense(
            &ds(5, vec![1.0, 1.0, 1.0]),
            &ds(3, vec![2.0, 2.0, 2.0, 2.0, 2.0]),
            6,
        );
    }

    #[test]
    fn mixed_values_and_gaps() {
        check_against_dense(
            &ds(0, vec![1.0, 1.0, 0.0, 3.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0]),
            &ds(2, vec![0.0, 5.0, 5.0, 0.0, 1.0, 0.0, 2.0, 2.0]),
            12,
        );
    }

    #[test]
    fn empty_inputs() {
        let e = RleSeries::empty(Tick::new(0), 50);
        let r = correlate(&e, &e, 8);
        assert!(r.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_lag_bound() {
        let x = ds(0, vec![1.0]).to_sparse().to_rle();
        assert_eq!(correlate(&x, &x, 0).max_lag(), 0);
    }
}
