//! Eq. 1 normalization: per-lag Pearson correlation coefficients.
//!
//! The raw lagged products `r(d)` depend on signal energy; Eq. 1 of the
//! paper normalizes them into correlation coefficients in `[-1, 1]` by
//! centering both windows and dividing by their energies. With the window
//! sums `S(d) = Σ y(t+d)` and `Q(d) = Σ y(t+d)²` (over the `n` ticks of the
//! source window), the normalized value is
//!
//! ```text
//!             r(d) − x̄·S(d)
//! ρ(d) = ─────────────────────────────
//!         √(Eₓ) · √(Q(d) − S(d)²/n)
//! ```
//!
//! where `Eₓ = Σ (x − x̄)²`. `S` and `Q` are computed in `O(runs + L)` from
//! the RLE representation, so normalization never dominates the engines:
//! both window edges move forward with `d`, so `WindowMoments` walks the
//! runs once with two forward-only cursors — no per-lag search, no
//! prefix-sum table.

use crate::corr::CorrSeries;
use e2eprof_timeseries::{RleSeries, Run, Tick};

/// Energy threshold below which a window is considered constant (its
/// correlation with anything is defined as zero).
pub(crate) const EPS_ENERGY: f64 = 1e-12;

/// Forward-only evaluator of an RLE signal's prefix moments: the sum and
/// sum of squares of `y` over all ticks `< t`, for non-decreasing `t`.
#[derive(Debug)]
struct PrefixCursor<'a> {
    /// Runs after the current one.
    rest: std::slice::Iter<'a, Run>,
    /// The first run ending after the last queried tick, unpacked; past
    /// the last run both ticks are `u64::MAX`, which no query reaches.
    start: u64,
    end: u64,
    value: f64,
    value_sq: f64,
    /// `(Σ value·len, Σ value²·len)` over the runs before the current
    /// one, accumulated run by run from the first.
    s: f64,
    q: f64,
}

impl<'a> PrefixCursor<'a> {
    fn new(series: &'a RleSeries) -> Self {
        let mut cursor = PrefixCursor {
            rest: series.runs().iter(),
            start: 0,
            end: 0,
            value: 0.0,
            value_sq: 0.0,
            s: 0.0,
            q: 0.0,
        };
        cursor.load_next();
        cursor
    }

    fn load_next(&mut self) {
        match self.rest.next() {
            Some(r) => {
                self.start = r.start().index();
                self.end = r.end().index();
                self.value = r.value();
                self.value_sq = r.value() * r.value();
            }
            None => (self.start, self.end) = (u64::MAX, u64::MAX),
        }
    }

    /// `(Σ_{u<t} y(u), Σ_{u<t} y(u)²)`; `t` must not decrease between
    /// calls.
    fn eval(&mut self, t: Tick) -> (f64, f64) {
        let t = t.index();
        while self.end <= t {
            let len = (self.end - self.start) as f64;
            self.s += self.value * len;
            self.q += self.value_sq * len;
            self.load_next();
        }
        let (mut s, mut q) = (self.s, self.q);
        if self.start < t {
            let part = (t - self.start) as f64;
            s += self.value * part;
            q += self.value_sq * part;
        }
        (s, q)
    }
}

/// The per-lag window moments of Eq. 1, `S(d) = Σ y(t+d)` and
/// `Q(d) = Σ y(t+d)²` over the source window's ticks `t`, for a
/// non-decreasing sequence of lags.
///
/// Each moment is the difference of two prefix moments of `y`, at
/// `x.start + d` and `x.end + d`. Both ticks only move forward as `d`
/// grows, so a whole sweep of the lag axis costs `O(runs(y) + lags)` —
/// and a caller that stops early never touches the runs it did not reach.
#[derive(Debug)]
pub(crate) struct WindowMoments<'a> {
    lo: PrefixCursor<'a>,
    hi: PrefixCursor<'a>,
    start: Tick,
    end: Tick,
}

impl<'a> WindowMoments<'a> {
    /// Moments of `y` over the span of the source window `x`, shifted.
    pub(crate) fn new(x: &RleSeries, y: &'a RleSeries) -> Self {
        WindowMoments {
            lo: PrefixCursor::new(y),
            hi: PrefixCursor::new(y),
            start: x.start(),
            end: x.end(),
        }
    }

    /// `(S(d), Q(d))`; `d` must not decrease between calls.
    pub(crate) fn at(&mut self, d: u64) -> (f64, f64) {
        let (s_lo, q_lo) = self.lo.eval(self.start + d);
        let (s_hi, q_hi) = self.hi.eval(self.end + d);
        (s_hi - s_lo, q_hi - q_lo)
    }
}

/// Normalizes raw lagged products into per-lag Pearson coefficients.
///
/// `x` is the source window (its span defines the `n` ticks summed over);
/// `y` is the target signal the raw products were computed against.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::{DenseSeries, Tick};
/// use e2eprof_xcorr::{rle, normalize};
/// // y is exactly x shifted by 2: Pearson coefficient 1 at lag 2.
/// let x = DenseSeries::new(Tick::new(0), vec![1.0, 3.0, 0.0, 2.0, 0.0, 0.0]);
/// let y = DenseSeries::new(Tick::new(0), vec![0.0, 0.0, 1.0, 3.0, 0.0, 2.0, 0.0, 0.0]);
/// let xr = x.to_sparse().to_rle();
/// let yr = y.to_sparse().to_rle();
/// let raw = rle::correlate(&xr, &yr, 4);
/// let rho = normalize::normalize(&raw, &xr, &yr);
/// assert!((rho.value_at(2) - 1.0).abs() < 1e-9);
/// assert!(rho.value_at(1) < 0.9);
/// ```
pub fn normalize(raw: &CorrSeries, x: &RleSeries, y: &RleSeries) -> CorrSeries {
    let mut out = Vec::new();
    normalize_into(raw, x, y, &mut out);
    CorrSeries::new(out)
}

/// [`normalize`] writing into a caller-owned buffer.
///
/// `out` is cleared and refilled with one coefficient per lag of `raw`,
/// so passing the same buffer for pair after pair (as path discovery
/// does) allocates only until it has grown to the lag bound. The values
/// are bit-identical to [`normalize`]'s.
pub fn normalize_into(raw: &CorrSeries, x: &RleSeries, y: &RleSeries, out: &mut Vec<f64>) {
    out.clear();
    let n = x.len() as f64;
    let xs = x.stats();
    let x_mean = xs.mean();
    let ex = xs.centered_energy();
    if ex == 0.0 {
        // A constant (or empty: its energy is 0 too) source window
        // correlates to 0 with everything — every denominator below
        // would be exactly 0.
        out.resize(raw.values().len(), 0.0);
        return;
    }
    let mut moments = WindowMoments::new(x, y);
    out.extend(raw.values().iter().zip(0u64..).map(|(&r, d)| {
        let (s, q) = moments.at(d);
        let ey = (q - s * s / n).max(0.0);
        let num = r - x_mean * s;
        let den = (ex * ey).sqrt();
        if den > EPS_ENERGY {
            (num / den).clamp(-1.0, 1.0)
        } else {
            0.0
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rle;
    use e2eprof_timeseries::DenseSeries;

    fn rles(start: u64, v: Vec<f64>) -> RleSeries {
        DenseSeries::new(Tick::new(start), v).to_sparse().to_rle()
    }

    /// Direct reference: Pearson coefficient at lag d computed densely.
    fn reference_rho(x: &RleSeries, y: &RleSeries, d: u64) -> f64 {
        let n = x.len();
        let xv: Vec<f64> = (0..n).map(|i| x.value_at(x.start() + i)).collect();
        let yv: Vec<f64> = (0..n).map(|i| y.value_at(x.start() + i + d)).collect();
        let xm = xv.iter().sum::<f64>() / n as f64;
        let ym = yv.iter().sum::<f64>() / n as f64;
        let num: f64 = xv.iter().zip(&yv).map(|(a, b)| (a - xm) * (b - ym)).sum();
        let ex: f64 = xv.iter().map(|a| (a - xm) * (a - xm)).sum();
        let ey: f64 = yv.iter().map(|b| (b - ym) * (b - ym)).sum();
        if ex * ey < 1e-12 {
            0.0
        } else {
            num / (ex * ey).sqrt()
        }
    }

    #[test]
    fn matches_dense_pearson_reference() {
        let x = rles(0, vec![1.0, 0.0, 0.0, 2.0, 2.0, 0.0, 5.0, 0.0]);
        let y = rles(
            0,
            vec![0.0, 1.0, 0.0, 0.0, 2.0, 2.0, 0.0, 5.0, 0.0, 3.0, 3.0, 0.0],
        );
        let raw = rle::correlate(&x, &y, 4);
        let rho = normalize(&raw, &x, &y);
        for d in 0..4 {
            let expect = reference_rho(&x, &y, d);
            assert!(
                (rho.value_at(d) - expect).abs() < 1e-9,
                "lag {d}: got {} expect {expect}",
                rho.value_at(d)
            );
        }
    }

    #[test]
    fn exact_shift_gives_unit_coefficient() {
        let x = rles(0, vec![4.0, 0.0, 1.0, 1.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0]);
        let y = rles(
            0,
            vec![
                0.0, 0.0, 0.0, 4.0, 0.0, 1.0, 1.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0,
            ],
        );
        let raw = rle::correlate(&x, &y, 6);
        let rho = normalize(&raw, &x, &y);
        assert!((rho.value_at(3) - 1.0).abs() < 1e-9);
        assert_eq!(rho.peak().unwrap().0, 3);
    }

    #[test]
    fn constant_window_normalizes_to_zero() {
        let x = rles(0, vec![0.0; 8]);
        let y = rles(0, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let raw = rle::correlate(&x, &y, 4);
        let rho = normalize(&raw, &x, &y);
        assert!(rho.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn coefficients_bounded() {
        let x = rles(0, vec![9.0, 0.0, 0.0, 1.0, 4.0, 4.0, 0.0, 2.0]);
        let y = rles(0, vec![1.0, 9.0, 0.0, 0.0, 1.0, 4.0, 4.0, 0.0, 2.0, 7.0]);
        let raw = rle::correlate(&x, &y, 8);
        let rho = normalize(&raw, &x, &y);
        assert!(rho.values().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn empty_window_yields_zeros() {
        let x = RleSeries::empty(Tick::new(0), 0);
        let y = rles(0, vec![1.0, 2.0]);
        let raw = CorrSeries::zeros(3);
        let rho = normalize(&raw, &x, &y);
        assert_eq!(rho.values(), &[0.0, 0.0, 0.0]);
    }
}
