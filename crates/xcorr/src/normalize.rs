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
//!
//! The lag loop runs four lags wide where the host allows it
//! ([`crate::simd`]'s AVX2 dispatch): in a block of four lags where each
//! cursor stays inside one run (or one gap), the four prefix moments are
//! `s + v·(part + k)` — the scalar evaluation's own multiply and add per
//! lane — and the rest of Eq. 1 is lane-wise IEEE arithmetic in the same
//! operation order, so every coefficient is bit-identical to the portable
//! loop's. Both loops also return the coefficients' [`Moments`], summed
//! lag by lag in order, which is what spike detection's threshold needs
//! ([`SpikeDetector::detect_with`](crate::SpikeDetector::detect_with)).

use crate::corr::CorrSeries;
use crate::simd;
use crate::spike::Moments;
use e2eprof_timeseries::{RleSeries, Run};

/// Energy threshold below which a window is considered constant (its
/// correlation with anything is defined as zero).
pub(crate) const EPS_ENERGY: f64 = 1e-12;

/// Four consecutive ticks' prefix moments, `(Σ y, Σ y²)` lane by lane.
pub(crate) type Block = ([f64; 4], [f64; 4]);

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

    /// Moves past every run ending at or before `t`.
    #[inline(always)]
    fn walk_to(&mut self, t: u64) {
        while self.end <= t {
            let len = (self.end - self.start) as f64;
            self.s += self.value * len;
            self.q += self.value_sq * len;
            self.load_next();
        }
    }

    /// `(Σ_{u<t} y(u), Σ_{u<t} y(u)²)`; `t` must not decrease between
    /// calls.
    #[inline(always)]
    fn eval(&mut self, t: u64) -> (f64, f64) {
        self.walk_to(t);
        let (mut s, mut q) = (self.s, self.q);
        if self.start < t {
            let part = (t - self.start) as f64;
            s += self.value * part;
            q += self.value_sq * part;
        }
        (s, q)
    }

    /// [`eval`](Self::eval) at `t, t+1, t+2, t+3`, lane by lane.
    ///
    /// When the four ticks lie inside one run, lane `k` is
    /// `s + v·(part + k)` — `eval`'s multiply and add with its exact
    /// integer `part` — and inside one gap every lane is `s`; a block that
    /// crosses a run boundary is evaluated tick by tick.
    #[inline(always)]
    fn eval4(&mut self, t: u64) -> Block {
        self.walk_to(t);
        if t + 3 < self.end {
            if self.start < t {
                let part = (t - self.start) as f64;
                let (s, q, v, v2) = (self.s, self.q, self.value, self.value_sq);
                return (
                    [0.0, 1.0, 2.0, 3.0].map(|k| s + v * (part + k)),
                    [0.0, 1.0, 2.0, 3.0].map(|k| q + v2 * (part + k)),
                );
            }
            if t + 3 <= self.start {
                return ([self.s; 4], [self.q; 4]);
            }
        }
        let mut s = [0.0; 4];
        let mut q = [0.0; 4];
        for (k, t) in (t..t + 4).enumerate() {
            (s[k], q[k]) = self.eval(t);
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
    start: u64,
    end: u64,
}

impl<'a> WindowMoments<'a> {
    /// Moments of `y` over the span of the source window `x`, shifted.
    pub(crate) fn new(x: &RleSeries, y: &'a RleSeries) -> Self {
        WindowMoments {
            lo: PrefixCursor::new(y),
            hi: PrefixCursor::new(y),
            start: x.start().index(),
            end: x.end().index(),
        }
    }

    /// `(S(d), Q(d))`; `d` must not decrease between calls.
    #[inline(always)]
    pub(crate) fn at(&mut self, d: u64) -> (f64, f64) {
        let (s_lo, q_lo) = self.lo.eval(self.start + d);
        let (s_hi, q_hi) = self.hi.eval(self.end + d);
        (s_hi - s_lo, q_hi - q_lo)
    }

    /// The prefix moments behind [`at`](Self::at)`(d + k)`, `k ∈ 0..4`, as
    /// `(lower edge, upper edge)` lanes of `(Σ y, Σ y²)`; `d` must not
    /// decrease between calls.
    #[inline(always)]
    pub(crate) fn edges4(&mut self, d: u64) -> (Block, Block) {
        (self.lo.eval4(self.start + d), self.hi.eval4(self.end + d))
    }
}

/// The source-window constants of Eq. 1.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Source {
    /// Ticks in the source window.
    pub(crate) n: f64,
    /// Their mean, `x̄`.
    pub(crate) mean: f64,
    /// Their centered energy, `Eₓ`.
    pub(crate) energy: f64,
}

impl Source {
    /// `ρ(d)` from `r(d)`, `S(d)` and `Q(d)`: the one scalar definition the
    /// four-lane loop reproduces lane by lane.
    #[inline(always)]
    pub(crate) fn coefficient(self, r: f64, s: f64, q: f64) -> f64 {
        let ey = (q - s * s / self.n).max(0.0);
        let num = r - self.mean * s;
        let den = (self.energy * ey).sqrt();
        if den > EPS_ENERGY {
            (num / den).clamp(-1.0, 1.0)
        } else {
            0.0
        }
    }
}

/// A lag loop of Eq. 1: appends one coefficient per raw product to `out`
/// and returns their moments.
pub(crate) type LagLoop = fn(&[f64], WindowMoments<'_>, Source, &mut Vec<f64>) -> Moments;

/// The portable lag loop: one lag at a time, the moments summed as each
/// coefficient is written.
pub(crate) fn lags_portable(
    raw: &[f64],
    mut moments: WindowMoments<'_>,
    src: Source,
    out: &mut Vec<f64>,
) -> Moments {
    let mut m = Moments::default();
    out.extend(raw.iter().zip(0u64..).map(|(&r, d)| {
        let (s, q) = moments.at(d);
        let v = src.coefficient(r, s, q);
        m.add(v);
        v
    }));
    m
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

/// [`normalize`] writing into a caller-owned buffer, returning the
/// coefficients' [`Moments`].
///
/// `out` is cleared and refilled with one coefficient per lag of `raw`,
/// so passing the same buffer for pair after pair (as path discovery
/// does) allocates only until it has grown to the lag bound. The values
/// are bit-identical to [`normalize`]'s, and the moments to
/// [`Moments::of`]`(out)`, on every host: this runs the best lag loop the
/// host supports, [`normalize_into_avx2`] or [`normalize_into_portable`].
pub fn normalize_into(
    raw: &CorrSeries,
    x: &RleSeries,
    y: &RleSeries,
    out: &mut Vec<f64>,
) -> Moments {
    normalize_with(raw, x, y, out, simd::eq1_lags())
}

/// [`normalize_into`] one lag at a time: the path on hosts without AVX2,
/// and the reference the four-lane loop is tested against.
pub fn normalize_into_portable(
    raw: &CorrSeries,
    x: &RleSeries,
    y: &RleSeries,
    out: &mut Vec<f64>,
) -> Moments {
    normalize_with(raw, x, y, out, lags_portable)
}

/// [`normalize_into`] four lags wide with AVX2, or `None` — leaving `out`
/// untouched — on a host without it.
pub fn normalize_into_avx2(
    raw: &CorrSeries,
    x: &RleSeries,
    y: &RleSeries,
    out: &mut Vec<f64>,
) -> Option<Moments> {
    simd::eq1_lags_avx2().map(|lags| normalize_with(raw, x, y, out, lags))
}

/// Eq. 1 over every lag of `raw` with the lag loop `lags`.
fn normalize_with(
    raw: &CorrSeries,
    x: &RleSeries,
    y: &RleSeries,
    out: &mut Vec<f64>,
    lags: LagLoop,
) -> Moments {
    out.clear();
    let xs = x.stats();
    let src = Source {
        n: x.len() as f64,
        mean: xs.mean(),
        energy: xs.centered_energy(),
    };
    if src.energy == 0.0 {
        // A constant (or empty: its energy is 0 too) source window
        // correlates to 0 with everything — every denominator would be
        // exactly 0 — and zeros sum to zero moments.
        out.resize(raw.values().len(), 0.0);
        return Moments::default();
    }
    out.reserve(raw.values().len());
    lags(raw.values(), WindowMoments::new(x, y), src, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rle;
    use e2eprof_timeseries::{DenseSeries, Tick};

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
