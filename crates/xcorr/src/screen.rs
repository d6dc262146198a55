//! Coarse-to-fine candidate screening: prune provably-dead edges from a
//! decimated correlation before paying the full-lag cost.
//!
//! Density signals are non-negative (√count amplitudes), which makes the
//! decimated correlation a *sound upper-bound cover* of the fine one. Let
//! `X(J) = Σ_{t∈[Jk,(J+1)k)} x(t)` and `Y` likewise, and let
//! `R(D) = Σ_J X(J)·Y(J+D)` be the coarse raw correlation. Every fine
//! product `x(t)·y(t+d)` with `t = Jk + a`, `a ∈ [0, k)`, lands in coarse
//! block offset `⌊(a+d)/k⌋ ∈ {⌊d/k⌋, ⌊d/k⌋+1}`, and every term of `R` is
//! a sum of non-negative fine products — so
//!
//! ```text
//! r_fine(d)  ≤  R(⌊d/k⌋) + R(⌊d/k⌋ + 1)      for all d ∈ [0, L)
//! ```
//!
//! ([`cover_bound`]). Feeding that through Eq. 1's normalization with the
//! *exact* per-lag window sums of `y` (cheap: `O(runs + L)`) yields an
//! upper bound on every normalized coefficient ρ(d) ([`max_rho_bound`]).
//! Spikes are only accepted when their ρ value reaches the detection
//! floor (`PathmapConfig::min_spike_value`), so an edge whose bound sits
//! below the floor provably cannot produce a distinguishable spike —
//! skipping it cannot change the discovered graph. [`Screen`] wraps the
//! decision with promote/demote hysteresis for the online analyzer.

use crate::corr::CorrSeries;
use crate::normalize::{WindowMoments, EPS_ENERGY};
use e2eprof_timeseries::RleSeries;

/// Absolute safety margin added to every screening bound before it is
/// compared against a threshold, absorbing the float drift of incremental
/// coarse accumulators (append/evict corrections reassociate the sum, a
/// ~1 ulp-per-operation effect many orders of magnitude below this).
pub const BOUND_MARGIN: f64 = 1e-9;

/// Number of coarse lags needed to cover every fine lag `d < max_lag`:
/// the cover reads coarse lags `⌊d/k⌋` and `⌊d/k⌋ + 1`, so the coarse
/// correlation must extend to `⌊(max_lag−1)/k⌋ + 2` lags.
pub fn coarse_lag_bound(max_lag: u64, k: u64) -> u64 {
    assert!(k > 0, "decimation factor must be positive");
    if max_lag == 0 {
        0
    } else {
        (max_lag - 1) / k + 2
    }
}

/// The raw cover bound at fine lag `d`: `R(⌊d/k⌋) + R(⌊d/k⌋+1)`.
///
/// For non-negative signals whose decimations produced `coarse`, this is
/// ≥ the fine raw correlation `r(d)` (see the module docs for the proof).
pub fn cover_bound(coarse: &CorrSeries, k: u64, d: u64) -> f64 {
    coarse.value_at(d / k) + coarse.value_at(d / k + 1)
}

/// Upper-bounds `max_d ρ(d)` over `d ∈ [0, max_lag)` from the coarse raw
/// correlation, without ever computing the fine correlation.
///
/// `x` is the fine source window and `y` the fine target signal — the
/// same inputs [`normalize`](crate::normalize::normalize) would receive —
/// used only for their exact (and cheap) window statistics: with
/// `S(d) = Σ y(t+d)` and `Ey(d)` the centered energy of `y`'s lag-`d`
/// window, each per-lag Pearson numerator `r(d) − x̄·S(d)` is bounded by
/// `cover_bound(d) + slack − x̄·S(d)` and divided by the exact
/// denominator. `slack` is raw-product mass the coarse correlation does
/// not cover (the not-yet-folded decimation tail in the online analyzer);
/// pass `0.0` when the decimations span the full signals.
///
/// Lags whose denominator is degenerate contribute 0, matching
/// `normalize`'s convention that a constant window correlates to 0.
/// The result is ≥ 0 and ≥ every ρ(d); it is *not* clamped to 1.
pub fn max_rho_bound(
    coarse: &CorrSeries,
    k: u64,
    x: &RleSeries,
    y: &RleSeries,
    max_lag: u64,
    slack: f64,
) -> f64 {
    max_rho_bound_until(coarse, k, x, y, max_lag, slack, f64::INFINITY)
}

/// Like [`max_rho_bound`], but stops scanning as soon as the running
/// maximum reaches `stop_at`.
///
/// Any decision of the form `bound ≥ threshold` with `threshold ≤
/// stop_at` is unchanged: when the result is below `stop_at` it is the
/// exact bound, and otherwise it is a certificate `≥ stop_at` (which the
/// full bound, being ≥ the partial maximum, also clears). Causally live
/// pairs exit after a handful of lags instead of paying the full
/// `max_lag` scan — that scan would otherwise cost as much as the fine
/// correlation screening is trying to avoid.
pub fn max_rho_bound_until(
    coarse: &CorrSeries,
    k: u64,
    x: &RleSeries,
    y: &RleSeries,
    max_lag: u64,
    slack: f64,
    stop_at: f64,
) -> f64 {
    assert!(k > 0, "decimation factor must be positive");
    let n = x.len() as f64;
    if n == 0.0 || max_lag == 0 {
        return 0.0;
    }
    let xs = x.stats();
    let x_mean = xs.mean();
    let ex = xs.centered_energy();
    if ex <= EPS_ENERGY {
        // Constant source window: every ρ(d) is defined as 0.
        return 0.0;
    }
    // Lags are visited in increasing order (whole buckets may be skipped,
    // never revisited), which is all the moment cursors require.
    let mut moments = WindowMoments::new(x, y);
    let mut best = 0.0f64;
    let mut d = 0u64;
    while d < max_lag {
        let bucket = d / k;
        let bucket_end = ((bucket + 1) * k).min(max_lag);
        // The raw bound is constant across the bucket's k fine lags; a
        // zero bucket (no coarse overlap at all — the common case for a
        // causally dead edge) is skipped without touching the moments.
        let b = coarse.value_at(bucket) + coarse.value_at(bucket + 1) + slack;
        if b <= 0.0 {
            d = bucket_end;
            continue;
        }
        while d < bucket_end {
            let (s, q) = moments.at(d);
            let ey = (q - s * s / n).max(0.0);
            let den = (ex * ey).sqrt();
            if den > EPS_ENERGY {
                let num = b - x_mean * s;
                if num > 0.0 && num / den > best {
                    best = num / den;
                    if best >= stop_at {
                        return best;
                    }
                }
            }
            d += 1;
        }
    }
    best
}

/// Whether two non-negative coarse signals overlap at *any* coarse lag
/// `D ∈ [0, coarse_lags)` — the promote trigger of the edge-side data
/// reduction loop.
///
/// A demoted edge ships only its decimated image, so the analyzer cannot
/// evaluate the full [`max_rho_bound`]; what it *can* certify is the
/// converse: by the cover lemma (module docs), zero coarse overlap over
/// `coarse_lag_bound(max_lag, k)` lags means every fine raw product
/// `x(t)·y(t+d)`, `d < max_lag`, is zero — the pair provably cannot
/// correlate, at any normalization. Any overlap is therefore the *only*
/// event that could make a demoted edge causally live again, and firing
/// on it (then backfilling fine data and re-running the exact screen)
/// can never leave a true edge demoted. Scale does not matter here, so
/// the two signals may use different amplitude conventions (the analyzer
/// compares a `Σ √count` decimation of the client signal against the
/// tracer's `√(block count)` coarse image).
///
/// Runs are scanned with two pointers in `O(runs(x) + runs(y))`.
pub fn coarse_overlap(x: &RleSeries, y: &RleSeries, coarse_lags: u64) -> bool {
    if coarse_lags == 0 {
        return false;
    }
    let xr = x.runs();
    let yr = y.runs();
    let mut i = 0usize;
    for ry in yr {
        // Drop source runs that end too early to reach this (or any
        // later) target run at an admissible lag: t + D spans
        // [rx.start, rx.end + coarse_lags - 1).
        while i < xr.len() && xr[i].end().index() + coarse_lags - 1 <= ry.start().index() {
            i += 1;
        }
        if i < xr.len() && xr[i].start() < ry.end() {
            return true;
        }
    }
    false
}

/// The screening decision rule: a spike floor with promote/demote
/// hysteresis.
///
/// A pair is *active* (owns a full-resolution correlator) or *pruned*.
/// Promotion requires the bound to reach `floor·(1−h)` and demotion
/// requires it to fall below `floor·(1−h)²`, so a pair oscillating near
/// the floor does not thrash between full recomputes. Both thresholds
/// sit strictly below `floor` (for `h ∈ [0, 1)`), so a pruned pair always
/// has `bound < floor` — pruning can never suppress an acceptable spike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Screen {
    factor: u64,
    floor: f64,
    hysteresis: f64,
}

impl Screen {
    /// Creates a screen for decimation factor `k` against a spike-value
    /// `floor` with hysteresis margin `h`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero, `floor` is not positive, or `h` is
    /// outside `[0, 1)`.
    pub fn new(factor: u64, floor: f64, hysteresis: f64) -> Self {
        assert!(factor > 0, "decimation factor must be positive");
        assert!(floor > 0.0, "spike floor must be positive");
        assert!(
            (0.0..1.0).contains(&hysteresis),
            "hysteresis must be in [0, 1)"
        );
        Screen {
            factor,
            floor,
            hysteresis,
        }
    }

    /// The decimation factor `k`.
    pub fn factor(&self) -> u64 {
        self.factor
    }

    /// Bound level at which a pruned pair is promoted back to full
    /// resolution: `floor·(1−h)`.
    pub fn promote_threshold(&self) -> f64 {
        self.floor * (1.0 - self.hysteresis)
    }

    /// Bound level below which an active pair is demoted (its fine
    /// correlator dropped): `floor·(1−h)²`.
    pub fn demote_threshold(&self) -> f64 {
        self.promote_threshold() * (1.0 - self.hysteresis)
    }

    /// The bound level that decides [`next_active`](Screen::next_active)
    /// for a pair in state `currently_active`: the demote threshold for
    /// active pairs, the promote threshold for pruned ones. Pass this
    /// (less [`BOUND_MARGIN`]) as `stop_at` to
    /// [`max_rho_bound_until`] to let
    /// live pairs exit the bound scan early without changing any
    /// decision.
    pub fn decision_threshold(&self, currently_active: bool) -> f64 {
        if currently_active {
            self.demote_threshold()
        } else {
            self.promote_threshold()
        }
    }

    /// Applies the hysteresis rule: given a pair's current activity and
    /// its fresh `max_rho_bound`, decides whether it is active for the
    /// upcoming refresh. [`BOUND_MARGIN`] is added on the bound's side,
    /// so float drift can only keep pairs active, never over-prune.
    pub fn next_active(&self, bound: f64, currently_active: bool) -> bool {
        let b = bound + BOUND_MARGIN;
        if currently_active {
            b >= self.demote_threshold()
        } else {
            b >= self.promote_threshold()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{normalize, rle};
    use e2eprof_timeseries::{DenseSeries, Tick};

    fn rles(start: u64, v: Vec<f64>) -> RleSeries {
        DenseSeries::new(Tick::new(start), v).to_sparse().to_rle()
    }

    fn pseudo_signal(len: u64, seed: u64, density: u64) -> RleSeries {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let v: Vec<f64> = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(density) {
                    (1.0 + (state % 4) as f64).sqrt()
                } else {
                    0.0
                }
            })
            .collect();
        rles(0, v)
    }

    fn coarse_of(x: &RleSeries, y: &RleSeries, k: u64, max_lag: u64) -> CorrSeries {
        rle::correlate(&x.decimate(k), &y.decimate(k), coarse_lag_bound(max_lag, k))
    }

    #[test]
    fn cover_bound_dominates_fine_correlation() {
        let max_lag = 40;
        for (sx, sy) in [(1, 2), (3, 4), (5, 6)] {
            let x = pseudo_signal(150, sx, 3);
            let y = pseudo_signal(200, sy, 4);
            let fine = rle::correlate(&x, &y, max_lag);
            for k in [2, 4, 8, 16] {
                let coarse = coarse_of(&x, &y, k, max_lag);
                for d in 0..max_lag {
                    let bound = cover_bound(&coarse, k, d);
                    assert!(
                        fine.value_at(d) <= bound + 1e-9,
                        "k={k} d={d}: fine {} > bound {bound}",
                        fine.value_at(d)
                    );
                }
            }
        }
    }

    #[test]
    fn rho_bound_dominates_normalized_coefficients() {
        let max_lag = 40;
        for (sx, sy) in [(7, 8), (9, 10)] {
            let x = pseudo_signal(150, sx, 2);
            let y = pseudo_signal(200, sy, 3);
            let rho = normalize::normalize(&rle::correlate(&x, &y, max_lag), &x, &y);
            for k in [2, 4, 8, 16] {
                let coarse = coarse_of(&x, &y, k, max_lag);
                let bound = max_rho_bound(&coarse, k, &x, &y, max_lag, 0.0);
                for d in 0..max_lag {
                    assert!(
                        rho.value_at(d) <= bound + 1e-9,
                        "k={k} d={d}: rho {} > bound {bound}",
                        rho.value_at(d)
                    );
                }
            }
        }
    }

    #[test]
    fn dead_pair_bounds_to_zero() {
        // Disjoint activity beyond the lag bound: coarse overlap is zero,
        // so the bound collapses without scanning fine lags.
        let x = rles(0, vec![1.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        let mut yv = vec![0.0; 64];
        yv[60] = 3.0;
        let y = rles(0, yv);
        let max_lag = 16;
        let k = 4;
        let coarse = coarse_of(&x, &y, k, max_lag);
        assert_eq!(max_rho_bound(&coarse, k, &x, &y, max_lag, 0.0), 0.0);
    }

    #[test]
    fn coarse_lag_bound_covers_every_fine_lag() {
        for max_lag in [1u64, 7, 16, 100] {
            for k in [2u64, 4, 8, 16] {
                let lc = coarse_lag_bound(max_lag, k);
                // The cover of the last fine lag reads coarse lag
                // ⌊(L−1)/k⌋ + 1, which must be < Lc.
                assert!((max_lag - 1) / k + 1 < lc, "L={max_lag} k={k}");
            }
        }
        assert_eq!(coarse_lag_bound(0, 4), 0);
    }

    #[test]
    fn coarse_overlap_matches_admissible_lag_windows() {
        // y active only at tick 10: reachable from x's run [2, 5) only
        // when the lag horizon extends past 10 − 4 = 6.
        let x = rles(0, {
            let mut v = vec![0.0; 16];
            v[2] = 1.0;
            v[3] = 1.0;
            v[4] = 2.0;
            v
        });
        let y = rles(0, {
            let mut v = vec![0.0; 16];
            v[10] = 3.0;
            v
        });
        assert!(!coarse_overlap(&x, &y, 0));
        assert!(!coarse_overlap(&x, &y, 6)); // t + D ≤ 4 + 5 = 9 < 10
        assert!(coarse_overlap(&x, &y, 7)); // t = 4, D = 6 reaches 10
                                            // Anti-causal activity (target strictly before the source) never
                                            // triggers: lags are non-negative, however long the horizon.
        assert!(!coarse_overlap(&y, &x, 4));
        assert!(!coarse_overlap(&y, &x, 100));
        // Coincident activity triggers at any positive horizon.
        assert!(coarse_overlap(&x, &x, 1));
    }

    #[test]
    fn zero_coarse_overlap_certifies_zero_rho_bound() {
        // Consistency with the cover lemma: whenever the decimations do
        // not overlap within the coarse lag horizon, the full screening
        // bound is exactly zero.
        let max_lag = 24;
        for (sx, sy) in [(11, 12), (13, 14), (15, 16)] {
            let x = pseudo_signal(120, sx, 5);
            let y = pseudo_signal(160, sy, 7);
            for k in [2u64, 4, 8] {
                let lc = coarse_lag_bound(max_lag, k);
                let xc = x.decimate(k);
                let yc = y.decimate(k);
                if !coarse_overlap(&xc, &yc, lc) {
                    let coarse = coarse_of(&x, &y, k, max_lag);
                    assert_eq!(max_rho_bound(&coarse, k, &x, &y, max_lag, 0.0), 0.0);
                }
            }
        }
    }

    #[test]
    fn hysteresis_thresholds_sit_below_the_floor() {
        let s = Screen::new(8, 0.1, 0.5);
        assert!(s.promote_threshold() < 0.1);
        assert!(s.demote_threshold() < s.promote_threshold());
        // Active pair near the floor stays active; far below, demoted.
        assert!(s.next_active(0.04, true));
        assert!(!s.next_active(0.01, true));
        // Pruned pair needs the higher threshold to come back.
        assert!(!s.next_active(0.04, false));
        assert!(s.next_active(0.06, false));
    }

    #[test]
    fn zero_hysteresis_uses_the_floor_directly() {
        let s = Screen::new(4, 0.1, 0.0);
        assert_eq!(s.promote_threshold(), 0.1);
        assert_eq!(s.demote_threshold(), 0.1);
        assert!(s.next_active(0.1, false));
        assert!(!s.next_active(0.09, false));
    }
}
