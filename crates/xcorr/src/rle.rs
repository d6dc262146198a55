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
//!
//! One routine, [`slide_tiled`], does this for every RLE correlation: a
//! pair's first window ([`correlate`]) and every window slide
//! ([`IncrementalCorrelator::advance`](crate::incremental::IncrementalCorrelator::advance)).
//! It walks the lag axis in tiles of [`LAG_TILE`] slots: each tile's
//! impulses are accumulated into a tile-sized buffer and resolved straight
//! into the accumulator before the next tile starts, so the
//! second-difference image is never streamed through the cache whole —
//! once per source run, and again to resolve it — as an `L`-slot buffer
//! would be at the paper's `L = 60 000` (DESIGN.md §6.3). Every slot lies
//! in exactly one tile and receives its impulses in the same (source run,
//! target run, impulse) order an untiled sweep gives it, and the prefix
//! sums carry across tiles, so the result does not depend on the tile
//! length — bit for bit.

use crate::corr::CorrSeries;
use crate::incremental::SlideScratch;
use e2eprof_timeseries::RleSeries;

/// Lag-axis tile of [`slide_tiled`], in second-difference slots: 64 KiB
/// of `f64` per chunk side, so both sides' tiles and the accumulator tile
/// they resolve into stay cache-resident while every run pair in reach is
/// visited. Chosen by measurement (DESIGN.md §6.3: 4 096 to 32 768 slots
/// at the paper's scale; 8 192 and 16 384 within 1 % of each other, the
/// ends 8 % and 28 % slower); not a tuning knob.
pub const LAG_TILE: usize = 8_192;

/// Computes `r(d) = Σ_t x(t) · y(t + d)` for `d ∈ [0, max_lag)` from RLE
/// signals, processing each overlapping run pair in constant time.
///
/// This is [`slide_tiled`] into an all-zero accumulator with nothing
/// leaving: a resolved product is never `-0.0` (every sum it is made of
/// starts at `+0.0`), so `0.0 + r(d)` is `r(d)` bit for bit.
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
    let mut acc = vec![0.0; max_lag as usize];
    slide_tiled(
        &mut acc,
        Some((x, y)),
        None,
        &mut SlideScratch::new(),
        LAG_TILE,
    );
    CorrSeries::new(acc)
}

/// One side of a window slide: a chunk of the source signal and the target
/// signal it is correlated against.
pub type Side<'a> = (&'a RleSeries, &'a RleSeries);

/// Adds the lagged products of `entering` to `acc` and subtracts those of
/// `leaving`, `acc[d] = (acc[d] + Δa[d]) − Δe[d]` for `d ∈ [0, acc.len())`,
/// walking the lag axis in tiles of `tile` slots.
///
/// A side that is absent, or whose chunk or target has no run at all,
/// contributes only `+0.0` products and is skipped outright (`acc[d] +=
/// Δa[d]` or `acc[d] −= Δe[d]` for the other side alone, nothing when
/// both are skipped).
///
/// Production passes [`LAG_TILE`]; the tile length is a parameter only so
/// the property tests can prove the result independent of it.
///
/// # Panics
///
/// Panics if `tile` is zero.
#[doc(hidden)]
pub fn slide_tiled(
    acc: &mut [f64],
    entering: Option<Side<'_>>,
    leaving: Option<Side<'_>>,
    scratch: &mut SlideScratch,
    tile: usize,
) {
    assert!(tile > 0, "lag tile must be positive");
    let has_runs = |(x, y): &Side<'_>| !x.runs().is_empty() && !y.runs().is_empty();
    let (entering, leaving) = (entering.filter(has_runs), leaving.filter(has_runs));
    if entering.is_none() && leaving.is_none() {
        return;
    }
    let width = tile.min(acc.len());
    let grow = |buf: &mut Vec<f64>| {
        if buf.len() < width {
            buf.resize(width, 0.0);
        }
    };
    if entering.is_some() {
        grow(&mut scratch.appended);
    }
    if leaving.is_some() {
        grow(&mut scratch.evicted);
    }
    let (mut fold_a, mut fold_e) = (Fold::default(), Fold::default());
    let (mut sum_a, mut sum_e) = (PrefixSums::default(), PrefixSums::default());
    for (t, slots) in acc.chunks_mut(tile).enumerate() {
        let t0 = t * tile;
        let da = entering.map(|side| {
            let da = &mut scratch.appended[..slots.len()];
            accumulate_tile(side, t0, da, &mut fold_a);
            &*da
        });
        let de = leaving.map(|side| {
            let de = &mut scratch.evicted[..slots.len()];
            accumulate_tile(side, t0, de, &mut fold_e);
            &*de
        });
        match (da, de) {
            (Some(da), Some(de)) => {
                for ((slot, &a), &e) in slots.iter_mut().zip(da).zip(de) {
                    *slot = (*slot + sum_a.next(a, fold_a)) - sum_e.next(e, fold_e);
                }
            }
            (Some(da), None) => {
                for (slot, &a) in slots.iter_mut().zip(da) {
                    *slot += sum_a.next(a, fold_a);
                }
            }
            (None, Some(de)) => {
                for (slot, &e) in slots.iter_mut().zip(de) {
                    *slot -= sum_e.next(e, fold_e);
                }
            }
            (None, None) => {}
        }
    }
}

/// The impulses of a second-difference image that fell at negative lags,
/// folded into a linear + constant term: an impulse `e` at `p < 0`
/// contributes `e·(d − p + 1) = e·(d+1) + e·(−p)` to every lag `d ≥ 0`.
#[derive(Debug, Clone, Copy, Default)]
struct Fold {
    lin: f64,
    cst: f64,
}

/// The running double prefix sum that turns a second-difference image
/// back into lagged products, carried from one tile into the next.
#[derive(Debug, Default)]
struct PrefixSums {
    slope: f64,
    value: f64,
    /// d + 1, counted in floating point (exact far beyond any lag bound).
    d1: f64,
}

impl PrefixSums {
    /// The product at the next lag, whose second-difference slot holds `e`.
    #[inline(always)]
    fn next(&mut self, e: f64, fold: Fold) -> f64 {
        self.slope += e;
        self.value += self.slope;
        self.d1 += 1.0;
        self.value + fold.lin * self.d1 + fold.cst
    }
}

/// Accumulates the second-difference impulses of `r(d) = Σ_t x(t)·y(t+d)`
/// that land in the tile `[t0, t0 + tile.len())` into `tile` (zeroed
/// first). In the first tile it also folds the impulses at negative lags
/// into `fold`.
///
/// Run pairs are visited in (x run, y run) order and each pair's impulses
/// in a fixed order, exactly as an untiled sweep of the whole lag axis
/// visits them; pairs none of whose impulses land in the tile are left
/// out, which changes no slot.
fn accumulate_tile((x, y): Side<'_>, t0: usize, tile: &mut [f64], fold: &mut Fold) {
    tile.fill(0.0);
    let yr = y.runs();
    let (t0, t1) = (t0 as i64, (t0 + tile.len()) as i64);
    // A pair's impulses span [p1, p1 + lx + ly] with p1 + lx + ly =
    // end_y − sx + 1. A y run ending at or before sx only ever produced
    // (cancelling) impulses at lags ≤ 1 and is never visited; past the
    // first tile, one ending at or before sx + t0 − 2 has none left here.
    let reach = (t0 - 2).max(0);
    let mut lo = 0usize;
    for rx in x.runs() {
        let sx = rx.start().index() as i64;
        let lx = rx.len() as i64;
        let vx = rx.value();
        // Run ends are increasing, and sx is increasing across x runs, so
        // this pointer is monotone.
        while lo < yr.len() && (yr[lo].end().index() as i64) <= sx + reach {
            lo += 1;
        }
        for ry in &yr[lo..] {
            // Boxcar cross-correlation trapezoid: second difference is
            // +w at p1, −w at p1+lx, −w at p1+ly, +w at p1+lx+ly, where
            // p1 = (sy − sx) − (lx − 1) is the smallest lag with non-zero
            // overlap.
            let p1 = ry.start().index() as i64 - sx - (lx - 1);
            if p1 >= t1 {
                // This pair, and every later one, starts past the tile.
                break;
            }
            let ly = ry.len() as i64;
            let w = vx * ry.value();
            if p1 >= t0 && p1 + lx + ly < t1 {
                // Interior pair — nearly all of them once the tile spans
                // many runs: the four impulses land inside the tile, in
                // the same order the boundary path applies them (so two
                // impulses sharing a slot, lx == ly, add up identically).
                let p = (p1 - t0) as usize;
                let (lx, ly) = (lx as usize, ly as usize);
                tile[p] += w;
                tile[p + lx] -= w;
                tile[p + ly] -= w;
                tile[p + lx + ly] += w;
                continue;
            }
            for (p, e) in [(p1, w), (p1 + lx, -w), (p1 + ly, -w), (p1 + lx + ly, w)] {
                if p >= t1 {
                    continue;
                }
                if p < t0 {
                    if p < 0 && t0 == 0 {
                        fold.lin += e;
                        fold.cst += e * (-p) as f64;
                    }
                    continue;
                }
                tile[(p - t0) as usize] += e;
            }
        }
    }
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
