//! Incremental maintenance of lagged products across a sliding window.
//!
//! Because `r(d) = Σ_t x(t) · y(t+d)` is a sum over the source window's
//! ticks, sliding the window is two bounded corrections: *add* the products
//! contributed by the newly appended `ΔW` ticks and *subtract* those of the
//! evicted prefix — `O((ΔW/τ)/(k·r) · T_u/τ)` per refresh instead of
//! recomputing the whole `W` window (paper Sections 3.4 and 3.7, the reason
//! pathmap's per-refresh cost in Fig. 9 is flat in `W`).
//! [`IncrementalCorrelator::advance`] applies both in one sweep of the lag
//! axis, tile by tile ([`rle::slide_tiled`]): each chunk's run pairs land
//! in a tile-sized second-difference image (constant time per pair), and
//! the two images are resolved straight into the accumulator, so a slide
//! costs `O(run pairs in reach + T_u/τ)` with the lag axis walked once and
//! only [`rle::LAG_TILE`] slots per side in flight.
//!
//! The correction terms only read `y` up to `T_u` ticks past the affected
//! `x` region, so the analyzer retains `W + T_u` ticks of each target
//! signal and the arithmetic is exact (modulo float summation order).

use crate::corr::CorrSeries;
use crate::rle;
use e2eprof_timeseries::{RleSeries, Tick};

/// Stateful bounded-lag correlator for one (source, target) signal pair.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::{DenseSeries, Tick};
/// use e2eprof_xcorr::{incremental::IncrementalCorrelator, rle};
///
/// let sig = DenseSeries::new(Tick::new(0), vec![1., 0., 2., 0., 0., 3., 1., 0., 4., 0.]);
/// let x = sig.to_sparse().to_rle();
/// let y = x.clone();
///
/// let mut inc = IncrementalCorrelator::new(4);
/// inc.append(&x.slice(Tick::new(0), Tick::new(6)), &y);
/// inc.append(&x.slice(Tick::new(6), Tick::new(10)), &y);
/// inc.evict_to(Tick::new(3), &x, &y);
///
/// // Window is now [3, 10): identical to a from-scratch computation.
/// let direct = rle::correlate(&x.slice(Tick::new(3), Tick::new(10)), &y, 4);
/// assert!(inc.corr().max_abs_diff(&direct) < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalCorrelator {
    max_lag: u64,
    acc: CorrSeries,
    window: Option<(Tick, Tick)>,
}

/// Caller-owned scratch for [`IncrementalCorrelator::advance`]: one lag
/// tile of the second-difference images of the chunk entering and the
/// chunk leaving the window — `2 ·` [`rle::LAG_TILE`] `f64` at most,
/// whatever the lag bound. One instance serves any number of correlators
/// in turn (the analyzer keeps one per refresh worker), growing to the
/// largest tile it has needed and allocating nothing afterwards.
#[derive(Debug, Clone, Default)]
pub struct SlideScratch {
    pub(crate) appended: Vec<f64>,
    pub(crate) evicted: Vec<f64>,
}

impl SlideScratch {
    /// Creates empty scratch; the buffers grow on first use.
    pub fn new() -> Self {
        SlideScratch::default()
    }

    /// Total allocated capacity, in lags (scratch-reuse accounting: a
    /// call that leaves it unchanged allocated nothing).
    pub fn capacity(&self) -> usize {
        self.appended.capacity() + self.evicted.capacity()
    }
}

impl IncrementalCorrelator {
    /// Creates an empty correlator with the given lag bound (`T_u/τ`).
    pub fn new(max_lag: u64) -> Self {
        IncrementalCorrelator {
            max_lag,
            acc: CorrSeries::zeros(max_lag),
            window: None,
        }
    }

    /// The lag bound.
    pub fn max_lag(&self) -> u64 {
        self.max_lag
    }

    /// The current source window `[start, end)`, if any data was appended.
    pub fn window(&self) -> Option<(Tick, Tick)> {
        self.window
    }

    /// The accumulated lagged products for the current window.
    pub fn corr(&self) -> &CorrSeries {
        &self.acc
    }

    /// Slides the window in one pass over the lag axis: `appended` enters
    /// at the window's end, and the prefix before `new_start` — whose
    /// source values `evicted` holds — leaves.
    ///
    /// Both chunks' run pairs are accumulated into `scratch`, one lag tile
    /// at a time, as second-difference images and resolved straight into
    /// the accumulator, `acc[d] = (acc[d] + Δa[d]) − Δe[d]`
    /// ([`rle::slide_tiled`]): bit for bit what
    /// [`append`](Self::append)`(appended, y_new)` followed by
    /// [`evict_to`](Self::evict_to)`(new_start, evicted, y_old)` compute
    /// (they are this method with one side empty), in one sweep instead
    /// of one per correction term. A side whose chunk or target has no
    /// run at all contributes only `+0.0` products and is skipped outright
    /// — the same no-op [`slide`](Self::slide) relies on — so an idle
    /// pair costs nothing proportional to the lag bound.
    ///
    /// `appended` must start at the current window end (it may be empty);
    /// `y_new` must cover `[appended.start, appended.end + max_lag)`
    /// intersected with its materialized span (values outside `y`'s span
    /// count as zero, exactly like the stateless engines). `evicted` must
    /// hold the source signal over exactly `[start, new_start)`, and
    /// `y_old` the target over `[start, new_start + max_lag)` — the same
    /// values that were present when that region was appended.
    ///
    /// # Panics
    ///
    /// Panics if no data was appended yet, if `appended` is not contiguous
    /// with the current window, or if `new_start` lies outside the
    /// extended window.
    pub fn advance(
        &mut self,
        appended: &RleSeries,
        y_new: &RleSeries,
        new_start: Tick,
        evicted: &RleSeries,
        y_old: &RleSeries,
        scratch: &mut SlideScratch,
    ) {
        let (s, e) = self.window.expect("advance on an empty correlator");
        assert_eq!(appended.start(), e, "appended chunk must be contiguous");
        let e = appended.end();
        assert!(
            new_start >= s && new_start <= e,
            "eviction point outside current window"
        );
        debug_assert!(
            new_start == s || (evicted.start() >= s && evicted.end() <= new_start),
            "evicted chunk reaches outside the evicted region"
        );
        rle::slide_tiled(
            self.acc.values_mut(),
            Some((appended, y_new)),
            (new_start != s).then_some((evicted, y_old)),
            scratch,
            rle::LAG_TILE,
        );
        self.window = Some((new_start, e));
    }

    /// Appends a new chunk of the source signal.
    ///
    /// `y` must contain the target signal's values over at least
    /// `[chunk.start, chunk.end + max_lag)` intersected with its
    /// materialized span (values outside `y`'s span count as zero, exactly
    /// like the stateless engines).
    ///
    /// This is [`advance`](Self::advance) with nothing evicted and scratch
    /// of its own; callers sliding many windows should call `advance` with
    /// scratch they keep.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is not contiguous with the current window.
    pub fn append(&mut self, chunk: &RleSeries, y: &RleSeries) {
        let (s, _) = *self.window.get_or_insert((chunk.start(), chunk.start()));
        let nothing = RleSeries::empty(s, 0);
        self.advance(chunk, y, s, &nothing, y, &mut SlideScratch::new());
    }

    /// Evicts the window prefix before `new_start`.
    ///
    /// `x` must cover (at least) the evicted region `[start, new_start)`;
    /// `y` must cover `[start, new_start + max_lag)` intersected with its
    /// materialized span — the same values that were present when the
    /// corresponding `append` ran.
    ///
    /// This is [`advance`](Self::advance) with nothing appended and
    /// scratch of its own.
    ///
    /// # Panics
    ///
    /// Panics if no data was appended yet or if `new_start` lies outside
    /// the current window.
    pub fn evict_to(&mut self, new_start: Tick, x: &RleSeries, y: &RleSeries) {
        let (s, e) = self.window.expect("evict on an empty correlator");
        assert!(
            new_start >= s && new_start <= e,
            "eviction point outside current window"
        );
        let nothing = RleSeries::empty(e, 0);
        let evicted = x.slice(s, new_start);
        self.advance(
            &nothing,
            y,
            new_start,
            &evicted,
            y,
            &mut SlideScratch::new(),
        );
    }

    /// Slides the recorded window to `span` without touching the
    /// accumulator.
    ///
    /// This is the activity-gated skip path (DESIGN.md §6.1): the caller
    /// has *proved* — via retention epochs plus boundary-run checks over
    /// the exact regions the slide adds and evicts — that every correction
    /// term [`advance`](Self::advance) would compute for this slide is a
    /// sum of zero products, so the
    /// accumulated lagged products for the new window are bitwise
    /// identical to the old ones and only the window bookkeeping moves.
    /// Calling this without that proof silently corrupts the accumulator.
    ///
    /// # Panics
    ///
    /// Panics if no data was appended yet or `span` is inverted.
    pub fn slide(&mut self, span: (Tick, Tick)) {
        assert!(self.window.is_some(), "slide on an empty correlator");
        assert!(span.0 <= span.1, "window start must precede end");
        self.window = Some(span);
    }

    /// Recomputes the accumulator from scratch over `x`'s full span with
    /// the RLE kernel ([`rle::correlate`]), replacing the current window.
    ///
    /// This is the cold path of the online analyzer: a pair's very first
    /// window (or the first after a stream heal) has no prior state to
    /// correct incrementally. Subsequent slides stay on the exact
    /// RLE-native corrections.
    pub fn refill(&mut self, x: &RleSeries, y: &RleSeries) {
        self.acc = rle::correlate(x, y, self.max_lag);
        self.window = Some((x.start(), x.end()));
    }
}

// The online analyzer's refresh pool moves correlators out of each root's
// map to whichever worker takes them, and explores roots with their maps
// in hand; keep the type thread-safe.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<IncrementalCorrelator>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use e2eprof_timeseries::DenseSeries;

    fn rles(start: u64, v: Vec<f64>) -> RleSeries {
        DenseSeries::new(Tick::new(start), v).to_sparse().to_rle()
    }

    fn signal(len: u64, seed: u64) -> RleSeries {
        // Deterministic pseudo-random sparse-ish signal.
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let v: Vec<f64> = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match state % 5 {
                    0 => 1.0,
                    1 => 2f64.sqrt(),
                    _ => 0.0,
                }
            })
            .collect();
        rles(0, v)
    }

    #[test]
    fn sliding_matches_recompute() {
        let x = signal(200, 7);
        let y = signal(230, 13);
        let max_lag = 25;
        let mut inc = IncrementalCorrelator::new(max_lag);

        // Slide a 60-tick window in 20-tick steps.
        let mut appended = 0u64;
        for step in 0..8u64 {
            let new_end = (step + 1) * 20 + 40;
            let chunk = x.slice(Tick::new(appended), Tick::new(new_end.min(200)));
            inc.append(&chunk, &y);
            appended = new_end.min(200);
            let new_start = appended.saturating_sub(60);
            inc.evict_to(Tick::new(new_start), &x, &y);

            let direct = rle::correlate(
                &x.slice(Tick::new(new_start), Tick::new(appended)),
                &y,
                max_lag,
            );
            assert!(
                inc.corr().max_abs_diff(&direct) < 1e-9,
                "step {step}: drifted from direct recompute"
            );
        }
    }

    #[test]
    fn first_append_establishes_window() {
        let x = rles(10, vec![1.0, 0.0, 2.0]);
        let mut inc = IncrementalCorrelator::new(4);
        assert_eq!(inc.window(), None);
        inc.append(&x, &x);
        assert_eq!(inc.window(), Some((Tick::new(10), Tick::new(13))));
    }

    #[test]
    fn evict_everything_returns_to_zero() {
        let x = signal(100, 3);
        let mut inc = IncrementalCorrelator::new(10);
        inc.append(&x, &x);
        inc.evict_to(Tick::new(100), &x, &x);
        assert!(inc.corr().values().iter().all(|&v| v.abs() < 1e-9));
    }

    #[test]
    fn evict_to_current_start_is_noop() {
        let x = signal(50, 5);
        let mut inc = IncrementalCorrelator::new(10);
        inc.append(&x, &x);
        let before = inc.corr().clone();
        inc.evict_to(Tick::new(0), &x, &x);
        assert_eq!(inc.corr(), &before);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn gap_in_appends_panics() {
        let mut inc = IncrementalCorrelator::new(4);
        inc.append(&rles(0, vec![1.0]), &rles(0, vec![1.0]));
        inc.append(&rles(5, vec![1.0]), &rles(0, vec![1.0]));
    }

    #[test]
    #[should_panic(expected = "empty correlator")]
    fn evict_before_append_panics() {
        let mut inc = IncrementalCorrelator::new(4);
        inc.evict_to(Tick::new(0), &rles(0, vec![1.0]), &rles(0, vec![1.0]));
    }

    #[test]
    fn refill_matches_first_append_bitwise() {
        let x = signal(120, 11);
        let y = signal(150, 17);
        let max_lag = 16;

        let mut appended = IncrementalCorrelator::new(max_lag);
        appended.append(&x, &y);

        let mut refilled = IncrementalCorrelator::new(max_lag);
        refilled.refill(&x, &y);

        assert_eq!(appended.window(), refilled.window());
        assert_eq!(appended.corr().values(), refilled.corr().values());

        // Both continue identically under subsequent corrections.
        appended.evict_to(Tick::new(30), &x, &y);
        refilled.evict_to(Tick::new(30), &x, &y);
        assert_eq!(appended.corr().values(), refilled.corr().values());
    }

    #[test]
    fn slide_scratch_holds_one_lag_tile_per_side() {
        let max_lag = 3 * rle::LAG_TILE as u64 + 5;
        let x = signal(2_000, 9);
        let mut inc = IncrementalCorrelator::new(max_lag);
        inc.append(&x.slice(Tick::new(0), Tick::new(1_000)), &x);
        let mut scratch = SlideScratch::new();
        inc.advance(
            &x.slice(Tick::new(1_000), Tick::new(2_000)),
            &x,
            Tick::new(500),
            &x.slice(Tick::new(0), Tick::new(500)),
            &x,
            &mut scratch,
        );
        assert_eq!(scratch.capacity(), 2 * rle::LAG_TILE);
        let direct = rle::correlate(&x.slice(Tick::new(500), Tick::new(2_000)), &x, max_lag);
        // Products reach ~150 and their double prefix sums run over
        // thousands of lags: rounding, not drift, at this tolerance.
        assert!(inc.corr().max_abs_diff(&direct) < 1e-6);
    }

    #[test]
    fn slide_moves_window_and_keeps_accumulator_bits() {
        let x = signal(80, 21);
        let mut inc = IncrementalCorrelator::new(12);
        inc.append(&x, &x);
        let before: Vec<u64> = inc.corr().values().iter().map(|v| v.to_bits()).collect();
        inc.slide((Tick::new(5), Tick::new(90)));
        assert_eq!(inc.window(), Some((Tick::new(5), Tick::new(90))));
        let after: Vec<u64> = inc.corr().values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(before, after);
    }

    #[test]
    #[should_panic(expected = "empty correlator")]
    fn slide_before_append_panics() {
        IncrementalCorrelator::new(4).slide((Tick::new(0), Tick::new(1)));
    }
}
