//! Sliding-window storage for streamed series (Algorithm 1's buffers).
//!
//! The analyzer maintains, per edge signal, the most recent stretch of the
//! density series. Chunks of `ΔW` ticks arrive from tracer agents; the
//! window retains at most `capacity` ticks and evicts the oldest data.
//!
//! The capacity is typically `W + T_u` rather than just `W`: the correlated
//! *target* signal must stay available `T_u` ticks past the source window so
//! that bounded-lag correlation never reads unmaterialized (future) data.
//!
//! Storage is a run deque with amortized front eviction: appending a chunk
//! pushes its runs at the back (O(runs appended)) and eviction pops whole
//! stale runs off the front plus clips at most one straddler (O(runs
//! evicted)), so steady-state ingest never rebuilds the retained series.
//! The invariant: after every append, the deque holds exactly the runs of
//! `[end − min(len, capacity), end)`, each run clipped to that span —
//! identical to slicing a full-history series, just without ever storing
//! the history. [`series`](SlidingWindow::series) and
//! [`view`](SlidingWindow::view) materialize on demand.

use crate::rle::{RleSeries, Run};
use crate::time::Tick;
use std::collections::VecDeque;

/// A bounded window over a run-length-encoded signal.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::{window::SlidingWindow, RleSeries, Run, Tick};
/// let mut w = SlidingWindow::new(10);
/// w.append_chunk(&RleSeries::from_parts(Tick::new(0), 8, vec![Run::new(Tick::new(2), 1, 1.0)]));
/// w.append_chunk(&RleSeries::from_parts(Tick::new(8), 8, vec![Run::new(Tick::new(9), 2, 2.0)]));
/// // 16 ticks seen, capacity 10: window now spans [6, 16).
/// assert_eq!(w.start(), Tick::new(6));
/// assert_eq!(w.end(), Tick::new(16));
/// assert_eq!(w.series().value_at(Tick::new(2)), 0.0); // evicted
/// assert_eq!(w.series().value_at(Tick::new(10)), 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    capacity: u64,
    /// Retained span `[start, end)`; `None` before any data.
    span: Option<(Tick, Tick)>,
    runs: VecDeque<Run>,
    /// Change epoch: bumped exactly when nonzero content enters or leaves
    /// the retained span (a run appended, merged, popped, or clipped, or
    /// the window reset across a gap). Appending or evicting all-zero
    /// spans does *not* bump it — run boundaries are the only events that
    /// can change any window sum, energy, or lagged product, so an
    /// unchanged epoch certifies the retained nonzero runs are bitwise
    /// identical (at identical absolute ticks) to when the epoch was read.
    epoch: u64,
}

impl SlidingWindow {
    /// Creates an empty window retaining at most `capacity` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            capacity,
            span: None,
            runs: VecDeque::new(),
            epoch: 0,
        }
    }

    /// The retention capacity in ticks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The change epoch: a monotone counter that advances exactly when a
    /// run boundary enters or leaves the retained span (see the field
    /// docs). Two equal readings bracket a period in which no nonzero
    /// content was appended, evicted, or reset — every retained run is
    /// bitwise unchanged at the same absolute ticks.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether any retained (nonzero) run intersects `[from, to)`.
    ///
    /// `O(log runs)`. Only *retained* runs are visible: combine with an
    /// unchanged [`epoch`](Self::epoch) to certify a span was run-free
    /// over a whole period (eviction of a nonzero run bumps the epoch, so
    /// an unchanged epoch means nothing escaped this query's view).
    pub fn has_runs_in(&self, from: Tick, to: Tick) -> bool {
        if to <= from {
            return false;
        }
        let i = self.runs.partition_point(|r| r.end() <= from);
        self.runs.get(i).map(|r| r.start() < to).unwrap_or(false)
    }

    /// The start of the first retained run that ends after `after` —
    /// where, scanning forward from `after`, the window's content next
    /// becomes nonzero (possibly before `after`, if that run straddles
    /// it). `None` when every retained run ends at or before `after`.
    ///
    /// `O(log runs)`, like [`has_runs_in`](Self::has_runs_in): for any
    /// `to`, `has_runs_in(after, to)` is exactly whether this start is
    /// before `to` (and `after < to`).
    pub fn next_run_start(&self, after: Tick) -> Option<Tick> {
        let i = self.runs.partition_point(|r| r.end() <= after);
        self.runs.get(i).map(|r| r.start())
    }

    /// Whether any data has been appended.
    pub fn is_empty(&self) -> bool {
        self.span.is_none()
    }

    /// First retained tick (the window start). Tick zero before any data.
    pub fn start(&self) -> Tick {
        self.span.map(|(s, _)| s).unwrap_or(Tick::ZERO)
    }

    /// One past the last retained tick. Tick zero before any data.
    pub fn end(&self) -> Tick {
        self.span.map(|(_, e)| e).unwrap_or(Tick::ZERO)
    }

    /// Appends the next contiguous chunk, evicting old data past capacity.
    ///
    /// The first chunk establishes the window's origin; later chunks must
    /// start exactly at [`end`](SlidingWindow::end).
    ///
    /// # Panics
    ///
    /// Panics if a non-first chunk is not contiguous.
    pub fn append_chunk(&mut self, chunk: &RleSeries) {
        match self.span {
            None => {
                self.span = Some((chunk.start(), chunk.end()));
                self.runs.extend(chunk.runs().iter().copied());
                if !self.runs.is_empty() {
                    self.epoch += 1;
                }
            }
            Some((_, end)) => {
                assert_eq!(
                    chunk.start(),
                    end,
                    "appended chunk must be contiguous with the series"
                );
                self.push_runs(chunk.end(), chunk.runs().iter().copied());
            }
        }
        self.evict();
    }

    /// Appends one contiguous chunk's runs, merging the first with the
    /// back run when it continues it, and advancing the span to `new_end`.
    fn push_runs(&mut self, new_end: Tick, runs: impl Iterator<Item = Run>) {
        let mut first = true;
        let mut any = false;
        for r in runs {
            any = true;
            if std::mem::take(&mut first) {
                if let Some(last) = self.runs.back_mut() {
                    if last.end() == r.start() && last.value().to_bits() == r.value().to_bits() {
                        last.extend(r.len());
                        continue;
                    }
                }
            }
            self.runs.push_back(r);
        }
        if any {
            self.epoch += 1;
        }
        let span = self.span.as_mut().expect("push_runs on empty window");
        span.1 = new_end;
    }

    /// Drops runs that fell behind `end − capacity`: whole stale runs pop
    /// off the front, one straddler is clipped in place. Amortized O(1)
    /// per appended run — each run is popped at most once.
    fn evict(&mut self) {
        let Some((start, end)) = self.span else {
            return;
        };
        if end - start <= self.capacity {
            return;
        }
        let new_start = Tick::new(end.index() - self.capacity);
        let mut changed = false;
        while let Some(front) = self.runs.front() {
            if front.end() <= new_start {
                self.runs.pop_front();
                changed = true;
            } else {
                break;
            }
        }
        if let Some(front) = self.runs.front_mut() {
            if front.start() < new_start {
                *front = Run::new(new_start, front.end() - new_start, front.value());
                changed = true;
            }
        }
        if changed {
            self.epoch += 1;
        }
        self.span = Some((new_start, end));
    }

    /// The retained series (empty series at tick zero before any data).
    pub fn series(&self) -> RleSeries {
        match self.span {
            None => RleSeries::empty(Tick::ZERO, 0),
            Some((start, end)) => {
                RleSeries::from_parts(start, end - start, self.runs.iter().copied().collect())
            }
        }
    }

    /// `[from, to)` clamped to the retained span, as `[start, end)`.
    fn clamp(&self, from: Tick, to: Tick) -> (Tick, Tick) {
        match self.span {
            None => (from, to.max(from)),
            Some((start, end)) => {
                let from = from.max(start);
                (from, to.min(end).max(from))
            }
        }
    }

    /// A view of `[from, to)` clamped to the retained span.
    pub fn view(&self, from: Tick, to: Tick) -> RleSeries {
        let (from, to) = self.clamp(from, to);
        if self.span.is_none() {
            return RleSeries::empty(from, to - from);
        }
        let mut runs = Vec::new();
        // First run ending past `from` (runs are ordered by start *and*
        // end, so the eligible suffix is contiguous).
        let mut i = self.runs.partition_point(|r| r.end() <= from);
        while let Some(r) = self.runs.get(i) {
            let s = r.start().max(from);
            let e = r.end().min(to);
            if s >= e {
                // Past `to` — or an empty range sitting inside this run.
                break;
            }
            runs.push(Run::new(s, e - s, r.value()));
            i += 1;
        }
        RleSeries::from_parts(from, to - from, runs)
    }

    /// Moves `view`, a view cut from this window earlier, to `[from, to)`
    /// clamped to the retained span the way [`view`](Self::view) clamps
    /// it, keeping its runs as they are: no run is looked up, copied or
    /// clipped.
    ///
    /// The result is `self.view(from, to)` exactly when those runs are the
    /// ones a fresh cut would find — when this window still retains the
    /// runs `view` was cut from, and none of them reaches into the two
    /// spans the boundaries moved across. The online analyzer's quiet
    /// predicate proves both of every window it re-stamps (DESIGN.md
    /// §6.1).
    pub fn restamp(&self, view: &mut RleSeries, from: Tick, to: Tick) {
        let (from, to) = self.clamp(from, to);
        let runs = std::mem::replace(view, RleSeries::empty(from, 0)).into_runs();
        *view = RleSeries::from_parts(from, to - from, runs);
    }

    /// Appends a chunk, recovering from stream discontinuities:
    ///
    /// * a chunk starting *past* the retained end (frames were lost in
    ///   transit) resets the window to the chunk — returns `true`;
    /// * a chunk *overlapping* retained data (a restarted tracer replaying
    ///   history from its origin) has its stale prefix dropped and only
    ///   the novel suffix appended — returns `false`;
    /// * a chunk entirely within retained data is ignored — returns
    ///   `false`.
    pub fn append_or_reset(&mut self, chunk: &RleSeries) -> bool {
        self.extend_runs(chunk.start(), chunk.len(), chunk.runs().iter().copied())
    }

    /// [`append_or_reset`](Self::append_or_reset) as a streaming sink: the
    /// chunk is described by its span (`start`, `len`) and an iterator of
    /// its runs, consumed directly into the deque with no intermediate
    /// [`RleSeries`] — the analyzer feeds a wire
    /// [`FrameCursor`](crate::wire::FrameCursor) in here, making
    /// steady-state ingest allocation-free. On a stale (fully retained)
    /// chunk the iterator is not consumed.
    pub fn extend_runs(
        &mut self,
        start: Tick,
        len: u64,
        runs: impl IntoIterator<Item = Run>,
    ) -> bool {
        let chunk_end = start + len;
        match self.span {
            None => {
                self.span = Some((start, chunk_end));
                self.runs.extend(runs);
                if !self.runs.is_empty() {
                    self.epoch += 1;
                }
                self.evict();
                false
            }
            Some((_, end)) if start > end => {
                // A true gap: reset to the chunk verbatim (it is the
                // entire retained history; eviction waits for the next
                // append, exactly as the reset-by-clone always behaved).
                // A reset discards everything retained, so the epoch
                // always advances — nothing cached across it is valid.
                self.runs.clear();
                self.span = Some((start, chunk_end));
                self.runs.extend(runs);
                self.epoch += 1;
                true
            }
            Some((_, end)) if chunk_end <= end => false, // stale duplicate
            Some((_, end)) => {
                // Overlap or contiguous: append the novel suffix, clipping
                // a run that straddles the retained end.
                let novel = runs.into_iter().filter_map(move |r| {
                    if r.end() <= end {
                        None
                    } else if r.start() < end {
                        Some(Run::new(end, r.end() - end, r.value()))
                    } else {
                        Some(r)
                    }
                });
                self.push_runs(chunk_end, novel);
                self.evict();
                false
            }
        }
    }

    /// The most recent `ticks`-long view (shorter if less data is retained).
    pub fn latest(&self, ticks: u64) -> RleSeries {
        let end = self.end();
        let from = end.saturating_sub(ticks).max(self.start());
        self.view(from, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rle::Run;

    fn chunk(start: u64, len: u64, runs: Vec<Run>) -> RleSeries {
        RleSeries::from_parts(Tick::new(start), len, runs)
    }

    #[test]
    fn first_chunk_establishes_origin() {
        let mut w = SlidingWindow::new(100);
        assert!(w.is_empty());
        w.append_chunk(&chunk(40, 10, vec![Run::new(Tick::new(45), 1, 1.0)]));
        assert_eq!(w.start(), Tick::new(40));
        assert_eq!(w.end(), Tick::new(50));
        assert!(!w.is_empty());
    }

    #[test]
    fn eviction_keeps_capacity() {
        let mut w = SlidingWindow::new(5);
        w.append_chunk(&chunk(0, 4, vec![Run::new(Tick::new(0), 4, 1.0)]));
        w.append_chunk(&chunk(4, 4, vec![Run::new(Tick::new(4), 4, 2.0)]));
        assert_eq!(w.start(), Tick::new(3));
        assert_eq!(w.end(), Tick::new(8));
        assert_eq!(w.series().value_at(Tick::new(2)), 0.0);
        assert_eq!(w.series().value_at(Tick::new(3)), 1.0);
        assert_eq!(w.series().value_at(Tick::new(7)), 2.0);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn noncontiguous_chunk_panics() {
        let mut w = SlidingWindow::new(100);
        w.append_chunk(&chunk(0, 10, vec![]));
        w.append_chunk(&chunk(11, 10, vec![]));
    }

    #[test]
    fn view_clamps_to_span() {
        let mut w = SlidingWindow::new(100);
        w.append_chunk(&chunk(10, 10, vec![Run::new(Tick::new(12), 2, 3.0)]));
        let v = w.view(Tick::new(0), Tick::new(15));
        assert_eq!(v.start(), Tick::new(10));
        assert_eq!(v.end(), Tick::new(15));
        assert_eq!(v.value_at(Tick::new(12)), 3.0);
    }

    #[test]
    fn empty_view_inside_a_run_has_no_runs() {
        let mut w = SlidingWindow::new(100);
        w.append_chunk(&chunk(10, 10, vec![Run::new(Tick::new(12), 4, 3.0)]));
        let v = w.view(Tick::new(14), Tick::new(14));
        assert_eq!((v.start(), v.len(), v.num_runs()), (Tick::new(14), 0, 0));
    }

    #[test]
    fn latest_returns_tail() {
        let mut w = SlidingWindow::new(100);
        w.append_chunk(&chunk(0, 20, vec![Run::new(Tick::new(19), 1, 5.0)]));
        let v = w.latest(4);
        assert_eq!(v.start(), Tick::new(16));
        assert_eq!(v.len(), 4);
        assert_eq!(v.value_at(Tick::new(19)), 5.0);
    }

    #[test]
    fn gap_resets_window() {
        let mut w = SlidingWindow::new(100);
        w.append_chunk(&chunk(0, 10, vec![Run::new(Tick::new(2), 1, 1.0)]));
        // Tracer restarted: next chunk starts at 50 instead of 10.
        let healed = w.append_or_reset(&chunk(50, 10, vec![Run::new(Tick::new(55), 1, 2.0)]));
        assert!(healed);
        assert_eq!(w.start(), Tick::new(50));
        assert_eq!(w.series().value_at(Tick::new(2)), 0.0);
        assert_eq!(w.series().value_at(Tick::new(55)), 2.0);
        // Contiguous appends keep working and report no healing.
        assert!(!w.append_or_reset(&chunk(60, 5, vec![])));
        assert_eq!(w.end(), Tick::new(65));
    }

    #[test]
    fn overlapping_replay_appends_only_the_novel_suffix() {
        let mut w = SlidingWindow::new(100);
        w.append_chunk(&chunk(0, 10, vec![Run::new(Tick::new(3), 1, 1.0)]));
        // Restarted tracer replays from 0 up to tick 15.
        let healed = w.append_or_reset(&chunk(
            0,
            15,
            vec![
                Run::new(Tick::new(3), 1, 1.0),
                Run::new(Tick::new(12), 1, 2.0),
            ],
        ));
        assert!(!healed);
        assert_eq!(w.end(), Tick::new(15));
        assert_eq!(w.series().value_at(Tick::new(3)), 1.0);
        assert_eq!(w.series().value_at(Tick::new(12)), 2.0);
        // A fully-stale chunk is ignored.
        assert!(!w.append_or_reset(&chunk(0, 10, vec![])));
        assert_eq!(w.end(), Tick::new(15));
    }

    #[test]
    fn replayed_run_straddling_the_end_is_clipped() {
        let mut w = SlidingWindow::new(100);
        w.append_chunk(&chunk(0, 10, vec![Run::new(Tick::new(8), 2, 1.5)]));
        // Replay covers [0, 14) with one run straddling the retained end.
        assert!(!w.append_or_reset(&chunk(0, 14, vec![Run::new(Tick::new(8), 5, 1.5)])));
        assert_eq!(w.end(), Tick::new(14));
        // The straddler's novel part merges with the retained run.
        assert_eq!(w.series().num_runs(), 1);
        assert_eq!(w.series().runs()[0], Run::new(Tick::new(8), 5, 1.5));
    }

    #[test]
    fn append_merges_run_continuing_across_chunks() {
        let mut w = SlidingWindow::new(100);
        w.append_chunk(&chunk(0, 10, vec![Run::new(Tick::new(8), 2, 1.0)]));
        w.append_chunk(&chunk(10, 10, vec![Run::new(Tick::new(10), 3, 1.0)]));
        assert_eq!(w.series().num_runs(), 1);
        assert_eq!(w.series().runs()[0], Run::new(Tick::new(8), 5, 1.0));
    }

    #[test]
    fn eviction_clips_a_straddling_run() {
        let mut w = SlidingWindow::new(6);
        w.append_chunk(&chunk(0, 8, vec![Run::new(Tick::new(1), 6, 2.0)]));
        assert_eq!(w.start(), Tick::new(2));
        assert_eq!(w.series().runs(), &[Run::new(Tick::new(2), 5, 2.0)]);
        w.append_chunk(&chunk(8, 4, vec![]));
        assert_eq!(w.start(), Tick::new(6));
        assert_eq!(w.series().runs(), &[Run::new(Tick::new(6), 1, 2.0)]);
        w.append_chunk(&chunk(12, 4, vec![]));
        assert_eq!(w.start(), Tick::new(10));
        assert_eq!(w.series().num_runs(), 0);
    }

    #[test]
    fn extend_runs_streams_without_an_intermediate_series() {
        let mut w = SlidingWindow::new(50);
        assert!(!w.extend_runs(
            Tick::new(0),
            10,
            [Run::new(Tick::new(2), 3, 1.0)].into_iter()
        ));
        assert!(!w.extend_runs(
            Tick::new(10),
            10,
            [Run::new(Tick::new(10), 2, 1.0)].into_iter()
        ));
        let mut reference = SlidingWindow::new(50);
        reference.append_chunk(&chunk(0, 10, vec![Run::new(Tick::new(2), 3, 1.0)]));
        reference.append_chunk(&chunk(10, 10, vec![Run::new(Tick::new(10), 2, 1.0)]));
        assert_eq!(w.series(), reference.series());
    }

    #[test]
    fn extend_runs_does_not_consume_a_stale_chunk() {
        let mut w = SlidingWindow::new(50);
        w.append_chunk(&chunk(0, 20, vec![]));
        let mut consumed = false;
        let healed = w.extend_runs(
            Tick::new(5),
            10,
            std::iter::from_fn(|| {
                consumed = true;
                None::<Run>
            }),
        );
        assert!(!healed);
        assert!(!consumed, "stale chunk's runs must not be read");
        assert_eq!(w.end(), Tick::new(20));
    }

    #[test]
    fn epoch_ignores_zero_only_appends_and_evictions() {
        let mut w = SlidingWindow::new(6);
        assert_eq!(w.epoch(), 0);
        // All-zero chunks never bump, even across evictions of zero spans.
        w.append_chunk(&chunk(0, 4, vec![]));
        w.append_chunk(&chunk(4, 4, vec![]));
        w.append_chunk(&chunk(8, 4, vec![]));
        assert_eq!(w.epoch(), 0);
        // A nonzero run entering bumps once.
        w.append_chunk(&chunk(12, 4, vec![Run::new(Tick::new(13), 2, 1.0)]));
        let e = w.epoch();
        assert!(e > 0);
        // Zero appends that do not yet evict the run: unchanged.
        w.append_chunk(&chunk(16, 1, vec![]));
        assert_eq!(w.epoch(), e);
        // The run starts clipping out of retention: bumps again.
        w.append_chunk(&chunk(17, 4, vec![]));
        assert!(w.epoch() > e);
    }

    #[test]
    fn epoch_bumps_on_gap_reset_and_merge() {
        let mut w = SlidingWindow::new(100);
        w.append_chunk(&chunk(0, 10, vec![Run::new(Tick::new(8), 2, 1.0)]));
        let e0 = w.epoch();
        // A merged continuation is still new content.
        w.append_chunk(&chunk(10, 10, vec![Run::new(Tick::new(10), 3, 1.0)]));
        let e1 = w.epoch();
        assert!(e1 > e0);
        // A gap reset always bumps, even to an all-zero chunk.
        assert!(w.append_or_reset(&chunk(50, 10, vec![])));
        assert!(w.epoch() > e1);
    }

    #[test]
    fn unchanged_epoch_means_identical_runs() {
        let mut w = SlidingWindow::new(40);
        w.append_chunk(&chunk(0, 10, vec![Run::new(Tick::new(4), 3, 2.0)]));
        let e = w.epoch();
        let before = w.series();
        w.append_chunk(&chunk(10, 10, vec![]));
        w.append_chunk(&chunk(20, 10, vec![]));
        assert_eq!(w.epoch(), e);
        assert_eq!(w.series().runs(), before.runs());
    }

    #[test]
    fn has_runs_in_finds_intersections() {
        let mut w = SlidingWindow::new(100);
        w.append_chunk(&chunk(0, 30, vec![Run::new(Tick::new(10), 5, 1.0)]));
        assert!(w.has_runs_in(Tick::new(0), Tick::new(30)));
        assert!(w.has_runs_in(Tick::new(14), Tick::new(16)));
        assert!(w.has_runs_in(Tick::new(0), Tick::new(11)));
        assert!(!w.has_runs_in(Tick::new(0), Tick::new(10)));
        assert!(!w.has_runs_in(Tick::new(15), Tick::new(30)));
        assert!(!w.has_runs_in(Tick::new(20), Tick::new(20)));
        assert!(!SlidingWindow::new(5).has_runs_in(Tick::new(0), Tick::new(100)));
    }

    #[test]
    fn next_run_start_is_where_has_runs_in_first_answers_yes() {
        let mut w = SlidingWindow::new(100);
        let runs = vec![
            Run::new(Tick::new(10), 5, 1.0),
            Run::new(Tick::new(20), 2, 2.0),
        ];
        w.append_chunk(&chunk(0, 30, runs));
        assert_eq!(w.next_run_start(Tick::ZERO), Some(Tick::new(10)));
        // A run straddling `after` counts, at its own start.
        assert_eq!(w.next_run_start(Tick::new(12)), Some(Tick::new(10)));
        assert_eq!(w.next_run_start(Tick::new(15)), Some(Tick::new(20)));
        assert_eq!(w.next_run_start(Tick::new(22)), None);
        for after in 0..30 {
            for to in after + 1..=30 {
                let (a, b) = (Tick::new(after), Tick::new(to));
                let first = w.next_run_start(a);
                assert_eq!(w.has_runs_in(a, b), first.is_some_and(|s| s < b));
            }
        }
    }

    #[test]
    fn empty_window_views_are_empty() {
        let w = SlidingWindow::new(10);
        assert_eq!(w.series().len(), 0);
        assert_eq!(w.view(Tick::new(5), Tick::new(9)).len(), 4);
        assert_eq!(w.latest(3).len(), 0);
    }
}
