//! The density-function estimator (paper Section 3.5).
//!
//! The message traces collected at service nodes are converted to
//! time-series data using a density function `d(i)`: the square root of the
//! number of messages in the rectangular sampling window
//! `[i·τ − ω/2, i·τ + ω/2]` centered on tick `i`. The square root damps the
//! dominance of large bursts so correlation spikes reflect *timing*
//! alignment rather than sheer volume; the sampling window `ω` (an integer
//! multiple of `τ`, typically `50·τ`) smooths delay variance and suppresses
//! noise-induced spurious paths. Ticks whose window contains no messages
//! are not recorded at all — this is the input to burst compression.
//!
//! The estimator runs on the monitored node, so its cost is per *message*,
//! never per tick: a message opens its window at tick `lo` and closes it at
//! `hi + 1`, and because timestamps arrive in non-decreasing order both
//! sequences are non-decreasing too. Two FIFO queues hold them; draining
//! merges the queues once and emits each maximal constant-count stretch as
//! one [`CountRun`] — the run-length encoding falls out of the integration
//! instead of being recovered from a per-tick expansion.

use crate::rle::Run;
use crate::sparse::{SparseEntry, SparseSeries};
use crate::time::{Nanos, Quanta, Tick};
use std::collections::VecDeque;
use std::fmt;

/// A maximal stretch of consecutive ticks whose sampling windows all hold
/// the same non-zero number of messages — one run of the density series
/// before the square root is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountRun {
    /// First tick of the stretch.
    pub start: Tick,
    /// Number of ticks in the stretch (never zero).
    pub len: u64,
    /// Messages inside the sampling window of every tick of the stretch
    /// (never zero).
    pub count: u64,
}

impl CountRun {
    /// The density amplitude `√count` of the stretch.
    pub fn value(&self) -> f64 {
        (self.count as f64).sqrt()
    }
}

impl From<CountRun> for Run {
    fn from(r: CountRun) -> Run {
        Run::new(r.start, r.len, r.value())
    }
}

/// Why [`DensityEstimator::try_push`] refused a timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The timestamp precedes one already pushed.
    OutOfOrder,
    /// The message's sampling window reaches a tick that was already
    /// drained.
    Late,
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::OutOfOrder => write!(f, "timestamps must be non-decreasing"),
            PushError::Late => write!(
                f,
                "message affects an already-drained tick (drained too eagerly)"
            ),
        }
    }
}

impl std::error::Error for PushError {}

/// Streaming estimator turning non-decreasing message timestamps into a
/// sparse density series.
///
/// Used by tracer agents: push each observed message's timestamp, then
/// periodically drain finalized ticks for streaming (every `ΔW`) — as
/// count runs ([`drain_runs`](DensityEstimator::drain_runs), what the
/// tracer ships) or expanded per tick
/// ([`drain_chunk`](DensityEstimator::drain_chunk)) — or
/// [`finish`](DensityEstimator::finish) to flush everything for offline
/// analysis.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::{Quanta, Nanos, density::DensityEstimator};
/// let mut est = DensityEstimator::new(Quanta::from_millis(1), 3);
/// est.push(Nanos::from_millis(5));
/// est.push(Nanos::from_millis(5));
/// let series = est.finish();
/// assert_eq!(series.value_at(5.into()), 2f64.sqrt());
/// // ω = 3 ticks, so the window [4ms, 6ms] also covers ticks 4 and 6.
/// assert_eq!(series.value_at(4.into()), 2f64.sqrt());
/// assert_eq!(series.value_at(7.into()), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct DensityEstimator {
    quanta: Quanta,
    omega_half_ns: u64,
    /// First tick of every pushed message's window not yet integrated,
    /// non-decreasing front to back.
    opens: VecDeque<u64>,
    /// One past the last tick of the same windows, non-decreasing too.
    closes: VecDeque<u64>,
    /// Next tick to be emitted.
    cursor: u64,
    /// Messages whose window covers `cursor`.
    running: u64,
    /// Largest timestamp pushed so far (monotonicity check).
    last_ts: Option<Nanos>,
}

impl DensityEstimator {
    /// Creates an estimator with time quantum `quanta` (`τ`) and sampling
    /// window of `omega_ticks · τ` (`ω`).
    ///
    /// # Panics
    ///
    /// Panics if `omega_ticks` is zero.
    pub fn new(quanta: Quanta, omega_ticks: u64) -> Self {
        assert!(omega_ticks > 0, "sampling window must be positive");
        DensityEstimator {
            quanta,
            omega_half_ns: omega_ticks * quanta.duration().as_nanos() / 2,
            opens: VecDeque::new(),
            closes: VecDeque::new(),
            cursor: 0,
            running: 0,
            last_ts: None,
        }
    }

    /// One-shot conversion of a sorted timestamp slice.
    ///
    /// # Panics
    ///
    /// Panics if timestamps are not non-decreasing.
    pub fn from_timestamps(quanta: Quanta, omega_ticks: u64, timestamps: &[Nanos]) -> SparseSeries {
        let mut est = DensityEstimator::new(quanta, omega_ticks);
        for &ts in timestamps {
            est.push(ts);
        }
        est.finish()
    }

    /// The configured time quantum.
    pub fn quanta(&self) -> Quanta {
        self.quanta
    }

    /// Records one message observed at `ts`.
    ///
    /// # Panics
    ///
    /// Panics if `ts` precedes a previously pushed timestamp, or if the
    /// message would affect an already-drained tick.
    pub fn push(&mut self, ts: Nanos) {
        if let Err(e) = self.try_push(ts) {
            panic!("{e}");
        }
    }

    /// Records one message observed at `ts` unless it arrives too late to
    /// be represented — the form for callers that must survive a stepped
    /// clock or a late capture. A refused timestamp leaves the estimator
    /// untouched.
    ///
    /// # Errors
    ///
    /// [`PushError::OutOfOrder`] if `ts` precedes a previously pushed
    /// timestamp, [`PushError::Late`] if the message would affect an
    /// already-drained tick.
    pub fn try_push(&mut self, ts: Nanos) -> Result<(), PushError> {
        if self.last_ts.is_some_and(|last| ts < last) {
            return Err(PushError::OutOfOrder);
        }
        let lo = self.frontier(ts).index();
        if lo < self.cursor {
            return Err(PushError::Late);
        }
        self.last_ts = Some(ts);
        // hi = floor((s + ω/2) / τ); lo ≤ hi because ω ≥ τ.
        let hi = (ts.as_nanos() + self.omega_half_ns) / self.quanta.duration().as_nanos();
        self.opens.push_back(lo);
        self.closes.push_back(hi + 1);
        Ok(())
    }

    /// The first tick a message at `ts` would influence; ticks strictly
    /// before this are final once all messages up to `ts` are pushed.
    pub fn frontier(&self, ts: Nanos) -> Tick {
        let tau = self.quanta.duration().as_nanos();
        let s = ts.as_nanos();
        // lo = ceil((s - ω/2) / τ) clamped to 0.
        let lo = if s <= self.omega_half_ns {
            0
        } else {
            (s - self.omega_half_ns).div_ceil(tau)
        };
        Tick::new(lo)
    }

    /// Integrates the pending window boundaries over `[cursor, end)`,
    /// handing `emit` each maximal stretch of constant non-zero count, and
    /// advances the cursor to `end`.
    ///
    /// Both queues are non-decreasing, so one merge visits every boundary
    /// below `end` once. A boundary where as many windows close as open
    /// leaves the count — and therefore the stretch — unbroken; a stretch
    /// still open at `end` is cut there and resumes in the next drain.
    fn integrate(&mut self, end: u64, mut emit: impl FnMut(CountRun)) {
        assert!(end >= self.cursor, "drain cursor moved backwards");
        let mut emit = |from: u64, to: u64, count| {
            if count > 0 && to > from {
                emit(CountRun {
                    start: Tick::new(from),
                    len: to - from,
                    count,
                });
            }
        };
        let mut pos = self.cursor;
        let mut running = self.running;
        loop {
            let open = self.opens.front().copied().filter(|&k| k < end);
            let close = self.closes.front().copied().filter(|&k| k < end);
            let k = match (open, close) {
                (Some(o), Some(c)) => o.min(c),
                (Some(k), None) | (None, Some(k)) => k,
                (None, None) => break,
            };
            // Every window opens before it closes, so applying the opens
            // at `k` first keeps the count from dipping below zero.
            let mut next = running;
            while self.opens.front() == Some(&k) {
                self.opens.pop_front();
                next += 1;
            }
            while self.closes.front() == Some(&k) {
                self.closes.pop_front();
                next -= 1;
            }
            if next == running {
                continue;
            }
            emit(pos, k, running);
            pos = k;
            running = next;
        }
        emit(pos, end, running);
        self.cursor = end;
        self.running = running;
    }

    /// Replaces `out` with the finalized count runs of `[cursor, end)` and
    /// advances the cursor — run for run (boundaries, lengths, and
    /// [`CountRun::value`] bits) what
    /// [`drain_chunk(end)`](DensityEstimator::drain_chunk)`.to_rle()`
    /// yields, at a cost proportional to the messages drained instead of
    /// the ticks they cover.
    ///
    /// The caller's guarantee is the one of `drain_chunk`.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the current cursor.
    pub fn drain_runs(&mut self, end: Tick, out: &mut Vec<CountRun>) {
        out.clear();
        self.integrate(end.index(), |run| out.push(run));
    }

    /// Emits the finalized density series for `[cursor, end)` and advances
    /// the cursor.
    ///
    /// The caller guarantees that every message with a sampling window
    /// touching a tick before `end` has already been pushed (i.e. all
    /// messages with timestamp `< end·τ + ω/2`).
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the current cursor.
    pub fn drain_chunk(&mut self, end: Tick) -> SparseSeries {
        let start = self.cursor;
        let mut entries = Vec::new();
        self.integrate(end.index(), |run| {
            let (from, value) = (run.start.index(), run.value());
            entries.extend((from..from + run.len).map(|t| SparseEntry::new(Tick::new(t), value)));
        });
        SparseSeries::from_parts(Tick::new(start), end.index() - start, entries)
    }

    /// Flushes all remaining ticks and consumes the estimator.
    ///
    /// When used incrementally (after [`drain_chunk`] calls) this returns
    /// only the not-yet-drained tail; otherwise the full series from tick 0.
    ///
    /// [`drain_chunk`]: DensityEstimator::drain_chunk
    pub fn finish(mut self) -> SparseSeries {
        let end = self.end();
        self.drain_chunk(end)
    }

    /// One past the last tick a pushed message's window covers, or the
    /// cursor if that is later — where [`finish`](Self::finish) drains to.
    pub fn end(&self) -> Tick {
        // The last window to close is at the back of its queue.
        Tick::new(
            self.closes
                .back()
                .map_or(self.cursor, |&c| c.max(self.cursor)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(omega: u64) -> DensityEstimator {
        DensityEstimator::new(Quanta::from_millis(1), omega)
    }

    #[test]
    fn single_message_covers_omega_window() {
        let mut e = est(5); // ω/2 = 2.5ms
        e.push(Nanos::from_millis(10));
        let s = e.finish();
        // ticks 8..=12 covered (|t-10| <= 2.5)
        for t in 8..=12 {
            assert_eq!(s.value_at(Tick::new(t)), 1.0, "tick {t}");
        }
        assert_eq!(s.value_at(Tick::new(7)), 0.0);
        assert_eq!(s.value_at(Tick::new(13)), 0.0);
    }

    #[test]
    fn density_is_sqrt_of_count() {
        let mut e = est(1); // window = exactly the tick (±0.5ms)
        for _ in 0..9 {
            e.push(Nanos::from_millis(4));
        }
        let s = e.finish();
        assert_eq!(s.value_at(Tick::new(4)), 3.0);
        assert_eq!(s.value_at(Tick::new(5)), 0.0);
    }

    #[test]
    fn message_near_zero_clamps_window() {
        let mut e = est(10);
        e.push(Nanos::from_millis(1));
        let s = e.finish();
        assert_eq!(s.value_at(Tick::new(0)), 1.0);
        assert_eq!(s.value_at(Tick::new(6)), 1.0);
        assert_eq!(s.value_at(Tick::new(7)), 0.0);
    }

    #[test]
    fn chunked_drain_equals_one_shot() {
        let ts: Vec<Nanos> = [3u64, 4, 4, 9, 15, 15, 15, 22, 40]
            .iter()
            .map(|&ms| Nanos::from_millis(ms))
            .collect();
        let one_shot = DensityEstimator::from_timestamps(Quanta::from_millis(1), 5, &ts);

        let mut chunked = DensityEstimator::new(Quanta::from_millis(1), 5);
        let mut acc: Option<SparseSeries> = None;
        let mut i = 0;
        // Drain at tick 10 after pushing everything with ts < 10ms + 2.5ms.
        for drain_at in [10u64, 30] {
            let horizon = Nanos::from_millis(drain_at) + Nanos::from_micros(2_500);
            while i < ts.len() && ts[i] < horizon {
                chunked.push(ts[i]);
                i += 1;
            }
            let chunk = chunked.drain_chunk(Tick::new(drain_at));
            match &mut acc {
                None => acc = Some(chunk),
                Some(a) => a.append_chunk(&chunk),
            }
        }
        while i < ts.len() {
            chunked.push(ts[i]);
            i += 1;
        }
        let tail = chunked.finish();
        let mut acc = acc.expect("chunks drained");
        acc.append_chunk(&tail);

        for t in 0..one_shot.end().index() {
            assert_eq!(
                acc.value_at(Tick::new(t)),
                one_shot.value_at(Tick::new(t)),
                "tick {t}"
            );
        }
    }

    #[test]
    fn overlapping_bursts_accumulate() {
        let mut e = est(5);
        e.push(Nanos::from_millis(10));
        e.push(Nanos::from_millis(12));
        let s = e.finish();
        // tick 11 sees both (dist 1 and 1), tick 9 sees only the first.
        assert_eq!(s.value_at(Tick::new(11)), 2f64.sqrt());
        assert_eq!(s.value_at(Tick::new(9)), 1.0);
        assert_eq!(s.value_at(Tick::new(14)), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_travel() {
        let mut e = est(5);
        e.push(Nanos::from_millis(10));
        e.push(Nanos::from_millis(9));
    }

    #[test]
    #[should_panic(expected = "already-drained")]
    fn rejects_message_behind_drain_cursor() {
        let mut e = est(1);
        e.push(Nanos::from_millis(2));
        let _ = e.drain_chunk(Tick::new(10));
        e.push(Nanos::from_millis(5)); // affects tick 5 < 10
    }

    #[test]
    fn try_push_refuses_late_and_out_of_order_without_side_effects() {
        let mut e = est(1);
        e.push(Nanos::from_millis(2));
        let _ = e.drain_chunk(Tick::new(10));
        assert_eq!(e.try_push(Nanos::from_millis(5)), Err(PushError::Late));
        assert_eq!(
            e.try_push(Nanos::from_millis(1)),
            Err(PushError::OutOfOrder)
        );
        // The refused timestamps left nothing behind: the next chunk holds
        // only the accepted message.
        assert_eq!(e.try_push(Nanos::from_millis(12)), Ok(()));
        let s = e.drain_chunk(Tick::new(20));
        assert_eq!(s.num_entries(), 1);
        assert_eq!(s.value_at(Tick::new(12)), 1.0);
    }

    #[test]
    fn drain_runs_are_the_rle_of_the_chunk() {
        // Windows that abut (one closes where the next opens: ticks 3|4),
        // overlap (10, 11), and straddle the drain boundary (tick 20).
        let stamps = [2u64, 5, 10, 11, 11, 19, 30];
        let mut by_run = est(3);
        let mut by_tick = est(3);
        for ms in stamps {
            by_run.push(Nanos::from_millis(ms));
            by_tick.push(Nanos::from_millis(ms));
        }
        let mut runs = Vec::new();
        for end in [20u64, 20, 40] {
            by_run.drain_runs(Tick::new(end), &mut runs);
            let want = by_tick.drain_chunk(Tick::new(end)).to_rle();
            let got: Vec<Run> = runs.iter().map(|&r| r.into()).collect();
            assert_eq!(got, want.runs(), "drain to {end}");
        }
        // 2 ms covers ticks 1..=3 and 5 ms covers 4..=6: net change zero at
        // tick 4, so the two windows are one run.
        by_run = est(3);
        by_run.push(Nanos::from_millis(2));
        by_run.push(Nanos::from_millis(5));
        by_run.drain_runs(Tick::new(10), &mut runs);
        assert_eq!(
            runs,
            vec![CountRun {
                start: Tick::new(1),
                len: 6,
                count: 1
            }]
        );
    }

    #[test]
    fn frontier_marks_first_affected_tick() {
        let e = est(5);
        assert_eq!(e.frontier(Nanos::from_millis(10)), Tick::new(8));
        assert_eq!(e.frontier(Nanos::from_millis(1)), Tick::new(0));
    }

    #[test]
    fn empty_estimator_finishes_empty() {
        let e = est(5);
        let s = e.finish();
        assert_eq!(s.num_entries(), 0);
    }
}
