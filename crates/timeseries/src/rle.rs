//! Run-length-encoded series representation.
//!
//! The paper observes (Section 3.5) that enterprise density series contain
//! many repeated values, so run-length encoding compresses them well, can
//! be computed online with negligible overhead, and — crucially — lets the
//! correlation of overlapping runs be computed in a single step. A series
//! becomes a sequence of 3-tuples `(t, c, n)`: the start tick of the run,
//! its length, and the density value.

use crate::sparse::{SparseEntry, SparseSeries};
use crate::stats::SeriesStats;
use crate::time::Tick;
use serde::{Deserialize, Serialize};

/// One run: `len` consecutive ticks starting at `start`, all with `value`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Run {
    start: Tick,
    len: u64,
    value: f64,
}

impl Run {
    /// Creates a run.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if `len` is zero or `value` is zero.
    pub fn new(start: Tick, len: u64, value: f64) -> Self {
        debug_assert!(len > 0, "zero-length run");
        debug_assert!(value != 0.0, "zero-valued run (gaps are implicit)");
        Run { start, len, value }
    }

    /// First tick of the run.
    pub fn start(&self) -> Tick {
        self.start
    }

    /// One past the last tick of the run.
    pub fn end(&self) -> Tick {
        self.start + self.len
    }

    /// Number of ticks in the run.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the run is empty (never true for a validly constructed run).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The repeated density value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Lengthens the run by `by` ticks.
    pub fn extend(&mut self, by: u64) {
        self.len += by;
    }
}

/// A run-length-encoded signal over the logical span `[start, start + len)`.
///
/// Runs are disjoint, ordered, non-adjacent-with-equal-value (maximal), and
/// all non-zero; ticks not covered by any run are implicitly zero.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::{RleSeries, Run, Tick};
/// let r = RleSeries::from_parts(Tick::new(0), 100, vec![Run::new(Tick::new(5), 10, 2.0)]);
/// assert_eq!(r.value_at(Tick::new(9)), 2.0);
/// assert_eq!(r.value_at(Tick::new(15)), 0.0);
/// assert_eq!(r.num_runs(), 1);
/// assert_eq!(r.stats().sum(), 20.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RleSeries {
    start: Tick,
    len: u64,
    runs: Vec<Run>,
}

impl RleSeries {
    /// Creates an empty (all-zero) series over `[start, start + len)`.
    pub fn empty(start: Tick, len: u64) -> Self {
        RleSeries {
            start,
            len,
            runs: Vec::new(),
        }
    }

    /// Creates a series from parts.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if runs overlap, are out of order, or fall
    /// outside the span.
    pub fn from_parts(start: Tick, len: u64, runs: Vec<Run>) -> Self {
        #[cfg(debug_assertions)]
        {
            let mut prev_end: Option<Tick> = None;
            for r in &runs {
                debug_assert!(
                    r.start >= start && r.end().index() <= start.index() + len,
                    "run outside span"
                );
                if let Some(pe) = prev_end {
                    debug_assert!(r.start >= pe, "runs overlap or out of order");
                }
                prev_end = Some(r.end());
            }
        }
        RleSeries { start, len, runs }
    }

    /// First tick of the logical span.
    pub fn start(&self) -> Tick {
        self.start
    }

    /// One past the last tick of the logical span.
    pub fn end(&self) -> Tick {
        self.start + self.len
    }

    /// Logical span length in ticks.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the logical span is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of stored runs.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Number of ticks covered by runs (the decoded non-zero support).
    pub fn support(&self) -> u64 {
        self.runs.iter().map(|r| r.len).sum()
    }

    /// Fraction of the logical span covered by non-zero runs, in `[0, 1]`
    /// (zero for an empty span). O(runs), no decode pass — this is one of
    /// the cost-model features the adaptive correlation backend reads per
    /// pair, so it must stay cheap relative to a correlation.
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.support() as f64 / self.len as f64
        }
    }

    /// Mean run length in ticks (zero when there are no runs). O(runs).
    /// Together with [`density`](Self::density) and
    /// [`num_runs`](Self::num_runs) this summarizes the series shape well
    /// enough to predict per-engine correlation cost without decoding.
    pub fn avg_run_len(&self) -> f64 {
        if self.runs.is_empty() {
            0.0
        } else {
            self.support() as f64 / self.runs.len() as f64
        }
    }

    /// The stored runs, ordered by start tick.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Consumes the series, returning its run storage — lets callers that
    /// materialize transient chunks recycle one allocation.
    pub fn into_runs(self) -> Vec<Run> {
        self.runs
    }

    /// The value at tick `t` (zero if uncovered or outside the span).
    pub fn value_at(&self, t: Tick) -> f64 {
        let i = self.runs.partition_point(|r| r.end() <= t);
        match self.runs.get(i) {
            Some(r) if r.start <= t => r.value,
            _ => 0.0,
        }
    }

    /// Moments over the logical span (zeros included).
    pub fn stats(&self) -> SeriesStats {
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for r in &self.runs {
            sum += r.value * r.len as f64;
            sum_sq += r.value * r.value * r.len as f64;
        }
        SeriesStats::from_moments(self.len, sum, sum_sq)
    }

    /// Decodes directly to the dense representation over the same span,
    /// without materializing the per-tick sparse entries in between.
    ///
    /// Equivalent to `to_sparse().to_dense()` (bit-for-bit) but O(span)
    /// with no intermediate allocation proportional to the support.
    pub fn to_dense(&self) -> crate::dense::DenseSeries {
        let mut values = vec![0.0; self.len as usize];
        for r in &self.runs {
            let off = (r.start.index() - self.start.index()) as usize;
            values[off..off + r.len as usize].fill(r.value);
        }
        crate::dense::DenseSeries::new(self.start, values)
    }

    /// Decimates by `k`: coarse tick `j` sums the fine values over ticks
    /// `[j·k, (j+1)·k)`. Coarse ticks are aligned to *absolute* fine-tick
    /// multiples of `k` (not to the span start), so decimations of
    /// contiguous chunks tile into the decimation of their concatenation.
    /// The coarse span is `[⌊start/k⌋, ⌈end/k⌉)`.
    ///
    /// For non-negative signals every non-zero fine product `x(t)·y(t+d)`
    /// lands in a non-zero coarse product `X(⌊t/k⌋)·Y(⌊(t+d)/k⌋)`, which
    /// is what makes coarse support overlap a sound promote trigger for
    /// edge-side reduction.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    ///
    /// # Example
    ///
    /// ```
    /// use e2eprof_timeseries::{RleSeries, Run, Tick};
    /// let r = RleSeries::from_parts(Tick::new(0), 8, vec![Run::new(Tick::new(1), 5, 2.0)]);
    /// let c = r.decimate(4);
    /// assert_eq!(c.len(), 2);
    /// assert_eq!(c.value_at(Tick::new(0)), 6.0); // ticks 1,2,3
    /// assert_eq!(c.value_at(Tick::new(1)), 4.0); // ticks 4,5
    /// ```
    pub fn decimate(&self, k: u64) -> RleSeries {
        assert!(k > 0, "decimation factor must be positive");
        let cstart = self.start.index() / k;
        let cend = if self.len == 0 {
            cstart
        } else {
            self.end().index().div_ceil(k)
        };
        let mut runs: Vec<Run> = Vec::new();
        // The coarse tick currently being accumulated (possibly fed by
        // several fine runs) and its partial sum.
        let mut pending: Option<(u64, f64)> = None;
        fn flush(runs: &mut Vec<Run>, j: u64, v: f64) {
            if v == 0.0 {
                return;
            }
            match runs.last_mut() {
                Some(r) if r.end().index() == j && r.value.to_bits() == v.to_bits() => r.extend(1),
                _ => runs.push(Run::new(Tick::new(j), 1, v)),
            }
        }
        for r in &self.runs {
            let mut t = r.start.index();
            let e = r.end().index();
            // Leading partial block of this run.
            let j = t / k;
            let head_end = ((j + 1) * k).min(e);
            let contrib = r.value * (head_end - t) as f64;
            match &mut pending {
                Some((pj, sum)) if *pj == j => *sum += contrib,
                Some((pj, sum)) => {
                    let (pj, sum) = (*pj, *sum);
                    flush(&mut runs, pj, sum);
                    pending = Some((j, contrib));
                }
                None => pending = Some((j, contrib)),
            }
            t = head_end;
            // Blocks fully covered by this run: a constant coarse run.
            let full_blocks = (e - t) / k;
            if full_blocks > 0 {
                if let Some((pj, sum)) = pending.take() {
                    flush(&mut runs, pj, sum);
                }
                let v = r.value * k as f64;
                if v != 0.0 {
                    match runs.last_mut() {
                        Some(last)
                            if last.end().index() == t / k
                                && last.value.to_bits() == v.to_bits() =>
                        {
                            last.extend(full_blocks)
                        }
                        _ => runs.push(Run::new(Tick::new(t / k), full_blocks, v)),
                    }
                }
                t += full_blocks * k;
            }
            // Trailing partial block.
            if t < e {
                let contrib = r.value * (e - t) as f64;
                match &mut pending {
                    Some((pj, sum)) if *pj == t / k => *sum += contrib,
                    _ => {
                        if let Some((pj, sum)) = pending.take() {
                            flush(&mut runs, pj, sum);
                        }
                        pending = Some((t / k, contrib));
                    }
                }
            }
        }
        if let Some((pj, sum)) = pending {
            flush(&mut runs, pj, sum);
        }
        RleSeries {
            start: Tick::new(cstart),
            len: cend - cstart,
            runs,
        }
    }

    /// Decodes back to the sparse representation over the same span.
    pub fn to_sparse(&self) -> SparseSeries {
        let mut entries = Vec::with_capacity(self.support() as usize);
        for r in &self.runs {
            entries.extend((0..r.len).map(|i| SparseEntry::new(r.start + i, r.value)));
        }
        SparseSeries::from_parts(self.start, self.len, entries)
    }

    /// Returns the sub-series covering `[from, to)`, splitting runs that
    /// straddle the boundary. An empty range yields a run-free series even
    /// when it sits inside a run.
    pub fn slice(&self, from: Tick, to: Tick) -> RleSeries {
        let len = to.checked_sub(from).unwrap_or(0);
        let mut runs = Vec::new();
        for r in &self.runs {
            if r.end() <= from {
                continue;
            }
            let s = r.start.max(from);
            let e = r.end().min(to);
            if s >= e {
                break;
            }
            runs.push(Run::new(s, e - s, r.value));
        }
        RleSeries {
            start: from,
            len,
            runs,
        }
    }

    /// Concatenates a later chunk, merging a run that continues across the
    /// boundary.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` does not begin exactly at `self.end()`.
    pub fn append_chunk(&mut self, chunk: &RleSeries) {
        assert_eq!(
            chunk.start,
            self.end(),
            "appended chunk must be contiguous with the series"
        );
        let mut it = chunk.runs.iter();
        if let (Some(last), Some(first)) = (self.runs.last_mut(), chunk.runs.first()) {
            if last.end() == first.start && last.value.to_bits() == first.value.to_bits() {
                last.extend(first.len);
                it.next();
            }
        }
        self.runs.extend(it.copied());
        self.len += chunk.len;
    }

    /// The compression factor `r` relative to the sparse representation:
    /// non-zero support divided by run count (1.0 for an all-singleton
    /// encoding; larger is better).
    pub fn compression_factor(&self) -> f64 {
        if self.runs.is_empty() {
            1.0
        } else {
            self.support() as f64 / self.runs.len() as f64
        }
    }
}

/// Online run-length encoder.
///
/// Accepts strictly increasing `(tick, value)` samples (zeros must be
/// skipped by the caller, as the density estimator does) and produces
/// maximal runs. This mirrors the paper's tracer, which RLE-encodes on the
/// service node before streaming.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::{rle::RleEncoder, Tick};
/// let mut enc = RleEncoder::new(Tick::new(0));
/// for t in 3..8 {
///     enc.push(Tick::new(t), 1.0);
/// }
/// enc.push(Tick::new(9), 2.0);
/// let series = enc.finish(Tick::new(20));
/// assert_eq!(series.num_runs(), 2);
/// assert_eq!(series.len(), 20);
/// ```
#[derive(Debug, Clone)]
pub struct RleEncoder {
    start: Tick,
    runs: Vec<Run>,
    last_tick: Option<Tick>,
}

impl RleEncoder {
    /// Creates an encoder whose output span begins at `start`.
    pub fn new(start: Tick) -> Self {
        RleEncoder {
            start,
            runs: Vec::new(),
            last_tick: None,
        }
    }

    /// Pushes a non-zero sample.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is not strictly greater than the previous sample's
    /// tick, is before the span start, or if `value` is zero.
    pub fn push(&mut self, tick: Tick, value: f64) {
        assert!(value != 0.0, "zero values must be skipped, not pushed");
        assert!(tick >= self.start, "sample before span start");
        if let Some(last) = self.last_tick {
            assert!(tick > last, "samples must be strictly increasing");
        }
        self.last_tick = Some(tick);
        match self.runs.last_mut() {
            Some(r) if r.end() == tick && r.value().to_bits() == value.to_bits() => r.extend(1),
            _ => self.runs.push(Run::new(tick, 1, value)),
        }
    }

    /// Finalizes the encoding with the logical span ending at `end`
    /// (exclusive).
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the last pushed sample.
    pub fn finish(self, end: Tick) -> RleSeries {
        if let Some(last_run) = self.runs.last() {
            assert!(end >= last_run.end(), "end precedes encoded data");
        }
        let len = end.checked_sub(self.start).unwrap_or(0);
        RleSeries::from_parts(self.start, len, self.runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RleSeries {
        RleSeries::from_parts(
            Tick::new(0),
            50,
            vec![
                Run::new(Tick::new(5), 3, 1.0),
                Run::new(Tick::new(10), 2, 2.0),
                Run::new(Tick::new(40), 1, 1.0),
            ],
        )
    }

    #[test]
    fn value_lookup_inside_and_outside_runs() {
        let r = sample();
        assert_eq!(r.value_at(Tick::new(5)), 1.0);
        assert_eq!(r.value_at(Tick::new(7)), 1.0);
        assert_eq!(r.value_at(Tick::new(8)), 0.0);
        assert_eq!(r.value_at(Tick::new(11)), 2.0);
        assert_eq!(r.value_at(Tick::new(49)), 0.0);
    }

    #[test]
    fn support_and_compression() {
        let r = sample();
        assert_eq!(r.support(), 6);
        assert!((r.compression_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn density_and_avg_run_len() {
        let r = sample();
        assert!((r.density() - 6.0 / 50.0).abs() < 1e-12);
        assert!((r.avg_run_len() - 2.0).abs() < 1e-12);
        let e = RleSeries::empty(Tick::new(0), 0);
        assert_eq!(e.density(), 0.0);
        assert_eq!(e.avg_run_len(), 0.0);
        let q = RleSeries::empty(Tick::new(0), 10);
        assert_eq!(q.density(), 0.0);
        assert_eq!(q.avg_run_len(), 0.0);
    }

    #[test]
    fn sparse_round_trip() {
        let r = sample();
        assert_eq!(r.to_sparse().to_rle(), r);
    }

    #[test]
    fn stats_match_sparse() {
        let r = sample();
        let s = r.to_sparse();
        assert!((r.stats().mean() - s.stats().mean()).abs() < 1e-12);
        assert!((r.stats().variance() - s.stats().variance()).abs() < 1e-12);
    }

    #[test]
    fn empty_slice_inside_a_run_has_no_runs() {
        let sub = sample().slice(Tick::new(6), Tick::new(6));
        assert_eq!(
            (sub.start(), sub.len(), sub.num_runs()),
            (Tick::new(6), 0, 0)
        );
    }

    #[test]
    fn slice_splits_straddling_runs() {
        let r = sample();
        let sub = r.slice(Tick::new(6), Tick::new(11));
        assert_eq!(sub.start(), Tick::new(6));
        assert_eq!(sub.len(), 5);
        assert_eq!(sub.num_runs(), 2);
        assert_eq!(sub.value_at(Tick::new(6)), 1.0);
        assert_eq!(sub.value_at(Tick::new(10)), 2.0);
        assert_eq!(sub.value_at(Tick::new(5)), 0.0); // outside slice
    }

    #[test]
    fn append_merges_continuing_run() {
        let mut a = RleSeries::from_parts(Tick::new(0), 10, vec![Run::new(Tick::new(8), 2, 1.0)]);
        let b = RleSeries::from_parts(Tick::new(10), 10, vec![Run::new(Tick::new(10), 3, 1.0)]);
        a.append_chunk(&b);
        assert_eq!(a.num_runs(), 1);
        assert_eq!(a.runs()[0].len(), 5);
        assert_eq!(a.len(), 20);
    }

    #[test]
    fn append_does_not_merge_different_values() {
        let mut a = RleSeries::from_parts(Tick::new(0), 10, vec![Run::new(Tick::new(8), 2, 1.0)]);
        let b = RleSeries::from_parts(Tick::new(10), 10, vec![Run::new(Tick::new(10), 3, 2.0)]);
        a.append_chunk(&b);
        assert_eq!(a.num_runs(), 2);
    }

    /// Brute-force decimation reference: sum every fine tick into its
    /// absolute block.
    fn decimate_reference(r: &RleSeries, k: u64) -> Vec<(u64, f64)> {
        let cs = r.start().index() / k;
        let ce = r.end().index().div_ceil(k);
        (cs..ce)
            .map(|j| {
                let sum = (j * k..(j + 1) * k)
                    .map(|t| r.value_at(Tick::new(t)))
                    .sum::<f64>();
                (j, sum)
            })
            .collect()
    }

    fn assert_decimation_matches(r: &RleSeries, k: u64) {
        let c = r.decimate(k);
        assert_eq!(c.start().index(), r.start().index() / k, "k={k}");
        assert_eq!(c.end().index(), r.end().index().div_ceil(k), "k={k}");
        for (j, want) in decimate_reference(r, k) {
            let got = c.value_at(Tick::new(j));
            assert!(
                (got - want).abs() < 1e-9,
                "k={k} coarse tick {j}: got {got} want {want}"
            );
        }
        // Runs stay maximal: adjacent runs never touch with equal bits.
        for w in c.runs().windows(2) {
            assert!(
                w[0].end() < w[1].start() || w[0].value().to_bits() != w[1].value().to_bits(),
                "non-maximal coarse runs for k={k}"
            );
        }
    }

    #[test]
    fn decimate_matches_brute_force() {
        let series = [
            sample(),
            RleSeries::empty(Tick::new(7), 23),
            RleSeries::from_parts(Tick::new(3), 40, vec![Run::new(Tick::new(3), 40, 1.5)]),
            RleSeries::from_parts(
                Tick::new(13),
                64,
                vec![
                    Run::new(Tick::new(14), 3, 1.0),
                    Run::new(Tick::new(17), 9, 2.0),
                    Run::new(Tick::new(40), 30, 1.0),
                ],
            ),
        ];
        for r in &series {
            for k in [1, 2, 3, 4, 8, 16, 64] {
                assert_decimation_matches(r, k);
            }
        }
    }

    #[test]
    fn decimations_of_contiguous_chunks_tile() {
        // Block-aligned split point: decimate(chunks) tiles decimate(whole).
        let whole = RleSeries::from_parts(Tick::new(0), 32, vec![Run::new(Tick::new(2), 27, 1.0)]);
        let k = 4;
        let a = whole.slice(Tick::new(0), Tick::new(16)).decimate(k);
        let b = whole.slice(Tick::new(16), Tick::new(32)).decimate(k);
        let mut tiled = a.clone();
        tiled.append_chunk(&b);
        assert_eq!(tiled, whole.decimate(k));
    }

    #[test]
    fn to_dense_matches_sparse_round_trip() {
        let r = sample();
        assert_eq!(r.to_dense(), r.to_sparse().to_dense());
        let e = RleSeries::empty(Tick::new(4), 6);
        assert_eq!(e.to_dense(), e.to_sparse().to_dense());
    }

    #[test]
    fn encoder_builds_maximal_runs() {
        let mut enc = RleEncoder::new(Tick::new(0));
        enc.push(Tick::new(1), 1.0);
        enc.push(Tick::new(2), 1.0);
        enc.push(Tick::new(3), 2.0);
        enc.push(Tick::new(7), 2.0); // gap: separate run despite equal value
        let r = enc.finish(Tick::new(10));
        assert_eq!(r.num_runs(), 3);
        assert_eq!(r.len(), 10);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn encoder_rejects_non_monotone_input() {
        let mut enc = RleEncoder::new(Tick::new(0));
        enc.push(Tick::new(5), 1.0);
        enc.push(Tick::new(5), 1.0);
    }

    #[test]
    #[should_panic(expected = "zero values")]
    fn encoder_rejects_zero_values() {
        let mut enc = RleEncoder::new(Tick::new(0));
        enc.push(Tick::new(5), 0.0);
    }
}
