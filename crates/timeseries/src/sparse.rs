//! Zero-suppressed ("burst compression") series representation.
//!
//! Enterprise packet traffic is bursty: dense activity separated by long
//! quiet zones (Section 3.4, third optimization). The sparse representation
//! stores only non-zero density entries `(t, n)`; quiet zones cost nothing
//! to store *and* nothing to correlate.

use crate::dense::DenseSeries;
use crate::rle::{RleSeries, Run};
use crate::stats::SeriesStats;
use crate::time::Tick;

/// One non-zero sample of a sparse signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseEntry {
    tick: Tick,
    value: f64,
}

impl SparseEntry {
    /// Creates an entry.
    pub fn new(tick: Tick, value: f64) -> Self {
        SparseEntry { tick, value }
    }

    /// The tick index.
    pub fn tick(&self) -> Tick {
        self.tick
    }

    /// The sample value.
    pub fn value(&self) -> f64 {
        self.value
    }
}

/// A zero-suppressed signal over the logical span `[start, start + len)`.
///
/// Entries are strictly increasing in tick and all non-zero; ticks of the
/// span without an entry are implicitly zero. The logical span is retained
/// so that window-wide statistics (means over `W/τ` ticks, Eq. 1) stay
/// correct after compression.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::{SparseSeries, SparseEntry, Tick};
/// let s = SparseSeries::from_parts(
///     Tick::new(0),
///     10,
///     vec![SparseEntry::new(Tick::new(2), 1.0), SparseEntry::new(Tick::new(7), 2.0)],
/// );
/// assert_eq!(s.value_at(Tick::new(7)), 2.0);
/// assert_eq!(s.value_at(Tick::new(3)), 0.0);
/// assert_eq!(s.stats().mean(), 0.3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseSeries {
    start: Tick,
    len: u64,
    entries: Vec<SparseEntry>,
}

impl SparseSeries {
    /// Creates an empty (all-zero) series over `[start, start + len)`.
    pub fn empty(start: Tick, len: u64) -> Self {
        SparseSeries {
            start,
            len,
            entries: Vec::new(),
        }
    }

    /// Creates a series from parts.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if entries are not strictly increasing in
    /// tick, contain zeros, or fall outside the span.
    pub fn from_parts(start: Tick, len: u64, entries: Vec<SparseEntry>) -> Self {
        #[cfg(debug_assertions)]
        {
            let mut prev: Option<Tick> = None;
            for e in &entries {
                debug_assert!(e.value != 0.0, "sparse entry with zero value");
                debug_assert!(
                    e.tick >= start && e.tick.index() < start.index() + len,
                    "sparse entry outside span"
                );
                if let Some(p) = prev {
                    debug_assert!(e.tick > p, "sparse entries out of order");
                }
                prev = Some(e.tick);
            }
        }
        SparseSeries {
            start,
            len,
            entries,
        }
    }

    /// First tick of the logical span.
    pub fn start(&self) -> Tick {
        self.start
    }

    /// One past the last tick of the logical span.
    pub fn end(&self) -> Tick {
        self.start + self.len
    }

    /// Logical span length in ticks (zeros included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the logical span is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of stored (non-zero) entries.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// The stored entries, ordered by tick.
    pub fn entries(&self) -> &[SparseEntry] {
        &self.entries
    }

    /// The value at tick `t` (zero if unstored or outside the span).
    pub fn value_at(&self, t: Tick) -> f64 {
        match self.entries.binary_search_by_key(&t, |e| e.tick) {
            Ok(i) => self.entries[i].value,
            Err(_) => 0.0,
        }
    }

    /// Moments over the logical span (zeros included).
    pub fn stats(&self) -> SeriesStats {
        SeriesStats::from_entries(self.entries.iter().map(|e| e.value), self.len)
    }

    /// Materializes the signal as a dense series over the same span.
    pub fn to_dense(&self) -> DenseSeries {
        let mut d = DenseSeries::zeros(self.start, self.len);
        for e in &self.entries {
            d.set(e.tick, e.value);
        }
        d
    }

    /// Run-length-encodes the signal, preserving the logical span.
    ///
    /// Adjacent ticks with bit-identical values collapse into one run;
    /// gaps (implicit zeros) terminate runs and are not stored.
    pub fn to_rle(&self) -> RleSeries {
        let mut runs: Vec<Run> = Vec::new();
        for e in &self.entries {
            match runs.last_mut() {
                Some(r)
                    if r.start().index() + r.len() == e.tick.index()
                        && r.value().to_bits() == e.value.to_bits() =>
                {
                    r.extend(1);
                }
                _ => runs.push(Run::new(e.tick, 1, e.value)),
            }
        }
        RleSeries::from_parts(self.start, self.len, runs)
    }

    /// Returns the sub-series covering `[from, to)` (entries outside are
    /// dropped; the logical span becomes exactly `[from, to)`).
    pub fn slice(&self, from: Tick, to: Tick) -> SparseSeries {
        let lo = self.entries.partition_point(|e| e.tick < from);
        let hi = self.entries.partition_point(|e| e.tick < to);
        SparseSeries {
            start: from,
            len: to.checked_sub(from).unwrap_or(0),
            entries: self.entries[lo..hi].to_vec(),
        }
    }

    /// Concatenates a later chunk onto this series.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` does not begin exactly at `self.end()`.
    pub fn append_chunk(&mut self, chunk: &SparseSeries) {
        assert_eq!(
            chunk.start,
            self.end(),
            "appended chunk must be contiguous with the series"
        );
        self.entries.extend_from_slice(&chunk.entries);
        self.len += chunk.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseSeries {
        SparseSeries::from_parts(
            Tick::new(10),
            20,
            vec![
                SparseEntry::new(Tick::new(11), 1.0),
                SparseEntry::new(Tick::new(12), 1.0),
                SparseEntry::new(Tick::new(20), 3.0),
            ],
        )
    }

    #[test]
    fn value_lookup() {
        let s = sample();
        assert_eq!(s.value_at(Tick::new(11)), 1.0);
        assert_eq!(s.value_at(Tick::new(13)), 0.0);
        assert_eq!(s.value_at(Tick::new(20)), 3.0);
    }

    #[test]
    fn dense_round_trip() {
        let s = sample();
        let d = s.to_dense();
        assert_eq!(d.start(), s.start());
        assert_eq!(d.len(), s.len());
        assert_eq!(d.to_sparse(), s);
    }

    #[test]
    fn rle_merges_adjacent_equal_values() {
        let s = sample();
        let r = s.to_rle();
        assert_eq!(r.num_runs(), 2); // (11,2,1.0) and (20,1,3.0)
        assert_eq!(r.to_sparse(), s);
    }

    #[test]
    fn slice_reframes_span() {
        let s = sample();
        let sub = s.slice(Tick::new(12), Tick::new(21));
        assert_eq!(sub.start(), Tick::new(12));
        assert_eq!(sub.len(), 9);
        assert_eq!(sub.num_entries(), 2);
        assert_eq!(sub.value_at(Tick::new(11)), 0.0);
        assert_eq!(sub.value_at(Tick::new(20)), 3.0);
    }

    #[test]
    fn slice_empty_range() {
        let s = sample();
        let sub = s.slice(Tick::new(15), Tick::new(15));
        assert_eq!(sub.len(), 0);
        assert_eq!(sub.num_entries(), 0);
    }

    #[test]
    fn append_chunk_extends_span() {
        let mut s = sample();
        let chunk =
            SparseSeries::from_parts(Tick::new(30), 5, vec![SparseEntry::new(Tick::new(31), 2.0)]);
        s.append_chunk(&chunk);
        assert_eq!(s.end(), Tick::new(35));
        assert_eq!(s.value_at(Tick::new(31)), 2.0);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn append_noncontiguous_chunk_panics() {
        let mut s = sample();
        let chunk = SparseSeries::empty(Tick::new(31), 5);
        s.append_chunk(&chunk);
    }

    #[test]
    fn stats_account_for_implicit_zeros() {
        let s = sample();
        // sum = 5 over 20 ticks
        assert!((s.stats().mean() - 0.25).abs() < 1e-12);
    }
}
