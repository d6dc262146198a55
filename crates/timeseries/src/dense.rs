//! Contiguous ("no compression") series representation.

use crate::sparse::{SparseEntry, SparseSeries};
use crate::stats::SeriesStats;
use crate::time::Tick;

/// A contiguous signal: one `f64` per tick starting at `start`.
///
/// This is the paper's uncompressed representation, the baseline against
/// which burst (sparse) and RLE compression are evaluated (Fig. 10). It is
/// also the natural input/output format of the FFT correlator.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::{DenseSeries, Tick};
/// let s = DenseSeries::new(Tick::new(5), vec![0.0, 1.0, 2.0]);
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.value_at(Tick::new(7)), 2.0);
/// assert_eq!(s.value_at(Tick::new(100)), 0.0); // outside span
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseSeries {
    start: Tick,
    values: Vec<f64>,
}

impl DenseSeries {
    /// Creates a series covering `[start, start + values.len())`.
    pub fn new(start: Tick, values: Vec<f64>) -> Self {
        DenseSeries { start, values }
    }

    /// Creates an all-zero series of `len` ticks.
    pub fn zeros(start: Tick, len: u64) -> Self {
        DenseSeries {
            start,
            values: vec![0.0; len as usize],
        }
    }

    /// First tick of the span.
    pub fn start(&self) -> Tick {
        self.start
    }

    /// One past the last tick of the span.
    pub fn end(&self) -> Tick {
        self.start + self.values.len() as u64
    }

    /// Number of ticks in the span.
    pub fn len(&self) -> u64 {
        self.values.len() as u64
    }

    /// Whether the span is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw values slice.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The value at tick `t`, zero outside the span.
    pub fn value_at(&self, t: Tick) -> f64 {
        match t.checked_sub(self.start) {
            Some(off) if (off as usize) < self.values.len() => self.values[off as usize],
            _ => 0.0,
        }
    }

    /// Sets the value at tick `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside the span.
    pub fn set(&mut self, t: Tick, v: f64) {
        let off = t
            .checked_sub(self.start)
            .filter(|&o| (o as usize) < self.values.len())
            .expect("tick outside dense series span");
        self.values[off as usize] = v;
    }

    /// Iterates over the non-zero entries as `(tick, value)` pairs.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (Tick, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0.0)
            .map(move |(i, &v)| (self.start + i as u64, v))
    }

    /// Moments over the full span (zeros included).
    pub fn stats(&self) -> SeriesStats {
        SeriesStats::from_entries(
            self.values.iter().copied().filter(|&v| v != 0.0),
            self.len(),
        )
    }

    /// Converts to the zero-suppressed sparse representation, preserving the
    /// logical span.
    pub fn to_sparse(&self) -> SparseSeries {
        SparseSeries::from_parts(
            self.start,
            self.len(),
            self.iter_nonzero()
                .map(|(t, v)| SparseEntry::new(t, v))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_at_outside_span_is_zero() {
        let s = DenseSeries::new(Tick::new(10), vec![1.0, 2.0]);
        assert_eq!(s.value_at(Tick::new(9)), 0.0);
        assert_eq!(s.value_at(Tick::new(12)), 0.0);
        assert_eq!(s.value_at(Tick::new(11)), 2.0);
    }

    #[test]
    fn zeros_has_correct_span() {
        let s = DenseSeries::zeros(Tick::new(3), 4);
        assert_eq!(s.start(), Tick::new(3));
        assert_eq!(s.end(), Tick::new(7));
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(s.iter_nonzero().next().is_none());
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut s = DenseSeries::zeros(Tick::new(0), 5);
        s.set(Tick::new(2), 7.5);
        assert_eq!(s.value_at(Tick::new(2)), 7.5);
    }

    #[test]
    #[should_panic(expected = "tick outside dense series span")]
    fn set_outside_span_panics() {
        let mut s = DenseSeries::zeros(Tick::new(0), 5);
        s.set(Tick::new(5), 1.0);
    }

    #[test]
    fn to_sparse_preserves_span_and_values() {
        let s = DenseSeries::new(Tick::new(2), vec![0.0, 3.0, 0.0, 4.0]);
        let sp = s.to_sparse();
        assert_eq!(sp.start(), Tick::new(2));
        assert_eq!(sp.len(), 4);
        assert_eq!(sp.num_entries(), 2);
        assert_eq!(sp.value_at(Tick::new(3)), 3.0);
        assert_eq!(sp.value_at(Tick::new(5)), 4.0);
    }

    #[test]
    fn stats_counts_zeros_in_window() {
        let s = DenseSeries::new(Tick::new(0), vec![2.0, 0.0, 0.0, 2.0]);
        assert_eq!(s.stats().mean(), 1.0);
        assert_eq!(s.stats().variance(), 1.0);
    }
}
