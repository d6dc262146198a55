//! Coarse images of fine streams, for edge-side data reduction.
//!
//! A [`DecimatedWindow`] consumes the same chunk stream as a
//! [`SlidingWindow`] but retains the signal decimated by a factor `k`:
//! coarse tick `j` holds the sum of the fine ticks `[j·k, (j+1)·k)`.
//! Coarse ticks are aligned to absolute multiples of `k`, so the retained
//! coarse series equals [`RleSeries::decimate`] of the concatenated fine
//! stream — maintained incrementally in O(chunk runs) per ingest instead
//! of re-decimating the window. Fine ticks that do not yet complete a
//! coarse block are buffered in a short tail and folded as soon as their
//! block fills. [`decimate_counts`] is the tracer side's decimation of a
//! demoted edge.

use crate::rle::RleSeries;
use crate::time::Tick;
use crate::window::SlidingWindow;

/// A sliding window over the `k`-decimated image of a fine chunk stream.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::{pyramid::DecimatedWindow, RleSeries, Run, Tick};
/// let mut w = DecimatedWindow::new(100, 4);
/// w.append_or_reset(&RleSeries::from_parts(
///     Tick::new(0), 10, vec![Run::new(Tick::new(1), 7, 1.0)],
/// ));
/// // Ticks [0, 8) complete two coarse blocks; [8, 10) stays in the tail.
/// assert_eq!(w.coarse().end(), Tick::new(2));
/// assert_eq!(w.coarse().series().value_at(Tick::new(0)), 3.0);
/// assert_eq!(w.coarse().series().value_at(Tick::new(1)), 4.0);
/// ```
#[derive(Debug, Clone)]
pub struct DecimatedWindow {
    factor: u64,
    coarse: SlidingWindow,
    /// The fine-resolution suffix not yet folded into `coarse`: spans
    /// `[folded_end·k, fine end)`. `None` before any data.
    tail: Option<RleSeries>,
}

impl DecimatedWindow {
    /// Creates an empty decimated window mirroring a fine window of
    /// `fine_capacity` ticks, decimating by `factor`.
    ///
    /// The coarse retention is sized so that every coarse block
    /// overlapping the fine window's retained span stays available.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero or `fine_capacity` is zero.
    pub fn new(fine_capacity: u64, factor: u64) -> Self {
        assert!(factor > 0, "decimation factor must be positive");
        DecimatedWindow {
            factor,
            coarse: SlidingWindow::new(fine_capacity.div_ceil(factor) + 2),
            tail: None,
        }
    }

    /// The retained coarse window (in coarse ticks of `k` fine ticks each).
    pub fn coarse(&self) -> &SlidingWindow {
        &self.coarse
    }

    /// Ingests the next chunk with the same discontinuity semantics as
    /// [`SlidingWindow::append_or_reset`]: a gap resets the coarse window
    /// to the chunk's decimation (returns `true`), an overlapping replay
    /// contributes only its novel suffix, and a stale duplicate is
    /// ignored (both return `false`).
    pub fn append_or_reset(&mut self, chunk: &RleSeries) -> bool {
        let Some(tail) = &mut self.tail else {
            self.tail = Some(chunk.clone());
            self.fold();
            return false;
        };
        let end = tail.end();
        if chunk.start() > end {
            // Frames lost: restart the pyramid at the chunk's origin.
            self.coarse = SlidingWindow::new(self.coarse.capacity());
            self.tail = Some(chunk.clone());
            self.fold();
            true
        } else if chunk.end() <= end {
            false // stale duplicate
        } else {
            tail.append_chunk(&chunk.slice(end, chunk.end()));
            self.fold();
            false
        }
    }

    /// Ingests an *already decimated* chunk — coarse ticks of `k` fine
    /// ticks each — straight into the coarse window, bypassing the fold.
    /// This is the wire-ingest path for level-tagged reduction entries,
    /// where the tracer decimated the blocks before shipping.
    ///
    /// Discontinuity semantics follow [`SlidingWindow::append_or_reset`]
    /// on the *coarse* axis: a gap (for example after suppressed all-zero
    /// chunks) resets the coarse window to this chunk and returns `true`.
    /// Any buffered fine tail is discarded — once the source streams
    /// coarse, buffered fine ticks can never complete their block.
    pub fn append_coarse_or_reset(&mut self, chunk: &RleSeries) -> bool {
        self.tail = Some(RleSeries::empty(
            Tick::new(chunk.end().index() * self.factor),
            0,
        ));
        self.coarse.append_or_reset(chunk)
    }

    /// Folds every complete coarse block out of the tail into the coarse
    /// window, leaving the sub-block remainder buffered.
    fn fold(&mut self) {
        let Some(tail) = &self.tail else { return };
        let k = self.factor;
        let boundary = Tick::new((tail.end().index() / k) * k);
        if boundary <= tail.start() {
            return; // no complete block yet
        }
        // Contiguity holds by construction: the previous fold ended at
        // this fold's first coarse tick.
        let chunk = tail.slice(tail.start(), boundary).decimate(k);
        self.coarse.append_chunk(&chunk);
        self.tail = Some(tail.slice(boundary, tail.end()));
    }
}

/// Decimates a density series by `k` in the *count* domain: amplitudes are
/// read as `√(message count)` per tick (the density estimator's encoding),
/// counts are summed per coarse block, and each coarse tick carries
/// `√(block count)` — so the coarse image is itself a density series at
/// resolution `k·τ` whose amplitudes stay integer-count codable on the
/// wire. Blocks are aligned to absolute multiples of `k`, exactly like
/// [`RleSeries::decimate`].
///
/// Amplitudes that are not `√n` for an integer `n` (never produced by the
/// estimator) degrade gracefully: their squared value joins the block sum
/// and the result is `√(Σ v²)` — a root-sum-square coarse amplitude.
///
/// The edge-reduction tracer path feeds this block-aligned slices of
/// retained fine chunks; a partial edge block would simply under-count.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::{pyramid, RleSeries, Run, Tick};
/// // Four ticks of count 4 (amp 2.0) in block 0, one tick of count 9 in block 1.
/// let s = RleSeries::from_parts(Tick::new(0), 8, vec![
///     Run::new(Tick::new(0), 4, 2.0),
///     Run::new(Tick::new(5), 1, 3.0),
/// ]);
/// let c = pyramid::decimate_counts(&s, 4);
/// assert_eq!(c.value_at(Tick::new(0)), 16f64.sqrt());
/// assert_eq!(c.value_at(Tick::new(1)), 9f64.sqrt());
/// ```
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn decimate_counts(series: &RleSeries, k: u64) -> RleSeries {
    assert!(k > 0, "decimation factor must be positive");
    let cstart = Tick::new(series.start().index() / k);
    let cend = Tick::new(series.end().index().div_ceil(k));
    let mut runs: Vec<crate::rle::Run> = Vec::new();
    let mut flush = |block: u64, sum: f64| {
        if sum <= 0.0 {
            return;
        }
        // Snap to √n for the integer block count so the amplitude stays
        // losslessly int-codable on the wire.
        let n = sum.round();
        let value = if n >= 1.0 && (sum - n).abs() <= 1e-6 * n {
            n.sqrt()
        } else {
            sum.sqrt()
        };
        let at = Tick::new(block);
        if let Some(last) = runs.last_mut() {
            if last.end() == at && last.value().to_bits() == value.to_bits() {
                last.extend(1);
                return;
            }
        }
        runs.push(crate::rle::Run::new(at, 1, value));
    };
    let mut block = u64::MAX;
    let mut sum = 0.0f64;
    for r in series.runs() {
        let v2 = r.value() * r.value();
        let mut s = r.start().index();
        let e = r.end().index();
        while s < e {
            let b = s / k;
            if b != block {
                if block != u64::MAX {
                    flush(block, sum);
                }
                block = b;
                sum = 0.0;
            }
            let take = e.min((b + 1) * k) - s;
            sum += take as f64 * v2;
            s += take;
        }
    }
    if block != u64::MAX {
        flush(block, sum);
    }
    RleSeries::from_parts(cstart, cend - cstart, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rle::Run;

    fn chunk(start: u64, len: u64, runs: Vec<Run>) -> RleSeries {
        RleSeries::from_parts(Tick::new(start), len, runs)
    }

    /// Feeds `chunks` through both a fine `SlidingWindow` (large capacity,
    /// no eviction) and a `DecimatedWindow`, then checks the coarse state
    /// equals the decimation of the retained fine stream.
    fn assert_tracks_decimation(chunks: &[RleSeries], k: u64) {
        let mut fine = SlidingWindow::new(1 << 40);
        let mut dec = DecimatedWindow::new(1 << 40, k);
        for c in chunks {
            let healed = fine.append_or_reset(c);
            assert_eq!(dec.append_or_reset(c), healed);
            let whole = fine.series();
            let boundary = Tick::new((whole.end().index() / k) * k);
            let want = whole.slice(whole.start(), boundary).decimate(k);
            let got = dec.coarse().series();
            assert_eq!(got, want, "after chunk ending {:?}", c.end());
        }
    }

    #[test]
    fn tracks_decimation_across_chunk_boundaries() {
        assert_tracks_decimation(
            &[
                chunk(0, 10, vec![Run::new(Tick::new(1), 7, 1.0)]),
                chunk(10, 3, vec![Run::new(Tick::new(10), 3, 2.0)]),
                chunk(13, 1, vec![]),
                chunk(14, 22, vec![Run::new(Tick::new(20), 10, 1.0)]),
            ],
            4,
        );
    }

    #[test]
    fn unaligned_origin_and_sub_block_chunks() {
        assert_tracks_decimation(
            &[
                chunk(5, 2, vec![Run::new(Tick::new(5), 2, 3.0)]),
                chunk(7, 2, vec![]),
                chunk(9, 2, vec![Run::new(Tick::new(9), 1, 1.0)]),
                chunk(11, 2, vec![Run::new(Tick::new(11), 2, 1.0)]),
            ],
            8,
        );
    }

    #[test]
    fn gap_resets_like_the_fine_window() {
        let mut dec = DecimatedWindow::new(1 << 20, 4);
        dec.append_or_reset(&chunk(0, 8, vec![Run::new(Tick::new(0), 8, 1.0)]));
        assert_eq!(dec.coarse().series().value_at(Tick::new(0)), 4.0);
        let healed = dec.append_or_reset(&chunk(100, 8, vec![Run::new(Tick::new(102), 4, 2.0)]));
        assert!(healed);
        // Old coarse data is gone; the new origin tick 100 starts block 25.
        assert_eq!(dec.coarse().start(), Tick::new(25));
        assert_eq!(dec.coarse().series().value_at(Tick::new(0)), 0.0);
        assert_eq!(dec.coarse().series().value_at(Tick::new(25)), 4.0);
    }

    #[test]
    fn replay_and_duplicates_fold_once() {
        assert_tracks_decimation(
            &[
                chunk(0, 10, vec![Run::new(Tick::new(2), 5, 1.0)]),
                // Restarted tracer replays everything plus two new ticks.
                chunk(
                    0,
                    12,
                    vec![
                        Run::new(Tick::new(2), 5, 1.0),
                        Run::new(Tick::new(10), 2, 2.0),
                    ],
                ),
                // Fully stale chunk: ignored.
                chunk(0, 6, vec![Run::new(Tick::new(2), 3, 9.0)]),
            ],
            4,
        );
    }

    #[test]
    fn coarse_capacity_covers_fine_retention() {
        let dec = DecimatedWindow::new(100, 8);
        assert!(dec.coarse().capacity() > 100u64.div_ceil(8));
    }

    #[test]
    fn decimate_counts_sums_counts_per_absolute_block() {
        // Counts 2,2,2 in block 1 ([4,8)), count 5 in block 2.
        let s = chunk(
            3,
            8,
            vec![
                Run::new(Tick::new(4), 3, 2f64.sqrt()),
                Run::new(Tick::new(9), 1, 5f64.sqrt()),
            ],
        );
        let c = decimate_counts(&s, 4);
        assert_eq!(c.start(), Tick::new(0));
        assert_eq!(c.end(), Tick::new(3));
        assert_eq!(c.value_at(Tick::new(0)), 0.0);
        assert_eq!(c.value_at(Tick::new(1)).to_bits(), 6f64.sqrt().to_bits());
        assert_eq!(c.value_at(Tick::new(2)).to_bits(), 5f64.sqrt().to_bits());
    }

    #[test]
    fn decimate_counts_amplitudes_stay_sqrt_of_integers() {
        // √2 squares to 2.0000000000000004 in f64; the block sum must snap
        // back to the exact integer count so wire int-amp coding applies.
        let s = chunk(0, 16, vec![Run::new(Tick::new(0), 16, 2f64.sqrt())]);
        let c = decimate_counts(&s, 8);
        for t in [0u64, 1] {
            assert_eq!(c.value_at(Tick::new(t)).to_bits(), 16f64.sqrt().to_bits());
        }
    }

    #[test]
    fn decimate_counts_merges_equal_blocks_and_skips_empty_ones() {
        let s = chunk(0, 32, vec![Run::new(Tick::new(0), 16, 1.0)]);
        let c = decimate_counts(&s, 8);
        assert_eq!(c.num_runs(), 1);
        assert_eq!(c.runs()[0], Run::new(Tick::new(0), 2, 8f64.sqrt()));
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn decimate_counts_long_run_spanning_many_blocks() {
        let s = chunk(0, 4096, vec![Run::new(Tick::new(3), 4000, 1.0)]);
        let c = decimate_counts(&s, 64);
        let mut total = 0.0;
        for r in c.runs() {
            total += r.len() as f64 * r.value() * r.value();
        }
        assert!((total - 4000.0).abs() < 1e-9);
    }
}
