//! The unified engine interface used by pathmap (and Fig. 9's comparison).
//!
//! All engines consume run-length-encoded signals — the format streamed by
//! tracer agents — and produce identical raw lagged products. They differ
//! only in *how much work* they do: the dense engine first decompresses to
//! the full window, the sparse engine decodes runs to entries, the RLE
//! engine works natively, and the FFT engine pays the full-lag-range
//! transform. That cost difference is exactly the paper's Fig. 9.

use crate::arena::CorrArena;
use crate::corr::CorrSeries;
use crate::{dense, fft, rle, sparse};
use e2eprof_timeseries::RleSeries;
use std::fmt;

/// A cross-correlation strategy.
///
/// Implementations must all compute the same function:
/// `r(d) = Σ_t x(t) · y(t + d)` for `d ∈ [0, max_lag)`, with `t` ranging
/// over `x`'s span and `y` zero outside its span.
pub trait Correlator: fmt::Debug + Send + Sync {
    /// Computes the raw lagged products.
    fn correlate(&self, x: &RleSeries, y: &RleSeries, max_lag: u64) -> CorrSeries;

    /// A short human-readable strategy name (used in reports and Fig. 9).
    fn name(&self) -> &'static str;

    /// Computes the raw lagged products into `out`, drawing every decode
    /// and transform buffer from `arena` so a caller looping over many
    /// pairs stops allocating once the arena has warmed up.
    ///
    /// Must produce values bitwise identical to
    /// [`correlate`](Correlator::correlate); the provided engines all
    /// route both entry points through one kernel. The default simply
    /// delegates (correct for any implementation, but without reuse).
    fn correlate_into(
        &self,
        x: &RleSeries,
        y: &RleSeries,
        max_lag: u64,
        out: &mut CorrSeries,
        arena: &mut CorrArena,
    ) {
        let _ = arena;
        *out = self.correlate(x, y, max_lag);
    }

    /// Correlates a batch of signal pairs, fanning the work out over up to
    /// `num_workers` scoped threads.
    ///
    /// Outputs are returned **in input order** and each pair is computed
    /// by exactly one worker with the same arithmetic as
    /// [`correlate`](Correlator::correlate), so the result is bitwise
    /// identical to a serial loop for every worker count (`<= 1` runs on
    /// the calling thread without spawning). Each worker reuses one
    /// [`CorrArena`] across its whole shard.
    fn correlate_batch(
        &self,
        pairs: &[(&RleSeries, &RleSeries)],
        max_lag: u64,
        num_workers: usize,
    ) -> Vec<CorrSeries> {
        let run_shard = |shard: &[(&RleSeries, &RleSeries)]| {
            let mut arena = CorrArena::new();
            shard
                .iter()
                .map(|&(x, y)| {
                    let mut out = CorrSeries::zeros(0);
                    self.correlate_into(x, y, max_lag, &mut out, &mut arena);
                    out
                })
                .collect::<Vec<CorrSeries>>()
        };
        if num_workers <= 1 || pairs.len() <= 1 {
            return run_shard(pairs);
        }
        let shards = num_workers.min(pairs.len());
        let per_shard = pairs.len().div_ceil(shards);
        std::thread::scope(|scope| {
            let handles: Vec<_> = pairs
                .chunks(per_shard)
                .map(|shard| scope.spawn(move || run_shard(shard)))
                .collect();
            let mut out = Vec::with_capacity(pairs.len());
            for h in handles {
                out.extend(h.join().expect("correlation worker panicked"));
            }
            out
        })
    }
}

/// Direct bounded-lag correlation on the decompressed window
/// ("no compression").
#[derive(Debug, Clone, Copy, Default)]
pub struct DenseCorrelator;

impl Correlator for DenseCorrelator {
    fn correlate(&self, x: &RleSeries, y: &RleSeries, max_lag: u64) -> CorrSeries {
        let mut out = CorrSeries::zeros(0);
        self.correlate_into(x, y, max_lag, &mut out, &mut CorrArena::new());
        out
    }

    fn correlate_into(
        &self,
        x: &RleSeries,
        y: &RleSeries,
        max_lag: u64,
        out: &mut CorrSeries,
        arena: &mut CorrArena,
    ) {
        let fit = arena.dense_x.capacity() >= x.len() as usize
            && arena.dense_y.capacity() >= y.len() as usize;
        arena.note_acquire(fit);
        x.decode_dense_into(&mut arena.dense_x);
        y.decode_dense_into(&mut arena.dense_y);
        dense::correlate_slices_into(
            &arena.dense_x,
            x.start().index() as i64,
            &arena.dense_y,
            y.start().index() as i64,
            max_lag,
            out,
        );
    }

    fn name(&self) -> &'static str {
        "no-compression"
    }
}

/// Direct bounded-lag correlation skipping quiet zones
/// ("burst compression").
#[derive(Debug, Clone, Copy, Default)]
pub struct SparseCorrelator;

impl Correlator for SparseCorrelator {
    fn correlate(&self, x: &RleSeries, y: &RleSeries, max_lag: u64) -> CorrSeries {
        let mut out = CorrSeries::zeros(0);
        self.correlate_into(x, y, max_lag, &mut out, &mut CorrArena::new());
        out
    }

    fn correlate_into(
        &self,
        x: &RleSeries,
        y: &RleSeries,
        max_lag: u64,
        out: &mut CorrSeries,
        arena: &mut CorrArena,
    ) {
        let fit = arena.entries_x.capacity() >= x.support() as usize
            && arena.entries_y.capacity() >= y.support() as usize;
        arena.note_acquire(fit);
        x.decode_sparse_into(&mut arena.entries_x);
        y.decode_sparse_into(&mut arena.entries_y);
        sparse::correlate_entries_into(&arena.entries_x, &arena.entries_y, max_lag, out);
    }

    fn name(&self) -> &'static str {
        "burst-compression"
    }
}

/// Native correlation on run-length-encoded signals ("RLE compression") —
/// the engine the online pathmap uses by default.
#[derive(Debug, Clone, Copy, Default)]
pub struct RleCorrelator;

impl Correlator for RleCorrelator {
    fn correlate(&self, x: &RleSeries, y: &RleSeries, max_lag: u64) -> CorrSeries {
        rle::correlate(x, y, max_lag)
    }

    fn correlate_into(
        &self,
        x: &RleSeries,
        y: &RleSeries,
        max_lag: u64,
        out: &mut CorrSeries,
        arena: &mut CorrArena,
    ) {
        let fit = arena.rle_scratch.capacity() >= max_lag as usize;
        arena.note_acquire(fit);
        rle::correlate_into(x, y, max_lag, out, &mut arena.rle_scratch);
    }

    fn name(&self) -> &'static str {
        "rle-compression"
    }
}

/// FFT-based correlation (Eq. 2), the non-incremental full-lag baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct FftCorrelator;

impl Correlator for FftCorrelator {
    fn correlate(&self, x: &RleSeries, y: &RleSeries, max_lag: u64) -> CorrSeries {
        let mut out = CorrSeries::zeros(0);
        self.correlate_into(x, y, max_lag, &mut out, &mut CorrArena::new());
        out
    }

    fn correlate_into(
        &self,
        x: &RleSeries,
        y: &RleSeries,
        max_lag: u64,
        out: &mut CorrSeries,
        arena: &mut CorrArena,
    ) {
        let n = (x.len() as usize + y.len() as usize).next_power_of_two();
        let fit = arena.dense_x.capacity() >= x.len() as usize
            && arena.dense_y.capacity() >= y.len() as usize
            && arena.fft_x.capacity() >= n
            && arena.fft_y.capacity() >= n;
        arena.note_acquire(fit);
        x.decode_dense_into(&mut arena.dense_x);
        y.decode_dense_into(&mut arena.dense_y);
        fft::correlate_slices_into(
            &arena.dense_x,
            x.start().index() as i64,
            &arena.dense_y,
            y.start().index() as i64,
            max_lag,
            out,
            &mut arena.fft_x,
            &mut arena.fft_y,
        );
    }

    fn name(&self) -> &'static str {
        "fft"
    }
}

/// All four stateless engines, for head-to-head comparisons.
pub fn all_engines() -> Vec<Box<dyn Correlator>> {
    vec![
        Box::new(DenseCorrelator),
        Box::new(SparseCorrelator),
        Box::new(RleCorrelator),
        Box::new(FftCorrelator),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2eprof_timeseries::{DenseSeries, Tick};

    fn rles(start: u64, v: Vec<f64>) -> RleSeries {
        DenseSeries::new(Tick::new(start), v).to_sparse().to_rle()
    }

    #[test]
    fn all_engines_agree() {
        let x = rles(3, vec![1.0, 1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 3.0, 0.0, 1.0]);
        let y = rles(
            0,
            vec![
                5.0, 0.0, 0.0, 1.0, 1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 3.0, 0.0, 1.0, 2.0,
            ],
        );
        let reference = DenseCorrelator.correlate(&x, &y, 9);
        for engine in all_engines() {
            let got = engine.correlate(&x, &y, 9);
            assert!(
                reference.max_abs_diff(&got) < 1e-9,
                "{} disagrees with reference",
                engine.name()
            );
        }
    }

    #[test]
    fn batch_is_bitwise_identical_to_serial_for_any_worker_count() {
        let xs: Vec<RleSeries> = (0..7)
            .map(|i| rles(i, (0..24).map(|t| ((t * 7 + i) % 5) as f64).collect()))
            .collect();
        let ys: Vec<RleSeries> = (0..7)
            .map(|i| rles(0, (0..32).map(|t| ((t * 3 + i) % 4) as f64).collect()))
            .collect();
        let pairs: Vec<(&RleSeries, &RleSeries)> = xs.iter().zip(&ys).collect();
        let engine = RleCorrelator;
        let serial: Vec<CorrSeries> = pairs
            .iter()
            .map(|&(x, y)| engine.correlate(x, y, 8))
            .collect();
        for workers in [1, 2, 3, 7, 32] {
            let batched = engine.correlate_batch(&pairs, 8, workers);
            assert_eq!(batched.len(), serial.len());
            for (b, s) in batched.iter().zip(&serial) {
                assert_eq!(b.values(), s.values(), "workers={workers}");
            }
        }
    }

    #[test]
    fn batch_works_through_a_trait_object() {
        let x = rles(0, vec![1.0, 0.0, 2.0]);
        let y = rles(0, vec![0.0, 1.0, 0.0, 2.0]);
        let engine: Box<dyn Correlator> = Box::new(SparseCorrelator);
        let out = engine.correlate_batch(&[(&x, &y), (&y, &x)], 4, 2);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].values(), engine.correlate(&x, &y, 4).values());
        assert_eq!(out[1].values(), engine.correlate(&y, &x, 4).values());
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(RleCorrelator.correlate_batch(&[], 4, 4).is_empty());
    }

    #[test]
    fn correlate_into_is_bitwise_identical_and_stops_growing() {
        let xs: Vec<RleSeries> = (0..6)
            .map(|i| rles(i, (0..40).map(|t| ((t * 5 + i) % 3) as f64).collect()))
            .collect();
        let ys: Vec<RleSeries> = (0..6)
            .map(|i| rles(0, (0..48).map(|t| ((t * 7 + i) % 4) as f64).collect()))
            .collect();
        for engine in all_engines() {
            let mut arena = CorrArena::new();
            let mut out = CorrSeries::zeros(0);
            for round in 0..3 {
                for (x, y) in xs.iter().zip(&ys) {
                    engine.correlate_into(x, y, 12, &mut out, &mut arena);
                    let direct = engine.correlate(x, y, 12);
                    assert_eq!(out.values(), direct.values(), "{}", engine.name());
                }
                if round == 0 {
                    arena.reset_stats();
                }
            }
            // After the first full pass every buffer has reached its
            // steady-state size: no further growth allowed.
            let stats = arena.stats();
            assert_eq!(stats.acquires, 12, "{}", engine.name());
            assert_eq!(stats.grows, 0, "{} grew after warm-up", engine.name());
        }
    }

    #[test]
    fn names_are_distinct() {
        let engines = all_engines();
        let mut names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
