//! The four stateless correlation strategies of the paper's Fig. 9 behind
//! one interface.
//!
//! All engines consume run-length-encoded signals — the format streamed by
//! tracer agents — and produce the same raw lagged products. They differ
//! only in *how much work* they do: the dense engine first decompresses to
//! the full window, the sparse engine decodes runs to entries, the RLE
//! engine works natively, and the FFT engine pays the full-lag-range
//! transform. That cost difference is exactly the paper's Fig. 9. The
//! online analyzer calls the RLE kernel ([`rle::correlate`]) directly;
//! `e2eprof-core`'s `Pathmap::with_correlator` plugs any engine into
//! offline discovery.

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
}

/// Direct bounded-lag correlation on the decompressed window
/// ("no compression").
#[derive(Debug, Clone, Copy, Default)]
pub struct DenseCorrelator;

impl Correlator for DenseCorrelator {
    fn correlate(&self, x: &RleSeries, y: &RleSeries, max_lag: u64) -> CorrSeries {
        dense::correlate(&x.to_dense(), &y.to_dense(), max_lag)
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
        sparse::correlate(&x.to_sparse(), &y.to_sparse(), max_lag)
    }

    fn name(&self) -> &'static str {
        "burst-compression"
    }
}

/// Native correlation on run-length-encoded signals ("RLE compression") —
/// the kernel the online pathmap runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct RleCorrelator;

impl Correlator for RleCorrelator {
    fn correlate(&self, x: &RleSeries, y: &RleSeries, max_lag: u64) -> CorrSeries {
        rle::correlate(x, y, max_lag)
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
        fft::correlate(&x.to_dense(), &y.to_dense(), max_lag)
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
    fn names_are_distinct() {
        let engines = all_engines();
        let mut names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
