//! Cross-correlation engines and spike detection for E2EProf's pathmap.
//!
//! The causal-path discovery of E2EProf (Agarwala et al., DSN 2007) rests on
//! one signal-processing primitive: the lagged cross-correlation of two
//! density time series. If the signal on edge `B` contains a delayed copy of
//! the signal on edge `A`, their cross-correlation has a distinguishable
//! spike at the lag equal to the delay — evidence of a causal relationship
//! and a direct measurement of the path delay.
//!
//! The online pathmap computes these *raw lagged products*
//! `r(d) = Σ_t x(t) · y(t + d)`, `d ∈ [0, T_u/τ)`, one way only:
//!
//! * [`rle::correlate`] — correlates run-length-encoded series, processing
//!   each pair of overlapping runs in constant time ("RLE compression"); it
//!   computes a pair's first window.
//! * [`incremental::IncrementalCorrelator`] — maintains `r(d)` across
//!   sliding-window advances, touching only the `ΔW` appended/evicted
//!   ticks.
//!
//! The [`engine`] module wraps the paper's four stateless strategies behind
//! one [`Correlator`] trait so Fig. 9 can compare them head-to-head:
//! [`engine::DenseCorrelator`] ("no compression", `O(n · L)` after the
//! bounded-lag optimization), [`engine::SparseCorrelator`] ("burst
//! compression", `O(n/k · L)`), [`engine::RleCorrelator`] and
//! [`engine::FftCorrelator`] (Eq. 2, the non-incremental baseline).
//!
//! On top of the raw products, [`normalize`] applies Eq. 1's normalization
//! (per-lag Pearson coefficient, four lags wide where [`simd`] finds AVX2)
//! and [`spike`] finds the distinguishable spikes (`mean + 3σ` threshold,
//! from the [`Moments`] normalization returns; local maxima,
//! tallest-in-resolution-window filtering) that pathmap interprets as
//! causal delays.
//!
//! # Example
//!
//! ```
//! use e2eprof_timeseries::{DenseSeries, Tick};
//! use e2eprof_xcorr::rle;
//! use e2eprof_xcorr::spike::SpikeDetector;
//!
//! // y is a copy of x delayed by 3 ticks.
//! let x = DenseSeries::new(Tick::new(0), vec![0., 4., 0., 0., 2., 1., 0., 0.]);
//! let y = DenseSeries::new(Tick::new(0), vec![0., 0., 0., 0., 4., 0., 0., 2.]);
//! let corr = rle::correlate(
//!     &x.to_sparse().to_rle(),
//!     &y.to_sparse().to_rle(),
//!     6,
//! );
//! // Production windows span thousands of lags, where the paper's 3σ
//! // threshold is appropriate; this toy series gets a gentler one.
//! let spikes = SpikeDetector::new(1.5, 1).detect(corr.values());
//! assert_eq!(spikes[0].lag, 3);
//! ```

// `deny` rather than `forbid`: the SIMD dispatch module opts back in with a
// scoped `#[allow(unsafe_code)]` for its `core::arch` intrinsic calls; all
// other modules remain unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod corr;
pub mod dense;
pub mod engine;
pub mod fft;
pub mod incremental;
pub mod normalize;
pub mod rle;
pub mod simd;
pub mod sparse;
pub mod spike;

pub use corr::CorrSeries;
pub use engine::Correlator;
pub use spike::{Moments, Spike, SpikeDetector};
