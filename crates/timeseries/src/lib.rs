//! Time-series primitives for the E2EProf toolkit.
//!
//! This crate implements the signal-representation layer of E2EProf
//! (Agarwala et al., DSN 2007): the conversion of raw, timestamped message
//! traces into *density time series*, and the compact representations that
//! make online cross-correlation analysis cheap:
//!
//! * [`density::DensityEstimator`] — converts a stream of message timestamps
//!   into the paper's density function `d(i) = sqrt(#messages within the
//!   rectangular sampling window around tick i)` (Section 3.5).
//! * [`DenseSeries`] — a plain contiguous signal (the "no compression"
//!   representation).
//! * [`SparseSeries`] — zero-suppressed entries `(t, n)` (the "burst
//!   compression" representation: quiet regions are simply absent).
//! * [`RleSeries`] — run-length-encoded 3-tuples `(t, c, n)` (the "RLE
//!   compression" representation used by the online pathmap algorithm).
//! * [`window::SlidingWindow`] — the most recent `W`-sized window of a
//!   signal, refreshed every `ΔW` (Algorithm 1's input buffers).
//! * [`wire`] — a compact byte encoding used to stream RLE series from
//!   tracer agents on service nodes to the central analyzer.
//!
//! All series are indexed by [`Tick`]s of the configured time quantum `τ`
//! ([`Quanta`]); wall-clock nanoseconds ([`Nanos`]) appear only at the
//! boundaries of the system. Integer tick indexing keeps windowing exact and
//! makes run-length encoding well-defined.
//!
//! # Example
//!
//! ```
//! use e2eprof_timeseries::{Quanta, Nanos, density::DensityEstimator};
//!
//! // 1 ms quanta, 5 ms sampling window.
//! let quanta = Quanta::from_millis(1);
//! let mut est = DensityEstimator::new(quanta, 5);
//! for ms in [10u64, 10, 11, 40] {
//!     est.push(Nanos::from_millis(ms));
//! }
//! let series = est.finish();
//! // Three messages near t=10ms produce sqrt(3) density at tick 10.
//! assert!((series.value_at(10.into()) - 3f64.sqrt()).abs() < 1e-12);
//! // The quiet zone between the bursts is not stored at all.
//! assert_eq!(series.value_at(25.into()), 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod density;
pub mod hashing;
pub mod rle;
pub mod sparse;
pub mod stats;
pub mod time;
pub mod window;
pub mod wire;

pub use dense::DenseSeries;
pub use rle::{RleSeries, Run};
pub use sparse::{SparseEntry, SparseSeries};
pub use stats::SeriesStats;
pub use time::{Nanos, Quanta, Tick};
