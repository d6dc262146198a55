//! Adaptive engine selection: a calibrated cost model picks the cheapest
//! correlation engine per signal pair.
//!
//! Fig. 9's lesson is that no engine wins everywhere: direct RLE beats FFT
//! on well-compressed signals, dense wins once density defeats run- and
//! entry-skipping, and FFT wins when the lag bound approaches the window
//! length. A static choice therefore leaves performance on the table
//! whenever a deployment mixes signal shapes — which enterprise traffic
//! does by construction (bursty clients next to saturated trunks).
//!
//! [`CostModel`] predicts each engine's running time from statistics that
//! are O(runs) to read off an [`RleSeries`] — span length, run count,
//! non-zero support, mean run length — times per-operation constants
//! either taken from [`CostModel::default`] or measured on the actual host
//! by [`CostModel::calibrate`]. [`AutoCorrelator`] evaluates the model per
//! pair and delegates; because every engine computes the same function
//! (the engine-equivalence suites), selection affects only *when* the
//! answer arrives, never what it is — see DESIGN.md §6.3 for the full
//! argument, including the FFT tolerance case.

use crate::arena::CorrArena;
use crate::corr::CorrSeries;
use crate::engine::{Correlator, DenseCorrelator, FftCorrelator, RleCorrelator, SparseCorrelator};
use e2eprof_timeseries::{DenseSeries, RleSeries, Tick};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The four stateless engines the selector chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineKind {
    /// [`DenseCorrelator`] ("no-compression").
    Dense,
    /// [`SparseCorrelator`] ("burst-compression").
    Sparse,
    /// [`RleCorrelator`] ("rle-compression").
    Rle,
    /// [`FftCorrelator`] ("fft").
    Fft,
}

impl EngineKind {
    /// All kinds, in the deterministic order the selector evaluates them.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Dense,
        EngineKind::Sparse,
        EngineKind::Rle,
        EngineKind::Fft,
    ];

    /// The matching engine's [`Correlator::name`].
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Dense => "no-compression",
            EngineKind::Sparse => "burst-compression",
            EngineKind::Rle => "rle-compression",
            EngineKind::Fft => "fft",
        }
    }
}

/// Per-engine cost constants in nanoseconds per abstract operation.
///
/// The abstract operation counts are computed by the `*_ops` feature
/// functions below; the constants translate them to predicted wall time.
/// [`Default`] holds representative release-build constants (stable across
/// recent x86_64 hardware to well within selection accuracy);
/// [`calibrate`](CostModel::calibrate) measures the actual host once at
/// startup. Tests that need full determinism pass an explicit model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// ns per dense multiply-add (one tick × lag cell).
    pub dense_op_ns: f64,
    /// ns per sparse entry-pair visit.
    pub sparse_op_ns: f64,
    /// ns per RLE run-pair trapezoid update.
    pub rle_op_ns: f64,
    /// ns per FFT butterfly-unit (`n·log2 n` scale).
    pub fft_op_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            dense_op_ns: 0.25,
            sparse_op_ns: 1.5,
            rle_op_ns: 2.5,
            fft_op_ns: 6.0,
        }
    }
}

/// Abstract operation count of the dense engine: every source tick visits
/// every lag, plus the two window decodes.
fn dense_ops(x: &RleSeries, y: &RleSeries, max_lag: u64) -> f64 {
    x.len() as f64 * max_lag as f64 + (x.len() + y.len()) as f64
}

/// Abstract operation count of the sparse engine: each source entry visits
/// the target entries within the lag bound (estimated from the target's
/// density, capped at all of them), plus the two entry decodes.
fn sparse_ops(x: &RleSeries, y: &RleSeries, max_lag: u64) -> f64 {
    let nnx = x.support() as f64;
    let nny = y.support() as f64;
    let yn = y.len().max(1) as f64;
    nnx * (nny * max_lag as f64 / yn).min(nny) + nnx + nny
}

/// Abstract operation count of the RLE engine: each source run visits the
/// target runs whose start lies within reach (lag bound plus both mean run
/// lengths), plus the O(max_lag) prefix-sum resolve.
fn rle_ops(x: &RleSeries, y: &RleSeries, max_lag: u64) -> f64 {
    let rx = x.num_runs() as f64;
    let ry = y.num_runs() as f64;
    let yn = y.len().max(1) as f64;
    let reach = (max_lag as f64 + x.avg_run_len() + y.avg_run_len()).min(yn);
    rx * (ry * reach / yn) + max_lag as f64
}

/// Abstract operation count of the FFT engine: three `n·log2 n` transforms
/// plus the `O(n)` point-wise multiply and decodes, independent of lag
/// bound and density — the reason it only wins at large `max_lag`.
fn fft_ops(x: &RleSeries, y: &RleSeries, _max_lag: u64) -> f64 {
    let n = ((x.len() + y.len()).max(2) as usize).next_power_of_two() as f64;
    3.0 * n * n.log2() + 2.0 * n
}

impl CostModel {
    /// Predicted cost in ns for each engine, indexed like
    /// [`EngineKind::ALL`].
    pub fn predict(&self, x: &RleSeries, y: &RleSeries, max_lag: u64) -> [f64; 4] {
        [
            self.dense_op_ns * dense_ops(x, y, max_lag),
            self.sparse_op_ns * sparse_ops(x, y, max_lag),
            self.rle_op_ns * rle_ops(x, y, max_lag),
            self.fft_op_ns * fft_ops(x, y, max_lag),
        ]
    }

    /// The engine with the smallest predicted cost (first wins ties, so
    /// the choice is deterministic for a fixed model).
    pub fn pick(&self, x: &RleSeries, y: &RleSeries, max_lag: u64) -> EngineKind {
        let costs = self.predict(x, y, max_lag);
        let mut best = EngineKind::ALL[0];
        let mut best_cost = costs[0];
        for (kind, cost) in EngineKind::ALL.into_iter().zip(costs).skip(1) {
            if cost < best_cost {
                best = kind;
                best_cost = cost;
            }
        }
        best
    }

    /// Measures the per-operation constants on this host with a one-shot
    /// micro-benchmark (a few tens of milliseconds; run once at analyzer
    /// startup).
    ///
    /// Each engine correlates a synthetic maximum-entropy signal (density
    /// 1, every adjacent value distinct, so runs = entries = ticks). The
    /// problem is sized so the engine's dominant term dwarfs fixed
    /// overheads *and* the working set spills out of L1 — per-op constants
    /// measured on an L1-resident toy problem come out optimistic for the
    /// dense engine and flip close dense/FFT rankings at real window
    /// sizes. The constant is the best-of-3 time divided by the predicted
    /// operation count. Calibration output is inherently host-dependent —
    /// tests needing reproducibility pass an explicit model instead.
    pub fn calibrate() -> CostModel {
        let len = 4096u64;
        let lag = 1024u64;
        let sig = |seed: u64| -> RleSeries {
            let v: Vec<f64> = (0..len).map(|t| ((t + seed) % 5 + 1) as f64).collect();
            DenseSeries::new(Tick::new(0), v).to_sparse().to_rle()
        };
        let x = sig(0);
        let y = sig(2);
        let mut arena = CorrArena::new();
        let mut out = CorrSeries::zeros(0);
        let mut time_engine = |engine: &dyn Correlator| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let t0 = Instant::now();
                engine.correlate_into(&x, &y, lag, &mut out, &mut arena);
                best = best.min(t0.elapsed().as_nanos() as f64);
            }
            best.max(1.0)
        };
        CostModel {
            dense_op_ns: time_engine(&DenseCorrelator) / dense_ops(&x, &y, lag),
            sparse_op_ns: time_engine(&SparseCorrelator) / sparse_ops(&x, &y, lag),
            rle_op_ns: time_engine(&RleCorrelator) / rle_ops(&x, &y, lag),
            fft_op_ns: time_engine(&FftCorrelator) / fft_ops(&x, &y, lag),
        }
    }
}

/// A [`Correlator`] that routes every pair to the engine the cost model
/// predicts to be fastest.
///
/// Selection reads only O(runs) metadata, so its overhead is negligible
/// against any correlation it fronts. Per-engine pick counters are kept
/// for observability (bench hit-rates, analyzer diagnostics).
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::{DenseSeries, Tick};
/// use e2eprof_xcorr::{AutoCorrelator, Correlator};
/// let auto = AutoCorrelator::with_default_model();
/// let x = DenseSeries::new(Tick::new(0), vec![1.0, 0.0, 2.0]).to_sparse().to_rle();
/// let y = DenseSeries::new(Tick::new(0), vec![0.0, 1.0, 0.0, 2.0]).to_sparse().to_rle();
/// assert_eq!(auto.correlate(&x, &y, 2).values(), &[0.0, 5.0]);
/// ```
#[derive(Debug, Default)]
pub struct AutoCorrelator {
    model: CostModel,
    picks: [AtomicU64; 4],
}

impl AutoCorrelator {
    /// Creates a selector over an explicit (e.g. config-supplied) model.
    pub fn new(model: CostModel) -> Self {
        AutoCorrelator {
            model,
            picks: Default::default(),
        }
    }

    /// Creates a selector with the representative default constants
    /// (deterministic: no measurement happens).
    pub fn with_default_model() -> Self {
        Self::new(CostModel::default())
    }

    /// Creates a selector calibrated on this host (see
    /// [`CostModel::calibrate`]).
    pub fn calibrated() -> Self {
        Self::new(CostModel::calibrate())
    }

    /// The model in use.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The engine the model picks for this pair (no counter update).
    pub fn pick(&self, x: &RleSeries, y: &RleSeries, max_lag: u64) -> EngineKind {
        self.model.pick(x, y, max_lag)
    }

    /// How many correlations each engine has served, indexed like
    /// [`EngineKind::ALL`].
    pub fn pick_counts(&self) -> [u64; 4] {
        [0, 1, 2, 3].map(|i| self.picks[i].load(Ordering::Relaxed))
    }

    fn pick_counted(&self, x: &RleSeries, y: &RleSeries, max_lag: u64) -> EngineKind {
        let kind = self.model.pick(x, y, max_lag);
        let idx = EngineKind::ALL.iter().position(|&k| k == kind).unwrap();
        self.picks[idx].fetch_add(1, Ordering::Relaxed);
        kind
    }
}

impl Correlator for AutoCorrelator {
    fn correlate(&self, x: &RleSeries, y: &RleSeries, max_lag: u64) -> CorrSeries {
        match self.pick_counted(x, y, max_lag) {
            EngineKind::Dense => DenseCorrelator.correlate(x, y, max_lag),
            EngineKind::Sparse => SparseCorrelator.correlate(x, y, max_lag),
            EngineKind::Rle => RleCorrelator.correlate(x, y, max_lag),
            EngineKind::Fft => FftCorrelator.correlate(x, y, max_lag),
        }
    }

    fn correlate_into(
        &self,
        x: &RleSeries,
        y: &RleSeries,
        max_lag: u64,
        out: &mut CorrSeries,
        arena: &mut CorrArena,
    ) {
        match self.pick_counted(x, y, max_lag) {
            EngineKind::Dense => DenseCorrelator.correlate_into(x, y, max_lag, out, arena),
            EngineKind::Sparse => SparseCorrelator.correlate_into(x, y, max_lag, out, arena),
            EngineKind::Rle => RleCorrelator.correlate_into(x, y, max_lag, out, arena),
            EngineKind::Fft => FftCorrelator.correlate_into(x, y, max_lag, out, arena),
        }
    }

    fn name(&self) -> &'static str {
        "auto"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rles(start: u64, v: Vec<f64>) -> RleSeries {
        DenseSeries::new(Tick::new(start), v).to_sparse().to_rle()
    }

    /// A long near-empty signal: skipping engines should win.
    fn sparse_sig(len: u64) -> RleSeries {
        let v: Vec<f64> = (0..len)
            .map(|t| if t % 97 == 0 { 1.0 } else { 0.0 })
            .collect();
        rles(0, v)
    }

    /// A fully dense signal with distinct adjacent values: run/entry
    /// skipping buys nothing.
    fn dense_sig(len: u64) -> RleSeries {
        let v: Vec<f64> = (0..len).map(|t| (t % 5 + 1) as f64).collect();
        rles(0, v)
    }

    #[test]
    fn picks_a_skipping_engine_for_sparse_signals() {
        let m = CostModel::default();
        let x = sparse_sig(4096);
        let y = sparse_sig(4096);
        let kind = m.pick(&x, &y, 64);
        assert!(
            matches!(kind, EngineKind::Sparse | EngineKind::Rle),
            "picked {kind:?} for near-empty signals"
        );
    }

    #[test]
    fn picks_dense_or_fft_for_dense_signals() {
        let m = CostModel::default();
        let x = dense_sig(4096);
        let y = dense_sig(4096);
        let kind = m.pick(&x, &y, 256);
        assert!(
            matches!(kind, EngineKind::Dense | EngineKind::Fft),
            "picked {kind:?} for maximum-entropy dense signals"
        );
    }

    #[test]
    fn fft_wins_when_lag_bound_approaches_window() {
        let m = CostModel::default();
        let x = dense_sig(8192);
        let y = dense_sig(8192);
        assert_eq!(m.pick(&x, &y, 8192), EngineKind::Fft);
    }

    #[test]
    fn auto_matches_reference_and_counts_picks() {
        let auto = AutoCorrelator::with_default_model();
        let x = rles(3, vec![1.0, 1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 3.0, 0.0, 1.0]);
        let y = rles(
            0,
            vec![
                5.0, 0.0, 0.0, 1.0, 1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 3.0, 0.0, 1.0,
            ],
        );
        let reference = DenseCorrelator.correlate(&x, &y, 9);
        let got = auto.correlate(&x, &y, 9);
        assert!(reference.max_abs_diff(&got) < 1e-9);
        assert_eq!(auto.pick_counts().iter().sum::<u64>(), 1);
        // correlate_into goes through the same selection.
        let mut out = CorrSeries::zeros(0);
        auto.correlate_into(&x, &y, 9, &mut out, &mut CorrArena::new());
        assert!(reference.max_abs_diff(&out) < 1e-9);
        assert_eq!(auto.pick_counts().iter().sum::<u64>(), 2);
    }

    #[test]
    fn calibration_yields_positive_finite_constants() {
        let m = CostModel::calibrate();
        for c in [m.dense_op_ns, m.sparse_op_ns, m.rle_op_ns, m.fft_op_ns] {
            assert!(c.is_finite() && c > 0.0, "bad calibrated constant {c}");
        }
    }

    #[test]
    fn pick_is_deterministic_under_ties() {
        // All-zero costs tie: the first kind in ALL order must win.
        let m = CostModel {
            dense_op_ns: 0.0,
            sparse_op_ns: 0.0,
            rle_op_ns: 0.0,
            fft_op_ns: 0.0,
        };
        let x = dense_sig(64);
        assert_eq!(m.pick(&x, &x, 8), EngineKind::ALL[0]);
    }
}
