//! Pathmap analysis parameters.

use e2eprof_timeseries::{Nanos, Quanta};
use e2eprof_xcorr::engine::RleCorrelator;
use e2eprof_xcorr::{Correlator, SpikeDetector};

/// How tracer agents reach the analyzer tier.
///
/// The default, [`InProcess`](Transport::InProcess), keeps the original
/// channel pipeline — the bit-identical anchor every other transport is
/// tested against. [`Tcp`](Transport::Tcp) and [`Unix`](Transport::Unix)
/// put the same frames on real sockets through a broker (see the
/// `e2eprof-net` crate); the framed stream carries the identical wire
/// payloads, so discovered graphs are unchanged.
///
/// Nothing in the workspace reads [`PathmapConfig::transport`]: a
/// pipeline's transport is the `Endpoint` it is built on, which the CLI
/// takes from its `--transport` flag. The end-to-end benchmark sets it to
/// label a run; removal waits for a `benchmark` PR, like
/// [`PathmapConfig::build_engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// In-process channels (the default, bit-identical anchor).
    #[default]
    InProcess,
    /// TCP sockets through a broker.
    Tcp,
    /// Unix-domain sockets through a broker.
    Unix,
}

/// The knobs of the pathmap algorithm (paper Sections 3.3–3.5).
///
/// Defaults match the paper's RUBiS configuration: `τ` = 1 ms, `ω` = 50·τ,
/// `W` = 3 min, `ΔW` = 1 min, `T_u` = 1 min, spikes at `mean + 3σ`.
///
/// # Example
///
/// ```
/// use e2eprof_core::PathmapConfig;
/// use e2eprof_timeseries::{Nanos, Quanta};
/// let cfg = PathmapConfig::builder()
///     .quanta(Quanta::from_secs(1))        // Delta pipeline resolution
///     .window(Nanos::from_minutes(60))
///     .refresh(Nanos::from_minutes(10))
///     .max_delay(Nanos::from_minutes(10))
///     .build();
/// assert_eq!(cfg.window_ticks(), 3600);
/// assert_eq!(cfg.max_lag(), 600);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PathmapConfig {
    quanta: Quanta,
    omega_ticks: u64,
    window: Nanos,
    refresh: Nanos,
    max_delay: Nanos,
    spike_sigma: f64,
    spike_resolution_ticks: u64,
    min_spike_value: f64,
    num_workers: usize,
    transport: Transport,
}

impl Default for PathmapConfig {
    fn default() -> Self {
        PathmapConfigBuilder::default().build()
    }
}

impl PathmapConfig {
    /// Starts a builder with the paper's RUBiS defaults.
    pub fn builder() -> PathmapConfigBuilder {
        PathmapConfigBuilder::default()
    }

    /// The time quantum `τ`.
    pub fn quanta(&self) -> Quanta {
        self.quanta
    }

    /// The sampling window `ω`, in ticks.
    pub fn omega_ticks(&self) -> u64 {
        self.omega_ticks
    }

    /// The sliding window `W`.
    pub fn window(&self) -> Nanos {
        self.window
    }

    /// `W` in ticks.
    pub fn window_ticks(&self) -> u64 {
        self.quanta.ticks_in(self.window)
    }

    /// The service-graph refresh interval `ΔW`.
    pub fn refresh(&self) -> Nanos {
        self.refresh
    }

    /// `ΔW` in ticks.
    pub fn refresh_ticks(&self) -> u64 {
        self.quanta.ticks_in(self.refresh)
    }

    /// The upper bound `T_u` on end-to-end transaction delay.
    pub fn max_delay(&self) -> Nanos {
        self.max_delay
    }

    /// `T_u` in ticks — the correlation lag bound.
    pub fn max_lag(&self) -> u64 {
        self.quanta.ticks_in(self.max_delay)
    }

    /// The spike threshold in standard deviations.
    pub fn spike_sigma(&self) -> f64 {
        self.spike_sigma
    }

    /// Minimum normalized correlation for a spike to count as causal
    /// evidence (suppresses spikes in near-empty windows).
    pub fn min_spike_value(&self) -> f64 {
        self.min_spike_value
    }

    /// The configured spike detector.
    pub fn spike_detector(&self) -> SpikeDetector {
        SpikeDetector::new(self.spike_sigma, self.spike_resolution_ticks)
    }

    /// The number of worker threads the online analyzer uses to refresh
    /// correlations (default: the platform's available parallelism).
    ///
    /// Results are bitwise identical for every worker count; `1` runs the
    /// whole refresh on the calling thread without spawning. A larger
    /// count is the size of the analyzer's standing
    /// [`Pool`](crate::parallel::Pool): the calling thread and
    /// `num_workers − 1` helpers, started at the first phase with two or
    /// more items to compute and parked between phases.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// How tracer agents reach the analyzer tier (default:
    /// [`Transport::InProcess`], the bit-identical channel anchor).
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// The stateless engine of [`Pathmap::new`](crate::pathmap::Pathmap::new):
    /// always the RLE-native [`RleCorrelator`]. The end-to-end benchmark
    /// (`bench/src/probes.rs`) calls it; removal waits for a `benchmark`
    /// PR.
    pub fn build_engine(&self) -> Box<dyn Correlator> {
        Box::new(RleCorrelator)
    }
}

/// Builder for [`PathmapConfig`].
#[derive(Debug, Clone)]
pub struct PathmapConfigBuilder {
    quanta: Quanta,
    omega_ticks: u64,
    window: Nanos,
    refresh: Nanos,
    max_delay: Nanos,
    spike_sigma: f64,
    spike_resolution_ticks: u64,
    min_spike_value: f64,
    num_workers: usize,
    transport: Transport,
}

impl Default for PathmapConfigBuilder {
    fn default() -> Self {
        PathmapConfigBuilder {
            quanta: Quanta::from_millis(1),
            omega_ticks: 50,
            window: Nanos::from_minutes(3),
            refresh: Nanos::from_minutes(1),
            max_delay: Nanos::from_minutes(1),
            spike_sigma: 3.0,
            spike_resolution_ticks: 50,
            min_spike_value: 0.1,
            num_workers: crate::parallel::available_workers(),
            transport: Transport::default(),
        }
    }
}

impl PathmapConfigBuilder {
    /// Sets the time quantum `τ`.
    pub fn quanta(mut self, quanta: Quanta) -> Self {
        self.quanta = quanta;
        self
    }

    /// Sets the sampling window `ω` in ticks (paper default: 50).
    pub fn omega_ticks(mut self, ticks: u64) -> Self {
        self.omega_ticks = ticks;
        self
    }

    /// Sets the sliding window `W`.
    pub fn window(mut self, window: Nanos) -> Self {
        self.window = window;
        self
    }

    /// Sets the refresh interval `ΔW`.
    pub fn refresh(mut self, refresh: Nanos) -> Self {
        self.refresh = refresh;
        self
    }

    /// Sets the transaction-delay bound `T_u`.
    pub fn max_delay(mut self, max_delay: Nanos) -> Self {
        self.max_delay = max_delay;
        self
    }

    /// Sets the spike threshold in standard deviations.
    pub fn spike_sigma(mut self, sigma: f64) -> Self {
        self.spike_sigma = sigma;
        self
    }

    /// Sets the spike resolution window in ticks.
    pub fn spike_resolution_ticks(mut self, ticks: u64) -> Self {
        self.spike_resolution_ticks = ticks;
        self
    }

    /// Sets the minimum normalized correlation for causal evidence.
    pub fn min_spike_value(mut self, value: f64) -> Self {
        self.min_spike_value = value;
        self
    }

    /// Sets the refresh worker-pool size (clamped to at least 1; default
    /// is the platform's available parallelism). Output is bitwise
    /// identical for every setting; `1` never spawns threads, and a larger
    /// count starts `workers − 1` standing helper threads, once, that
    /// every later refresh phase shares
    /// ([`Pool`](crate::parallel::Pool)).
    pub fn num_workers(mut self, workers: usize) -> Self {
        self.num_workers = workers.max(1);
        self
    }

    /// Selects the tracer-to-analyzer transport (default:
    /// [`Transport::InProcess`], the bit-identical channel anchor).
    pub fn transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is degenerate (zero window, zero refresh,
    /// zero `ω`, zero `T_u`, refresh exceeding window).
    pub fn build(self) -> PathmapConfig {
        assert!(self.omega_ticks > 0, "sampling window must be positive");
        let cfg = PathmapConfig {
            quanta: self.quanta,
            omega_ticks: self.omega_ticks,
            window: self.window,
            refresh: self.refresh,
            max_delay: self.max_delay,
            spike_sigma: self.spike_sigma,
            spike_resolution_ticks: self.spike_resolution_ticks,
            min_spike_value: self.min_spike_value,
            num_workers: self.num_workers.max(1),
            transport: self.transport,
        };
        assert!(cfg.window_ticks() > 0, "window must span at least one tick");
        assert!(
            cfg.refresh_ticks() > 0,
            "refresh must span at least one tick"
        );
        assert!(cfg.max_lag() > 0, "max delay must span at least one tick");
        assert!(
            cfg.refresh_ticks() <= cfg.window_ticks(),
            "refresh interval cannot exceed the window"
        );
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_rubis_setup() {
        let cfg = PathmapConfig::default();
        assert_eq!(cfg.quanta(), Quanta::from_millis(1));
        assert_eq!(cfg.omega_ticks(), 50);
        assert_eq!(cfg.window_ticks(), 3 * 60 * 1000);
        assert_eq!(cfg.refresh_ticks(), 60 * 1000);
        assert_eq!(cfg.max_lag(), 60 * 1000);
        assert_eq!(cfg.spike_sigma(), 3.0);
        assert_eq!(cfg.build_engine().name(), "rle-compression");
    }

    #[test]
    fn builder_overrides() {
        let cfg = PathmapConfig::builder()
            .quanta(Quanta::from_secs(1))
            .omega_ticks(50)
            .window(Nanos::from_minutes(60))
            .refresh(Nanos::from_minutes(5))
            .max_delay(Nanos::from_minutes(2))
            .spike_sigma(2.5)
            .spike_resolution_ticks(10)
            .min_spike_value(0.1)
            .build();
        assert_eq!(cfg.window_ticks(), 3600);
        assert_eq!(cfg.refresh_ticks(), 300);
        assert_eq!(cfg.max_lag(), 120);
        assert_eq!(cfg.min_spike_value(), 0.1);
        assert_eq!(cfg.spike_detector().resolution(), 10);
    }

    #[test]
    fn num_workers_defaults_and_clamps() {
        assert!(PathmapConfig::default().num_workers() >= 1);
        assert_eq!(
            PathmapConfig::builder()
                .num_workers(0)
                .build()
                .num_workers(),
            1
        );
        assert_eq!(
            PathmapConfig::builder()
                .num_workers(4)
                .build()
                .num_workers(),
            4
        );
    }

    #[test]
    #[should_panic(expected = "refresh interval cannot exceed")]
    fn refresh_larger_than_window_rejected() {
        let _ = PathmapConfig::builder()
            .window(Nanos::from_secs(10))
            .refresh(Nanos::from_secs(20))
            .build();
    }

    #[test]
    #[should_panic(expected = "window must span")]
    fn sub_tick_window_rejected() {
        let _ = PathmapConfig::builder()
            .quanta(Quanta::from_secs(1))
            .window(Nanos::from_millis(10))
            .refresh(Nanos::from_millis(1))
            .build();
    }

    #[test]
    fn transport_defaults_to_in_process_and_is_selectable() {
        assert_eq!(PathmapConfig::default().transport(), Transport::InProcess);
        for t in [Transport::Tcp, Transport::Unix] {
            assert_eq!(PathmapConfig::builder().transport(t).build().transport(), t);
        }
    }
}
