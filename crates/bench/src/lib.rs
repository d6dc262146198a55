//! Shared inputs of the `experiments` binary, the `refresh_scaling` and
//! `transport_throughput` benches and the exactness tests.
//!
//! Everything here prepares *inputs* (simulated traces, edge signals,
//! prepared correlation pairs) so that timings cover only the analysis
//! work, exactly like the paper's Fig. 9 measures service-graph
//! computation time for already-collected traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use e2eprof_apps::rubis::{Dispatch, Rubis, RubisConfig};
use e2eprof_core::graph::NodeLabels;
use e2eprof_core::pathmap::roots_from_topology;
use e2eprof_core::signals::EdgeSignals;
use e2eprof_core::PathmapConfig;
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::{Nanos, Quanta, RleSeries};

pub mod refresh;
pub mod transport;

/// A prepared analysis scenario: a finished RUBiS round-robin run plus the
/// extracted edge signals for one analysis window.
#[derive(Debug)]
pub struct Scenario {
    /// The deployment (kept for truth/labels).
    pub rubis: Rubis,
    /// The analysis configuration.
    pub config: PathmapConfig,
    /// Extracted per-edge signals.
    pub signals: EdgeSignals,
    /// Pathmap roots.
    pub roots: Vec<(NodeId, NodeId)>,
    /// Node labels.
    pub labels: NodeLabels,
}

/// Builds the Fig. 6 (round-robin) deployment, runs it long enough to fill
/// a `window`-sized analysis window, and extracts signals.
///
/// `max_delay` is the correlation lag bound `T_u` (the paper uses 1 min;
/// scaled-down sweeps use less to keep the quadratic engines affordable).
pub fn rubis_scenario(window: Nanos, max_delay: Nanos, seed: u64) -> Scenario {
    let config = PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(window)
        .refresh(Nanos::from_nanos(
            (window.as_nanos() / 4).max(1_000_000_000),
        ))
        .max_delay(max_delay)
        .build();
    let mut rubis = Rubis::build(RubisConfig {
        dispatch: Dispatch::RoundRobin,
        seed,
        ..RubisConfig::default()
    });
    // Fill the window plus the unmaterialized tail plus slack.
    let run_for = window + max_delay + Nanos::from_secs(5);
    rubis.sim_mut().run_until(run_for);
    let signals = EdgeSignals::from_capture(rubis.sim().captures(), &config, rubis.sim().now());
    let roots = roots_from_topology(rubis.sim().topology());
    let labels = NodeLabels::from_topology(rubis.sim().topology());
    Scenario {
        rubis,
        config,
        signals,
        roots,
        labels,
    }
}

/// One row of Fig. 10: the TS1 → WS signal of a RUBiS round-robin run
/// (seed 42, τ = 1 ms, ω = 50 ms) under each representation, for one
/// analysis window. Every field is deterministic in the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig10Row {
    /// The analysis window `W`, in seconds.
    pub window_secs: u64,
    /// Packets the capture recorded on the edge.
    pub packets: usize,
    /// Length of the uncompressed (dense) series, in ticks.
    pub dense_len: u64,
    /// Entries of the burst-compressed (zero-suppressed) series.
    pub burst_len: usize,
    /// Runs of the RLE series.
    pub rle_runs: usize,
}

/// Computes the Fig. 10 row of a `window_secs`-second analysis window;
/// `experiments fig10` prints these rows.
pub fn fig10_row(window_secs: u64) -> Fig10Row {
    let scenario = rubis_scenario(Nanos::from_secs(window_secs), Nanos::from_secs(5), 42);
    let n = scenario.rubis.nodes();
    let y = scenario
        .signals
        .target_signal(n.ts1, n.ws)
        .expect("TS1->WS signal");
    Fig10Row {
        window_secs,
        packets: scenario
            .rubis
            .sim()
            .captures()
            .edge_signal(n.ts1, n.ws)
            .len(),
        dense_len: y.len(),
        burst_len: y.to_sparse().num_entries(),
        rle_runs: y.num_runs(),
    }
}

/// Extracts one prepared correlation pair from a scenario: the bidding
/// client's source signal and the `WS → TS1` edge signal.
pub fn corr_pair(s: &Scenario) -> (RleSeries, RleSeries) {
    let n = s.rubis.nodes();
    let x = s
        .signals
        .source_signal(n.c1, n.ws)
        .expect("bidding source signal");
    let y = s
        .signals
        .target_signal(n.ws, n.ts1)
        .expect("WS->TS1 signal")
        .clone();
    (x, y)
}

/// Formats a nanosecond duration for result tables.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_produces_usable_signals() {
        let s = rubis_scenario(Nanos::from_secs(10), Nanos::from_secs(2), 1);
        let (x, y) = corr_pair(&s);
        assert!(x.len() >= 9_000);
        assert!(x.support() > 0);
        assert!(y.support() > 0);
        assert_eq!(s.roots.len(), 2);
    }

    #[test]
    fn duration_formatting() {
        use std::time::Duration;
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7µs");
    }
}
