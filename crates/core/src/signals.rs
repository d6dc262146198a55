//! Per-edge density signals for one analysis window.
//!
//! Pathmap correlates the *source* signal (the client's request arrivals as
//! seen at the front end) against *target* signals (every candidate edge).
//! So that every lag in `[0, T_u/τ)` is fully materialized, the source
//! window ends `T_u` before the newest captured data: causality can only be
//! attributed to requests old enough to have completed.
//!
//! Offline, [`EdgeSignals::from_capture`] builds one window's signals from
//! scratch. Online, the analyzer keeps one `EdgeSignals` for its whole
//! life, a view per fine stream at the stream's own position: a refresh
//! cuts again only the views of the windows that woke, re-stamps the span
//! of every other (a quiet window's runs are provably those of its last
//! view, none of them clipped — DESIGN.md §6.1), and rebuilds the edge
//! index and adjacency only when it starts from scratch — which every
//! change of the signal-edge set forces.

use crate::config::PathmapConfig;
use crate::hashing::FxHashMap;
use e2eprof_netsim::{CaptureStore, NodeId};
use e2eprof_timeseries::density::DensityEstimator;
use e2eprof_timeseries::{Nanos, Quanta, RleSeries, Run, Tick};
use std::collections::BTreeMap;
use std::ops::Range;

/// The edge signals of one analysis window — built once per window
/// offline, kept and moved from window to window online (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct EdgeSignals {
    quanta: Quanta,
    /// Source analysis window `[start, end)` in ticks.
    window: (Tick, Tick),
    max_lag: u64,
    /// Each signal edge's position in `views`. Keys are node indices from
    /// the program's own topology, never from the network.
    index: FxHashMap<(NodeId, NodeId), usize>,
    /// Per position: the preferred-observer density series of one directed
    /// edge, spanning (up to) `[window.0, window.1 + max_lag)`. A position
    /// no edge of `index` names is stale and never read.
    views: Vec<RleSeries>,
    adjacency: BTreeMap<NodeId, Vec<NodeId>>,
}

impl EdgeSignals {
    /// Builds signals from one series per edge (the log ingester does).
    pub fn from_parts(
        quanta: Quanta,
        window: (Tick, Tick),
        max_lag: u64,
        signals: FxHashMap<(NodeId, NodeId), RleSeries>,
    ) -> Self {
        let mut built = EdgeSignals::empty(quanta, max_lag);
        built.window = window;
        let (edges, views): (Vec<_>, Vec<_>) = signals.into_iter().unzip();
        built.views = views;
        built.reindex(edges.into_iter().enumerate().map(|(i, edge)| (edge, i)));
        built
    }

    /// Signals with no edge and no window yet, for the online analyzer to
    /// fill position by position.
    pub(crate) fn empty(quanta: Quanta, max_lag: u64) -> Self {
        EdgeSignals {
            quanta,
            window: (Tick::ZERO, Tick::ZERO),
            max_lag,
            index: FxHashMap::default(),
            views: Vec::new(),
            adjacency: BTreeMap::new(),
        }
    }

    /// Rebuilds the edge index and the adjacency from the signal edges and
    /// their positions. Positions left out keep their views but are no
    /// longer read.
    pub(crate) fn reindex(&mut self, edges: impl Iterator<Item = ((NodeId, NodeId), usize)>) {
        self.index.clear();
        self.adjacency.clear();
        for ((src, dst), at) in edges {
            self.index.insert((src, dst), at);
            self.adjacency.entry(src).or_default().push(dst);
        }
        for targets in self.adjacency.values_mut() {
            targets.sort_unstable();
        }
    }

    /// Moves the source analysis window to `window`.
    pub(crate) fn set_window(&mut self, window: (Tick, Tick)) {
        self.window = window;
    }

    /// Every position's view, in position order (new positions are pushed
    /// at the back).
    pub(crate) fn views_mut(&mut self) -> &mut Vec<RleSeries> {
        &mut self.views
    }

    /// The view at position `at`.
    pub(crate) fn view(&self, at: usize) -> &RleSeries {
        &self.views[at]
    }

    /// Builds signals offline from a capture store, analysing the most
    /// recent window that is fully materialized at time `now`: the source
    /// window is `[now − T_u − W, now − T_u)`.
    ///
    /// Each edge's signal prefers the receiver-side observation, falling
    /// back to the sender side (edges into untraced clients).
    pub fn from_capture(capture: &CaptureStore, cfg: &PathmapConfig, now: Nanos) -> Self {
        let edges = capture
            .edges()
            .map(|(src, dst)| ((src, dst), capture.edge_signal(src, dst)));
        Self::from_timestamps(cfg, now, edges)
    }

    /// Builds the signals of the window [`from_capture`](Self::from_capture)
    /// analyses at `now` from each edge's sorted message timestamps: every
    /// edge's density over the source window and the lag horizon past it,
    /// clipped where the density itself ends.
    ///
    /// # Panics
    ///
    /// Panics if an edge's timestamps are not non-decreasing.
    pub(crate) fn from_timestamps<'a>(
        cfg: &PathmapConfig,
        now: Nanos,
        edges: impl Iterator<Item = ((NodeId, NodeId), &'a [Nanos])>,
    ) -> Self {
        let quanta = cfg.quanta();
        let max_lag = cfg.max_lag();
        let ((start, end), reach) = Self::geometry(cfg, now);
        let y_end = end + max_lag;
        let mut runs = Vec::new();
        let signals = edges
            .map(|(edge, all)| {
                let lo = all.partition_point(|&t| t < reach.start);
                let hi = all.partition_point(|&t| t < reach.end);
                let mut density = DensityEstimator::new(quanta, cfg.omega_ticks());
                for &ts in &all[lo..hi] {
                    density.push(ts);
                }
                let density_end = density.end();
                let (from, to) = (start.min(density_end), y_end.min(density_end).max(start));
                density.drain_runs(from, &mut runs);
                density.drain_runs(to, &mut runs);
                let runs = runs.drain(..).map(Run::from).collect();
                (
                    edge,
                    RleSeries::from_parts(from, to.index() - from.index(), runs),
                )
            })
            .collect();
        Self::from_parts(quanta, (start, end), max_lag, signals)
    }

    /// The source window `[now − T_u − W, now − T_u)` in ticks, and the
    /// message timestamps that can reach it or its lag horizon.
    pub(crate) fn geometry(cfg: &PathmapConfig, now: Nanos) -> ((Tick, Tick), Range<Nanos>) {
        let quanta = cfg.quanta();
        let end = quanta.tick_of(now).saturating_sub(cfg.max_lag());
        let start = end.saturating_sub(cfg.window_ticks());
        // Timestamps influencing ticks >= start begin at start·τ − ω/2.
        let margin = Nanos::from_nanos(cfg.omega_ticks() * quanta.duration().as_nanos());
        let reach = quanta.instant_of(start).saturating_sub(margin)
            ..quanta.instant_of(end + cfg.max_lag()) + margin;
        ((start, end), reach)
    }

    /// The time quantum.
    pub fn quanta(&self) -> Quanta {
        self.quanta
    }

    /// The source analysis window `[start, end)` in ticks.
    pub fn window(&self) -> (Tick, Tick) {
        self.window
    }

    /// The correlation lag bound in ticks.
    pub fn max_lag(&self) -> u64 {
        self.max_lag
    }

    /// The nodes `node` sent messages to within the window's horizon.
    pub fn edges_from(&self, node: NodeId) -> &[NodeId] {
        self.adjacency.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All edges with signals.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.index.keys().copied()
    }

    /// The *source* signal of `src → dst`: the series sliced to the
    /// analysis window (requests whose causality is being traced).
    pub fn source_signal(&self, src: NodeId, dst: NodeId) -> Option<RleSeries> {
        self.target_signal(src, dst).map(|s| {
            s.slice(
                self.window.0.max(s.start()),
                self.window.1.min(s.end()).max(self.window.0),
            )
        })
    }

    /// The *target* signal of `src → dst`: the full retained span
    /// (extending `max_lag` past the source window).
    pub fn target_signal(&self, src: NodeId, dst: NodeId) -> Option<&RleSeries> {
        self.index.get(&(src, dst)).map(|&at| &self.views[at])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2eprof_netsim::prelude::*;
    use e2eprof_netsim::Route;

    fn two_tier() -> Simulation {
        let mut t = TopologyBuilder::new();
        let class = t.service_class("c");
        let web = t.service("web", ServiceConfig::new(DelayDist::constant_millis(2)));
        let db = t.service("db", ServiceConfig::new(DelayDist::constant_millis(5)));
        let cli = t.client("cli", class, web, Workload::poisson(40.0));
        t.connect(cli, web, DelayDist::constant_millis(1));
        t.connect(web, db, DelayDist::constant_millis(1));
        t.route(web, class, Route::fixed(db));
        t.route(db, class, Route::terminal());
        Simulation::new(t.build().unwrap(), 11)
    }

    fn small_cfg() -> PathmapConfig {
        PathmapConfig::builder()
            .window(Nanos::from_secs(20))
            .refresh(Nanos::from_secs(5))
            .max_delay(Nanos::from_secs(2))
            .build()
    }

    #[test]
    fn signals_cover_all_traced_edges() {
        let mut sim = two_tier();
        sim.run_until(Nanos::from_secs(30));
        let cfg = small_cfg();
        let signals = EdgeSignals::from_capture(sim.captures(), &cfg, sim.now());
        let (web, db, cli) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        // Forward, return, and client-facing edges all have signals.
        for edge in [(cli, web), (web, db), (db, web), (web, cli)] {
            assert!(signals.target_signal(edge.0, edge.1).is_some(), "{edge:?}");
        }
        assert_eq!(signals.edges_from(web), &[db, cli]);
    }

    #[test]
    fn window_excludes_unmaterialized_tail() {
        let mut sim = two_tier();
        sim.run_until(Nanos::from_secs(30));
        let cfg = small_cfg();
        let signals = EdgeSignals::from_capture(sim.captures(), &cfg, sim.now());
        let (start, end) = signals.window();
        // end = now − T_u = 28s; start = end − W = 8s (in ms ticks).
        assert_eq!(end, Tick::new(28_000));
        assert_eq!(start, Tick::new(8_000));
        let x = signals
            .source_signal(NodeId::new(2), NodeId::new(0))
            .unwrap();
        assert_eq!(x.start(), start);
        assert_eq!(x.end(), end);
        // Target extends past the source window for lag coverage.
        let y = signals
            .target_signal(NodeId::new(0), NodeId::new(1))
            .unwrap();
        assert!(y.end() > end);
    }

    #[test]
    fn source_signal_has_traffic() {
        let mut sim = two_tier();
        sim.run_until(Nanos::from_secs(30));
        let cfg = small_cfg();
        let signals = EdgeSignals::from_capture(sim.captures(), &cfg, sim.now());
        let x = signals
            .source_signal(NodeId::new(2), NodeId::new(0))
            .unwrap();
        // ~40 req/s over a 20 s window, each smeared over ω=50 ticks.
        assert!(x.stats().sum() > 100.0);
    }

    /// Each edge's signal is, run for run, the per-tick density of its
    /// timestamps within ω of the window, sliced to the window and its lag
    /// horizon as far as that density reaches — whether it ends past the
    /// horizon, inside it or before the window opens.
    #[test]
    fn signals_are_the_sliced_per_tick_density() {
        let mut sim = two_tier();
        sim.run_until(Nanos::from_secs(30));
        let cfg = small_cfg();
        let (quanta, omega) = (cfg.quanta(), cfg.omega_ticks());
        for now in [1, 30, 40, 60].map(Nanos::from_secs) {
            let signals = EdgeSignals::from_capture(sim.captures(), &cfg, now);
            let ((start, end), reach) = EdgeSignals::geometry(&cfg, now);
            let y_end = end + cfg.max_lag();
            for (src, dst) in sim.captures().edges() {
                let all = sim.captures().edge_signal(src, dst).iter().copied();
                let stamps: Vec<Nanos> = all.filter(|t| reach.contains(t)).collect();
                let series = DensityEstimator::from_timestamps(quanta, omega, &stamps);
                let want = series
                    .slice(start.min(series.end()), y_end.min(series.end()).max(start))
                    .to_rle();
                let got = signals.target_signal(src, dst);
                assert_eq!(got, Some(&want), "now {now:?}, edge {src:?} -> {dst:?}");
            }
        }
    }

    #[test]
    fn short_trace_clamps_gracefully() {
        let mut sim = two_tier();
        sim.run_until(Nanos::from_secs(1)); // shorter than W + T_u
        let cfg = small_cfg();
        let signals = EdgeSignals::from_capture(sim.captures(), &cfg, sim.now());
        // Window is degenerate but nothing panics and signals exist.
        let (start, end) = signals.window();
        assert!(start <= end);
    }
}
