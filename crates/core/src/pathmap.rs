//! The pathmap algorithm (Algorithm 1 of the paper).
//!
//! `ServiceRoot` seeds one service graph per client at each front-end
//! node; `ComputePath` recursively explores the system by
//! cross-correlating the client's request-arrival signal `T_c` with the
//! signal of every edge leaving the node under consideration. A
//! distinguishable spike establishes causality (the edge carries traffic
//! caused by this client's requests) and its lag measures the cumulative
//! delay from front-end arrival to that edge.

use crate::config::PathmapConfig;
use crate::graph::{GraphEdge, NodeLabels, ServiceGraph};
use crate::parallel::{Pool, ScratchPool};
use crate::signals::EdgeSignals;
use e2eprof_netsim::{NodeId, Topology};
use e2eprof_timeseries::RleSeries;
use e2eprof_xcorr::{normalize, CorrSeries, Correlator, Spike};
use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Supplies lagged-product series to the path search of one root.
///
/// Offline discovery recomputes every pair from scratch with a stateless
/// engine. The online analyzer hands each root a provider over that root's
/// own correlators, which Phase 1 of the refresh has already brought to
/// the window by touching only the `ΔW` ticks that changed; a pair the
/// search reaches for the first time gets its correlator there.
pub trait CorrelationProvider {
    /// Raw lagged products of the client's source signal `x` against the
    /// edge signal `y`.
    ///
    /// A provider that maintains the products itself lends them out (the
    /// online analyzer's live in the root's correlators, so discovery
    /// reads them in place); a stateless one returns what it just
    /// computed.
    fn correlate(
        &mut self,
        client: NodeId,
        edge: (NodeId, NodeId),
        x: &RleSeries,
        y: &RleSeries,
        max_lag: u64,
    ) -> Cow<'_, CorrSeries>;

    /// The spike list of a pair this provider can prove is what deciding
    /// the pair again would yield, because nothing the decision reads has
    /// changed since it was last made — asked before
    /// [`correlate`](Self::correlate), so a carried pair is neither
    /// correlated, normalized nor spike-detected.
    ///
    /// The default never carries: a stateless provider remembers nothing.
    fn carried(&mut self, _client: NodeId, _edge: (NodeId, NodeId)) -> Option<Vec<Spike>> {
        None
    }

    /// Hands over the spike list the search settled on for a pair (the
    /// `≥ min_spike_value` survivors, possibly none), carried or not, once
    /// the graph has taken what it needs of it. `evidence_free` says this visit decided it from products that
    /// were zero at every lag, without normalizing them.
    fn decided(
        &mut self,
        _client: NodeId,
        _edge: (NodeId, NodeId),
        _spikes: Vec<Spike>,
        _evidence_free: bool,
    ) {
    }
}

/// Counters of the coarse screening tier, which no longer exists: what
/// [`OnlineAnalyzer::screening_stats`](crate::analyzer::OnlineAnalyzer::screening_stats)
/// would return. The end-to-end benchmark (`bench/src/run.rs`) compiles
/// against it; removal waits for a `benchmark` PR.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreeningStats {
    /// Candidate pairs examined.
    pub candidates: u64,
    /// Pairs pruned.
    pub pruned: u64,
}

/// Counters of the online refresh's activity gate: how much per-refresh
/// work the change-epoch gate, dirty-root reuse and discovery's own
/// short cuts avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Fine correlation pairs considered this refresh.
    pub fine_pairs: u64,
    /// Fine pairs skipped (cached `CorrSeries` carried forward).
    pub fine_skipped: u64,
    /// Roots eligible for discovery this refresh.
    pub roots: u64,
    /// Roots that reused last refresh's `ServiceGraph` unchanged.
    pub reused_roots: u64,
    /// Pairs the explorations of the other (dirty) roots consulted.
    pub visited_pairs: u64,
    /// Of those, pairs decided without normalization because their lagged
    /// products were zero at every lag.
    pub evidence_free_pairs: u64,
    /// Of those, pairs whose previous spike list was carried forward
    /// (their products were skipped bitwise by the fine tier).
    pub carried_verdicts: u64,
}

impl IncrementalStats {
    /// The fraction of fine pairs skipped in `[0, 1]` (`0` when nothing
    /// was considered).
    pub fn fine_skipped_fraction(&self) -> f64 {
        if self.fine_pairs == 0 {
            0.0
        } else {
            self.fine_skipped as f64 / self.fine_pairs as f64
        }
    }

    /// Accumulates another analyzer's counters into this one (the CLI
    /// sums over shards).
    pub fn absorb(&mut self, other: IncrementalStats) {
        self.fine_pairs += other.fine_pairs;
        self.fine_skipped += other.fine_skipped;
        self.roots += other.roots;
        self.reused_roots += other.reused_roots;
        self.visited_pairs += other.visited_pairs;
        self.evidence_free_pairs += other.evidence_free_pairs;
        self.carried_verdicts += other.carried_verdicts;
    }
}

/// Buffer-reuse counters of the refresh hot path: every time a pair's
/// correlation is maintained (a window slide) or read (normalization
/// ahead of spike detection) it works in a buffer kept from earlier
/// pairs and refreshes, and this records whether that buffer was big
/// enough. In steady state `reused` keeps rising while `allocated` stays
/// constant — nothing proportional to the lag bound is allocated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchCounters {
    /// Uses that fit in a buffer kept from an earlier use.
    pub reused: u64,
    /// Uses that allocated or grew a buffer.
    pub allocated: u64,
}

/// Offline discovery's provider: every pair computed from scratch by the
/// pathmap's engine.
#[derive(Debug)]
struct StatelessProvider<'a> {
    engine: &'a dyn Correlator,
}

impl CorrelationProvider for StatelessProvider<'_> {
    fn correlate(
        &mut self,
        _client: NodeId,
        _edge: (NodeId, NodeId),
        x: &RleSeries,
        y: &RleSeries,
        max_lag: u64,
    ) -> Cow<'_, CorrSeries> {
        Cow::Owned(self.engine.correlate(x, y, max_lag))
    }
}

/// The `(client, front-end)` pairs pathmap starts its search from.
///
/// In a real deployment these come from operator configuration (the front
/// end knows its clients and their service classes); for simulations they
/// are read off the topology.
pub fn roots_from_topology(topo: &Topology) -> Vec<(NodeId, NodeId)> {
    let mut roots = Vec::new();
    for (front, clients) in topo.front_ends() {
        for client in clients {
            roots.push((client, front));
        }
    }
    roots
}

/// The root a search explores from: its client and source signal `x`,
/// with the sign of `x` scanned once for every pair the search visits.
struct RootSignal<'a> {
    client: NodeId,
    x: &'a RleSeries,
    /// No run of `x` is negative.
    non_negative: bool,
}

/// Whether no run of `s` is negative.
fn non_negative(s: &RleSeries) -> bool {
    s.runs().iter().all(|r| r.value() >= 0.0)
}

/// Every client of `roots`. Exploring one client's graph must still know
/// that the *other* clients are untraced endpoints it cannot recurse into.
fn clients_of(roots: &[(NodeId, NodeId)]) -> HashSet<NodeId> {
    roots.iter().map(|&(client, _)| client).collect()
}

/// Fraction of the maximum per-node delay above which a node is marked a
/// bottleneck.
const BOTTLENECK_FRACTION: f64 = 0.5;

/// The pathmap path-discovery algorithm.
///
/// A clone shares the original's engine, normalization buffers and their
/// counters: it is how one pathmap serves the items of a worker pool.
#[derive(Debug, Clone)]
pub struct Pathmap {
    config: PathmapConfig,
    /// The stateless engine of offline discovery; the online analyzer
    /// maintains its products itself.
    engine: Arc<dyn Correlator>,
    rho: Arc<RhoBuffers>,
}

/// Normalized-coefficient buffers, one per concurrently explored root,
/// kept across calls: every pair a root's search visits is normalized into
/// the same buffer and spike-detected in place.
#[derive(Debug, Default)]
struct RhoBuffers {
    buffers: ScratchPool<Vec<f64>>,
    /// How many of those normalizations fit the buffer they were handed
    /// and how many had to grow it (statistics only, hence `Relaxed`).
    reused: AtomicU64,
    allocated: AtomicU64,
}

impl Pathmap {
    /// Creates a pathmap instance correlating with the RLE-native engine.
    pub fn new(config: PathmapConfig) -> Self {
        let engine = config.build_engine();
        Self::with_correlator(config, engine)
    }

    /// Creates a pathmap instance with an explicit correlation engine
    /// (used for the Fig. 9 engine comparison).
    pub fn with_correlator(config: PathmapConfig, engine: Box<dyn Correlator>) -> Self {
        Pathmap {
            config,
            engine: Arc::from(engine),
            rho: Arc::default(),
        }
    }

    /// The analysis configuration.
    pub fn config(&self) -> &PathmapConfig {
        &self.config
    }

    /// Reuse counters of the normalization buffers over this instance's
    /// lifetime: one use per candidate pair whose correlation a search
    /// normalized.
    pub fn scratch_counters(&self) -> ScratchCounters {
        ScratchCounters {
            reused: self.rho.reused.load(Ordering::Relaxed),
            allocated: self.rho.allocated.load(Ordering::Relaxed),
        }
    }

    /// Runs `ServiceRoot`: discovers one service graph per
    /// `(client, front-end)` root using the configured stateless engine, on
    /// the calling thread.
    pub fn discover(
        &self,
        signals: &EdgeSignals,
        roots: &[(NodeId, NodeId)],
        labels: &NodeLabels,
    ) -> Vec<ServiceGraph> {
        let clients = clients_of(roots);
        roots
            .iter()
            .filter_map(|&root| self.discover_stateless(root, signals, &clients, labels))
            .collect()
    }

    /// Runs `ServiceRoot` with the client graphs spread over
    /// [`PathmapConfig::num_workers`] workers of a [`Pool`].
    ///
    /// The paper (Section 3.7): "the pathmap algorithm can easily be made
    /// more scalable by parallely computing the service graph of each
    /// client node" — client graphs are independent given the shared
    /// read-only signals. Results are identical to
    /// [`discover`](Pathmap::discover), in root order. The pool's items
    /// own what they read, so the signals and labels are copied once, into
    /// one `Arc` every item shares.
    pub fn discover_parallel(
        &self,
        signals: &EdgeSignals,
        roots: &[(NodeId, NodeId)],
        labels: &NodeLabels,
    ) -> Vec<ServiceGraph> {
        let workers = self.config.num_workers();
        if workers <= 1 || roots.len() <= 1 {
            return self.discover(signals, roots, labels);
        }
        let shared = Arc::new((
            self.clone(),
            signals.clone(),
            clients_of(roots),
            labels.clone(),
        ));
        let graphs = Pool::new(workers).run(roots.to_vec(), move |root| {
            let (pathmap, signals, clients, labels) = &*shared;
            pathmap.discover_stateless(root, signals, clients, labels)
        });
        graphs.into_iter().flatten().collect()
    }

    /// Offline discovery of one root: its graph, or `None` when its source
    /// signal is absent.
    fn discover_stateless(
        &self,
        (client, front): (NodeId, NodeId),
        signals: &EdgeSignals,
        clients: &HashSet<NodeId>,
        labels: &NodeLabels,
    ) -> Option<ServiceGraph> {
        let x = signals.source_signal(client, front)?;
        let mut provider = StatelessProvider {
            engine: self.engine.as_ref(),
        };
        Some(self.discover_root((client, front), &x, signals, clients, labels, &mut provider))
    }

    /// Builds the graph of one `(client, front)` root from its source
    /// signal `x`, consulting `provider` for every pair it visits.
    ///
    /// `clients` is every client in the deployment, a superset of this
    /// root's: exploration never recurses into a client node, and the
    /// online analyzer's shards own only some roots of the universe.
    pub(crate) fn discover_root(
        &self,
        (client, front): (NodeId, NodeId),
        x: &RleSeries,
        signals: &EdgeSignals,
        clients: &HashSet<NodeId>,
        labels: &NodeLabels,
        provider: &mut dyn CorrelationProvider,
    ) -> ServiceGraph {
        let mut graph = ServiceGraph::new(client, labels.label(client), front);
        graph.add_vertex(front, labels.label(front));
        // The client's own edge carries no measured delay (clients are
        // untraced); it anchors the graph.
        graph.add_edge(GraphEdge::anchor(client, front));
        let mut visited = HashSet::new();
        let root = RootSignal {
            client,
            non_negative: non_negative(x),
            x,
        };
        self.rho.buffers.with(|rho| {
            self.compute_path(
                &mut graph,
                &root,
                front,
                0,
                &mut visited,
                clients,
                signals,
                labels,
                provider,
                rho,
            )
        });
        graph.recompute_hop_delays();
        graph.annotate_bottlenecks(BOTTLENECK_FRACTION);
        graph
    }

    /// Whether a pair's lagged products prove it has no spike, without
    /// normalizing them: they are `0.0` at every lag and neither signal
    /// has a negative run.
    ///
    /// Lemma. With `r(d) = 0` the numerator of Eq. 1 is `−x̄·S(d)`, where
    /// `x̄` is the source window's mean and `S(d)` a window sum of `y`.
    /// Both are sums of non-negative terms when no run is negative — as
    /// density signals (`√count`) never are — and a floating-point sum of
    /// non-negative
    /// terms is non-negative, as is the difference of two prefix sums of
    /// one such sequence. So every coefficient `normalize_into` would
    /// write is `≤ 0` (or the `den ≤ EPS` zero), and none can pass the
    /// `≥ min_spike_value` filter once that floor is positive. The test
    /// is exact on purpose: a product of `1e-300` is evidence (Eq. 1 is
    /// scale-free), and a pair with a negative run takes the long path.
    ///
    /// The scan leaves at the first non-zero lag, so a live pair pays a
    /// few loads. Accumulators of pairs that never overlap within the lag
    /// bound *are* exact zeros: a fill sums no product at all, and an
    /// advance is `(acc + Δa) − Δe` with both deltas empty sums. The
    /// source's sign is the root's, scanned once per root.
    fn has_no_evidence(&self, raw: &CorrSeries, root: &RootSignal<'_>, y: &RleSeries) -> bool {
        self.config.min_spike_value() > 0.0
            && raw.values().iter().all(|&r| r == 0.0)
            && non_negative(y)
            && root.non_negative
    }

    /// `ComputePath`: explores edges out of `node`, adding those whose
    /// correlation with `x` spikes, and recursing depth-first.
    #[allow(clippy::too_many_arguments)]
    fn compute_path(
        &self,
        graph: &mut ServiceGraph,
        root: &RootSignal<'_>,
        node: NodeId,
        base_lag: u64,
        visited: &mut HashSet<NodeId>,
        clients: &HashSet<NodeId>,
        signals: &EdgeSignals,
        labels: &NodeLabels,
        provider: &mut dyn CorrelationProvider,
        rho: &mut Vec<f64>,
    ) {
        visited.insert(node);
        let detector = self.config.spike_detector();
        let quanta = self.config.quanta();
        let max_lag = signals.max_lag();
        let (client, x) = (root.client, root.x);
        for &next in signals.edges_from(node) {
            let Some(y) = signals.target_signal(node, next) else {
                continue;
            };
            let edge = (node, next);
            let (spikes, evidence_free) = match provider.carried(client, edge) {
                Some(spikes) => (spikes, false),
                None => {
                    // The products may be on loan from the provider; the
                    // loan ends with this arm, before the search recurses
                    // through it.
                    let raw = provider.correlate(client, edge, x, y, max_lag);
                    if self.has_no_evidence(&raw, root, y) {
                        (Vec::new(), true)
                    } else {
                        let grows = rho.capacity() < raw.values().len();
                        let moments = normalize::normalize_into(&raw, x, y, rho);
                        let counter = if grows {
                            &self.rho.allocated
                        } else {
                            &self.rho.reused
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                        let mut spikes = detector.detect_with(rho, moments);
                        spikes.retain(|s| s.value >= self.config.min_spike_value());
                        (spikes, false)
                    }
                }
            };
            let min_lag = spikes.iter().map(|s| s.lag).min();
            if let Some(min_lag) = min_lag {
                graph.add_vertex(next, labels.label(next));
                graph.add_edge(GraphEdge {
                    from: node,
                    to: next,
                    spikes: spikes
                        .iter()
                        .map(|s| crate::graph::DelaySpike {
                            delay: quanta.ticks_to_nanos(s.lag),
                            strength: s.value,
                        })
                        .collect(),
                    hop_delay: quanta.ticks_to_nanos(min_lag.saturating_sub(base_lag)),
                });
            }
            provider.decided(client, edge, spikes, evidence_free);
            let Some(min_lag) = min_lag else {
                continue;
            };
            if !visited.contains(&next) && !clients.contains(&next) {
                self.compute_path(
                    graph, root, next, min_lag, visited, clients, signals, labels, provider, rho,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeLabels;
    use crate::testutil::idle_mesh;
    use e2eprof_netsim::prelude::*;
    use e2eprof_netsim::Route;
    use e2eprof_timeseries::{Nanos, Run, Tick};
    use e2eprof_xcorr::engine::RleCorrelator;

    /// Short-horizon config so tests stay fast: W = 20 s, T_u = 2 s.
    fn test_cfg() -> PathmapConfig {
        PathmapConfig::builder()
            .window(Nanos::from_secs(20))
            .refresh(Nanos::from_secs(5))
            .max_delay(Nanos::from_secs(2))
            .build()
    }

    /// client -> web -> app -> db chain.
    fn chain_sim(seed: u64) -> Simulation {
        let mut t = TopologyBuilder::new();
        let class = t.service_class("bid");
        let web = t.service("web", ServiceConfig::new(DelayDist::constant_millis(2)));
        let app = t.service("app", ServiceConfig::new(DelayDist::exponential_millis(12)));
        let db = t.service("db", ServiceConfig::new(DelayDist::constant_millis(5)));
        let cli = t.client("cli", class, web, Workload::poisson(25.0));
        t.connect(cli, web, DelayDist::constant_millis(1));
        t.connect(web, app, DelayDist::constant_millis(1));
        t.connect(app, db, DelayDist::constant_millis(1));
        t.route(web, class, Route::fixed(app));
        t.route(app, class, Route::fixed(db));
        t.route(db, class, Route::terminal());
        Simulation::new(t.build().unwrap(), seed)
    }

    fn discover(sim: &Simulation) -> Vec<ServiceGraph> {
        let cfg = test_cfg();
        let pm = Pathmap::new(cfg.clone());
        let signals = EdgeSignals::from_capture(sim.captures(), &cfg, sim.now());
        let labels = NodeLabels::from_topology(sim.topology());
        pm.discover(&signals, &roots_from_topology(sim.topology()), &labels)
    }

    #[test]
    fn chain_path_fully_discovered() {
        let mut sim = chain_sim(3);
        sim.run_until(Nanos::from_secs(30));
        let graphs = discover(&sim);
        assert_eq!(graphs.len(), 1);
        let g = &graphs[0];
        // Forward path.
        assert!(g.has_edge_between("web", "app"));
        assert!(g.has_edge_between("app", "db"));
        // Return path.
        assert!(g.has_edge_between("db", "app"));
        assert!(g.has_edge_between("app", "web"));
        assert!(g.has_edge_between("web", "cli"));
    }

    #[test]
    fn cumulative_delays_increase_along_path() {
        let mut sim = chain_sim(4);
        sim.run_until(Nanos::from_secs(30));
        let g = &discover(&sim)[0];
        let cum = |a: &str, b: &str| {
            let e = g
                .edges()
                .iter()
                .find(|e| g.label_of(e.from) == a && g.label_of(e.to) == b)
                .unwrap_or_else(|| panic!("edge {a}->{b}"));
            e.min_delay().unwrap()
        };
        let up1 = cum("web", "app");
        let up2 = cum("app", "db");
        let back = cum("web", "cli");
        assert!(up1 < up2, "{up1} < {up2}");
        assert!(up2 < back, "{up2} < {back}");
    }

    #[test]
    fn app_server_marked_bottleneck() {
        let mut sim = chain_sim(5);
        sim.run_until(Nanos::from_secs(30));
        let g = &discover(&sim)[0];
        let app = g
            .vertices()
            .iter()
            .find(|v| v.label == "app")
            .expect("app vertex");
        assert!(app.bottleneck, "app (20ms exp + db round trip) dominates");
    }

    #[test]
    fn unrelated_branch_not_discovered() {
        // Two clients with disjoint backends behind one front end: each
        // graph must contain only its own branch.
        let mut t = TopologyBuilder::new();
        let bid = t.service_class("bid");
        let cmt = t.service_class("comment");
        let web = t.service("web", ServiceConfig::new(DelayDist::constant_millis(2)));
        let s1 = t.service("s1", ServiceConfig::new(DelayDist::exponential_millis(15)));
        let s2 = t.service("s2", ServiceConfig::new(DelayDist::exponential_millis(15)));
        let c1 = t.client("c1", bid, web, Workload::poisson(25.0));
        let c2 = t.client("c2", cmt, web, Workload::poisson(25.0));
        t.connect(c1, web, DelayDist::constant_millis(1));
        t.connect(c2, web, DelayDist::constant_millis(1));
        t.connect(web, s1, DelayDist::constant_millis(1));
        t.connect(web, s2, DelayDist::constant_millis(1));
        t.route(web, bid, Route::fixed(s1));
        t.route(web, cmt, Route::fixed(s2));
        t.route(s1, bid, Route::terminal());
        t.route(s2, cmt, Route::terminal());
        let mut sim = Simulation::new(t.build().unwrap(), 6);
        sim.run_until(Nanos::from_secs(30));
        let graphs = discover(&sim);
        assert_eq!(graphs.len(), 2);
        let g1 = graphs.iter().find(|g| g.client_label == "c1").unwrap();
        let g2 = graphs.iter().find(|g| g.client_label == "c2").unwrap();
        assert!(g1.has_edge_between("web", "s1"));
        assert!(
            !g1.has_edge_between("web", "s2"),
            "c1's graph leaked into s2:\n{g1}"
        );
        assert!(g2.has_edge_between("web", "s2"));
        assert!(
            !g2.has_edge_between("web", "s1"),
            "c2's graph leaked into s1"
        );
        // Cross-client response edges must not appear either.
        assert!(!g1.has_edge_between("web", "c2"));
        assert!(!g2.has_edge_between("web", "c1"));
    }

    #[test]
    fn round_robin_discovers_both_paths() {
        let mut t = TopologyBuilder::new();
        let class = t.service_class("bid");
        let web = t.service("web", ServiceConfig::new(DelayDist::constant_millis(2)));
        let a = t.service("a", ServiceConfig::new(DelayDist::exponential_millis(12)));
        let b = t.service("b", ServiceConfig::new(DelayDist::exponential_millis(12)));
        let cli = t.client("cli", class, web, Workload::poisson(50.0));
        t.connect(cli, web, DelayDist::constant_millis(1));
        t.connect(web, a, DelayDist::constant_millis(1));
        t.connect(web, b, DelayDist::constant_millis(1));
        t.route(web, class, Route::round_robin(vec![a, b]));
        t.route(a, class, Route::terminal());
        t.route(b, class, Route::terminal());
        let mut sim = Simulation::new(t.build().unwrap(), 7);
        sim.run_until(Nanos::from_secs(30));
        let graphs = discover(&sim);
        let g = &graphs[0];
        assert!(g.has_edge_between("web", "a"));
        assert!(g.has_edge_between("web", "b"));
        assert!(g.has_edge_between("a", "web"));
        assert!(g.has_edge_between("b", "web"));
    }

    #[test]
    fn all_stateless_engines_find_the_same_path() {
        use e2eprof_xcorr::engine::all_engines;
        let mut sim = chain_sim(8);
        sim.run_until(Nanos::from_secs(30));
        let cfg = test_cfg();
        let signals = EdgeSignals::from_capture(sim.captures(), &cfg, sim.now());
        let labels = NodeLabels::from_topology(sim.topology());
        let roots = roots_from_topology(sim.topology());
        let mut edge_sets = Vec::new();
        for engine in all_engines() {
            let pm = Pathmap::with_correlator(cfg.clone(), engine);
            let graphs = pm.discover(&signals, &roots, &labels);
            let mut edges: Vec<(NodeId, NodeId)> =
                graphs[0].edges().iter().map(|e| (e.from, e.to)).collect();
            edges.sort_unstable();
            edge_sets.push(edges);
        }
        for pair in edge_sets.windows(2) {
            assert_eq!(pair[0], pair[1], "engines disagree on discovered edges");
        }
    }

    #[test]
    fn offline_discovery_of_64_roots_on_two_workers_matches_serial() {
        // 64 disjoint client -> web -> db stacks: one root each.
        let mut sim = idle_mesh(11, &vec![Workload::poisson(20.0); 64]);
        sim.run_until(Nanos::from_secs(15));
        let cfg = PathmapConfig::builder()
            .window(Nanos::from_secs(10))
            .refresh(Nanos::from_secs(2))
            .max_delay(Nanos::from_secs(1))
            .num_workers(2)
            .build();
        let signals = EdgeSignals::from_capture(sim.captures(), &cfg, sim.now());
        let labels = NodeLabels::from_topology(sim.topology());
        let roots = roots_from_topology(sim.topology());
        assert_eq!(roots.len(), 64);
        let pm = Pathmap::new(cfg);
        let serial = pm.discover(&signals, &roots, &labels);
        assert_eq!(serial.len(), 64);
        assert!(serial.iter().all(|g| g.edges().len() > 1));
        assert_eq!(pm.discover_parallel(&signals, &roots, &labels), serial);
    }

    /// Eq. 1 is scale-free, so products of `1e-13` are as much evidence
    /// as products of `1`: only products that are *exactly* zero at every
    /// lag may skip normalization. Six faint pulses on the root signal
    /// reappear 7 ticks later on the candidate edge, among louder pulses
    /// of its own that overlap nothing: `r(7) = 6e-13`, `ρ(7) ≈ 0.3`.
    #[test]
    fn faint_products_are_still_evidence() {
        let (cli, web, db) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let cfg = PathmapConfig::builder()
            .window(Nanos::from_millis(2_000))
            .refresh(Nanos::from_millis(500))
            .max_delay(Nanos::from_millis(100))
            .build();
        let max_lag = cfg.max_lag();
        let window = cfg.window_ticks();
        let pulse = |at: u64, v: f64| Run::new(Tick::new(at), 1, v);
        let faint = 1e-13f64.sqrt();
        let x: Vec<_> = (0..6).map(|i| pulse(200 + 250 * i, faint)).collect();
        let y: Vec<_> = (0..6)
            .flat_map(|i| [pulse(207 + 250 * i, faint), pulse(330 + 250 * i, 1e-6)])
            .collect();
        let signals = EdgeSignals::from_parts(
            cfg.quanta(),
            (Tick::ZERO, Tick::new(window)),
            max_lag,
            [
                (
                    (cli, web),
                    RleSeries::from_parts(Tick::ZERO, window + max_lag, x),
                ),
                (
                    (web, db),
                    RleSeries::from_parts(Tick::ZERO, window + max_lag, y),
                ),
            ]
            .into_iter()
            .collect(),
        );
        let xs = signals.source_signal(cli, web).expect("root signal");
        let raw = RleCorrelator.correlate(&xs, signals.target_signal(web, db).unwrap(), max_lag);
        assert!(raw.values().iter().all(|&r| r < 1e-12));
        assert!(raw.value_at(7) > 0.0);
        let graphs =
            Pathmap::new(cfg.clone()).discover(&signals, &[(cli, web)], &NodeLabels::default());
        let edge = graphs[0].edge(web, db).expect("the faint edge is found");
        assert_eq!(edge.spikes.len(), 1);
        assert_eq!(edge.spikes[0].delay, cfg.quanta().ticks_to_nanos(7));
    }

    #[test]
    fn empty_capture_yields_anchored_graph_only() {
        let sim = chain_sim(9); // never run
        let graphs = discover(&sim);
        // The source signal is missing entirely; no graph is produced.
        assert!(graphs.is_empty() || graphs[0].edges().len() <= 1);
    }
}
