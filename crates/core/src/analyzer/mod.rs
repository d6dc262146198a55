#![warn(clippy::too_many_lines)]
//! The central online analyzer.
//!
//! Consumes wire-encoded density chunks streamed by [`TracerAgent`]s,
//! maintains per-edge sliding windows, and republishes service graphs
//! every `ΔW`. Correlations are updated *incrementally*: each refresh only
//! processes the `ΔW` ticks appended and evicted since the previous
//! refresh (the optimization that keeps pathmap's per-refresh cost flat as
//! `W` grows — Fig. 9).
//!
//! Each owned root keeps the correlators of its own pairs — its client's
//! arrival signal against every candidate edge its exploration consulted —
//! so a pair belongs to exactly one root and never moves between maps.
//!
//! Refreshes are *parallel*: every pair's append/evict corrections run on
//! the analyzer's standing refresh pool ([`Pool`], of
//! [`PathmapConfig::num_workers`] workers, the calling thread among them),
//! whose workers each pull the next pair from one queue; path discovery
//! (normalization and spike detection) then runs the same way, a root at a
//! time, against the series Phase 1 left in the root's correlators. Work
//! items are moved into the pool, not lent — a pair's correlator out of its
//! root's map, a root out of the root list — with everything they read
//! shared through `Arc`s, and each goes back where it came from. Every
//! worker count produces bitwise identical graphs — see
//! [`parallel`](crate::parallel) for the determinism contract.
//!
//! Refreshes are *activity-gated*: what a refresh costs follows what
//! changed since the previous one, not what is tracked. A pair whose two
//! windows provably carried nothing across the slide keeps its products
//! as they are, and a root whose every pair did reuses its last graph
//! (the refresh memory holds the proof obligations; DESIGN.md §6.1).
//!
//! The gate is *event-driven*: a refresh asks the quiet predicate only of
//! the windows in its wake set — those whose epoch moved or retention
//! start passed the last refresh's start at ingest, those whose runs
//! reached past the last refresh's end, and those a retention calendar
//! finds the moving window start about to reach — and visits only the
//! roots that read a window that woke and moved (or whose correlators did
//! not all stand at the last window). The signal index — a view per
//! window, the edge index and the adjacency — is kept across refreshes: a
//! woken window's view is cut again, every other one's is re-stamped. A
//! root left asleep skipped every pair and is clean by construction; its
//! remembered graph is published again. Debug builds hold every refresh
//! to the full pass over every window and root. The wake set is a flag on
//! each stream and root, set by ingest, by a refresh and by the calendar;
//! a refresh reads the flags in passes it makes over every stream (the
//! re-stamp) and every root (publishing) anyway.
//!
//! The module is split along the refresh's decisions, one file each:
//! `ingest` (frames into windows, waking what may have moved), `gate` (the
//! streams, the wake set and the refresh memory) and `phases` (the roots,
//! Phase 1's steps and Phase 2's discovery). This file holds the analyzer,
//! `refresh` — which runs geometry, the gate, Phase 1, Phase 2 and
//! publishing in turn — and the refresh record: what
//! the last refresh did, filled in as its phases run, of which
//! [`incremental_stats`](OnlineAnalyzer::incremental_stats) and
//! [`scratch_counters`](OnlineAnalyzer::scratch_counters) are views.
//!
//! [`TracerAgent`]: crate::tracer::TracerAgent

mod gate;
mod ingest;
mod phases;

pub(crate) use self::gate::Streams;
pub(crate) use self::phases::Root;
pub use crate::pathmap::ScratchCounters;

use self::gate::{Calendar, RefreshMemory};
use self::ingest::FrameScratch;
use self::phases::Step;
use crate::config::PathmapConfig;
use crate::graph::{NodeLabels, ServiceGraph};
use crate::parallel::{Pool, ScratchPool};
use crate::pathmap::{IncrementalStats, Pathmap, ScreeningStats};
use crate::signals::EdgeSignals;
use crate::tracer::TracerFrame;
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::{Nanos, Tick};
use e2eprof_xcorr::incremental::SlideScratch;
use std::collections::HashSet;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// A directed edge `(src, dst)` between two nodes.
pub(crate) type Edge = (NodeId, NodeId);

/// What every root's discovery reads, shared with the refresh pool's work
/// items through one `Arc`. Between refreshes the analyzer holds the only
/// reference, so the gate and ingest write the signal index in place
/// through `Arc::make_mut`.
#[derive(Debug, Clone)]
pub(crate) struct Context {
    pathmap: Pathmap,
    /// The signal index, kept across refreshes: a view per stream, at the
    /// stream's position.
    signals: EdgeSignals,
    /// Every client node in the deployment — a superset of the owned
    /// roots' clients. Discovery must know all of them even when this
    /// analyzer shard owns only some roots: it never recurses into a
    /// client node, and one it did not know of would let an exploration
    /// wander through another shard's client and diverge from the
    /// single-analyzer graphs.
    universe: HashSet<NodeId>,
    labels: NodeLabels,
}

/// The online pathmap analyzer.
#[derive(Debug)]
pub struct OnlineAnalyzer {
    config: PathmapConfig,
    /// The pathmap, the signal index, the client universe and the labels.
    context: Arc<Context>,
    /// The owned roots, in publication order, each with its correlators
    /// and its remembered graph.
    roots: Vec<Root>,
    rx: Receiver<TracerFrame>,
    /// The frame being ingested, decoded whole before it is applied.
    frame_scratch: FrameScratch,
    /// Frames rejected as undecodable.
    rejected_frames: u64,
    /// Every fine stream ever seen, with what the gate knows of it.
    streams: Streams,
    /// When each asleep stream comes due.
    calendar: Calendar,
    /// Capacity of each sliding window, in ticks.
    capacity: u64,
    /// Subscribers receiving every refresh's graphs.
    subscribers: Vec<Sender<GraphUpdate>>,
    /// Window-slide scratch, one per concurrently running refresh worker,
    /// shared by every pair and kept across refreshes.
    slide_scratch: Arc<ScratchPool<SlideScratch>>,
    /// The workers both refresh phases run on.
    pool: Pool,
    /// What the last refresh left for the next one's activity gate.
    memory: RefreshMemory,
    /// What the last refresh did.
    record: RefreshRecord,
}

/// What one refresh did, filled in as its phases run: the one place a
/// refresh counts anything (discovery's normalization buffers are
/// [`Pathmap`]'s to count). Pool items count what they did in what they
/// return, and the phase sums it here in item order.
/// [`incremental_stats`](OnlineAnalyzer::incremental_stats) and
/// [`scratch_counters`](OnlineAnalyzer::scratch_counters) are views of it.
#[derive(Debug, Default)]
struct RefreshRecord {
    /// `(start, end, data_end)`: the source window the refresh analyzed,
    /// and the data watermark — the newest tick every stream had reached —
    /// it was cut at.
    geometry: (Tick, Tick, Tick),
    /// The streams whose quiet predicate the refresh evaluated.
    woken_streams: Vec<usize>,
    /// The roots it visited, in root order; every other root slept.
    woken_roots: Vec<usize>,
    /// Phase 1's steps by kind ([`Step`]), each pair of an asleep root a
    /// skip.
    skips: u64,
    carries: u64,
    advances: u64,
    refills: u64,
    /// Advances whose slide scratch had to grow.
    grown: u64,
    /// The clients whose roots were explored, in root order.
    explored: Vec<NodeId>,
    /// Roots that kept their remembered graph: asleep, or awake and clean.
    reused_roots: u64,
    /// Pairs Phase 2 visited; of them, those decided from products that
    /// were zero at every lag, and those whose spike list was carried.
    visited_pairs: u64,
    evidence_free_pairs: u64,
    carried_verdicts: u64,
    /// Slide-scratch uses of every earlier refresh.
    slide_before: ScratchCounters,
}

impl RefreshRecord {
    /// Starts the record of a refresh at `geometry` and returns the last
    /// refresh's.
    fn begin(&mut self, geometry: (Tick, Tick, Tick)) -> RefreshRecord {
        let slide_before = self.slide_scratch();
        let next = RefreshRecord {
            geometry,
            slide_before,
            ..RefreshRecord::default()
        };
        std::mem::replace(self, next)
    }

    /// Counts one pair's Phase 1 step.
    fn count(&mut self, step: &Step) {
        *match step {
            Step::Skip => &mut self.skips,
            Step::Carry => &mut self.carries,
            Step::Advance { .. } => &mut self.advances,
            Step::Refill { .. } => &mut self.refills,
        } += 1;
    }

    /// Slide-scratch uses over the analyzer's lifetime, this refresh
    /// included: one per step that is not a carry. A refill always
    /// allocates, an advance when its scratch grew, a skip never.
    fn slide_scratch(&self) -> ScratchCounters {
        ScratchCounters {
            reused: self.slide_before.reused + self.skips + self.advances - self.grown,
            allocated: self.slide_before.allocated + self.refills + self.grown,
        }
    }
}

/// One published refresh: the paper's envisioned "pluggable" service
/// interface — subscribers "receive real-time information about their
/// service paths and systems' health in general" (Section 5).
#[derive(Debug, Clone)]
pub struct GraphUpdate {
    /// Wall-clock label of the refresh.
    pub at: Nanos,
    /// The refreshed service graphs (shared, immutable).
    pub graphs: Arc<Vec<ServiceGraph>>,
    /// The clients whose roots were explored again this refresh, in root
    /// order. A root whose remembered graph was republished — asleep, or
    /// awake but clean — is absent: its graph is last refresh's, bit for
    /// bit.
    pub explored: Vec<NodeId>,
}

impl OnlineAnalyzer {
    /// Creates an analyzer fed by `rx`, analyzing every root.
    ///
    /// # Panics
    ///
    /// Panics if two roots share a client (see
    /// [`with_universe`](Self::with_universe)).
    pub fn new(
        config: PathmapConfig,
        roots: Vec<(NodeId, NodeId)>,
        labels: NodeLabels,
        rx: Receiver<TracerFrame>,
    ) -> Self {
        let universe = roots.iter().map(|&(c, _)| c).collect();
        OnlineAnalyzer::with_universe(config, roots, universe, labels, rx)
    }

    /// Creates an analyzer *shard*: it ingests every edge stream on `rx`
    /// but discovers graphs only for its owned `roots`, while `universe`
    /// names every client in the whole deployment so exploration never
    /// recurses through another shard's client nodes. With `universe`
    /// equal to the roots' clients this is exactly [`new`](Self::new);
    /// concatenating the graphs of shards holding contiguous root chunks
    /// (in shard order) reproduces the single-analyzer output bit for
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics if two roots share a client: a client's source signal is its
    /// one `(client, front)` stream — heals go by client — so two fronts of
    /// one client would mix their evidence.
    ///
    /// Panics if `universe` misses an owned root's client: exploration
    /// refuses to recurse only into the clients it knows, so that root's
    /// search would walk its own response edge into the client node and
    /// publish edges out of it.
    pub fn with_universe(
        config: PathmapConfig,
        roots: Vec<(NodeId, NodeId)>,
        universe: HashSet<NodeId>,
        labels: NodeLabels,
        rx: Receiver<TracerFrame>,
    ) -> Self {
        let clients: HashSet<NodeId> = roots.iter().map(|&(client, _)| client).collect();
        assert_eq!(
            clients.len(),
            roots.len(),
            "two roots share a client: the online analyzer needs one front end per client"
        );
        assert!(
            clients.is_subset(&universe),
            "the client universe misses an owned root's client"
        );
        // Retain enough history for the source window, the lag horizon,
        // and one refresh interval of eviction corrections.
        let capacity = config.window_ticks() + config.max_lag() + 2 * config.refresh_ticks();
        OnlineAnalyzer {
            context: Arc::new(Context {
                pathmap: Pathmap::new(config.clone()),
                signals: EdgeSignals::empty(config.quanta(), config.max_lag()),
                universe,
                labels,
            }),
            roots: roots.into_iter().map(Root::new).collect(),
            rx,
            frame_scratch: FrameScratch::default(),
            rejected_frames: 0,
            streams: Streams::default(),
            calendar: Calendar::default(),
            capacity,
            subscribers: Vec::new(),
            slide_scratch: Arc::default(),
            pool: Pool::new(config.num_workers()),
            memory: RefreshMemory::default(),
            record: RefreshRecord::default(),
            config,
        }
    }

    /// Subscribes to refresh results. Every non-empty refresh is published
    /// to all live subscribers; disconnected receivers are dropped
    /// silently.
    pub fn subscribe(&mut self) -> Receiver<GraphUpdate> {
        let (tx, rx) = channel();
        self.subscribers.push(tx);
        rx
    }

    /// The analysis configuration.
    pub fn config(&self) -> &PathmapConfig {
        &self.config
    }

    /// Runs one refresh: discovers the current service graphs from the
    /// retained windows and publishes them under the wall-clock label
    /// `at`.
    ///
    /// What a refresh costs follows what woke since the previous one, plus
    /// publishing: only the streams in the wake set are evaluated and only
    /// the roots reading a stream that moved are visited; every other root
    /// republishes its remembered graph (DESIGN.md §6.1).
    ///
    /// Returns an empty vec until enough data is buffered for one full
    /// analysis window.
    pub fn refresh(&mut self, at: Nanos) -> Vec<ServiceGraph> {
        let Some(geometry) = self.geometry() else {
            return Vec::new();
        };
        let (last_start, last_end, _) = self.record.begin(geometry).geometry;
        let (reusable, from_scratch) = self.open_gate();
        let advanced = self.advance((last_start, last_end));
        self.discover(advanced, reusable);
        self.close_gate(from_scratch);
        self.publish(at)
    }

    /// The geometry `(start, end, data_end)` of a refresh now: the source
    /// window ends the lag horizon before the newest tick every stream
    /// has reached. `None` until one full analysis window is buffered.
    fn geometry(&self) -> Option<(Tick, Tick, Tick)> {
        let data_end = self.common_end()?;
        let (max_lag, window_ticks) = (self.config.max_lag(), self.config.window_ticks());
        if data_end.index() < max_lag + window_ticks {
            return None;
        }
        let end = data_end.saturating_sub(max_lag);
        Some((end.saturating_sub(window_ticks), end, data_end))
    }

    /// Publishes every root's remembered graph, in root order: to every
    /// subscriber and as the refresh's result.
    fn publish(&mut self, at: Nanos) -> Vec<ServiceGraph> {
        let graphs: Vec<ServiceGraph> = self
            .roots
            .iter()
            .filter_map(|root| root.memory.as_ref()?.0.clone())
            .collect();
        if !graphs.is_empty() && !self.subscribers.is_empty() {
            let update = GraphUpdate {
                at,
                graphs: Arc::new(graphs.clone()),
                explored: self.record.explored.clone(),
            };
            self.subscribers
                .retain(|tx| tx.send(update.clone()).is_ok());
        }
        graphs
    }

    /// Always `None`: there is no coarse screening tier to count. The
    /// end-to-end benchmark (`bench/src/run.rs`) compiles against it;
    /// removal waits for a `benchmark` PR.
    pub fn screening_stats(&self) -> Option<ScreeningStats> {
        None
    }

    /// Activity-gate counters of the most recent refresh: how many pairs
    /// were skipped and how many root graphs were reused.
    ///
    /// Always `Some` — the gate is how refresh works. The `Option` is what
    /// the end-to-end benchmark (`bench/src/run.rs`) compiles against;
    /// dropping it waits for a `benchmark` PR.
    pub fn incremental_stats(&self) -> Option<IncrementalStats> {
        let record = &self.record;
        Some(IncrementalStats {
            fine_pairs: record.skips + record.carries + record.advances + record.refills,
            fine_skipped: record.skips,
            roots: record.explored.len() as u64 + record.reused_roots,
            reused_roots: record.reused_roots,
            visited_pairs: record.visited_pairs,
            evidence_free_pairs: record.evidence_free_pairs,
            carried_verdicts: record.carried_verdicts,
        })
    }

    /// Buffer-reuse counters accumulated across refreshes (see
    /// [`ScratchCounters`]): one use per fine pair advanced in Phase 1
    /// (window-slide scratch) plus one per pair discovery normalized in
    /// Phase 2. In steady state `allocated` stops growing while `reused`
    /// keeps climbing, the observable form of the allocation-free
    /// refresh hot path.
    pub fn scratch_counters(&self) -> ScratchCounters {
        let slide = self.record.slide_scratch();
        let discovery = self.context.pathmap.scratch_counters();
        ScratchCounters {
            reused: slide.reused + discovery.reused,
            allocated: slide.allocated + discovery.allocated,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::change::ChangeTracker;
    use crate::pathmap::roots_from_topology;
    use crate::pipeline::{tracer_agents, LocalPipeline};
    use crate::tracer::ChannelSink;
    use e2eprof_netsim::prelude::*;
    use e2eprof_netsim::Route;
    use e2eprof_timeseries::window::SlidingWindow;

    /// W 10 s, ΔW 2 s, T_u 1 s.
    pub(crate) fn cfg() -> PathmapConfig {
        cfg_builder().build()
    }

    fn cfg_builder() -> crate::config::PathmapConfigBuilder {
        PathmapConfig::builder()
            .window(Nanos::from_secs(10))
            .refresh(Nanos::from_secs(2))
            .max_delay(Nanos::from_secs(1))
    }

    pub(crate) fn two_tier(seed: u64) -> Simulation {
        let mut t = TopologyBuilder::new();
        let class = t.service_class("c");
        let web = t.service("web", ServiceConfig::new(DelayDist::constant_millis(2)));
        let db = t.service("db", ServiceConfig::new(DelayDist::exponential_millis(8)));
        let cli = t.client("cli", class, web, Workload::poisson(40.0));
        t.connect(cli, web, DelayDist::constant_millis(1));
        t.connect(web, db, DelayDist::constant_millis(1));
        t.route(web, class, Route::fixed(db));
        t.route(db, class, Route::terminal());
        Simulation::new(t.build().unwrap(), seed)
    }

    /// What one refresh published, with the activity gate's counters for it.
    pub(crate) type Refresh = (Vec<ServiceGraph>, IncrementalStats);

    /// Drives tracer agents on all services and one analyzer over
    /// `total_secs / 2` flush-and-refresh steps of 2 s, returning every
    /// refresh's graphs with the activity gate's counters for it.
    ///
    /// A `forgetful` analyzer has its cross-refresh memory wiped before
    /// every refresh: with nothing remembered nothing is quiet and every
    /// root is dirty, so it computes each refresh from the correlators
    /// alone — the reference the remembering analyzer is held to.
    /// `lose_flush_at` names a step whose first flushed frame is lost in
    /// transit, so the next one from that agent heals a gap.
    pub(crate) fn drive_refreshes(
        sim: &mut Simulation,
        config: PathmapConfig,
        total_secs: u64,
        roots: Vec<(NodeId, NodeId)>,
        universe: HashSet<NodeId>,
        forgetful: bool,
        lose_flush_at: Option<u64>,
    ) -> (Vec<Refresh>, OnlineAnalyzer) {
        let (flushed, in_transit) = channel();
        let (delivered, rx) = channel();
        let mut agents = tracer_agents(sim.topology(), &config, |_| {
            Box::new(ChannelSink(flushed.clone()))
        });
        let mut analyzer = OnlineAnalyzer::with_universe(
            config.clone(),
            roots,
            universe,
            NodeLabels::from_topology(sim.topology()),
            rx,
        );
        let mut refreshes = Vec::new();
        for step in 1..=(total_secs / 2) {
            let now = Nanos::from_secs(step * 2);
            sim.run_until(now);
            // Drain 1 s behind the clock (safely past ω).
            let drain = Tick::new(step * 2_000 - 1_000);
            for a in &mut agents {
                a.poll(sim.captures(), drain);
            }
            for (i, frame) in in_transit.try_iter().enumerate() {
                if !(i == 0 && lose_flush_at == Some(step)) {
                    delivered.send(frame).expect("analyzer holds the receiver");
                }
            }
            analyzer.ingest();
            if forgetful {
                analyzer.forget();
            }
            let graphs = analyzer.refresh(now);
            // A refresh that ran explored or reused every owned root, once.
            let stats = analyzer.incremental_stats().expect("always counted");
            let owned = analyzer.roots.len() as u64;
            assert!(stats.roots == 0 || stats.roots == owned, "step {step}");
            refreshes.push((graphs, stats));
        }
        (refreshes, analyzer)
    }

    /// The last non-empty refresh of a two-tier run refreshed every 2 s
    /// over `total_secs`.
    pub(crate) fn run_online(seed: u64, total_secs: u64) -> Vec<ServiceGraph> {
        let mut sim = two_tier(seed);
        let mut pipeline = LocalPipeline::new(sim.topology(), cfg());
        (1..=total_secs / 2)
            .map(|step| pipeline.step(&mut sim, Nanos::from_secs(step * 2), Nanos::from_secs(1)))
            .filter(|graphs| !graphs.is_empty())
            .last()
            .unwrap_or_default()
    }

    /// Arrivals every 25 ms over `[from_secs, to_secs)`.
    pub(crate) fn burst(from_secs: u64, to_secs: u64) -> impl Iterator<Item = Nanos> {
        (from_secs * 40..to_secs * 40).map(|i| Nanos::from_millis(i * 25))
    }

    /// Seven stacks, all but the first silent after a 10 s warm-up burst
    /// and then long enough for the idle runs to leave retention. Two
    /// stacks put the gate's two preconditions on the spot:
    ///
    /// * stack 1 sends one more 1 s burst at 40 s. Alone in a silent
    ///   window, it sits in retention (epoch unchanged) while the analysis
    ///   window's edges slide over it, so only the boundary-run check
    ///   keeps those refreshes from being skipped;
    /// * stack 6 sends nothing before 50 s. Its streams — and its windows,
    ///   its root signal among them — appear mid-run, which nothing but
    ///   the signal-edge generation tells the remembered roots.
    pub(crate) fn mostly_idle_mesh(seed: u64) -> Simulation {
        let warm_up = || Workload::trace(burst(0, 10).collect());
        crate::testutil::idle_mesh(
            seed,
            &[
                Workload::poisson(40.0),
                Workload::trace(burst(0, 10).chain(burst(40, 41)).collect()),
                warm_up(),
                warm_up(),
                warm_up(),
                warm_up(),
                Workload::trace(burst(50, 56).collect()),
            ],
        )
    }

    /// Everything a refresh publishes about one graph, spike strengths by
    /// bit pattern.
    pub(crate) fn graph_bits(g: &ServiceGraph) -> impl PartialEq + std::fmt::Debug {
        let mut vertices: Vec<_> = g
            .vertices()
            .iter()
            .map(|v| (v.label.clone(), v.bottleneck))
            .collect();
        vertices.sort();
        let mut edges: Vec<_> = g
            .edges()
            .iter()
            .map(|e| {
                let spikes: Vec<_> = e
                    .spikes
                    .iter()
                    .map(|s| (s.delay, s.strength.to_bits()))
                    .collect();
                ((e.from, e.to), e.hop_delay, spikes)
            })
            .collect();
        edges.sort();
        (g.client_label.clone(), vertices, edges)
    }

    /// Runs the scenario twice — a remembering analyzer and its forgetful
    /// twin (see [`drive_refreshes`]) — and holds every refresh of the
    /// first to the bits of the second. Returns the remembering run's
    /// per-refresh gate counters and its analyzer.
    pub(crate) fn assert_matches_forgetful_twin(
        scenario: impl Fn() -> Simulation,
        config: PathmapConfig,
        total_secs: u64,
        owned_roots: Option<usize>,
        lose_flush_at: Option<u64>,
    ) -> (Vec<IncrementalStats>, OnlineAnalyzer) {
        let run = |forgetful| {
            let mut sim = scenario();
            let mut roots = roots_from_topology(sim.topology());
            roots.sort_unstable();
            let universe = roots.iter().map(|&(c, _)| c).collect();
            roots.truncate(owned_roots.unwrap_or(roots.len()));
            let (refreshes, analyzer) = drive_refreshes(
                &mut sim,
                config.clone(),
                total_secs,
                roots,
                universe,
                forgetful,
                lose_flush_at,
            );
            (refreshes, analyzer)
        };
        let (remembering, analyzer) = run(false);
        let (forgetful, _) = run(true);
        assert!(remembering.iter().any(|(graphs, _)| !graphs.is_empty()));
        for (i, ((got, _), (want, stats))) in remembering.iter().zip(&forgetful).enumerate() {
            assert_eq!(
                (
                    stats.fine_skipped,
                    stats.reused_roots,
                    stats.carried_verdicts
                ),
                (0, 0, 0),
                "refresh {}: the twin remembered something",
                i + 1
            );
            assert_eq!(
                got.iter().map(graph_bits).collect::<Vec<_>>(),
                want.iter().map(graph_bits).collect::<Vec<_>>(),
                "refresh {}: published bits differ from the from-scratch refresh",
                i + 1
            );
        }
        let stats = remembering.into_iter().map(|(_, stats)| stats).collect();
        (stats, analyzer)
    }

    /// One front end shared by three classes with two private backends
    /// each, on for 4 s of a 36 s period, phases 12 s apart — so a class's
    /// burst sits alone inside the analysis window for a refresh or two,
    /// then leaves retention altogether — plus a fourth class that never
    /// stops. Every root's exploration fans through the front end's
    /// out-edges, the always-on class's among them, so no root is ever
    /// clean: whatever is saved is saved pair by pair.
    pub(crate) fn phased_fanout(seed: u64) -> Simulation {
        let mut t = TopologyBuilder::new();
        let web = t.service("web", ServiceConfig::new(DelayDist::constant_millis(2)));
        let mut class_behind_web = |name: &str, workload: Workload| {
            let class = t.service_class(name);
            let backends: Vec<_> = (0..2)
                .map(|i| {
                    let s = t.service(
                        &format!("{name}{i}"),
                        ServiceConfig::new(DelayDist::exponential_millis(8)),
                    );
                    t.connect(web, s, DelayDist::constant_millis(1));
                    t.route(s, class, Route::terminal());
                    s
                })
                .collect();
            t.route(web, class, Route::round_robin(backends));
            let cli = t.client(&format!("cli_{name}"), class, web, workload);
            t.connect(cli, web, DelayDist::constant_millis(1));
        };
        for (k, name) in ["a", "b", "c"].into_iter().enumerate() {
            let on = (0..3).flat_map(|period| {
                let from = 36 * period + 12 * k as u64;
                burst(from, from + 4)
            });
            class_behind_web(name, Workload::trace(on.collect()));
        }
        class_behind_web("d", Workload::poisson(40.0));
        Simulation::new(t.build().unwrap(), seed)
    }

    /// The retained window of `edge`'s stream.
    pub(crate) fn window(analyzer: &OnlineAnalyzer, edge: Edge) -> &SlidingWindow {
        &analyzer
            .streams
            .get(&edge)
            .expect("a stream of the edge")
            .1
            .window
    }

    #[test]
    fn online_pipeline_discovers_the_path() {
        let graphs = run_online(5, 30);
        assert_eq!(graphs.len(), 1, "no graphs produced online");
        let g = &graphs[0];
        assert!(g.has_edge_between("web", "db"), "missing web->db:\n{g}");
        assert!(g.has_edge_between("db", "web"));
        assert!(g.has_edge_between("web", "cli"));
    }

    #[test]
    fn refresh_before_enough_data_is_empty() {
        let (_tx, rx) = channel::<TracerFrame>();
        let mut analyzer = OnlineAnalyzer::new(cfg(), vec![], NodeLabels::default(), rx);
        assert!(analyzer.refresh(Nanos::from_secs(1)).is_empty());
    }

    /// A client that sends to two receivers infers as two roots; online,
    /// a heal of either front's stream would be a heal of both.
    #[test]
    #[should_panic(expected = "two roots share a client")]
    fn two_roots_with_one_client_are_rejected() {
        let (_tx, rx) = channel::<TracerFrame>();
        let (cli, a, b) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        OnlineAnalyzer::new(cfg(), vec![(cli, a), (cli, b)], NodeLabels::default(), rx);
    }

    /// A shard whose universe lacks its own root's client would explore
    /// the root's response edge into that client and on through its
    /// out-edges.
    #[test]
    #[should_panic(expected = "universe misses an owned root's client")]
    fn a_universe_without_an_owned_client_is_rejected() {
        let (_tx, rx) = channel::<TracerFrame>();
        let (cli, web, other) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        OnlineAnalyzer::with_universe(
            cfg(),
            vec![(cli, web)],
            HashSet::from([other]),
            NodeLabels::default(),
            rx,
        );
    }

    #[test]
    fn incremental_matches_offline_discovery() {
        // The online (incremental) analysis must find the same edges as an
        // offline from-scratch pass over the same horizon.
        let online = run_online(7, 30);
        let mut sim = two_tier(7);
        sim.run_until(Nanos::from_secs(30));
        let config = cfg();
        let pm = Pathmap::new(config.clone());
        // Offline window aligned with the analyzer's final refresh: the
        // analyzer drained to 29s, so analyze as of 29s.
        let signals = crate::signals::EdgeSignals::from_capture(
            sim.captures(),
            &config,
            Nanos::from_secs(29),
        );
        let offline = pm.discover(
            &signals,
            &roots_from_topology(sim.topology()),
            &NodeLabels::from_topology(sim.topology()),
        );
        let edges = |gs: &[ServiceGraph]| {
            let mut v: Vec<(NodeId, NodeId)> =
                gs[0].edges().iter().map(|e| (e.from, e.to)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(edges(&online), edges(&offline));
    }

    #[test]
    fn subscribers_receive_refreshes() {
        let mut sim = two_tier(13);
        let mut pipeline = LocalPipeline::new(sim.topology(), cfg());
        let sub = pipeline.analyzer_mut().subscribe();
        let dropped = pipeline.analyzer_mut().subscribe();
        drop(dropped); // disconnected subscriber must not break publishing
        for step in 1..=10u64 {
            pipeline.step(&mut sim, Nanos::from_secs(step * 2), Nanos::from_secs(1));
        }
        let updates: Vec<GraphUpdate> = sub.try_iter().collect();
        assert!(updates.len() >= 3, "got {} updates", updates.len());
        assert!(updates.windows(2).all(|w| w[0].at < w[1].at));
        assert!(!updates.last().unwrap().graphs.is_empty());
    }

    /// Subscribers learn which roots were explored: on a mesh whose every
    /// stack but the first fell silent after a warm-up burst, every
    /// refresh once the bursts have left retention explores the first
    /// stack's root alone.
    #[test]
    fn an_update_names_only_the_roots_it_explored() {
        let warm_up = || Workload::trace(burst(0, 10).collect());
        let mut sim = crate::testutil::idle_mesh(
            5,
            &[Workload::poisson(40.0), warm_up(), warm_up(), warm_up()],
        );
        let labels = NodeLabels::from_topology(sim.topology());
        let mut pipeline = LocalPipeline::new(sim.topology(), cfg());
        let sub = pipeline.analyzer_mut().subscribe();
        for step in 1..=30u64 {
            pipeline.step(&mut sim, Nanos::from_secs(step * 2), Nanos::from_secs(1));
        }
        let updates: Vec<GraphUpdate> = sub.try_iter().collect();
        let explored = |u: &GraphUpdate| -> Vec<String> {
            u.explored.iter().map(|&c| labels.label(c)).collect()
        };
        assert_eq!(
            explored(&updates[0]).len(),
            4,
            "the first refresh explores all"
        );
        for update in &updates[updates.len() - 5..] {
            assert_eq!(update.graphs.len(), 4, "every root still publishes");
            assert_eq!(explored(update), ["cli0"]);
        }
    }

    #[test]
    fn change_tracker_accumulates_refreshes() {
        // The analyzer keeps no history; a consumer records what each
        // refresh returns.
        let mut sim = two_tier(9);
        let roots = roots_from_topology(sim.topology());
        let universe = roots.iter().map(|&(c, _)| c).collect();
        let (refreshes, _) = drive_refreshes(&mut sim, cfg(), 30, roots, universe, false, None);
        let mut tracker = ChangeTracker::new();
        for (step, (graphs, _)) in (1u64..).zip(&refreshes) {
            tracker.record(Nanos::from_secs(step * 2), graphs);
        }
        let keys: Vec<_> = tracker.keys().collect();
        assert!(!keys.is_empty());
        let (c, f, t) = keys[0];
        assert!(tracker.history(c, f, t).len() >= 2);
    }

    #[test]
    fn steady_state_refresh_stops_allocating_series_buffers() {
        // Drive the online pipeline past warm-up, snapshot the buffer
        // counters, then keep refreshing: the correlate maintenance path
        // must only *reuse* retained buffers from then on.
        let mut sim = two_tier(11);
        // One worker: the scratch pool grows by one value per
        // *concurrently running* worker, and when two workers first
        // overlap is the scheduler's choice, not a steady-state property.
        let config = cfg_builder().num_workers(1).build();
        let mut pipeline = LocalPipeline::new(sim.topology(), config);
        let mut drive = |pipeline: &mut LocalPipeline, steps: std::ops::RangeInclusive<u64>| {
            for step in steps {
                pipeline.step(&mut sim, Nanos::from_secs(step * 2), Nanos::from_secs(1));
            }
        };
        drive(&mut pipeline, 1..=12);
        // Phase 1 (window slides) and Phase 2 (normalization ahead of
        // spike detection) are counted apart and must each settle.
        let phases = |a: &OnlineAnalyzer| {
            [
                a.record.slide_scratch(),
                a.context.pathmap.scratch_counters(),
            ]
        };
        let warm = phases(pipeline.analyzer());
        for (phase, c) in warm.iter().enumerate() {
            assert!(c.allocated > 0, "phase {}: no buffer ever used", phase + 1);
        }
        drive(&mut pipeline, 13..=20);
        let after = phases(pipeline.analyzer());
        for (phase, (w, a)) in warm.iter().zip(&after).enumerate() {
            assert_eq!(
                a.allocated,
                w.allocated,
                "phase {}: steady-state refreshes grew buffers: {w:?} -> {a:?}",
                phase + 1
            );
            assert!(
                a.reused > w.reused,
                "phase {}: no buffer reuse recorded: {w:?} -> {a:?}",
                phase + 1
            );
        }
        // The public getter reports both.
        let total = pipeline.analyzer().scratch_counters();
        assert_eq!(total.reused, after[0].reused + after[1].reused);
        assert_eq!(total.allocated, after[0].allocated + after[1].allocated);
    }

    /// Per-refresh [`IncrementalStats`] as `(refreshes, [fine_pairs,
    /// fine_skipped, roots, reused_roots, visited_pairs,
    /// evidence_free_pairs, carried_verdicts])` runs, recorded from the
    /// analyzer before the record existed, when each phase kept its own
    /// counters: `mostly_idle_mesh(3)` losing a frame at step 35, on one
    /// worker, over 100 s.
    const MESH: &[(usize, [u64; 7])] = &[
        (5, [0, 0, 0, 0, 0, 0, 0]),
        (1, [0, 0, 7, 0, 18, 0, 0]),
        (4, [18, 0, 7, 1, 13, 0, 0]),
        (1, [18, 0, 7, 1, 18, 0, 0]),
        (3, [18, 0, 7, 1, 13, 0, 0]),
        (6, [18, 15, 7, 6, 3, 0, 0]),
        (1, [18, 12, 7, 5, 6, 0, 0]),
        (1, [18, 12, 7, 5, 5, 0, 0]),
        (3, [18, 15, 7, 6, 3, 0, 0]),
        (1, [18, 12, 7, 0, 16, 0, 8]),
        (3, [21, 12, 7, 4, 7, 0, 0]),
        (4, [21, 15, 7, 5, 5, 0, 0]),
        (2, [21, 15, 7, 5, 6, 0, 0]),
        (1, [18, 0, 7, 0, 15, 0, 0]),
        (1, [21, 15, 7, 5, 5, 0, 0]),
        (13, [21, 18, 7, 6, 3, 0, 0]),
    ];

    /// The same of `phased_fanout(7)`, no frame lost.
    const FANOUT: &[(usize, [u64; 7])] = &[
        (5, [0, 0, 0, 0, 0, 0, 0]),
        (1, [0, 0, 4, 0, 14, 0, 0]),
        (1, [14, 0, 4, 0, 31, 6, 0]),
        (1, [31, 0, 4, 1, 30, 6, 0]),
        (2, [32, 0, 4, 1, 29, 6, 0]),
        (1, [32, 6, 4, 1, 29, 5, 4]),
        (1, [32, 4, 4, 1, 29, 6, 3]),
        (1, [32, 4, 4, 0, 52, 18, 3]),
        (1, [55, 4, 4, 0, 51, 18, 3]),
        (1, [55, 4, 4, 0, 50, 18, 3]),
        (1, [55, 5, 4, 0, 50, 17, 4]),
        (1, [55, 17, 4, 0, 50, 10, 14]),
        (1, [55, 15, 4, 0, 50, 12, 12]),
        (1, [55, 5, 4, 0, 52, 18, 3]),
        (1, [56, 5, 4, 0, 51, 18, 3]),
        (1, [56, 5, 4, 0, 50, 18, 3]),
        (1, [56, 6, 4, 0, 50, 17, 4]),
        (1, [56, 18, 4, 0, 50, 10, 14]),
        (1, [56, 16, 4, 0, 50, 12, 12]),
        (1, [56, 5, 4, 0, 52, 18, 3]),
        (1, [56, 5, 4, 0, 51, 18, 3]),
        (1, [56, 5, 4, 0, 50, 18, 3]),
        (1, [56, 6, 4, 0, 50, 17, 4]),
        (1, [56, 18, 4, 0, 50, 10, 14]),
        (1, [56, 16, 4, 0, 50, 12, 12]),
        (1, [56, 5, 4, 0, 52, 18, 3]),
        (1, [56, 5, 4, 0, 51, 18, 3]),
        (1, [56, 5, 4, 0, 50, 18, 3]),
        (1, [56, 6, 4, 0, 50, 17, 4]),
        (1, [56, 18, 4, 0, 50, 10, 14]),
        (1, [56, 16, 4, 0, 50, 12, 12]),
        (1, [56, 5, 4, 0, 52, 18, 3]),
        (1, [56, 5, 4, 0, 51, 18, 3]),
        (1, [56, 5, 4, 0, 50, 18, 3]),
        (1, [56, 6, 4, 0, 50, 17, 4]),
        (1, [56, 18, 4, 0, 50, 10, 14]),
        (1, [56, 16, 4, 0, 50, 12, 12]),
        (1, [56, 5, 4, 0, 52, 18, 3]),
        (1, [56, 5, 4, 0, 51, 18, 3]),
        (1, [56, 5, 4, 0, 50, 18, 3]),
        (1, [56, 6, 4, 0, 50, 17, 4]),
        (1, [56, 18, 4, 0, 50, 10, 14]),
        (1, [56, 16, 4, 0, 50, 12, 12]),
        (1, [56, 5, 4, 0, 52, 18, 3]),
        (1, [56, 5, 4, 0, 51, 18, 3]),
    ];

    /// The counters are views of the record, and reproduce to the digit
    /// what the counters it replaced reported — through a heal, asleep
    /// roots, carried verdicts and evidence-free pairs: on every refresh
    /// the Phase 1 step counts sum to the fine pairs counted then, and the
    /// explored and the reused roots to the roots. One worker: the scratch
    /// pools grow by one value per concurrently running worker.
    #[test]
    fn the_record_reproduces_the_counters_it_replaced() {
        let config = cfg_builder().num_workers(1).build();
        let cases = [
            (mostly_idle_mesh(3), Some(35), MESH, (1_132, 14)),
            (phased_fanout(7), None, FANOUT, (3_504, 3)),
        ];
        for (mut sim, lose_flush_at, pinned, scratch) in cases {
            let mut roots = roots_from_topology(sim.topology());
            roots.sort_unstable();
            let universe = roots.iter().map(|&(c, _)| c).collect();
            let (refreshes, analyzer) = drive_refreshes(
                &mut sim,
                config.clone(),
                100,
                roots,
                universe,
                false,
                lose_flush_at,
            );
            let got: Vec<[u64; 7]> = refreshes
                .iter()
                .map(|(_, s)| {
                    [
                        s.fine_pairs,
                        s.fine_skipped,
                        s.roots,
                        s.reused_roots,
                        s.visited_pairs,
                        s.evidence_free_pairs,
                        s.carried_verdicts,
                    ]
                })
                .collect();
            let want: Vec<[u64; 7]> = pinned
                .iter()
                .flat_map(|&(n, stats)| std::iter::repeat_n(stats, n))
                .collect();
            assert_eq!(got, want);
            let counters = analyzer.scratch_counters();
            assert_eq!((counters.reused, counters.allocated), scratch);
        }
    }
}
