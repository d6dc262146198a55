//! The central online analyzer.
//!
//! Consumes wire-encoded density chunks streamed by [`TracerAgent`]s,
//! maintains per-edge sliding windows, and republishes service graphs
//! every `ΔW`. Correlations are updated *incrementally*: each refresh only
//! processes the `ΔW` ticks appended and evicted since the previous
//! refresh (the optimization that keeps pathmap's per-refresh cost flat as
//! `W` grows — Fig. 9).
//!
//! Refreshes are *sharded*: the `(client, candidate-edge)` correlator map
//! is partitioned into contiguous shards of its stable key order and the
//! append/evict corrections run on a scoped worker pool
//! ([`PathmapConfig::num_workers`]); path discovery (normalization + spike
//! detection) then runs one root per worker against the precomputed
//! series. Every worker count produces bitwise identical graphs — see
//! [`parallel`] for the determinism contract.
//!
//! [`TracerAgent`]: crate::tracer::TracerAgent

use crate::change::ChangeTracker;
use crate::config::{PathmapConfig, ReductionConfig};
use crate::graph::{NodeLabels, ServiceGraph};
use crate::hashing::FxHashMap;
use crate::parallel::{self, ScratchPool};
pub use crate::pathmap::ScratchCounters;
use crate::pathmap::{CorrelationProvider, IncrementalStats, Pathmap, ScreeningStats};
use crate::reduction::HintState;
use crate::signals::EdgeSignals;
use crate::tracer::TracerFrame;
use crossbeam::channel::{Receiver, Sender};
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::pyramid::DecimatedWindow;
use e2eprof_timeseries::window::SlidingWindow;
use e2eprof_timeseries::{wire, Nanos, RleSeries, Tick};
use e2eprof_xcorr::incremental::{IncrementalCorrelator, SlideScratch};
use e2eprof_xcorr::screen::{self, Screen};
use e2eprof_xcorr::{CorrSeries, Correlator};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// Key of one maintained correlator: the client whose arrival signal is
/// the correlation source, and the candidate edge under test.
type PairKey = (NodeId, (NodeId, NodeId));

/// Online state of the coarse-to-fine screening tier
/// ([`PathmapConfig::screening`]).
///
/// Every fine sliding window gets a `k`-decimated twin, and every tracked
/// `(client, edge)` pair a cheap coarse incremental correlator — *pruned*
/// pairs keep only this coarse state, their full-resolution correlators
/// are dropped. Each refresh advances the coarse tier first, upper-bounds
/// every pair's fine normalized correlation (see
/// [`e2eprof_xcorr::screen`]), and applies the promote/demote hysteresis
/// before the fine tier runs.
#[derive(Debug)]
struct ScreeningState {
    screen: Screen,
    /// Coarse-tier lag bound `⌊(L−1)/k⌋ + 2`.
    coarse_lag: u64,
    /// Decimated twin of each edge's sliding window.
    decimated: FxHashMap<(NodeId, NodeId), DecimatedWindow>,
    /// Coarse correlator per tracked pair (active *and* pruned).
    coarse: FxHashMap<PairKey, IncrementalCorrelator>,
    /// Whether each tracked pair currently runs at full resolution.
    active: FxHashMap<PairKey, bool>,
    /// Counters of the most recent refresh.
    stats: ScreeningStats,
}

/// Per-edge reduction status on the analyzer side. Absence from the status
/// map means the edge streams at full resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeStatus {
    /// The tracer was asked to ship only coarse blocks of `level` fine
    /// ticks (√(block count) amplitudes).
    Demoted {
        /// Fine ticks per coarse block.
        level: u64,
    },
    /// A promote hint is on its way to the tracer; the edge leaves this
    /// state when its fine stream (backfill first) resumes.
    Promoting,
}

/// Coarse image of one demoted edge. Fed from level-tagged wire entries
/// once the tracer applies the hint, and from decimated still-arriving
/// fine chunks in the interim — [`screen::coarse_overlap`] only reads the
/// support, so the two amplitude conventions may mix freely.
#[derive(Debug)]
struct CoarseStore {
    level: u64,
    win: DecimatedWindow,
}

impl CoarseStore {
    fn new(level: u64, fine_capacity: u64) -> Self {
        CoarseStore {
            level,
            win: DecimatedWindow::new(fine_capacity, level),
        }
    }
}

/// Counters of the edge-side reduction tier (see
/// [`OnlineAnalyzer::reduction_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Edges demoted to coarse streaming over the analyzer's lifetime.
    pub demotions: u64,
    /// Demoted edges promoted back to full resolution over the analyzer's
    /// lifetime.
    pub promotions: u64,
    /// Edges currently demoted (or awaiting their promote backfill).
    pub reduced_now: usize,
}

/// Online state of the edge-side data-reduction tier
/// ([`PathmapConfig::reduction`]): the analyzer half of the
/// analyzer→tracer feedback loop.
#[derive(Debug)]
struct ReductionState {
    cfg: ReductionConfig,
    /// This analyzer's shard index and tier width, stamped into every
    /// [`HintState`] snapshot (tracer-side merge intersects across shards).
    shard: u32,
    of: u32,
    status: FxHashMap<(NodeId, NodeId), EdgeStatus>,
    /// Consecutive refreshes each candidate edge has been fully
    /// screened-dead (demotion fires at `cfg.patience`).
    cold: FxHashMap<(NodeId, NodeId), u32>,
    /// Coarse image per demoted edge, for the promote-overlap check.
    stores: FxHashMap<(NodeId, NodeId), CoarseStore>,
    /// Whether the demoted-edge set changed since the last
    /// [`OnlineAnalyzer::take_hints`].
    dirty: bool,
    demotions: u64,
    promotions: u64,
}

impl ReductionState {
    /// Folds a still-arriving fine chunk of a demoted edge into its coarse
    /// store (the tracer has not applied the demote hint yet).
    fn feed_fine(&mut self, edge: (NodeId, NodeId), chunk: &RleSeries, fine_capacity: u64) {
        let level = match self.status.get(&edge) {
            Some(EdgeStatus::Demoted { level }) => *level,
            _ => return,
        };
        let store = self
            .stores
            .entry(edge)
            .or_insert_with(|| CoarseStore::new(level, fine_capacity));
        store.win.append_or_reset(chunk);
    }

    /// Appends one wire-ingested coarse chunk (already decimated by
    /// `level`) to the edge's store. A level mismatch — the tracer caught
    /// up with a newer hint — resets the store to the new resolution.
    fn feed_coarse(
        &mut self,
        edge: (NodeId, NodeId),
        level: u64,
        chunk: &RleSeries,
        fine_capacity: u64,
    ) {
        let store = self
            .stores
            .entry(edge)
            .or_insert_with(|| CoarseStore::new(level, fine_capacity));
        if store.level != level {
            *store = CoarseStore::new(level, fine_capacity);
        }
        store.win.append_coarse_or_reset(chunk);
    }
}

/// Cross-refresh memory of the activity-gated incremental tier
/// ([`PathmapConfig::incremental`]): everything the next refresh needs to
/// *prove* that carrying a pair's accumulated products (or a whole root's
/// graph) forward unchanged is bitwise identical to recomputing it.
///
/// The soundness contract lives in DESIGN.md §6.7. In short, a window is
/// *quiet* for a refresh when its change epoch is unchanged since the
/// previous refresh **and** it has no runs in the boundary regions the
/// window slide adds or evicts (padded by `4k` ticks when the screening
/// tier's decimated twins are live, to cover coarse block and fold
/// boundaries). Every append/evict correction term of a quiet pair is a
/// sum of zero products, so skipping the advance and sliding the recorded
/// window is a bitwise no-op.
#[derive(Debug, Default)]
struct IncrementalState {
    /// Geometry of the last completed refresh: `(start, end, data_end)`.
    prev: Option<(Tick, Tick, Tick)>,
    /// Change-epoch snapshot of every fine window at that refresh.
    epochs: FxHashMap<(NodeId, NodeId), u64>,
    /// Cached Phase-0 screen bound per pair, tagged with the
    /// classification it was computed under (the bound's early-exit
    /// threshold depends on it, so reuse requires the same tag).
    bounds: FxHashMap<PairKey, (f64, bool)>,
    /// Pairs the screening tier pruned in that refresh.
    pruned: HashSet<PairKey>,
    /// Cached per-root discovery result and the pair support set the
    /// root's exploration touched.
    roots: FxHashMap<(NodeId, NodeId), (Option<ServiceGraph>, Vec<PairKey>)>,
    /// Sorted signal-edge key set of that refresh. Any change — an edge
    /// appearing, vanishing, or moving through the reduction tier —
    /// dirties every root, because exploration enumerates candidate
    /// edges from this set.
    fingerprint: Vec<(NodeId, NodeId)>,
    /// Counters of the most recent refresh.
    stats: IncrementalStats,
}

/// The online pathmap analyzer.
#[derive(Debug)]
pub struct OnlineAnalyzer {
    config: PathmapConfig,
    pathmap: Pathmap,
    roots: Vec<(NodeId, NodeId)>,
    /// Every client node in the deployment — a superset of the clients in
    /// `roots`. Discovery must know all of them even when this analyzer
    /// shard owns only some roots (see [`Pathmap::discover_pooled_among`]).
    universe: HashSet<NodeId>,
    labels: NodeLabels,
    rx: Receiver<TracerFrame>,
    windows: FxHashMap<(NodeId, NodeId), SlidingWindow>,
    incs: FxHashMap<(NodeId, (NodeId, NodeId)), IncrementalCorrelator>,
    change: ChangeTracker,
    /// Capacity of each sliding window, in ticks.
    capacity: u64,
    /// Subscribers receiving every refresh's graphs.
    subscribers: Vec<Sender<GraphUpdate>>,
    /// Coarse screening tier, when configured.
    screening: Option<ScreeningState>,
    /// Edge-side data-reduction tier, when configured.
    reduction: Option<ReductionState>,
    /// Window-slide scratch, one per concurrently running refresh worker,
    /// shared by every pair of both tiers and kept across refreshes.
    slide_scratch: ScratchPool<SlideScratch>,
    /// Reuse counters of the fine tier's window slides, accumulated
    /// across refreshes (discovery's buffers are counted by `pathmap`).
    scratch: ScratchCounters,
    /// Activity-gated incremental tier, when configured.
    incremental: Option<IncrementalState>,
}

/// One published refresh: the paper's envisioned "pluggable" service
/// interface — subscribers "receive real-time information about their
/// service paths and systems' health in general" (Section 5).
#[derive(Debug, Clone)]
pub struct GraphUpdate {
    /// Wall-clock label of the refresh.
    pub at: Nanos,
    /// The refreshed service graphs (shared, immutable).
    pub graphs: std::sync::Arc<Vec<ServiceGraph>>,
}

impl OnlineAnalyzer {
    /// Creates an analyzer fed by `rx`, analyzing every root.
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
    pub fn with_universe(
        config: PathmapConfig,
        roots: Vec<(NodeId, NodeId)>,
        universe: HashSet<NodeId>,
        labels: NodeLabels,
        rx: Receiver<TracerFrame>,
    ) -> Self {
        // Retain enough history for the source window, the lag horizon,
        // and one refresh interval of eviction corrections.
        let capacity = config.window_ticks() + config.max_lag() + 2 * config.refresh_ticks();
        let pathmap = Pathmap::new(config.clone());
        let screening = config.screen().map(|screen| ScreeningState {
            coarse_lag: screen::coarse_lag_bound(config.max_lag(), screen.factor()),
            screen,
            decimated: FxHashMap::default(),
            coarse: FxHashMap::default(),
            active: FxHashMap::default(),
            stats: ScreeningStats::default(),
        });
        let incremental = config.incremental().then(IncrementalState::default);
        let reduction = config.reduction().map(|&cfg| ReductionState {
            cfg,
            shard: 0,
            of: 1,
            status: FxHashMap::default(),
            cold: FxHashMap::default(),
            stores: FxHashMap::default(),
            dirty: false,
            demotions: 0,
            promotions: 0,
        });
        OnlineAnalyzer {
            config,
            pathmap,
            roots,
            universe,
            labels,
            rx,
            windows: FxHashMap::default(),
            incs: FxHashMap::default(),
            change: ChangeTracker::new(),
            capacity,
            subscribers: Vec::new(),
            screening,
            reduction,
            slide_scratch: ScratchPool::default(),
            scratch: ScratchCounters::default(),
            incremental,
        }
    }

    /// Subscribes to refresh results. Every non-empty refresh is published
    /// to all live subscribers; disconnected receivers are dropped
    /// silently.
    pub fn subscribe(&mut self) -> Receiver<GraphUpdate> {
        let (tx, rx) = crossbeam::channel::unbounded();
        self.subscribers.push(tx);
        rx
    }

    /// The analysis configuration.
    pub fn config(&self) -> &PathmapConfig {
        &self.config
    }

    /// Drains all pending tracer frames into the sliding windows. Returns
    /// the number of frames ingested.
    ///
    /// A batch frame is walked by a zero-copy [`wire::FrameCursor`] whose
    /// runs stream straight into [`SlidingWindow::extend_runs`] — in steady
    /// state (no screening) ingest materializes no intermediate series at
    /// all. With screening enabled each batch entry is materialized once so
    /// the decimated twin can fold the same chunk. (A v1
    /// [`TracerFrame::Series`] is still accepted — decoded to one owned
    /// chunk — though no tracer in this repository produces one.)
    ///
    /// Stream discontinuities heal automatically: a restarted tracer's
    /// replayed history is deduplicated (only novel ticks append), and a
    /// true gap (frames lost in transit) resets that edge's window, with
    /// the affected incremental correlators falling back to a from-scratch
    /// computation on the next refresh.
    ///
    /// # Panics
    ///
    /// Panics if a frame fails to decode — a tracer bug, not a recoverable
    /// condition.
    pub fn ingest(&mut self) -> usize {
        let mut count = 0;
        // Scratch for materializing batch entries when screening needs a
        // full chunk; retained across frames so steady-state screening
        // ingest reuses one allocation.
        let mut scratch_runs: Vec<e2eprof_timeseries::rle::Run> = Vec::new();
        while let Ok(frame) = self.rx.try_recv() {
            self.ingest_frame(&frame, &mut scratch_runs);
            count += 1;
        }
        count
    }

    /// Ingests exactly `frames` tracer frames, *blocking* until they
    /// arrive (or every sender disconnects, whichever comes first), and
    /// returns the number actually ingested.
    ///
    /// This is the deterministic synchronization primitive for the
    /// distributed pipeline: the driving side counts the frames its
    /// agents emitted, and the analyzer side blocks until that many have
    /// crossed the transport — no sleeps, no timing assumptions, and a
    /// refresh never runs against a partially delivered flush.
    ///
    /// # Panics
    ///
    /// Panics if a frame fails to decode, like [`ingest`](Self::ingest).
    pub fn ingest_expected(&mut self, frames: usize) -> usize {
        let mut count = 0;
        let mut scratch_runs: Vec<e2eprof_timeseries::rle::Run> = Vec::new();
        while count < frames {
            match self.rx.recv() {
                Ok(frame) => {
                    self.ingest_frame(&frame, &mut scratch_runs);
                    count += 1;
                }
                Err(_) => break,
            }
        }
        count
    }

    /// Applies one tracer frame to the sliding windows (see
    /// [`ingest`](Self::ingest) for the decoding contract).
    fn ingest_frame(
        &mut self,
        frame: &TracerFrame,
        scratch_runs: &mut Vec<e2eprof_timeseries::rle::Run>,
    ) {
        let capacity = self.capacity;
        match frame {
            // No producer in this repo; removal waits for a `benchmark` PR.
            TracerFrame::Series { edge, payload } => {
                let chunk = wire::decode(payload).expect("undecodable tracer frame");
                let healed = self.apply_chunk(*edge, &chunk);
                if healed {
                    self.invalidate_correlators(*edge);
                }
            }
            // A backfill is ingested exactly like a batch: the promoted
            // edge's retained fine window arrives as one (possibly
            // gap-healing) chunk.
            TracerFrame::Batch { payload } | TracerFrame::Backfill { payload } => {
                let mut cursor = wire::FrameCursor::new(payload).expect("undecodable tracer frame");
                while let Some(entry) = cursor.next_entry().expect("undecodable tracer frame") {
                    let edge = (NodeId::new(entry.key.0), NodeId::new(entry.key.1));
                    if entry.level > 0 {
                        // Level-tagged coarse entry of a demoted edge:
                        // stream it into the edge's coarse store, never
                        // into the fine window.
                        scratch_runs.clear();
                        while let Some(run) = cursor.next_run().expect("undecodable tracer frame") {
                            scratch_runs.push(run);
                        }
                        let chunk = RleSeries::from_parts(
                            entry.start,
                            entry.len,
                            std::mem::take(scratch_runs),
                        );
                        if let Some(red) = &mut self.reduction {
                            red.feed_coarse(edge, entry.level, &chunk, capacity);
                        }
                        *scratch_runs = {
                            let mut v = chunk.into_runs();
                            v.clear();
                            v
                        };
                        continue;
                    }
                    let healed = if self.screening.is_some() {
                        scratch_runs.clear();
                        while let Some(run) = cursor.next_run().expect("undecodable tracer frame") {
                            scratch_runs.push(run);
                        }
                        let chunk = RleSeries::from_parts(
                            entry.start,
                            entry.len,
                            std::mem::take(scratch_runs),
                        );
                        let healed = self.apply_chunk(edge, &chunk);
                        *scratch_runs = {
                            let mut v = chunk.into_runs();
                            v.clear();
                            v
                        };
                        healed
                    } else {
                        self.windows
                            .entry(edge)
                            .or_insert_with(|| SlidingWindow::new(capacity))
                            .extend_runs(
                                entry.start,
                                entry.len,
                                std::iter::from_fn(|| {
                                    cursor.next_run().expect("undecodable tracer frame")
                                }),
                            )
                    };
                    if healed {
                        self.invalidate_correlators(edge);
                    }
                }
            }
        }
    }

    /// Appends one owned chunk to an edge's fine window (and its decimated
    /// twin, when screening is enabled). Returns whether the window healed
    /// a gap.
    fn apply_chunk(&mut self, edge: (NodeId, NodeId), chunk: &RleSeries) -> bool {
        let capacity = self.capacity;
        if let Some(red) = &mut self.reduction {
            match red.status.get(&edge) {
                Some(EdgeStatus::Promoting) => {
                    // The fine stream resumed (backfill or first live
                    // chunk): the promote round-trip is complete.
                    red.status.remove(&edge);
                    red.stores.remove(&edge);
                }
                Some(EdgeStatus::Demoted { .. }) => {
                    // The tracer has not applied the demote hint yet (or
                    // another shard keeps the edge fine): keep the coarse
                    // image warm so the promote check sees activity.
                    red.feed_fine(edge, chunk, capacity);
                }
                None => {}
            }
        }
        let healed = self
            .windows
            .entry(edge)
            .or_insert_with(|| SlidingWindow::new(capacity))
            .append_or_reset(chunk);
        if let Some(scr) = &mut self.screening {
            // The decimated twin sees the same chunk stream, so its
            // heal events coincide with the fine window's.
            let factor = scr.screen.factor();
            scr.decimated
                .entry(edge)
                .or_insert_with(|| DecimatedWindow::new(capacity, factor))
                .append_or_reset(chunk);
        }
        healed
    }

    /// Invalidates every correlator involving a reset edge.
    fn invalidate_correlators(&mut self, reset: (NodeId, NodeId)) {
        self.incs
            .retain(|&(client, edge), _| edge != reset && client != reset.0);
        if let Some(scr) = &mut self.screening {
            scr.coarse
                .retain(|&(client, edge), _| edge != reset && client != reset.0);
            scr.active
                .retain(|&(client, edge), _| edge != reset && client != reset.0);
        }
        // A healed gap replaces window content wholesale without the
        // epoch/boundary bookkeeping the quiet predicate relies on; heals
        // are rare (data loss, promote backfills), so drop the whole
        // cross-refresh memory rather than reason about partial validity.
        if let Some(st) = &mut self.incremental {
            *st = IncrementalState::default();
        }
    }

    /// The newest tick for which *every* stream has data (streams drained
    /// to different points can only be analyzed up to the common prefix).
    ///
    /// Edges demoted by the reduction tier are excluded: their fine
    /// windows stop advancing once the tracer applies the hint, and the
    /// analysis frontier must not stall on them.
    pub fn common_end(&self) -> Option<Tick> {
        let reduced = self.reduction.as_ref().map(|red| &red.status);
        self.windows
            .iter()
            .filter(|(edge, _)| reduced.is_none_or(|status| !status.contains_key(edge)))
            .map(|(_, w)| w.end())
            .min()
    }

    /// Runs one refresh: discovers the current service graphs from the
    /// retained windows and records them in the change tracker under the
    /// wall-clock label `at`.
    ///
    /// Returns an empty vec until enough data is buffered for one full
    /// analysis window.
    pub fn refresh(&mut self, at: Nanos) -> Vec<ServiceGraph> {
        let Some(data_end) = self.common_end() else {
            return Vec::new();
        };
        let max_lag = self.config.max_lag();
        let window_ticks = self.config.window_ticks();
        if data_end.index() < max_lag + window_ticks {
            return Vec::new();
        }
        let end = data_end.saturating_sub(max_lag);
        let start = end.saturating_sub(window_ticks);

        // Activity gate ([`PathmapConfig::incremental`]): take the
        // cross-refresh memory out of `self` so the phases below can
        // borrow disjoint fields, and compute each window's *quiet* flag
        // against the previous refresh's geometry. A window is quiet when
        // its change epoch is unchanged (no nonzero content entered or
        // left retention) and it has no runs in the two boundary regions
        // the slide touches — everything the slide's append/evict
        // corrections could read. The `4k` padding covers the coarse
        // twins: their block and fold boundaries move in `k`-tick steps
        // and their lag bound overshoots the fine horizon by up to `3k`
        // ticks (see DESIGN.md §6.7).
        let mut inc_state = self.incremental.take();
        if let Some(st) = inc_state.as_mut() {
            st.stats = IncrementalStats::default();
        }
        let quiet: FxHashMap<(NodeId, NodeId), bool> = match inc_state
            .as_ref()
            .and_then(|st| st.prev.map(|prev| (prev, st)))
        {
            Some(((start0, end0, _), st)) => {
                let pad = self
                    .screening
                    .as_ref()
                    .map(|scr| 4 * scr.screen.factor())
                    .unwrap_or(0);
                self.windows
                    .iter()
                    .map(|(&edge, w)| {
                        let q = st.epochs.get(&edge) == Some(&w.epoch())
                            && !w.has_runs_in(
                                Tick::new(start0.index().saturating_sub(pad)),
                                Tick::new(start.index() + max_lag + pad),
                            )
                            && !w.has_runs_in(
                                Tick::new(end0.index().saturating_sub(pad)),
                                Tick::new(data_end.index() + pad),
                            );
                        (edge, q)
                    })
                    .collect()
            }
            None => FxHashMap::default(),
        };

        // Materialize the per-edge signal views. Edges demoted by the
        // reduction tier are invisible to discovery — their fine windows
        // are stale by design and their coarse image only serves the
        // promote-overlap check.
        let reduced = self.reduction.as_ref().map(|red| &red.status);
        let mut signals_map = HashMap::new();
        for (&edge, window) in &self.windows {
            if reduced.is_some_and(|status| status.contains_key(&edge)) {
                continue;
            }
            signals_map.insert(edge, window.view(start, data_end));
        }
        // Sorted signal-edge key set: candidate-edge enumeration is
        // key-driven, so an unchanged fingerprint plus per-pair quietness
        // is what certifies a cached root graph (see Phase 2).
        let fingerprint: Vec<(NodeId, NodeId)> = if inc_state.is_some() {
            let mut keys: Vec<(NodeId, NodeId)> = signals_map.keys().copied().collect();
            keys.sort_unstable();
            keys
        } else {
            Vec::new()
        };
        let signals =
            EdgeSignals::from_parts(self.config.quanta(), (start, end), max_lag, signals_map);

        let fronts: HashMap<NodeId, NodeId> = self.roots.iter().copied().collect();
        let num_workers = self.config.num_workers();
        let engine = self.pathmap.engine();
        let slide_scratch = &self.slide_scratch;

        // Phase 0 — coarse screening tier (when configured): advance the
        // cheap decimated correlator of *every* tracked pair, upper-bound
        // each pair's fine normalized correlation, and promote/demote
        // against the hysteresis thresholds. Demoted pairs lose their fine
        // correlator here and are skipped by discovery below; promoted
        // pairs get a fresh fine correlator that Phase 1 fills by a
        // from-scratch recompute over the retained window.
        let inc_ref = &mut inc_state;
        let pruned: Option<HashSet<PairKey>> = self.screening.as_mut().map(|scr| {
            let ScreeningState {
                screen,
                coarse_lag,
                decimated,
                coarse,
                active,
                stats,
            } = scr;
            let k = screen.factor();
            let coarse_lag = *coarse_lag;
            // Safety net: every fine-tracked pair must have coarse state.
            for &key in self.incs.keys() {
                coarse
                    .entry(key)
                    .or_insert_with(|| IncrementalCorrelator::new(coarse_lag));
                active.entry(key).or_insert(true);
            }
            let decimated = &*decimated;
            // Coarse source window covering the fine window's blocks.
            let cs = Tick::new(start.index() / k);
            let ce = Tick::new(end.index().div_ceil(k));

            let mut centries: Vec<(PairKey, IncrementalCorrelator)> = coarse.drain().collect();
            centries.sort_unstable_by_key(|&(key, _)| key);
            // Per-client fine/coarse source views and per-edge coarse
            // target views, built once and shared by every pair.
            let mut fine_sources: HashMap<NodeId, Option<RleSeries>> = HashMap::new();
            let mut coarse_sources: HashMap<NodeId, Option<RleSeries>> = HashMap::new();
            for &((client, _), _) in &centries {
                fine_sources.entry(client).or_insert_with(|| {
                    fronts
                        .get(&client)
                        .and_then(|&front| signals.source_signal(client, front))
                });
                coarse_sources.entry(client).or_insert_with(|| {
                    fronts.get(&client).and_then(|&front| {
                        decimated
                            .get(&(client, front))
                            .map(|d| d.coarse().view(cs, ce))
                    })
                });
            }
            let mut coarse_targets: HashMap<(NodeId, NodeId), RleSeries> = HashMap::new();
            for &((_, edge), _) in &centries {
                if let Some(d) = decimated.get(&edge) {
                    coarse_targets
                        .entry(edge)
                        .or_insert_with(|| d.coarse().view(cs, d.coarse().end()));
                }
            }

            struct CoarseItem<'a> {
                key: PairKey,
                inc: IncrementalCorrelator,
                xc: Option<&'a RleSeries>,
                yc: Option<&'a RleSeries>,
                x: Option<&'a RleSeries>,
                y: Option<&'a RleSeries>,
                bound: Option<f64>,
                /// Activity-gated skip: carry bound and accumulator
                /// forward verbatim (see DESIGN.md §6.7).
                skip: bool,
            }
            let coarse_lookup =
                |e: (NodeId, NodeId)| decimated.get(&e).map(DecimatedWindow::coarse);
            let fronts_ref = &fronts;
            let screen = *screen;
            let quiet_ref = &quiet;
            let mut items: Vec<CoarseItem<'_>> = centries
                .into_iter()
                .map(|(key, inc)| {
                    let xc = coarse_sources.get(&key.0).and_then(Option::as_ref);
                    let yc = coarse_targets.get(&key.1);
                    let x = fine_sources.get(&key.0).and_then(Option::as_ref);
                    let y = signals.target_signal(key.1 .0, key.1 .1);
                    // A quiet pair whose cached bound was computed under
                    // the same classification (the bound's early-exit
                    // threshold depends on it) and whose coarse
                    // correlator could advance exactly keeps bound and
                    // accumulator verbatim.
                    let mut skip = false;
                    let mut bound = None;
                    if let Some(st) = inc_ref.as_ref() {
                        if st.prev.is_some()
                            && xc.is_some()
                            && yc.is_some()
                            && x.is_some()
                            && y.is_some()
                            && pair_is_quiet(quiet_ref, fronts_ref, key)
                        {
                            if let Some(&(b0, was0)) = st.bounds.get(&key) {
                                let was = active.get(&key).copied().unwrap_or(true);
                                if was == was0
                                    && advance_possible(
                                        &inc,
                                        key.0,
                                        key.1,
                                        coarse_lag,
                                        (cs, ce),
                                        &coarse_lookup,
                                        fronts_ref,
                                    )
                                {
                                    skip = true;
                                    bound = Some(b0);
                                }
                            }
                        }
                    }
                    CoarseItem {
                        key,
                        inc,
                        xc,
                        yc,
                        x,
                        y,
                        bound,
                        skip,
                    }
                })
                .collect();
            let active_ref = &*active;
            parallel::for_each_sharded_mut(&mut items, num_workers, |item| {
                if item.skip {
                    // Proven-quiet pair: every append/evict correction
                    // term is a sum of zero products, so sliding the
                    // recorded window is bitwise equivalent to the
                    // advance; the cached bound rides in `item.bound`.
                    item.inc.slide((cs, ce));
                    return;
                }
                let (Some(xc), Some(yc), Some(x), Some(y)) = (item.xc, item.yc, item.x, item.y)
                else {
                    // A signal vanished this window: carry the coarse state
                    // over untouched and keep the prior classification.
                    return;
                };
                slide_scratch.with(|scratch| {
                    advance_pair(
                        &mut item.inc,
                        engine,
                        item.key.0,
                        item.key.1,
                        xc,
                        yc,
                        coarse_lag,
                        (cs, ce),
                        &coarse_lookup,
                        fronts_ref,
                        scratch,
                    )
                });
                // Slack covering fine products the folded coarse blocks
                // cannot see yet: the decimated twins fold only complete
                // k-blocks, so up to k−1 ticks at each stream's head are
                // unfolded. For non-negative series, Σ x(t)·y(t+d) over
                // any tick set is at most (Σx)·(Σy) over covering spans.
                let x_fold = fronts_ref
                    .get(&item.key.0)
                    .and_then(|&front| decimated.get(&(item.key.0, front)))
                    .map(|d| Tick::new(d.coarse().end().index() * k))
                    .unwrap_or(Tick::ZERO);
                let y_fold = decimated
                    .get(&item.key.1)
                    .map(|d| Tick::new(d.coarse().end().index() * k))
                    .unwrap_or(Tick::ZERO);
                let mut slack = 0.0;
                if x_fold < end {
                    let xs = x.slice(x_fold.max(start), end).stats().sum();
                    let ys = y.slice(x_fold.max(y.start()), y.end()).stats().sum();
                    slack += xs * ys;
                }
                if y_fold < data_end {
                    let lo = Tick::new((y_fold.index() + 1).saturating_sub(max_lag));
                    let xs = x.slice(lo.max(start), end).stats().sum();
                    let ys = y.slice(y_fold.max(y.start()), y.end()).stats().sum();
                    slack += xs * ys;
                }
                // Scan only far enough to decide: once the running bound
                // clears this pair's hysteresis threshold it stays active
                // regardless of the exact maximum, so live pairs exit
                // after a handful of lags (see `max_rho_bound_until`).
                let was = active_ref.get(&item.key).copied().unwrap_or(true);
                let stop_at = screen.decision_threshold(was) - screen::BOUND_MARGIN;
                let corr = item.inc.corr();
                item.bound = Some(screen::max_rho_bound_until(
                    corr, k, x, y, max_lag, slack, stop_at,
                ));
            });

            // Serial decision pass in stable key order.
            if let Some(st) = inc_ref.as_mut() {
                st.bounds.clear();
            }
            let mut pruned_set = HashSet::new();
            let mut refresh_stats = ScreeningStats::default();
            for item in items {
                refresh_stats.candidates += 1;
                if let Some(st) = inc_ref.as_mut() {
                    st.stats.coarse_pairs += 1;
                    if item.skip {
                        st.stats.coarse_skipped += 1;
                    }
                }
                if let Some(bound) = item.bound {
                    let was = active.get(&item.key).copied().unwrap_or(true);
                    if let Some(st) = inc_ref.as_mut() {
                        st.bounds.insert(item.key, (bound, was));
                    }
                    let now = screen.next_active(bound, was);
                    active.insert(item.key, now);
                    if !now {
                        self.incs.remove(&item.key);
                    } else if !was {
                        self.incs
                            .entry(item.key)
                            .or_insert_with(|| IncrementalCorrelator::new(max_lag));
                    }
                }
                if !active.get(&item.key).copied().unwrap_or(true) {
                    refresh_stats.pruned += 1;
                    pruned_set.insert(item.key);
                }
                coarse.insert(item.key, item.inc);
            }
            *stats = refresh_stats;
            pruned_set
        });

        // Phase 0.5 — edge-side reduction decisions (when configured):
        // promote demoted edges whose coarse image overlaps a root signal
        // within the lag horizon, and demote edges whose every owned
        // (client, edge) pair screening has kept pruned for `patience`
        // consecutive refreshes. The resulting hint snapshot is picked up
        // by the driver via [`take_hints`](Self::take_hints).
        if let (Some(red), Some(scr)) = (self.reduction.as_mut(), self.screening.as_mut()) {
            reduction_pass(
                red,
                scr,
                &self.windows,
                &mut self.incs,
                &fronts,
                window_ticks,
                max_lag,
                self.capacity,
            );
        }

        // Phase 1 — advance every tracked correlator by the window delta,
        // sharded over the worker pool in stable key order. Each pair owns
        // its accumulator and only *reads* the shared windows, so its
        // arithmetic is identical no matter which shard (or thread) runs
        // it; the merge below reassembles the map in the same sorted key
        // order for every worker count.
        let mut entries: Vec<(PairKey, IncrementalCorrelator)> = self.incs.drain().collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        let mut sources: HashMap<NodeId, Option<RleSeries>> = HashMap::new();
        for &((client, _), _) in &entries {
            sources.entry(client).or_insert_with(|| {
                fronts
                    .get(&client)
                    .and_then(|&front| signals.source_signal(client, front))
            });
        }
        struct AdvanceItem<'a> {
            key: PairKey,
            inc: IncrementalCorrelator,
            x: Option<&'a RleSeries>,
            y: Option<&'a RleSeries>,
            /// Whether this refresh actually advanced the pair.
            advanced: bool,
            /// Whether the advance allocated (a from-scratch refill, or
            /// slide scratch that had to grow).
            allocated: bool,
            /// Activity-gated skip: slide the window and keep the
            /// accumulated products verbatim (see DESIGN.md §6.7).
            skipped: bool,
        }
        let windows = &self.windows;
        let fronts_ref = &fronts;
        let fine_lookup = |e: (NodeId, NodeId)| windows.get(&e);
        let quiet_ref = &quiet;
        let mut items: Vec<AdvanceItem<'_>> = entries
            .into_iter()
            .map(|(key, inc)| {
                let x = sources.get(&key.0).and_then(Option::as_ref);
                let y = signals.target_signal(key.1 .0, key.1 .1);
                // A quiet pair whose correlator stands at the previous
                // refresh's window — the geometry quietness was proven
                // against — and could advance exactly is a proven bitwise
                // no-op: both correction spans lie inside run-free
                // regions.
                let skipped = inc_state.as_ref().is_some_and(|st| {
                    st.prev
                        .is_some_and(|(start0, end0, _)| inc.window() == Some((start0, end0)))
                        && x.is_some()
                        && y.is_some()
                        && pair_is_quiet(quiet_ref, fronts_ref, key)
                        && advance_possible(
                            &inc,
                            key.0,
                            key.1,
                            max_lag,
                            (start, end),
                            &fine_lookup,
                            fronts_ref,
                        )
                });
                AdvanceItem {
                    key,
                    inc,
                    x,
                    y,
                    advanced: false,
                    allocated: false,
                    skipped,
                }
            })
            .collect();
        // Shared-transform batched refill: with the incremental tier on,
        // pairs needing a from-scratch recompute are grouped per client
        // (items are in sorted key order, so one client's pairs are
        // contiguous) and computed by a single `correlate_fanout` call —
        // an FFT-capable engine forward-transforms the shared source
        // once per padded size instead of once per pair. The fanout is
        // bitwise identical to per-pair `correlate` for every engine, so
        // this only moves work, never results.
        if inc_state.is_some() {
            let mut i = 0;
            while i < items.len() {
                let client = items[i].key.0;
                let mut group: Vec<usize> = Vec::new();
                let mut j = i;
                while j < items.len() && items[j].key.0 == client {
                    let it = &items[j];
                    if !it.skipped
                        && it.x.is_some()
                        && it.y.is_some()
                        && !advance_possible(
                            &it.inc,
                            it.key.0,
                            it.key.1,
                            max_lag,
                            (start, end),
                            &fine_lookup,
                            fronts_ref,
                        )
                    {
                        group.push(j);
                    }
                    j += 1;
                }
                if let Some(&g0) = group.first() {
                    let x = items[g0].x.expect("grouped on Some");
                    let ys: Vec<&RleSeries> = group
                        .iter()
                        .map(|&gi| items[gi].y.expect("grouped on Some"))
                        .collect();
                    let corrs = engine.correlate_fanout(x, &ys, max_lag);
                    for (&gi, corr) in group.iter().zip(corrs) {
                        let item = &mut items[gi];
                        if item.inc.max_lag() != max_lag {
                            item.inc = IncrementalCorrelator::new(max_lag);
                        }
                        // Equivalent to `refill` over the same span; the
                        // sharded advance below then finds the window
                        // already in place and no-ops.
                        item.inc.install(corr, (x.start(), x.end()));
                        item.allocated = true;
                    }
                }
                i = j;
            }
        }
        parallel::for_each_sharded_mut(&mut items, num_workers, |item| {
            if item.skipped {
                // Proven-quiet pair: sliding the recorded window is
                // bitwise equivalent to the advance.
                item.inc.slide((start, end));
                item.advanced = true;
                return;
            }
            // Pairs whose signals vanished this window are carried over
            // untouched: their correlators stay at an older window, which
            // is how discovery would tell them from advanced ones (it
            // cannot visit them anyway).
            if let (Some(x), Some(y)) = (item.x, item.y) {
                item.allocated |= slide_scratch.with(|scratch| {
                    advance_pair(
                        &mut item.inc,
                        engine,
                        item.key.0,
                        item.key.1,
                        x,
                        y,
                        max_lag,
                        (start, end),
                        &fine_lookup,
                        fronts_ref,
                        scratch,
                    )
                });
                item.advanced = true;
            }
        });
        // Pairs skipped this refresh, for the dirty-root partition below:
        // a clean root's every support pair must have carried bitwise.
        let mut p1_skipped: HashSet<PairKey> = HashSet::new();
        for item in items {
            if let Some(st) = inc_state.as_mut() {
                st.stats.fine_pairs += 1;
                if item.skipped {
                    st.stats.fine_skipped += 1;
                    p1_skipped.insert(item.key);
                }
            }
            if item.advanced {
                self.scratch.note(item.allocated);
            }
            self.incs.insert(item.key, item.inc);
        }

        // Phase 2 — path discovery (normalization + spike detection), one
        // root per worker, reading each pair's products where Phase 1 left
        // them: in its correlator. Each pair
        // first reached this refresh belongs to exactly one client (hence
        // one worker), so its correlator is created in the worker's local
        // map — no lock — and merged back in stable root order.
        // With the incremental tier on, roots are first partitioned into
        // clean and dirty: a root is clean when the signal-edge
        // fingerprint is unchanged and every pair its last exploration
        // touched either stayed screened-out or carried its series
        // bitwise (Phase-1 skip). Exploration is deterministic in those
        // inputs, so a clean root's recompute would reproduce last
        // refresh's graph bit for bit — splice in the cached clone
        // instead and discover only the dirty subset.
        let record_touched = inc_state.is_some();
        let make_provider = || CachedProvider {
            advanced: &self.incs,
            engine,
            fresh: HashMap::new(),
            screened: pruned.as_ref(),
            touched: record_touched.then(Vec::new),
        };
        let mut providers: Vec<CachedProvider<'_>> = Vec::new();
        let graphs: Vec<ServiceGraph> = if let Some(st) = inc_state.as_mut() {
            let reusable = st.prev.is_some() && st.fingerprint == fingerprint;
            let clean: Vec<bool> = self
                .roots
                .iter()
                .map(|root| {
                    reusable
                        && st.roots.get(root).is_some_and(|(_, support)| {
                            support.iter().all(|p| {
                                p1_skipped.contains(p)
                                    || (st.pruned.contains(p)
                                        && pruned.as_ref().is_some_and(|s| s.contains(p)))
                            })
                        })
                })
                .collect();
            st.stats.roots = self.roots.len() as u64;
            st.stats.reused_roots = clean.iter().filter(|&&c| c).count() as u64;
            let dirty_roots: Vec<(NodeId, NodeId)> = self
                .roots
                .iter()
                .zip(&clean)
                .filter(|&(_, &c)| !c)
                .map(|(&r, _)| r)
                .collect();
            let results = self.pathmap.discover_each_among(
                &signals,
                &dirty_roots,
                &self.universe,
                &self.labels,
                num_workers,
                make_provider,
            );
            // Reassemble in stable root order and rebuild the cache.
            let mut graphs = Vec::new();
            let mut cache = FxHashMap::default();
            let mut results = results.into_iter();
            for (&root, &is_clean) in self.roots.iter().zip(&clean) {
                if is_clean {
                    let entry = st.roots.get(&root).expect("clean root is cached").clone();
                    graphs.extend(entry.0.clone());
                    cache.insert(root, entry);
                } else {
                    let (graph, provider) = results.next().expect("one result per dirty root");
                    let mut support = provider.touched.clone().unwrap_or_default();
                    support.sort_unstable();
                    support.dedup();
                    graphs.extend(graph.clone());
                    cache.insert(root, (graph, support));
                    providers.push(provider);
                }
            }
            st.roots = cache;
            graphs
        } else {
            let (graphs, provs) = self.pathmap.discover_pooled_among(
                &signals,
                &self.roots,
                &self.universe,
                &self.labels,
                num_workers,
                make_provider,
            );
            providers = provs;
            graphs
        };
        // The providers borrowed the correlator map; keep only what they
        // own before writing to it.
        let fresh: Vec<_> = providers.into_iter().map(|p| p.fresh).collect();
        for fresh in fresh {
            if let Some(scr) = &mut self.screening {
                // Pairs first reached this refresh enter the coarse tier
                // as active; their coarse correlator fills from scratch
                // (cheaply) on the next refresh.
                let coarse_lag = scr.coarse_lag;
                for &key in fresh.keys() {
                    scr.coarse
                        .entry(key)
                        .or_insert_with(|| IncrementalCorrelator::new(coarse_lag));
                    scr.active.insert(key, true);
                }
            }
            self.incs.extend(fresh);
        }
        // Snapshot this refresh's geometry, epochs, and pruned set: the
        // reference frame the next refresh's quiet predicate is proven
        // against. (The bounds and root caches were refreshed in place.)
        if let Some(mut st) = inc_state {
            st.prev = Some((start, end, data_end));
            st.epochs = self
                .windows
                .iter()
                .map(|(&edge, w)| (edge, w.epoch()))
                .collect();
            st.pruned = pruned.clone().unwrap_or_default();
            st.fingerprint = fingerprint;
            self.incremental = Some(st);
        }
        self.change.record(at, &graphs);
        if !graphs.is_empty() && !self.subscribers.is_empty() {
            let update = GraphUpdate {
                at,
                graphs: std::sync::Arc::new(graphs.clone()),
            };
            self.subscribers
                .retain(|tx| tx.send(update.clone()).is_ok());
        }
        graphs
    }

    /// The per-edge delay histories across refreshes.
    pub fn change_tracker(&self) -> &ChangeTracker {
        &self.change
    }

    /// Screening counters of the most recent refresh: how many tracked
    /// pairs the coarse tier examined and how many it pruned. `None` when
    /// screening is disabled.
    pub fn screening_stats(&self) -> Option<ScreeningStats> {
        self.screening.as_ref().map(|scr| scr.stats)
    }

    /// Counters of the activity-gated incremental tier's most recent
    /// refresh: how many coarse and fine pairs were skipped and how many
    /// root graphs were reused. `None` when [`PathmapConfig::incremental`]
    /// is off.
    pub fn incremental_stats(&self) -> Option<IncrementalStats> {
        self.incremental.as_ref().map(|st| st.stats)
    }

    /// Buffer-reuse counters accumulated across refreshes (see
    /// [`ScratchCounters`]): one use per fine pair advanced in Phase 1
    /// (window-slide scratch) plus one per pair discovery normalized in
    /// Phase 2. In steady state `allocated` stops growing while `reused`
    /// keeps climbing, the observable form of the allocation-free
    /// refresh hot path.
    pub fn scratch_counters(&self) -> ScratchCounters {
        let discovery = self.pathmap.scratch_counters();
        ScratchCounters {
            reused: self.scratch.reused + discovery.reused,
            allocated: self.scratch.allocated + discovery.allocated,
        }
    }

    /// Declares this analyzer's position in a sharded tier: `shard` of
    /// `of`. Stamped into every hint snapshot so tracers can intersect the
    /// verdicts of all shards (an edge is only decimated once every shard
    /// agrees). The default is `0` of `1` — a lone analyzer's hints take
    /// effect directly.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= of` or `of == 0`.
    pub fn set_reduction_shard(&mut self, shard: u32, of: u32) {
        assert!(of > 0 && shard < of, "invalid shard {shard} of {of}");
        if let Some(red) = &mut self.reduction {
            red.shard = shard;
            red.of = of;
        }
    }

    /// Takes the pending hint snapshot, if the demoted-edge set changed
    /// since the last call (or [`refresh`](Self::refresh) never demoted
    /// anything — then always `None`). The snapshot is full-state and
    /// idempotent; the driver routes it to every tracer agent, directly
    /// in process or as a `Hint` control frame over the transport.
    pub fn take_hints(&mut self) -> Option<HintState> {
        let red = self.reduction.as_mut()?;
        if !red.dirty {
            return None;
        }
        red.dirty = false;
        let mut edges: Vec<((u32, u32), u64)> = red
            .status
            .iter()
            .filter_map(|(&(a, b), &status)| match status {
                EdgeStatus::Demoted { level } => {
                    Some(((a.index() as u32, b.index() as u32), level))
                }
                // Promoting edges leave the snapshot — that is exactly
                // what tells the tracer to backfill and resume fine.
                EdgeStatus::Promoting => None,
            })
            .collect();
        edges.sort_unstable();
        Some(HintState {
            shard: red.shard,
            of: red.of,
            edges,
        })
    }

    /// Counters of the edge-side reduction tier; `None` when
    /// [`PathmapConfig::reduction`] is off.
    pub fn reduction_stats(&self) -> Option<ReductionStats> {
        self.reduction.as_ref().map(|red| ReductionStats {
            demotions: red.demotions,
            promotions: red.promotions,
            reduced_now: red.status.len(),
        })
    }
}

/// One refresh's reduction decisions (see the Phase 0.5 comment in
/// [`OnlineAnalyzer::refresh`]): promote-by-overlap first, then
/// demote-by-screening, with each verdict extended to the edge's
/// response stream (the reverse direction is never a screening pair, so
/// it rides its request stream's status both ways). A free function
/// over the analyzer's disjoint fields so it can run while `refresh`
/// holds the engine borrow.
///
/// Promotion is sound by the screening cover bound: zero support overlap
/// between a root's coarse image and the edge's coarse image across the
/// admissible coarse lags certifies every fine product in the window is
/// zero (see [`screen::coarse_overlap`]) — overlap is the *only* event
/// that could make a demoted edge correlate again, so firing on any
/// overlap can never leave a true edge demoted.
#[allow(clippy::too_many_arguments)]
fn reduction_pass(
    red: &mut ReductionState,
    scr: &mut ScreeningState,
    windows: &FxHashMap<(NodeId, NodeId), SlidingWindow>,
    incs: &mut FxHashMap<PairKey, IncrementalCorrelator>,
    fronts: &HashMap<NodeId, NodeId>,
    window_ticks: u64,
    max_lag: u64,
    capacity: u64,
) {
    // Promote: any support overlap between a root's coarse source image
    // and a demoted edge's coarse store revives the edge.
    let mut demoted: Vec<((NodeId, NodeId), u64)> = red
        .status
        .iter()
        .filter_map(|(&edge, &status)| match status {
            EdgeStatus::Demoted { level } => Some((edge, level)),
            EdgeStatus::Promoting => None,
        })
        .collect();
    demoted.sort_unstable();
    // Root sources decimated once per (client, level), not per edge.
    let mut src_cache: FxHashMap<(NodeId, u64), RleSeries> = FxHashMap::default();
    for (edge, level) in demoted {
        let Some(store) = red.stores.get(&edge) else {
            continue;
        };
        let y = store.win.coarse().series();
        if y.support() == 0 {
            continue;
        }
        let coarse_lags = screen::coarse_lag_bound(max_lag, level);
        let hit = fronts.iter().any(|(&client, &front)| {
            let x = src_cache.entry((client, level)).or_insert_with(|| {
                windows
                    .get(&(client, front))
                    .map(|w| w.series().decimate(level))
                    .unwrap_or_else(|| RleSeries::empty(Tick::ZERO, 0))
            });
            screen::coarse_overlap(x, &y, coarse_lags)
        });
        if hit {
            red.status.insert(edge, EdgeStatus::Promoting);
            red.dirty = true;
            red.promotions += 1;
            // The response stream was demoted with this edge (see the
            // demote pass below); its density is the request's shifted by
            // the service time, so the overlap that revives the request
            // revives the conversation — promote both sides together
            // rather than waiting for the reverse image to clear the
            // coarse-lag test on its own.
            let rev = (edge.1, edge.0);
            if matches!(red.status.get(&rev), Some(EdgeStatus::Demoted { .. })) {
                red.status.insert(rev, EdgeStatus::Promoting);
                red.promotions += 1;
            }
        }
    }

    // Demote: an edge is a candidate when screening currently prunes the
    // (client, edge) pair of *every* root this shard owns — and the edge
    // carries no root signal itself. Candidates must stay cold for
    // `patience` consecutive refreshes before the hint fires.
    if fronts.is_empty() {
        return;
    }
    let mut edges: Vec<(NodeId, NodeId)> = windows.keys().copied().collect();
    edges.sort_unstable();
    for edge in edges {
        if red.status.contains_key(&edge) {
            continue;
        }
        let is_root_signal = fronts.contains_key(&edge.0);
        let all_dead = !is_root_signal
            && fronts
                .keys()
                .all(|&client| scr.active.get(&(client, edge)) == Some(&false));
        if !all_dead {
            red.cold.remove(&edge);
            continue;
        }
        let cold = red.cold.entry(edge).or_insert(0);
        *cold += 1;
        if *cold < red.cfg.patience {
            continue;
        }
        red.cold.remove(&edge);
        // Adaptive level: denser edges cost more bytes, so decimate them
        // harder; sparse edges keep the base factor (their coarse image
        // is nearly free either way).
        let support = windows
            .get(&edge)
            .map(|w| w.series().support())
            .unwrap_or(0);
        let frac = support as f64 / window_ticks.max(1) as f64;
        let level = if frac >= 0.2 {
            4 * red.cfg.base_level
        } else if frac >= 0.05 {
            2 * red.cfg.base_level
        } else {
            red.cfg.base_level
        };
        demote_edge(red, scr, incs, edge, level, capacity);
        // A reduction verdict is about the conversation, not one
        // direction of it: the response stream `(b, a)` is never a
        // screening pair (discovery correlates roots against request
        // edges only), so it inherits the request stream's demotion —
        // otherwise every pruned edge keeps shipping its return path at
        // full resolution forever. The reverse edge stays fine when it
        // carries a root signal or is itself screened active for any
        // root (mutual-traffic topologies).
        let rev = (edge.1, edge.0);
        if rev != edge
            && !red.status.contains_key(&rev)
            && !fronts.contains_key(&rev.0)
            && !fronts
                .keys()
                .any(|&client| scr.active.get(&(client, rev)) == Some(&true))
        {
            if let Some(w) = windows.get(&rev) {
                let frac = w.series().support() as f64 / window_ticks.max(1) as f64;
                let level = if frac >= 0.2 {
                    4 * red.cfg.base_level
                } else if frac >= 0.05 {
                    2 * red.cfg.base_level
                } else {
                    red.cfg.base_level
                };
                demote_edge(red, scr, incs, rev, level, capacity);
            }
        }
    }
}

/// Flips one edge to [`EdgeStatus::Demoted`] and drops every fine and
/// coarse pair state touching it — the fresh [`CoarseStore`] is the
/// edge's only remaining footprint.
fn demote_edge(
    red: &mut ReductionState,
    scr: &mut ScreeningState,
    incs: &mut FxHashMap<PairKey, IncrementalCorrelator>,
    edge: (NodeId, NodeId),
    level: u64,
    capacity: u64,
) {
    red.status.insert(edge, EdgeStatus::Demoted { level });
    red.stores.insert(edge, CoarseStore::new(level, capacity));
    red.cold.remove(&edge);
    red.dirty = true;
    red.demotions += 1;
    incs.retain(|&(_, e), _| e != edge);
    scr.coarse.retain(|&(_, e), _| e != edge);
    scr.active.retain(|&(_, e), _| e != edge);
    scr.decimated.remove(&edge);
}

/// Whether the windows in quiet-flag map `quiet` say both signals of
/// `key` — the client's root signal on its `(client, front)` edge and the
/// candidate edge itself — were quiet this refresh. Windows with no flag
/// (newly appeared) are never quiet.
fn pair_is_quiet(
    quiet: &FxHashMap<(NodeId, NodeId), bool>,
    fronts: &HashMap<NodeId, NodeId>,
    key: PairKey,
) -> bool {
    fronts
        .get(&key.0)
        .is_some_and(|&front| quiet.get(&(key.0, front)).copied().unwrap_or(false))
        && quiet.get(&key.1).copied().unwrap_or(false)
}

/// Whether [`advance_pair`] would take the exact incremental path for
/// this pair (as opposed to a from-scratch refill): the recorded window
/// overlaps the target window correctly and both streams retain history
/// back to the recorded start. The activity-gated skip and the batched
/// refill pre-pass both consult this predicate so their decisions mirror
/// the maintenance path exactly.
fn advance_possible<'w>(
    inc: &IncrementalCorrelator,
    client: NodeId,
    edge: (NodeId, NodeId),
    max_lag: u64,
    window: (Tick, Tick),
    lookup: &impl Fn((NodeId, NodeId)) -> Option<&'w SlidingWindow>,
    fronts: &HashMap<NodeId, NodeId>,
) -> bool {
    if inc.max_lag() != max_lag {
        return false;
    }
    let (ws, we) = window;
    let x_window = fronts
        .get(&client)
        .and_then(|&front| lookup((client, front)));
    match (inc.window(), x_window) {
        (Some((s, e)), Some(xw)) => {
            s <= ws && e >= ws && e <= we && xw.start() <= s && {
                // y history for the eviction span [s, ws + L).
                lookup(edge).map(|yw| yw.start() <= s).unwrap_or(false)
            }
        }
        _ => false,
    }
}

/// Advances one `(client, edge)` correlator to the source window `window`;
/// the refreshed lagged products are left in `inc.corr()`. Returns whether
/// the advance allocated anything proportional to the lag bound.
///
/// This is the single code path for correlator maintenance, and each
/// pair's arithmetic depends on nothing but its own arguments, which is
/// what makes parallel refreshes bitwise identical to serial ones. The
/// retained history is reached through `lookup` so the same code advances
/// both tiers: the fine tier passes the raw sliding windows, the coarse
/// screening tier passes their decimated twins.
///
/// `engine` serves only the cold path — a pair's first window (or a window
/// after a stream heal) is a one-shot from-scratch computation where any
/// stateless engine applies; warm windows stay on the exact incremental
/// RLE corrections, one fused slide per refresh through `scratch`.
#[allow(clippy::too_many_arguments)]
fn advance_pair<'w>(
    inc: &mut IncrementalCorrelator,
    engine: &dyn Correlator,
    client: NodeId,
    edge: (NodeId, NodeId),
    x: &RleSeries,
    y: &RleSeries,
    max_lag: u64,
    window: (Tick, Tick),
    lookup: &impl Fn((NodeId, NodeId)) -> Option<&'w SlidingWindow>,
    fronts: &HashMap<NodeId, NodeId>,
    scratch: &mut SlideScratch,
) -> bool {
    let (ws, we) = window;
    if inc.max_lag() != max_lag {
        *inc = IncrementalCorrelator::new(max_lag);
    }
    // Determine whether an exact incremental advance is possible. The x
    // signal is always the client's root signal, retained on the
    // (client, front) window — needed for eviction corrections that
    // reach before the current view.
    if advance_possible(inc, client, edge, max_lag, window, lookup, fronts) {
        let (s, e) = inc.window().expect("checked");
        let xw = fronts
            .get(&client)
            .and_then(|&front| lookup((client, front)))
            .expect("checked");
        let yw = lookup(edge).expect("checked");
        if (s, e) == window {
            // Already in place — the batched refill installed it, or no
            // data arrived since the last refresh. Nothing enters or
            // leaves, so there is nothing to take views of.
            return false;
        }
        let y_horizon = yw.end();
        let held = scratch.capacity();
        inc.advance(
            &xw.view(e, we),
            &yw.view(e, y_horizon),
            ws,
            &xw.view(s, ws),
            &yw.view(s, (ws + max_lag).min(y_horizon)),
            scratch,
        );
        scratch.capacity() > held
    } else {
        inc.refill(engine, x, y);
        true
    }
}

/// One discovery worker's view of the refresh's correlation evidence:
/// series precomputed by the sharded advance phase, plus a worker-local
/// map of correlators created for pairs first reached during this
/// discovery pass (harvested and merged by the analyzer afterwards — a
/// pair's client belongs to exactly one root, so local maps never
/// conflict).
struct CachedProvider<'a> {
    /// Every tracked correlator. One standing at exactly the source
    /// window discovery asks about was advanced by Phase 1 and lends its
    /// products out as they are; one left at an older window (its signals
    /// had vanished) is stale and never served.
    advanced: &'a FxHashMap<PairKey, IncrementalCorrelator>,
    /// Engine for the one-shot cold computation of first-reached pairs.
    engine: &'a dyn Correlator,
    fresh: HashMap<PairKey, IncrementalCorrelator>,
    /// Pairs the coarse screening tier pruned this refresh: discovery
    /// skips them without touching (or creating) fine correlators.
    screened: Option<&'a HashSet<PairKey>>,
    /// When the incremental tier is on, every pair this root's
    /// exploration consulted — the root's *support set*, which decides
    /// whether its cached graph may be reused next refresh.
    touched: Option<Vec<PairKey>>,
}

impl CorrelationProvider for CachedProvider<'_> {
    fn correlate(
        &mut self,
        client: NodeId,
        edge: (NodeId, NodeId),
        x: &RleSeries,
        y: &RleSeries,
        max_lag: u64,
    ) -> Cow<'_, CorrSeries> {
        if let Some(touched) = &mut self.touched {
            touched.push((client, edge));
        }
        if let Some(inc) = self.advanced.get(&(client, edge)) {
            if inc.window() == Some((x.start(), x.end())) {
                return Cow::Borrowed(inc.corr());
            }
        }
        // First reached this refresh: no prior state to correct, so fill
        // from scratch; the analyzer adopts the correlator afterwards.
        let engine = self.engine;
        let inc = self.fresh.entry((client, edge)).or_insert_with(|| {
            let mut inc = IncrementalCorrelator::new(max_lag);
            inc.refill(engine, x, y);
            inc
        });
        Cow::Borrowed(inc.corr())
    }

    fn screened_out(
        &mut self,
        client: NodeId,
        edge: (NodeId, NodeId),
        _x: &RleSeries,
        _y: &RleSeries,
        _max_lag: u64,
    ) -> bool {
        if let Some(touched) = &mut self.touched {
            touched.push((client, edge));
        }
        self.screened
            .is_some_and(|pruned| pruned.contains(&(client, edge)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathmap::roots_from_topology;
    use crate::tracer::TracerAgent;
    use crossbeam::channel::unbounded;
    use e2eprof_netsim::prelude::*;
    use e2eprof_netsim::Route;
    use e2eprof_timeseries::Run;
    use std::collections::HashSet;

    fn cfg() -> PathmapConfig {
        PathmapConfig::builder()
            .window(Nanos::from_secs(10))
            .refresh(Nanos::from_secs(2))
            .max_delay(Nanos::from_secs(1))
            .build()
    }

    fn two_tier(seed: u64) -> Simulation {
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

    /// Drives a sim with tracer agents on all services and an analyzer,
    /// returning the graphs of the last refresh.
    fn drive_online(
        mut sim: Simulation,
        config: PathmapConfig,
        total_secs: u64,
    ) -> (Vec<ServiceGraph>, OnlineAnalyzer) {
        let roots = roots_from_topology(sim.topology());
        let universe = roots.iter().map(|&(c, _)| c).collect();
        let (graphs, analyzer, _) =
            drive_online_among(&mut sim, config, total_secs, roots, universe);
        (graphs, analyzer)
    }

    /// Like [`drive_online`] but with an explicit owned-root subset and
    /// client universe (the sharded-analyzer shape), returning the agents
    /// too. Routes analyzer hint snapshots back to every agent after each
    /// refresh — the in-process form of the reduction feedback loop.
    fn drive_online_among(
        sim: &mut Simulation,
        config: PathmapConfig,
        total_secs: u64,
        roots: Vec<(NodeId, NodeId)>,
        universe: HashSet<NodeId>,
    ) -> (Vec<ServiceGraph>, OnlineAnalyzer, Vec<TracerAgent>) {
        let (tx, rx) = unbounded();
        let clients: HashSet<NodeId> = sim.topology().clients().into_iter().collect();
        let mut agents: Vec<TracerAgent> = sim
            .topology()
            .services()
            .into_iter()
            .map(|node| TracerAgent::new(node, clients.clone(), config.clone(), tx.clone()))
            .collect();
        let mut analyzer = OnlineAnalyzer::with_universe(
            config.clone(),
            roots,
            universe,
            NodeLabels::from_topology(sim.topology()),
            rx,
        );
        let mut last = Vec::new();
        for step in 1..=(total_secs / 2) {
            let now = Nanos::from_secs(step * 2);
            sim.run_until(now);
            // Drain 1 s behind the clock (safely past ω).
            let drain = Tick::new(step * 2_000 - 1_000);
            for a in &mut agents {
                a.poll(sim.captures(), drain);
            }
            analyzer.ingest();
            let graphs = analyzer.refresh(now);
            if let Some(hint) = analyzer.take_hints() {
                for a in &mut agents {
                    a.apply_hint_state(&hint);
                }
            }
            if !graphs.is_empty() {
                last = graphs;
            }
        }
        (last, analyzer, agents)
    }

    fn run_online(seed: u64, total_secs: u64) -> (Vec<ServiceGraph>, OnlineAnalyzer) {
        drive_online(two_tier(seed), cfg(), total_secs)
    }

    /// Like [`two_tier`] but with a single deterministic burst: arrivals
    /// every 25 ms for the first 10 s, then total silence — long enough
    /// for every nonzero tick to leave retention so the activity gate's
    /// quiet predicate can fire on the tail refreshes.
    fn two_tier_bursty(seed: u64) -> Simulation {
        let mut t = TopologyBuilder::new();
        let class = t.service_class("c");
        let web = t.service("web", ServiceConfig::new(DelayDist::constant_millis(2)));
        let db = t.service("db", ServiceConfig::new(DelayDist::exponential_millis(8)));
        let arrivals: Vec<Nanos> = (0..400).map(|i| Nanos::from_millis(i * 25)).collect();
        let cli = t.client("cli", class, web, Workload::trace(arrivals));
        t.connect(cli, web, DelayDist::constant_millis(1));
        t.connect(web, db, DelayDist::constant_millis(1));
        t.route(web, class, Route::fixed(db));
        t.route(db, class, Route::terminal());
        Simulation::new(t.build().unwrap(), seed)
    }

    /// The activity gate must actually *skip* once the deployment goes
    /// idle (non-vacuous coverage of the slide path), while the final
    /// graphs stay equivalent to the eager run.
    #[test]
    fn incremental_skips_idle_windows_and_matches_eager() {
        let cfg_on = PathmapConfig::builder()
            .window(Nanos::from_secs(10))
            .refresh(Nanos::from_secs(2))
            .max_delay(Nanos::from_secs(1))
            .incremental(true)
            .build();
        let (eager, _) = drive_online(two_tier_bursty(5), cfg(), 80);
        let (gated, analyzer) = drive_online(two_tier_bursty(5), cfg_on, 80);
        assert_graphs_equivalent(&eager, &gated);
        let stats = analyzer.incremental_stats().expect("incremental tier on");
        assert!(
            stats.fine_skipped > 0,
            "deep-idle refresh skipped no fine pair: {stats:?}"
        );
        assert!(
            stats.reused_roots > 0,
            "deep-idle refresh reused no root graph: {stats:?}"
        );
    }

    /// Asserts two graph sets are structurally identical (edge sets, spike
    /// lags, hop delays, bottleneck flags) with spike strengths within
    /// 1e-9 — the tolerance for promoted pairs whose full-resolution
    /// recompute sums the same products in a different order.
    fn assert_graphs_equivalent(plain: &[ServiceGraph], screened: &[ServiceGraph]) {
        assert_eq!(plain.len(), screened.len(), "graph count differs");
        for (ga, gb) in plain.iter().zip(screened) {
            assert_eq!(ga.client_label, gb.client_label);
            let key = |g: &ServiceGraph| {
                let mut edges: Vec<_> = g
                    .edges()
                    .iter()
                    .map(|e| {
                        (
                            (e.from, e.to),
                            e.spikes.iter().map(|s| s.delay).collect::<Vec<_>>(),
                            e.hop_delay,
                        )
                    })
                    .collect();
                edges.sort();
                edges
            };
            assert_eq!(key(ga), key(gb), "edge structure differs:\n{ga}\nvs\n{gb}");
            let bn = |g: &ServiceGraph| {
                let mut v: Vec<_> = g
                    .vertices()
                    .iter()
                    .map(|v| (v.label.clone(), v.bottleneck))
                    .collect();
                v.sort();
                v
            };
            assert_eq!(bn(ga), bn(gb), "bottleneck flags differ");
            for ea in ga.edges() {
                let eb = gb.edge(ea.from, ea.to).expect("edge sets already equal");
                for (sa, sb) in ea.spikes.iter().zip(&eb.spikes) {
                    assert!(
                        (sa.strength - sb.strength).abs() < 1e-9,
                        "strength drift: {} vs {}",
                        sa.strength,
                        sb.strength
                    );
                }
            }
        }
    }

    #[test]
    fn online_pipeline_discovers_the_path() {
        let (graphs, _) = run_online(5, 30);
        assert_eq!(graphs.len(), 1, "no graphs produced online");
        let g = &graphs[0];
        assert!(g.has_edge_between("web", "db"), "missing web->db:\n{g}");
        assert!(g.has_edge_between("db", "web"));
        assert!(g.has_edge_between("web", "cli"));
    }

    #[test]
    fn refresh_before_enough_data_is_empty() {
        let (_tx, rx) = unbounded::<TracerFrame>();
        let mut analyzer = OnlineAnalyzer::new(cfg(), vec![], NodeLabels::default(), rx);
        assert!(analyzer.refresh(Nanos::from_secs(1)).is_empty());
    }

    #[test]
    fn incremental_matches_offline_discovery() {
        // The online (incremental) analysis must find the same edges as an
        // offline from-scratch pass over the same horizon.
        let (online, analyzer) = run_online(7, 30);
        let mut sim = two_tier(7);
        sim.run_until(Nanos::from_secs(30));
        let config = analyzer.config().clone();
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
        let (tx, rx) = unbounded();
        let config = cfg();
        let clients: HashSet<NodeId> = sim.topology().clients().into_iter().collect();
        let mut agents: Vec<TracerAgent> = sim
            .topology()
            .services()
            .into_iter()
            .map(|node| TracerAgent::new(node, clients.clone(), config.clone(), tx.clone()))
            .collect();
        let mut analyzer = OnlineAnalyzer::new(
            config,
            roots_from_topology(sim.topology()),
            NodeLabels::from_topology(sim.topology()),
            rx,
        );
        let sub = analyzer.subscribe();
        let dropped = analyzer.subscribe();
        drop(dropped); // disconnected subscriber must not break publishing
        for step in 1..=10u64 {
            let now = Nanos::from_secs(step * 2);
            sim.run_until(now);
            for a in &mut agents {
                a.poll(
                    sim.captures(),
                    e2eprof_timeseries::Tick::new(step * 2_000 - 1_000),
                );
            }
            analyzer.ingest();
            let _ = analyzer.refresh(now);
        }
        let updates: Vec<GraphUpdate> = sub.try_iter().collect();
        assert!(updates.len() >= 3, "got {} updates", updates.len());
        assert!(updates.windows(2).all(|w| w[0].at < w[1].at));
        assert!(!updates.last().unwrap().graphs.is_empty());
    }

    #[test]
    fn screened_online_matches_unscreened() {
        for seed in [5, 9] {
            let screened_cfg = PathmapConfig::builder()
                .window(Nanos::from_secs(10))
                .refresh(Nanos::from_secs(2))
                .max_delay(Nanos::from_secs(1))
                .screening(crate::config::ScreeningConfig {
                    decimation: 8,
                    hysteresis: 0.5,
                })
                .build();
            let (plain, _) = run_online(seed, 30);
            let (screened, analyzer) = drive_online(two_tier(seed), screened_cfg, 30);
            assert_graphs_equivalent(&plain, &screened);
            // Dense Poisson traffic keeps every pair live; the coarse tier
            // still classified them all.
            let stats = analyzer.screening_stats().expect("screening enabled");
            assert!(stats.candidates > 0, "stats: {stats:?}");
        }
    }

    #[test]
    fn online_screening_prunes_wide_fanout_and_matches() {
        let base = PathmapConfig::builder()
            .window(Nanos::from_secs(20))
            .refresh(Nanos::from_secs(5))
            .max_delay(Nanos::from_millis(500))
            .build();
        let screened_cfg = PathmapConfig::builder()
            .window(Nanos::from_secs(20))
            .refresh(Nanos::from_secs(5))
            .max_delay(Nanos::from_millis(500))
            .screening(crate::config::ScreeningConfig {
                decimation: 8,
                hysteresis: 0.5,
            })
            .build();
        let (plain, _) = drive_online(crate::testutil::wide_fanout_sim(8, 17), base, 30);
        let (screened, analyzer) =
            drive_online(crate::testutil::wide_fanout_sim(8, 17), screened_cfg, 30);
        assert_graphs_equivalent(&plain, &screened);
        let stats = analyzer.screening_stats().expect("screening enabled");
        assert!(
            stats.pruned > 0,
            "expected dead backends pruned online, stats: {stats:?}"
        );
        assert!(stats.candidates > stats.pruned, "stats: {stats:?}");
    }

    #[test]
    fn v1_and_v2_frames_of_the_same_series_ingest_to_identical_windows() {
        // What is left of the v1-vs-v2 equivalence now that nothing emits
        // v1: the reader-side arm kept for it must build the same windows
        // as the batch cursor — with screening too, which materializes
        // each batch entry for the decimated twin.
        let screened = PathmapConfig::builder()
            .window(Nanos::from_secs(10))
            .refresh(Nanos::from_secs(2))
            .max_delay(Nanos::from_secs(1))
            .screening(crate::config::ScreeningConfig {
                decimation: 8,
                hysteresis: 0.5,
            })
            .build();
        // Three contiguous chunks: a run cut by a chunk boundary, an
        // all-quiet chunk, a burst.
        let run = |start, len, count: f64| Run::new(Tick::new(start), len, count.sqrt());
        let chunks = [
            RleSeries::from_parts(
                Tick::ZERO,
                2_000,
                vec![run(10, 50, 1.0), run(60, 3, 2.0), run(1_990, 10, 1.0)],
            ),
            RleSeries::from_parts(Tick::new(2_000), 2_000, vec![run(2_000, 41, 1.0)]),
            RleSeries::empty(Tick::new(4_000), 2_000),
            RleSeries::from_parts(Tick::new(6_000), 2_000, vec![run(7_000, 51, 7.0)]),
        ];
        let sim = two_tier(5);
        let edge = roots_from_topology(sim.topology())[0];
        for config in [cfg(), screened] {
            let analyzer = |frames: Vec<TracerFrame>| {
                let (tx, rx) = unbounded();
                let mut analyzer = OnlineAnalyzer::new(
                    config.clone(),
                    roots_from_topology(sim.topology()),
                    NodeLabels::from_topology(sim.topology()),
                    rx,
                );
                let sent = frames.len();
                frames.into_iter().for_each(|f| tx.send(f).expect("open"));
                assert_eq!(analyzer.ingest(), sent);
                analyzer
            };
            let v1 = analyzer(
                chunks
                    .iter()
                    .map(|chunk| TracerFrame::Series {
                        edge,
                        payload: wire::encode(chunk),
                    })
                    .collect(),
            );
            let key = (edge.0.index() as u32, edge.1.index() as u32);
            let v2 = analyzer(
                chunks
                    .iter()
                    .map(|chunk| TracerFrame::Batch {
                        payload: wire::encode_batch(&[(key, chunk)], true),
                    })
                    .collect(),
            );
            assert_eq!(v1.windows[&edge].series(), v2.windows[&edge].series());
            assert_eq!(v1.windows[&edge].series().end(), Tick::new(8_000));
            assert_eq!(v1.screening.is_some(), config.screening().is_some());
            if let (Some(a), Some(b)) = (&v1.screening, &v2.screening) {
                let (a, b) = (&a.decimated[&edge], &b.decimated[&edge]);
                assert_eq!(a.coarse().series(), b.coarse().series());
                assert_eq!(a.tail(), b.tail());
            }
        }
    }

    #[test]
    fn steady_state_refresh_stops_allocating_series_buffers() {
        // Drive the online pipeline past warm-up, snapshot the buffer
        // counters, then keep refreshing: the correlate maintenance path
        // must only *reuse* retained buffers from then on.
        let mut sim = two_tier(11);
        let config = cfg();
        let (tx, rx) = unbounded();
        let clients: HashSet<NodeId> = sim.topology().clients().into_iter().collect();
        let mut agents: Vec<TracerAgent> = sim
            .topology()
            .services()
            .into_iter()
            .map(|node| TracerAgent::new(node, clients.clone(), config.clone(), tx.clone()))
            .collect();
        let mut analyzer = OnlineAnalyzer::new(
            config.clone(),
            roots_from_topology(sim.topology()),
            NodeLabels::from_topology(sim.topology()),
            rx,
        );
        let mut drive = |analyzer: &mut OnlineAnalyzer,
                         sim: &mut Simulation,
                         steps: std::ops::RangeInclusive<u64>| {
            for step in steps {
                let now = Nanos::from_secs(step * 2);
                sim.run_until(now);
                let drain = Tick::new(step * 2_000 - 1_000);
                for a in &mut agents {
                    a.poll(sim.captures(), drain);
                }
                analyzer.ingest();
                let _ = analyzer.refresh(now);
            }
        };
        drive(&mut analyzer, &mut sim, 1..=12);
        // Phase 1 (window slides) and Phase 2 (normalization ahead of
        // spike detection) are counted apart and must each settle.
        let phases = |a: &OnlineAnalyzer| [a.scratch, a.pathmap.scratch_counters()];
        let warm = phases(&analyzer);
        for (phase, c) in warm.iter().enumerate() {
            assert!(c.allocated > 0, "phase {}: no buffer ever used", phase + 1);
        }
        drive(&mut analyzer, &mut sim, 13..=20);
        let after = phases(&analyzer);
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
        let total = analyzer.scratch_counters();
        assert_eq!(total.reused, after[0].reused + after[1].reused);
        assert_eq!(total.allocated, after[0].allocated + after[1].allocated);
    }

    /// Fanout-test config: screening, optionally with the edge-reduction
    /// tier on top.
    fn fanout_cfg(reduction: Option<crate::config::ReductionConfig>) -> PathmapConfig {
        let mut b = PathmapConfig::builder()
            .window(Nanos::from_secs(20))
            .refresh(Nanos::from_secs(5))
            .max_delay(Nanos::from_millis(500))
            .screening(crate::config::ScreeningConfig {
                decimation: 8,
                hysteresis: 0.5,
            });
        if let Some(red) = reduction {
            b = b.reduction(red);
        }
        b.build()
    }

    /// Runs a fanout sim owning only the first root (`cli`) — the sharded
    /// shape under which the noise tier's edges are dead for every owned
    /// root and hence demotable.
    fn run_fanout_owning_cli(
        mut sim: Simulation,
        config: PathmapConfig,
        total_secs: u64,
    ) -> (Vec<ServiceGraph>, OnlineAnalyzer, Vec<TracerAgent>) {
        let mut roots = roots_from_topology(sim.topology());
        roots.sort_unstable();
        let universe: HashSet<NodeId> = roots.iter().map(|&(c, _)| c).collect();
        roots.truncate(1);
        drive_online_among(&mut sim, config, total_secs, roots, universe)
    }

    #[test]
    fn reduction_demotes_dead_fanout_and_matches_graphs() {
        let (plain, ..) = run_fanout_owning_cli(
            crate::testutil::wide_fanout_sim(8, 17),
            fanout_cfg(None),
            36,
        );
        let (reduced, analyzer, agents) = run_fanout_owning_cli(
            crate::testutil::wide_fanout_sim(8, 17),
            fanout_cfg(Some(crate::config::ReductionConfig::default())),
            36,
        );
        assert_graphs_equivalent(&plain, &reduced);
        let stats = analyzer.reduction_stats().expect("reduction enabled");
        assert!(
            stats.demotions > 0,
            "dead backends never demoted: {stats:?}"
        );
        assert!(stats.reduced_now > 0, "stats: {stats:?}");
        assert_eq!(stats.promotions, 0, "disjoint noise must stay demoted");
        // The hints actually reached the agents: at least one stream runs
        // decimated at the end of the run.
        let decimating = agents
            .iter()
            .any(|a| (0..12u32).any(|i| (0..12u32).any(|j| a.effective_level((i, j)) > 0)));
        assert!(decimating, "no agent applied a nonzero decimation level");
    }

    #[test]
    fn reduction_promotes_on_overlap_and_backfills() {
        let (plain, ..) = run_fanout_owning_cli(
            crate::testutil::shifting_fanout_sim(4, 23, 60.0),
            fanout_cfg(None),
            56,
        );
        let (reduced, analyzer, agents) = run_fanout_owning_cli(
            crate::testutil::shifting_fanout_sim(4, 23, 60.0),
            fanout_cfg(Some(crate::config::ReductionConfig::default())),
            56,
        );
        assert_graphs_equivalent(&plain, &reduced);
        let stats = analyzer.reduction_stats().expect("reduction enabled");
        assert!(stats.demotions > 0, "stats: {stats:?}");
        assert!(
            stats.promotions > 0,
            "overlapping noise must promote: {stats:?}"
        );
        let backfills: u64 = agents.iter().map(|a| a.backfills_emitted()).sum();
        assert!(backfills > 0, "promotes must trigger a fine backfill");
    }

    #[test]
    fn change_tracker_accumulates_refreshes() {
        let (_, analyzer) = run_online(9, 30);
        let keys: Vec<_> = analyzer.change_tracker().keys().collect();
        assert!(!keys.is_empty());
        let (c, f, t) = keys[0];
        assert!(analyzer.change_tracker().history(c, f, t).len() >= 2);
    }
}
