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
//! Refreshes are *parallel*: every pair's append/evict corrections run in
//! place, on a scoped worker pool ([`PathmapConfig::num_workers`]) whose
//! workers each pull the next pair from one queue; path discovery
//! (normalization and spike detection) then runs the same way, a root at a
//! time, against the series Phase 1 left in the root's correlators. Every
//! worker count produces bitwise identical graphs — see [`parallel`] for
//! the determinism contract. A phase is given to the pool only while it is
//! worth a fork: one whose last run cost a thread less than [`FORK_WORTH`]
//! stays on the calling thread.
//!
//! Refreshes are *activity-gated*: what a refresh costs follows what
//! changed since the previous one, not what is tracked. A pair whose two
//! windows provably carried nothing across the slide keeps its products
//! as they are, and a root whose every pair did reuses its last graph
//! (`RefreshMemory` holds the proof obligations; DESIGN.md §6.1).
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
//! to the full pass over every window and root.
//!
//! [`TracerAgent`]: crate::tracer::TracerAgent

use crate::change::ChangeTracker;
use crate::config::{PathmapConfig, ReductionConfig};
use crate::graph::{NodeLabels, ServiceGraph};
use crate::hashing::FxHashMap;
use crate::parallel::{self, ScratchPool};
pub use crate::pathmap::ScratchCounters;
use crate::pathmap::{CorrelationProvider, IncrementalStats, Pathmap, ScreeningStats};
use crate::reduction::{coarse_lag_bound, supports_overlap, HintState};
use crate::signals::EdgeSignals;
use crate::tracer::TracerFrame;
use crossbeam::channel::{Receiver, Sender};
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::pyramid::DecimatedWindow;
use e2eprof_timeseries::window::SlidingWindow;
use e2eprof_timeseries::{wire, Nanos, RleSeries, Run, Tick};
use e2eprof_xcorr::incremental::{IncrementalCorrelator, SlideScratch};
use e2eprof_xcorr::{CorrSeries, Spike};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashSet};
use std::time::Duration;

/// What a phase of the refresh must have cost one thread, the last time
/// it ran, to be given to the worker pool this time.
///
/// Forking and joining fresh threads costs some 25 µs while a core stands
/// idle for each of them, and up to a scheduler time slice — milliseconds
/// — when another tenant of the host holds that core: the caller then
/// waits in `join` for a worker that has yet to be scheduled, even one
/// that will find the queue empty. A phase of a millisecond or two gains
/// at most half of itself from a second worker and loses several times
/// itself in that case, so its duration follows the host's load instead of
/// its own work. A phase worth a time slice or more amortizes the wait.
/// Phase costs are steady from one refresh to the next, so the last run
/// is the estimate; a phase never yet run (the first refresh, and the
/// first after a heal — both refill from scratch) goes to the pool.
///
/// Which thread runs an item cannot reach a published bit
/// ([`parallel`]'s contract), so this is scheduling only.
pub const FORK_WORTH: Duration = Duration::from_millis(3);

/// The worker count for a phase whose previous run cost one thread `last`.
fn pool_for(last: Option<Duration>, num_workers: usize) -> usize {
    match last {
        Some(cost) if cost < FORK_WORTH => 1,
        _ => num_workers,
    }
}

/// One-thread cost of each pooled phase at its last run.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseCosts {
    /// Phase 1, the fine correlators.
    fine: Option<Duration>,
    /// Phase 2, path discovery.
    discovery: Option<Duration>,
}

/// A directed edge `(src, dst)` between two nodes.
type Edge = (NodeId, NodeId);

/// What a root's exploration concluded about one pair it consulted: the
/// spike list discovery settled on.
type Verdict = Vec<Spike>;

/// One root's last discovery result and its *support*: the candidate edge
/// of every pair the exploration consulted, sorted, with the verdict on
/// each.
type RootMemory = (Option<ServiceGraph>, Vec<(Edge, Verdict)>);

/// One owned root and the correlators of its pairs: its client's arrival
/// signal, retained on the `(client, front)` stream, against each
/// candidate edge its exploration has consulted.
#[derive(Debug)]
struct Root {
    client: NodeId,
    front: NodeId,
    pairs: FxHashMap<Edge, IncrementalCorrelator>,
    /// In the coming refresh's wake set ([`WakeSet::roots`]).
    awake: bool,
    /// The window every correlator of the root stands at, when the root is
    /// *settled*: it had a source view and a remembered graph at the end
    /// of its last run, and every pair stood at that refresh's window.
    /// While nothing the root reads wakes, each refresh would skip its
    /// every pair and find it clean, so it is not visited at all; its
    /// correlators are slid to the last refresh's window when it next
    /// wakes, exactly where the skips would have left them.
    settled: Option<(Tick, Tick)>,
}

/// One edge's fine stream: its sliding window and what the activity gate
/// knows about it between refreshes. Streams are never removed; each keeps
/// its position in [`Streams::list`], which is also the position of its
/// view in the analyzer's [`EdgeSignals`].
#[derive(Debug)]
struct Stream {
    edge: Edge,
    window: SlidingWindow,
    /// The window's change epoch when the gate last evaluated it (`None`
    /// before it first did).
    seen: Option<u64>,
    /// In the coming refresh's wake set ([`WakeSet::streams`]).
    awake: bool,
    /// The quiet verdict of the refresh under way. `true` for a stream
    /// that did not wake — the wake set proves it quiet — and between
    /// refreshes.
    quiet: bool,
    /// Whether discovery sees the stream (the reduction tier does not hold
    /// its edge). Set when the signal index is rebuilt, on every
    /// from-scratch refresh — which every change of the reduction status
    /// set forces.
    visible: bool,
    /// Lazy-deletion stamp: a calendar entry with an older stamp is stale.
    stamp: u32,
    /// The owned roots that read the stream: those holding a pair on it
    /// and the one whose source it is. May still name a root that has
    /// dropped its pair since (a heal, a demotion) — that only wakes it.
    readers: Vec<usize>,
}

/// Every fine stream, by position, and each edge's position.
#[derive(Debug, Default)]
struct Streams {
    at: FxHashMap<Edge, usize>,
    list: Vec<Stream>,
}

impl Streams {
    /// The retained window of `edge`'s stream.
    fn get(&self, edge: &Edge) -> Option<&SlidingWindow> {
        self.at.get(edge).map(|&i| &self.list[i].window)
    }

    /// Lists every root as a reader of its source stream and of each
    /// stream it holds a pair on, and nothing else.
    fn rebuild_readers(&mut self, roots: &[Root]) {
        for stream in &mut self.list {
            stream.readers.clear();
        }
        for (r, root) in roots.iter().enumerate() {
            let source = (root.client, root.front);
            for edge in std::iter::once(&source).chain(root.pairs.keys()) {
                if let Some(&i) = self.at.get(edge) {
                    self.list[i].readers.push(r);
                }
            }
        }
    }
}

/// Mutable borrows of the `items` at `positions`, which must be sorted and
/// distinct.
fn pick_mut<'a, T>(items: &'a mut [T], positions: &[usize]) -> Vec<&'a mut T> {
    let mut picked = Vec::with_capacity(positions.len());
    let (mut rest, mut base) = (items, 0);
    for &at in positions {
        let (_, tail) = std::mem::take(&mut rest).split_at_mut(at - base);
        let (item, tail) = tail.split_first_mut().expect("a position within items");
        picked.push(item);
        (rest, base) = (tail, at + 1);
    }
    picked
}

/// The event-driven half of the activity gate: what the coming refresh
/// must look at. Whatever is not in it is proven quiet (DESIGN.md §6.1,
/// "The wake set").
#[derive(Debug, Default)]
struct WakeSet {
    /// Streams whose quiet predicate must be evaluated, each flagged
    /// [`Stream::awake`]: pushed by ingest when a window's epoch moves, it
    /// is created or its retention start passes the last refresh's start,
    /// and by a refresh for a window whose runs reach past its end or
    /// whose retention start is past its start.
    streams: Vec<usize>,
    /// Roots to visit, each flagged [`Root::awake`]: readers of a stream
    /// that woke and was not still, and roots left unsettled.
    roots: Vec<usize>,
    /// The retention calendar, a min-heap of `(first, stream, stamp)`:
    /// `first` is the start of the stream's first run ending after the
    /// refresh start it was filed at, and it wakes the stream once a
    /// refresh's start-side boundary region `[start₀, start + L)` reaches
    /// it.
    calendar: BinaryHeap<Reverse<(Tick, usize, u32)>>,
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
/// fine chunks in the interim — [`supports_overlap`] only reads the
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
    /// Consecutive refreshes each candidate edge's tracked pairs have all
    /// had disjoint supports (demotion fires at `cfg.patience`).
    cold: FxHashMap<(NodeId, NodeId), u32>,
    /// Coarse image per demoted edge, for the promote-overlap check.
    stores: FxHashMap<(NodeId, NodeId), CoarseStore>,
    /// Whether the demoted-edge set changed since the last
    /// [`OnlineAnalyzer::take_hints`].
    dirty: bool,
    /// Bumped whenever an edge enters or leaves `status` — whenever the
    /// signal-edge set loses or regains an edge.
    generation: u64,
    demotions: u64,
    promotions: u64,
}

impl ReductionState {
    /// Notes that fine data over `[from, to)` just entered `edge`'s
    /// `window`. A promoting edge's round trip is complete: its fine
    /// stream (backfill or first live chunk) resumed. A demoted edge's
    /// tracer has not applied the hint yet (or another shard keeps the
    /// edge fine): the chunk is folded into the coarse image, which keeps
    /// the promote check seeing activity.
    fn fine_arrived(
        &mut self,
        edge: (NodeId, NodeId),
        window: &SlidingWindow,
        (from, to): (Tick, Tick),
        fine_capacity: u64,
    ) {
        match self.status.get(&edge) {
            Some(EdgeStatus::Promoting) => {
                self.status.remove(&edge);
                self.stores.remove(&edge);
                self.generation += 1;
            }
            Some(&EdgeStatus::Demoted { level }) => {
                self.stores
                    .entry(edge)
                    .or_insert_with(|| CoarseStore::new(level, fine_capacity))
                    .win
                    .append_or_reset(&window.view(from, to));
            }
            None => {}
        }
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

/// What one refresh remembers for the next: everything needed to *prove*
/// that carrying a pair's accumulated products (or a whole root's graph)
/// forward unchanged is bitwise identical to recomputing it.
///
/// The soundness contract lives in DESIGN.md §6.1. In short, a window is
/// *quiet* for a refresh when its change epoch is unchanged since the
/// previous refresh **and** it has no runs in the boundary regions the
/// window slide adds or evicts. Every append/evict correction term of a
/// quiet pair is a sum of zero products, so skipping the advance and
/// sliding the recorded window is a bitwise no-op.
///
/// An empty memory — before the first refresh, and after a stream heal
/// drops it — proves nothing: every window wakes, no window is quiet and
/// every root is dirty, which is the from-scratch computation, reached by
/// data.
#[derive(Debug, Default)]
struct RefreshMemory {
    /// Geometry of the last completed refresh: `(start, end, data_end)`.
    prev: Option<(Tick, Tick, Tick)>,
    /// Per-root discovery result of that refresh, in root order (empty
    /// when nothing is remembered).
    roots: Vec<Option<RootMemory>>,
    /// Generation of the signal-edge set at that refresh
    /// ([`OnlineAnalyzer::signal_generation`]). Any change — an edge
    /// appearing or moving through the reduction tier — dirties every
    /// root, because exploration enumerates candidate edges from the set.
    generation: u64,
    /// Order-free digest of the signal-edge set at that refresh, against
    /// which debug builds check that an unchanged generation means an
    /// unchanged set.
    #[cfg(debug_assertions)]
    digest: u64,
    /// Counters of the most recent refresh.
    stats: IncrementalStats,
    /// What each pooled phase cost at that refresh — a scheduling
    /// estimate ([`FORK_WORTH`]), not a proof obligation.
    costs: PhaseCosts,
}

/// The online pathmap analyzer.
#[derive(Debug)]
pub struct OnlineAnalyzer {
    config: PathmapConfig,
    pathmap: Pathmap,
    /// The owned roots, in publication order, each with its correlators.
    roots: Vec<Root>,
    /// Every client node in the deployment — a superset of the clients in
    /// `roots`. Discovery must know all of them even when this analyzer
    /// shard owns only some roots: it never recurses into a client node,
    /// and one it did not know of would let an exploration wander through
    /// another shard's client and diverge from the single-analyzer graphs.
    universe: HashSet<NodeId>,
    labels: NodeLabels,
    rx: Receiver<TracerFrame>,
    /// Every fine stream ever seen, with what the gate knows of it.
    streams: Streams,
    /// The signal index, kept across refreshes: a view per stream, at the
    /// stream's position.
    signals: EdgeSignals,
    /// What the coming refresh must look at.
    wake: WakeSet,
    /// The source window of the last completed refresh — where the
    /// correlators of every settled root conceptually stand.
    slid_to: Option<(Tick, Tick)>,
    change: ChangeTracker,
    /// Capacity of each sliding window, in ticks.
    capacity: u64,
    /// Subscribers receiving every refresh's graphs.
    subscribers: Vec<Sender<GraphUpdate>>,
    /// Edge-side data-reduction tier, when configured.
    reduction: Option<ReductionState>,
    /// Window-slide scratch, one per concurrently running refresh worker,
    /// shared by every pair and kept across refreshes.
    slide_scratch: ScratchPool<SlideScratch>,
    /// Reuse counters of the window slides, accumulated
    /// across refreshes (discovery's buffers are counted by `pathmap`).
    scratch: ScratchCounters,
    /// What the last refresh left for the next one's activity gate.
    memory: RefreshMemory,
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
    /// one `(client, front)` stream — heals and the reduction tier's coarse
    /// source images go by client — so two fronts of one client would mix
    /// their evidence.
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
        let roots = roots
            .into_iter()
            .map(|(client, front)| Root {
                client,
                front,
                pairs: FxHashMap::default(),
                awake: false,
                settled: None,
            })
            .collect();
        // Retain enough history for the source window, the lag horizon,
        // and one refresh interval of eviction corrections.
        let capacity = config.window_ticks() + config.max_lag() + 2 * config.refresh_ticks();
        let pathmap = Pathmap::new(config.clone());
        let signals = EdgeSignals::empty(config.quanta(), config.max_lag());
        let reduction = config.reduction().map(|&cfg| ReductionState {
            cfg,
            shard: 0,
            of: 1,
            status: FxHashMap::default(),
            cold: FxHashMap::default(),
            stores: FxHashMap::default(),
            dirty: false,
            generation: 0,
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
            streams: Streams::default(),
            signals,
            wake: WakeSet::default(),
            slid_to: None,
            change: ChangeTracker::new(),
            capacity,
            subscribers: Vec::new(),
            reduction,
            slide_scratch: ScratchPool::default(),
            scratch: ScratchCounters::default(),
            memory: RefreshMemory::default(),
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
    /// state ingest materializes no intermediate series at all. (A v1
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
        // Scratch for materializing the coarse entries of demoted edges;
        // retained across frames so steady-state ingest reuses one
        // allocation.
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
                self.extend_window(
                    *edge,
                    chunk.start(),
                    chunk.len(),
                    chunk.runs().iter().copied(),
                );
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
                    self.extend_window(
                        edge,
                        entry.start,
                        entry.len,
                        std::iter::from_fn(|| cursor.next_run().expect("undecodable tracer frame")),
                    );
                }
            }
        }
    }

    /// Appends one chunk — its span and its runs — to an edge's fine
    /// window, tells the reduction tier, wakes the window for the coming
    /// refresh when the chunk may have made it non-quiet, and drops the
    /// correlators a healed gap invalidated.
    fn extend_window(
        &mut self,
        edge: (NodeId, NodeId),
        start: Tick,
        len: u64,
        runs: impl IntoIterator<Item = Run>,
    ) {
        let capacity = self.capacity;
        let Streams { at, list } = &mut self.streams;
        let views = self.signals.views_mut();
        let wake = &mut self.wake;
        // A new stream is awake from birth; it also moves the signal-edge
        // generation, so the refresh that first sees it wakes everything.
        let i = *at.entry(edge).or_insert_with(|| {
            list.push(Stream {
                edge,
                window: SlidingWindow::new(capacity),
                seen: None,
                awake: true,
                quiet: true,
                visible: false,
                stamp: 0,
                readers: Vec::new(),
            });
            views.push(RleSeries::empty(Tick::ZERO, 0));
            wake.streams.push(list.len() - 1);
            list.len() - 1
        });
        let stream = &mut list[i];
        let healed = stream.window.extend_runs(start, len, runs);
        if let Some(red) = &mut self.reduction {
            red.fine_arrived(edge, &stream.window, (start, start + len), capacity);
        }
        // The epoch moved (content entered or left retention), or the
        // retention start passed the last refresh's start, which a pair
        // standing at that window needs to advance or skip.
        let prev_start = self.memory.prev.map(|(start0, _, _)| start0);
        if !stream.awake
            && (stream.seen != Some(stream.window.epoch())
                || prev_start.is_some_and(|start0| stream.window.start() > start0))
        {
            stream.awake = true;
            wake.streams.push(i);
        }
        if healed {
            self.invalidate_correlators(edge);
        }
    }

    /// Invalidates every correlator involving a reset edge: all of a root's
    /// pairs when it carries the root's source signal, else each root's
    /// pair with it.
    fn invalidate_correlators(&mut self, reset: Edge) {
        for root in &mut self.roots {
            if root.client == reset.0 {
                root.pairs.clear();
            } else {
                root.pairs.remove(&reset);
            }
        }
        // A healed gap replaces window content wholesale without the
        // epoch/boundary bookkeeping the quiet predicate relies on; heals
        // are rare (data loss, promote backfills), so drop the whole
        // cross-refresh memory rather than reason about partial validity.
        self.memory = RefreshMemory::default();
    }

    /// The newest tick for which *every* stream has data (streams drained
    /// to different points can only be analyzed up to the common prefix).
    ///
    /// Edges demoted by the reduction tier are excluded: their fine
    /// windows stop advancing once the tracer applies the hint, and the
    /// analysis frontier must not stall on them.
    pub fn common_end(&self) -> Option<Tick> {
        let reduced = self.reduction.as_ref().map(|red| &red.status);
        self.streams
            .list
            .iter()
            .filter(|s| reduced.is_none_or(|status| !status.contains_key(&s.edge)))
            .map(|s| s.window.end())
            .min()
    }

    /// The generation of the signal-edge set: it moves exactly when a fine
    /// stream is first seen (streams are never removed) or an edge enters
    /// or leaves the reduction tier's status set — the two ways the set of
    /// edges discovery sees can change.
    fn signal_generation(&self) -> u64 {
        self.streams.list.len() as u64 + self.reduction.as_ref().map_or(0, |red| red.generation)
    }

    /// Runs one refresh: discovers the current service graphs from the
    /// retained windows and records them in the change tracker under the
    /// wall-clock label `at`.
    ///
    /// What a refresh costs follows what woke since the previous one, plus
    /// publishing: only the streams in the wake set are evaluated and only
    /// the roots reading a stream that moved are visited; every other root
    /// republishes its remembered graph (DESIGN.md §6.1).
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

        // Edge-side reduction decisions (when configured), ahead of
        // everything that reads the signal set: promote demoted edges
        // whose coarse image overlaps a root signal within the lag
        // horizon, and demote edges whose every owned (client, edge) pair
        // is tracked and has had disjoint supports for `patience`
        // consecutive refreshes. The resulting hint snapshot is picked up
        // by the driver via [`take_hints`](Self::take_hints).
        if let Some(red) = self.reduction.as_mut() {
            reduction_pass(
                red,
                &self.streams,
                &mut self.roots,
                (start, end, data_end),
                max_lag,
                self.capacity,
            );
        }

        // Activity gate. A remembered root graph speaks only for the
        // signal-edge set it was explored against: candidate edges are
        // enumerated from it. The wake set stands on the previous
        // refresh's proofs only while that set holds and the window moves
        // forward by less than its own length; otherwise every stream and
        // every root wakes — the from-scratch refresh.
        let generation = self.signal_generation();
        let prev = self.memory.prev;
        self.memory.stats = IncrementalStats::default();
        let reusable = prev.is_some() && self.memory.generation == generation;
        let from_scratch = !reusable
            || !prev
                .is_some_and(|(start0, end0, _)| start0 <= start && start <= end0 && end0 <= end);
        let geometry = (start, end, data_end);
        let woken = self.wake_streams(geometry, from_scratch);
        #[cfg(debug_assertions)]
        {
            self.memory.digest = self.assert_wake_set_sound(&woken, geometry, reusable);
        }

        let num_workers = self.config.num_workers();
        let slide_scratch = &self.slide_scratch;
        let (streams, signals) = (&self.streams, &self.signals);
        let memory = &mut self.memory;
        let stream_of = |edge: &Edge| streams.at.get(edge).map(|&i| (i, &streams.list[i]));

        // Phase 1 — bring the correlators of every awake root to this
        // window, in place in the root's map, on the worker pool. Each pair
        // owns its accumulator and only *reads* the shared windows, so its
        // arithmetic is identical no matter which thread runs it. A root's
        // source view is sliced once, here, for both phases. A root that
        // slept first slides its correlators to the last refresh's window,
        // where the skips it slept through would have left them.
        let mut awake = std::mem::take(&mut self.wake.roots);
        awake.sort_unstable();
        let mut picked = pick_mut(&mut self.roots, &awake);
        if let Some(last) = self.slid_to {
            for root in picked.iter_mut() {
                if root.settled.is_some_and(|w| w != last) {
                    root.pairs.values_mut().for_each(|inc| inc.slide(last));
                }
            }
        }
        let sources: Vec<Option<RleSeries>> = picked
            .iter()
            .map(|root| signals.source_signal(root.client, root.front))
            .collect();
        struct FineItem<'a> {
            /// Position of the pair's root among the awake roots.
            root: usize,
            edge: Edge,
            inc: &'a mut IncrementalCorrelator,
            step: Step<'a>,
            /// Whether executing the step allocated (a from-scratch
            /// refill, or slide scratch that had to grow).
            allocated: bool,
        }
        let prev_window = prev.map(|(start0, end0, _)| (start0, end0));
        let mut items: Vec<FineItem<'_>> = Vec::new();
        for (k, (root, x)) in picked.into_iter().zip(&sources).enumerate() {
            let source = stream_of(&(root.client, root.front));
            for (&edge, inc) in &mut root.pairs {
                let target = stream_of(&edge);
                let y = target
                    .filter(|(_, stream)| stream.visible)
                    .map(|(i, _)| signals.view(i));
                // Both signals of the pair quiet — proven against the
                // previous refresh's geometry, so it only speaks for a
                // correlator standing at exactly that window.
                let quiet = inc.window() == prev_window
                    && source.is_some_and(|(_, stream)| stream.quiet)
                    && target.is_some_and(|(_, stream)| stream.quiet);
                let step = Step::decide(
                    inc.window(),
                    x.as_ref().zip(y),
                    source.map(|(_, stream)| &stream.window),
                    target.map(|(_, stream)| &stream.window),
                    (start, end),
                    quiet,
                );
                items.push(FineItem {
                    root: k,
                    edge,
                    inc,
                    step,
                    allocated: false,
                });
            }
        }
        memory.costs.fine = Some(for_each_step(
            &mut items,
            pool_for(memory.costs.fine, num_workers),
            |item| item.step,
            |item| {
                item.allocated = item
                    .step
                    .run(item.inc, max_lag, (start, end), slide_scratch);
            },
        ));
        // Each root's pairs skipped this refresh: a clean root's every
        // support pair must have carried bitwise.
        let mut skipped: Vec<Vec<Edge>> = vec![Vec::new(); awake.len()];
        for item in items {
            memory.stats.fine_pairs += 1;
            if matches!(item.step, Step::Skip) {
                memory.stats.fine_skipped += 1;
                skipped[item.root].push(item.edge);
            }
            if !matches!(item.step, Step::Carry) {
                self.scratch.note(item.allocated);
            }
        }

        // Phase 2 — path discovery (normalization + spike detection), one
        // awake root per item, reading each pair's products where Phase 1
        // left them: in the root's correlator. A pair first reached this
        // refresh gets its correlator in the root's map too.
        // A root is clean when the signal-edge generation is unchanged and
        // every pair its last exploration consulted carried its series
        // bitwise (Phase-1 skip). Exploration is deterministic in those
        // inputs, so a clean root's recompute would reproduce last
        // refresh's graph bit for bit — publish the remembered one instead.
        // A dirty root is explored again, but a pair of its old support
        // that Phase 1 skipped stands on the very premises a clean root
        // does — bitwise-carried products, two quiet signals — so the spike
        // list decided for it last time is the one deciding it again would
        // yield: the root's provider hands it out instead (DESIGN.md §6.1,
        // "What Phase 2 decides, skips and carries").
        struct RootItem<'a> {
            root: &'a mut Root,
            /// The root's source view, as Phase 1 sliced it.
            x: Option<RleSeries>,
            /// The root's pairs Phase 1 skipped.
            skipped: Vec<Edge>,
            /// The root's entry in the refresh memory: the last refresh's
            /// going in, this one's coming out.
            memory: Option<RootMemory>,
            /// Whether the root was explored (it was not clean).
            explored: bool,
            /// Pairs the exploration reached for the first time.
            added: Vec<Edge>,
            stats: IncrementalStats,
        }
        memory.roots.resize_with(self.roots.len(), || None);
        let mut items: Vec<RootItem<'_>> = pick_mut(&mut self.roots, &awake)
            .into_iter()
            .zip(&awake)
            .zip(sources)
            .zip(skipped)
            .map(|(((root, &r), x), skipped)| RootItem {
                root,
                x,
                skipped,
                memory: memory.roots[r].take(),
                explored: false,
                added: Vec::new(),
                stats: IncrementalStats::default(),
            })
            .collect();
        let (pathmap, universe, labels) = (&self.pathmap, &self.universe, &self.labels);
        memory.costs.discovery = Some(parallel::for_each_mut(
            &mut items,
            pool_for(memory.costs.discovery, num_workers),
            |item| {
                item.stats.roots = 1;
                item.skipped.sort_unstable();
                let previous = item.memory.take();
                let clean = reusable
                    && previous.as_ref().is_some_and(|(_, support)| {
                        support
                            .iter()
                            .all(|(edge, _)| item.skipped.binary_search(edge).is_ok())
                    });
                if clean {
                    item.stats.reused_roots = 1;
                    item.memory = previous;
                    return;
                }
                item.explored = true;
                let root = &mut *item.root;
                let mut provider = CachedProvider {
                    pairs: &mut root.pairs,
                    skipped: &item.skipped,
                    previous: previous.as_ref().map_or(&[], |(_, support)| support),
                    support: Vec::new(),
                    added: Vec::new(),
                    stats: IncrementalStats::default(),
                };
                let source = (root.client, root.front);
                let graph = item.x.as_ref().map(|x| {
                    pathmap.discover_root(source, x, signals, universe, labels, &mut provider)
                });
                let mut support = provider.support;
                support.sort_unstable_by_key(|&(edge, _)| edge);
                item.added = provider.added;
                item.stats.absorb(provider.stats);
                item.memory = Some((graph, support));
            },
        ));
        // Every awake root's entry — carried over or just discovered — is
        // what the next refresh remembers. A root whose correlators all
        // stand at this window, with a source view, is settled: it sleeps
        // until a stream it reads wakes. Any other stays awake.
        let mut explored = Vec::new();
        for (item, &r) in items.into_iter().zip(&awake) {
            memory.stats.absorb(item.stats);
            let root = item.root;
            if item.explored {
                explored.push(root.client);
            }
            if !from_scratch {
                for edge in item.added {
                    let i = self.streams.at[&edge];
                    self.streams.list[i].readers.push(r);
                }
            }
            let settled = item.x.is_some()
                && root
                    .pairs
                    .values()
                    .all(|inc| inc.window() == Some((start, end)));
            root.settled = settled.then_some((start, end));
            root.awake = !settled;
            if root.awake {
                self.wake.roots.push(r);
            }
            memory.roots[r] = item.memory;
        }
        if from_scratch {
            self.streams.rebuild_readers(&self.roots);
        }
        for &i in &woken {
            self.streams.list[i].quiet = true;
        }

        // Publish every root's graph, in root order. An asleep root skipped
        // its every pair and is clean by construction: it counts as such,
        // and its remembered graph is published again.
        let mut graphs = Vec::new();
        let mut visited = awake.iter().peekable();
        for (r, root) in self.roots.iter().enumerate() {
            if visited.next_if_eq(&&r).is_none() {
                let pairs = root.pairs.len() as u64;
                memory.stats.roots += 1;
                memory.stats.reused_roots += 1;
                memory.stats.fine_pairs += pairs;
                memory.stats.fine_skipped += pairs;
                self.scratch.reused += pairs;
            }
            let (graph, _) = memory.roots[r].as_ref().expect("every root is remembered");
            graphs.extend(graph.clone());
        }
        // This refresh's geometry and generation: the reference frame the
        // next refresh's quiet predicate is proven against.
        memory.prev = Some(geometry);
        memory.generation = generation;
        self.slid_to = Some((start, end));
        self.change.record(at, &graphs);
        if !graphs.is_empty() && !self.subscribers.is_empty() {
            let update = GraphUpdate {
                at,
                graphs: std::sync::Arc::new(graphs.clone()),
                explored,
            };
            self.subscribers
                .retain(|tx| tx.send(update.clone()).is_ok());
        }
        graphs
    }

    /// The stream half of the activity gate. Wakes every stream and root,
    /// and rebuilds the signal index, for a from-scratch refresh — which
    /// every change of the signal-edge set forces — else wakes the streams
    /// whose calendar entry came due; re-stamps the views of the streams
    /// that did not wake and evaluates the exact quiet predicate of those
    /// that did, cutting their views again and waking the roots that read
    /// one that moved; and files each evaluated stream for the next
    /// refresh. Returns the evaluated streams.
    ///
    /// A stream is *quiet* when its change epoch is unchanged since the
    /// previous refresh (no nonzero content entered or left retention) and
    /// it has no runs in the two boundary regions the slide touches —
    /// everything the slide's append/evict corrections could read. It is
    /// *still* when, moreover, a pair standing at the previous window
    /// could skip on it: discovery sees it, and it retains that window's
    /// start. Only a stream that is not still wakes its readers.
    fn wake_streams(
        &mut self,
        (start, end, data_end): (Tick, Tick, Tick),
        from_scratch: bool,
    ) -> Vec<usize> {
        let max_lag = self.config.max_lag();
        let prev = self.memory.prev;
        let wake = &mut self.wake;
        let streams = &mut self.streams.list;
        let roots = &mut self.roots;
        if from_scratch {
            wake.calendar.clear();
            wake.streams.clear();
            wake.roots.clear();
            for (i, stream) in streams.iter_mut().enumerate() {
                stream.awake = true;
                wake.streams.push(i);
            }
            for (r, root) in roots.iter_mut().enumerate() {
                root.awake = true;
                wake.roots.push(r);
            }
            let status = self.reduction.as_ref().map(|red| &red.status);
            for stream in streams.iter_mut() {
                stream.visible = status.is_none_or(|status| !status.contains_key(&stream.edge));
            }
            self.signals.reindex(
                streams
                    .iter()
                    .enumerate()
                    .filter(|(_, stream)| stream.visible)
                    .map(|(i, stream)| (stream.edge, i)),
            );
        } else {
            // A run ending after the last start, first in line: the stream
            // is quiet on the start side until the region `[start₀, start +
            // L)` reaches that run's start.
            while let Some(&Reverse((first, i, stamp))) = wake.calendar.peek() {
                if first >= start + max_lag {
                    break;
                }
                wake.calendar.pop();
                let stream = &mut streams[i];
                if stream.stamp == stamp && !stream.awake {
                    stream.awake = true;
                    wake.streams.push(i);
                }
            }
        }
        self.signals.set_window((start, end));
        let views = self.signals.views_mut();
        // A stream that did not wake is quiet: its runs are the ones its
        // last view was cut from, and none reaches into either boundary
        // region, so they lie between them, none of them clipped — only
        // the view's span moves.
        for (view, stream) in views.iter_mut().zip(streams.iter()) {
            if stream.visible && !stream.awake {
                stream.window.restamp(view, start, data_end);
            }
        }
        let woken = std::mem::take(&mut wake.streams);
        for &i in &woken {
            let stream = &mut streams[i];
            let w = &stream.window;
            let epoch = w.epoch();
            let unchanged = stream.seen.replace(epoch) == Some(epoch);
            stream.quiet = prev.is_some_and(|(start0, end0, _)| {
                unchanged
                    && !w.has_runs_in(start0, start + max_lag)
                    && !w.has_runs_in(end0, data_end)
            });
            // Edges demoted by the reduction tier are invisible to
            // discovery — their fine windows are stale by design and their
            // coarse image only serves the promote-overlap check.
            if stream.visible {
                views[i] = w.view(start, data_end);
            }
            let still = stream.quiet
                && stream.visible
                && prev.is_some_and(|(start0, _, _)| w.start() <= start0);
            if !still {
                for &r in &stream.readers {
                    let root = &mut roots[r];
                    if !root.awake {
                        root.awake = true;
                        wake.roots.push(r);
                    }
                }
            }
            // What the next refresh must look at: a stream with runs past
            // this end (the next end-side region starts there), or whose
            // retention start is past this start (a pair standing here
            // cannot skip on it), stays awake; any other sleeps until its
            // first run after this start comes due on the calendar — or
            // ingest wakes it first.
            stream.stamp = stream.stamp.wrapping_add(1);
            stream.awake = w.has_runs_in(end, w.end()) || w.start() > start;
            if stream.awake {
                wake.streams.push(i);
            } else if let Some(first) = w.next_run_start(start) {
                wake.calendar.push(Reverse((first, i, stream.stamp)));
            }
        }
        woken
    }

    /// Holds the wake set to the full pass it stands for: every stream that
    /// did not wake satisfies the exact quiet predicate, lets a pair skip,
    /// and has the view a fresh cut would give; every root left asleep
    /// would have skipped its every pair and been found clean; and an
    /// unchanged generation is an unchanged signal-edge set. Returns the
    /// set's digest for the next refresh to compare.
    #[cfg(debug_assertions)]
    fn assert_wake_set_sound(
        &self,
        woken: &[usize],
        (start, end, data_end): (Tick, Tick, Tick),
        reusable: bool,
    ) -> u64 {
        use std::hash::BuildHasher;
        let status = self.reduction.as_ref().map(|red| &red.status);
        let hasher = crate::hashing::FxBuildHasher::default();
        let mut digest = 0u64;
        for stream in &self.streams.list {
            let visible = status.is_none_or(|status| !status.contains_key(&stream.edge));
            assert_eq!(stream.visible, visible, "{:?}: stale index", stream.edge);
            if visible {
                digest = digest.wrapping_add(hasher.hash_one(stream.edge));
            }
        }
        if reusable {
            assert_eq!(
                digest, self.memory.digest,
                "edge set moved, generation did not"
            );
        }
        let mut evaluated = vec![false; self.streams.list.len()];
        for &i in woken {
            evaluated[i] = true;
        }
        let Some((start0, end0, _)) = self.memory.prev else {
            assert!(
                evaluated.iter().all(|&e| e),
                "a stream slept with no memory"
            );
            return digest;
        };
        let bits = |s: &RleSeries| {
            let runs: Vec<_> = s
                .runs()
                .iter()
                .map(|r| (r.start(), r.len(), r.value().to_bits()))
                .collect();
            (s.start(), s.len(), runs)
        };
        for (i, stream) in self.streams.list.iter().enumerate() {
            if evaluated[i] {
                continue;
            }
            let (edge, w) = (stream.edge, &stream.window);
            assert!(stream.quiet, "{edge:?}: asleep but not quiet");
            assert_eq!(stream.seen, Some(w.epoch()), "{edge:?}: epoch moved asleep");
            assert!(
                !w.has_runs_in(start0, start + self.config.max_lag()),
                "{edge:?}: start side"
            );
            assert!(!w.has_runs_in(end0, data_end), "{edge:?}: end side");
            assert!(
                w.start() <= start0,
                "{edge:?}: retention passed the last start"
            );
            if stream.visible {
                assert_eq!(
                    bits(self.signals.view(i)),
                    bits(&w.view(start, data_end)),
                    "{edge:?}: re-stamped view"
                );
            }
        }
        let stream = |edge: &Edge| self.streams.at.get(edge).map(|&i| &self.streams.list[i]);
        for (r, root) in self
            .roots
            .iter()
            .enumerate()
            .filter(|(_, root)| !root.awake)
        {
            let client = root.client;
            let settled = root.settled.expect("an asleep root is settled");
            assert!(reusable, "{client:?}: asleep across a new edge set");
            let x = stream(&(client, root.front)).expect("an asleep root has a source");
            let xv = self.signals.source_signal(client, root.front);
            for (&edge, inc) in &root.pairs {
                assert_eq!(inc.window(), Some(settled), "{client:?}: unsettled pair");
                let y = stream(&edge).expect("a pair's stream");
                let step = Step::decide(
                    Some((start0, end0)),
                    xv.as_ref().zip(self.signals.target_signal(edge.0, edge.1)),
                    Some(&x.window),
                    Some(&y.window),
                    (start, end),
                    x.quiet && y.quiet,
                );
                assert!(
                    matches!(step, Step::Skip),
                    "{client:?}/{edge:?}: asleep, not skipped"
                );
            }
            let (_, support) = self.memory.roots[r]
                .as_ref()
                .expect("an asleep root remembers");
            assert!(
                support
                    .iter()
                    .all(|(edge, _)| root.pairs.contains_key(edge)),
                "{client:?}: asleep, not clean"
            );
        }
        digest
    }

    /// The per-edge delay histories across refreshes.
    pub fn change_tracker(&self) -> &ChangeTracker {
        &self.change
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
        Some(self.memory.stats)
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

/// One refresh's reduction decisions (see [`OnlineAnalyzer::refresh`]):
/// promote-by-overlap first, then demote-by-disjointness, with each
/// verdict extended to the edge's response stream, which rides its
/// request stream's status both ways. A free function over the
/// analyzer's disjoint fields.
///
/// Both rules are [`supports_overlap`]. Promotion asks it of coarse
/// images: zero support overlap between a root's coarse image and the
/// edge's coarse store across [`coarse_lag_bound`] lags certifies every
/// fine product in the window is zero — overlap is the *only* event that
/// could make a demoted edge correlate again, so firing on any overlap can
/// never leave a true edge demoted. Demotion asks it of the fine views
/// over the `L` lags discovery correlates: where every tracked pair of an
/// edge is disjoint, every product of the window has a zero factor.
fn reduction_pass(
    red: &mut ReductionState,
    windows: &Streams,
    roots: &mut [Root],
    (start, end, data_end): (Tick, Tick, Tick),
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
        let coarse_lags = coarse_lag_bound(max_lag, level);
        let hit = roots.iter().any(|root| {
            let x = src_cache.entry((root.client, level)).or_insert_with(|| {
                windows
                    .get(&(root.client, root.front))
                    .map(|w| w.series().decimate(level))
                    .unwrap_or_else(|| RleSeries::empty(Tick::ZERO, 0))
            });
            supports_overlap(x, &y, coarse_lags)
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

    // Demote: an edge is a candidate when it carries no root signal and
    // every root this shard owns has a tracked (client, edge) pair whose
    // source view and target view overlap at no lag in `[0, L)` — the
    // views discovery correlates. An untracked pair is no evidence: its
    // root's exploration never consulted the edge. Candidates must stay
    // cold for `patience` consecutive refreshes before the hint fires.
    if roots.is_empty() {
        return;
    }
    let sources: Vec<Option<RleSeries>> = roots
        .iter()
        .map(|root| Some(windows.get(&(root.client, root.front))?.view(start, end)))
        .collect();
    // Whether some owned root's tracked pair with `edge` overlaps it.
    let live = |roots: &[Root], edge: Edge, w: &SlidingWindow| {
        let y = w.view(start, data_end);
        roots.iter().zip(&sources).any(|(root, x)| {
            root.pairs.contains_key(&edge)
                && x.as_ref().is_some_and(|x| supports_overlap(x, &y, max_lag))
        })
    };
    let carries_root_signal =
        |roots: &[Root], edge: Edge| roots.iter().any(|root| root.client == edge.0);
    let window_ticks = end - start;
    let mut edges: Vec<Edge> = windows.list.iter().map(|stream| stream.edge).collect();
    edges.sort_unstable();
    for edge in edges {
        if red.status.contains_key(&edge) {
            continue;
        }
        let w = windows.get(&edge).expect("a stream of every edge");
        let dead = !carries_root_signal(roots, edge)
            && roots.iter().all(|root| root.pairs.contains_key(&edge))
            && !live(roots, edge, w);
        if !dead {
            red.cold.remove(&edge);
            continue;
        }
        let cold = red.cold.entry(edge).or_insert(0);
        *cold += 1;
        if *cold < red.cfg.patience {
            continue;
        }
        let level = demotion_level(w.series().support(), window_ticks, red.cfg.base_level);
        demote_edge(red, roots, edge, level, capacity);
        // A reduction verdict is about the conversation, not one
        // direction of it: the response stream `(b, a)` carries the
        // replies to the request stream's messages, so it inherits the
        // request stream's demotion — otherwise every dead edge keeps
        // shipping its return path at full resolution forever. The
        // reverse edge stays fine when it carries a root signal or a
        // tracked pair of its own overlaps (mutual-traffic topologies).
        let rev = (edge.1, edge.0);
        if let Some(w) = windows.get(&rev) {
            if rev != edge
                && !red.status.contains_key(&rev)
                && !carries_root_signal(roots, rev)
                && !live(roots, rev, w)
            {
                let level = demotion_level(w.series().support(), window_ticks, red.cfg.base_level);
                demote_edge(red, roots, rev, level, capacity);
            }
        }
    }
}

/// The decimation level of an edge demoted with `support` non-zero ticks
/// retained against a `window_ticks` analysis window: denser edges cost
/// more bytes, so they decimate harder — `4×` the base level from 20 %
/// support, `2×` from 5 % — while sparse edges keep the base level (their
/// coarse image is nearly free either way).
fn demotion_level(support: u64, window_ticks: u64, base_level: u64) -> u64 {
    let frac = support as f64 / window_ticks.max(1) as f64;
    if frac >= 0.2 {
        4 * base_level
    } else if frac >= 0.05 {
        2 * base_level
    } else {
        base_level
    }
}

/// Flips one edge to [`EdgeStatus::Demoted`] and drops every correlator
/// touching it — the fresh [`CoarseStore`] is the edge's only remaining
/// footprint.
fn demote_edge(
    red: &mut ReductionState,
    roots: &mut [Root],
    edge: Edge,
    level: u64,
    capacity: u64,
) {
    red.status.insert(edge, EdgeStatus::Demoted { level });
    red.stores.insert(edge, CoarseStore::new(level, capacity));
    red.cold.remove(&edge);
    red.dirty = true;
    red.generation += 1;
    red.demotions += 1;
    for root in roots {
        root.pairs.remove(&edge);
    }
}

/// What one refresh does to one tracked correlator. Decided once, when the
/// pair's work item is built; the worker that takes the item executes the
/// decision as it stands.
///
/// This is the single code path for correlator maintenance, and each
/// pair's arithmetic depends on nothing but its own step, which is what
/// makes parallel refreshes bitwise identical to serial ones.
#[derive(Debug, Clone, Copy)]
enum Step<'a> {
    /// A signal of the pair is absent this window. The correlator is
    /// carried over untouched at its older window, which is how discovery
    /// would tell it from an advanced one (it cannot visit the pair
    /// anyway).
    Carry,
    /// Both signals were proven quiet since the window the correlator
    /// stands at: every append/evict correction term is a sum of zero
    /// products, so sliding the recorded window is bitwise equivalent to
    /// advancing it.
    Skip,
    /// Exact incremental corrections against the retained histories of
    /// the source and the target stream, one fused slide.
    Advance {
        xw: &'a SlidingWindow,
        yw: &'a SlidingWindow,
    },
    /// No usable prior state — the pair's first window, or the first after
    /// a stream heal: a one-shot from-scratch computation over the views.
    Refill { x: &'a RleSeries, y: &'a RleSeries },
}

impl<'a> Step<'a> {
    /// Decides the step towards the source window `window` of a pair whose
    /// correlator stands at `recorded`.
    ///
    /// `views` are the pair's source and target views this window, and
    /// `xw` and `yw` the retained streams they were cut from — the source
    /// is always the root's client signal, retained on its
    /// `(client, front)` stream. `quiet` is the caller's proof that nothing
    /// moved in either stream since the window `recorded`.
    fn decide(
        recorded: Option<(Tick, Tick)>,
        views: Option<(&'a RleSeries, &'a RleSeries)>,
        xw: Option<&'a SlidingWindow>,
        yw: Option<&'a SlidingWindow>,
        (ws, we): (Tick, Tick),
        quiet: bool,
    ) -> Self {
        let Some((x, y)) = views else {
            return Step::Carry;
        };
        match (recorded, xw, yw) {
            // The recorded window must overlap the target one, and both
            // streams must retain history back to its start: the eviction
            // corrections read `x` over `[s, ws)` and `y` over
            // `[s, ws + L)`, before the current views.
            (Some((s, e)), Some(xw), Some(yw))
                if s <= ws && ws <= e && e <= we && xw.start() <= s && yw.start() <= s =>
            {
                if quiet {
                    Step::Skip
                } else {
                    Step::Advance { xw, yw }
                }
            }
            _ => Step::Refill { x, y },
        }
    }

    /// Executes the step, leaving the lagged products for `window` in
    /// `inc.corr()`. Returns whether it allocated anything proportional to
    /// the lag bound.
    fn run(
        self,
        inc: &mut IncrementalCorrelator,
        max_lag: u64,
        window: (Tick, Tick),
        scratch: &ScratchPool<SlideScratch>,
    ) -> bool {
        match self {
            Step::Carry => false,
            Step::Skip => {
                inc.slide(window);
                false
            }
            Step::Advance { xw, yw } => {
                let (s, e) = inc.window().expect("decided on a recorded window");
                let (ws, we) = window;
                if (s, e) == window {
                    // No data arrived since the last refresh: nothing
                    // enters or leaves, so there is nothing to take views
                    // of.
                    return false;
                }
                let y_horizon = yw.end();
                scratch.with(|scratch| {
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
                })
            }
            Step::Refill { x, y } => {
                inc.refill(x, y);
                true
            }
        }
    }
}

/// Applies `f` to every work item of a phase: the items whose step computes
/// on the worker pool, queued in stable order; the rest — O(1)
/// bookkeeping — inline, so the queue's lock is taken only for items
/// worth a thread's attention. Returns what the computing items cost one
/// thread ([`parallel::for_each_mut`]'s summed worker time).
fn for_each_step<'a, T: Send>(
    items: &mut [T],
    num_workers: usize,
    step_of: impl Fn(&T) -> Step<'a>,
    f: impl Fn(&mut T) + Sync,
) -> Duration {
    let (mut computing, bookkeeping): (Vec<&mut T>, Vec<&mut T>) = items
        .iter_mut()
        .partition(|item| matches!(step_of(item), Step::Advance { .. } | Step::Refill { .. }));
    bookkeeping.into_iter().for_each(&f);
    parallel::for_each_mut(&mut computing, num_workers, |item| f(item))
}

/// One root's view of the refresh's correlation evidence during its
/// discovery: the root's own correlators, lent out where Phase 1 left them
/// and refilled in place where it did not.
struct CachedProvider<'a> {
    /// The root's correlators. One standing at exactly the source window
    /// discovery asks about was brought there by Phase 1 and lends its
    /// products out as they are; one at any other window — its signals had
    /// vanished — or none at all — the pair is first reached — is filled
    /// from scratch first.
    pairs: &'a mut FxHashMap<Edge, IncrementalCorrelator>,
    /// The root's pairs Phase 1 skipped this refresh, sorted: their
    /// products are last refresh's, bit for bit, and both their signals
    /// were quiet.
    skipped: &'a [Edge],
    /// This root's support as of its previous exploration, sorted.
    previous: &'a [(Edge, Verdict)],
    /// Every pair this exploration consulted, with the verdict on it —
    /// the root's *support*, which decides whether its graph may be
    /// published again next refresh without recomputing it. The search
    /// enters a node once and walks its out-edges once, so no pair is
    /// consulted twice.
    support: Vec<(Edge, Verdict)>,
    /// The pairs given a correlator for the first time.
    added: Vec<Edge>,
    /// Pairs visited, decided from all-zero products, and verdicts carried.
    stats: IncrementalStats,
}

impl CorrelationProvider for CachedProvider<'_> {
    fn correlate(
        &mut self,
        _client: NodeId,
        edge: Edge,
        x: &RleSeries,
        y: &RleSeries,
        max_lag: u64,
    ) -> Cow<'_, CorrSeries> {
        let inc = match self.pairs.entry(edge) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                self.added.push(edge);
                entry.insert(IncrementalCorrelator::new(max_lag))
            }
        };
        if inc.window() != Some((x.start(), x.end())) {
            // No prior state to correct: fill from scratch.
            inc.refill(x, y);
        }
        Cow::Borrowed(inc.corr())
    }

    /// Carries the previous spike list of a pair Phase 1 skipped: a pair
    /// first reached, refilled or advanced is in no position to.
    fn carried(&mut self, _client: NodeId, edge: Edge) -> Option<Vec<Spike>> {
        let at = self
            .previous
            .binary_search_by_key(&edge, |&(edge, _)| edge)
            .ok()?;
        self.skipped.binary_search(&edge).ok()?;
        self.stats.carried_verdicts += 1;
        Some(self.previous[at].1.clone())
    }

    fn decided(&mut self, _client: NodeId, edge: Edge, spikes: Vec<Spike>, evidence_free: bool) {
        self.stats.visited_pairs += 1;
        self.stats.evidence_free_pairs += u64::from(evidence_free);
        self.support.push((edge, spikes));
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

    /// [`cfg`] with the reduction tier on.
    fn reduced_cfg() -> PathmapConfig {
        PathmapConfig::builder()
            .window(Nanos::from_secs(10))
            .refresh(Nanos::from_secs(2))
            .max_delay(Nanos::from_secs(1))
            .reduction(crate::config::ReductionConfig::default())
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
    /// too.
    fn drive_online_among(
        sim: &mut Simulation,
        config: PathmapConfig,
        total_secs: u64,
        roots: Vec<(NodeId, NodeId)>,
        universe: HashSet<NodeId>,
    ) -> (Vec<ServiceGraph>, OnlineAnalyzer, Vec<TracerAgent>) {
        let (refreshes, analyzer, agents) =
            drive_refreshes(sim, config, total_secs, roots, universe, false, None);
        let last = refreshes
            .into_iter()
            .rev()
            .map(|(graphs, _)| graphs)
            .find(|graphs| !graphs.is_empty())
            .unwrap_or_default();
        (last, analyzer, agents)
    }

    /// What one refresh published, with the activity gate's counters for it.
    type Refresh = (Vec<ServiceGraph>, IncrementalStats);

    /// Drives tracer agents on all services and one analyzer over
    /// `total_secs / 2` flush-and-refresh steps of 2 s, returning every
    /// refresh's graphs with the activity gate's counters for it. Routes
    /// analyzer hint snapshots back to every agent after each refresh —
    /// the in-process form of the reduction feedback loop.
    ///
    /// A `forgetful` analyzer has its cross-refresh memory wiped before
    /// every refresh: with nothing remembered nothing is quiet and every
    /// root is dirty, so it computes each refresh from the correlators
    /// alone — the reference the remembering analyzer is held to.
    /// `lose_flush_at` names a step whose first flushed frame is lost in
    /// transit, so the next one from that agent heals a gap.
    fn drive_refreshes(
        sim: &mut Simulation,
        config: PathmapConfig,
        total_secs: u64,
        roots: Vec<(NodeId, NodeId)>,
        universe: HashSet<NodeId>,
        forgetful: bool,
        lose_flush_at: Option<u64>,
    ) -> (Vec<Refresh>, OnlineAnalyzer, Vec<TracerAgent>) {
        let (flushed, in_transit) = unbounded();
        let (delivered, rx) = unbounded();
        let clients: HashSet<NodeId> = sim.topology().clients().into_iter().collect();
        let mut agents: Vec<TracerAgent> = sim
            .topology()
            .services()
            .into_iter()
            .map(|node| TracerAgent::new(node, clients.clone(), config.clone(), flushed.clone()))
            .collect();
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
                analyzer.memory = RefreshMemory::default();
            }
            let graphs = analyzer.refresh(now);
            if let Some(hint) = analyzer.take_hints() {
                for a in &mut agents {
                    a.apply_hint_state(&hint);
                }
            }
            refreshes.push((graphs, analyzer.memory.stats));
        }
        (refreshes, analyzer, agents)
    }

    fn run_online(seed: u64, total_secs: u64) -> (Vec<ServiceGraph>, OnlineAnalyzer) {
        drive_online(two_tier(seed), cfg(), total_secs)
    }

    /// Arrivals every 25 ms over `[from_secs, to_secs)`.
    fn burst(from_secs: u64, to_secs: u64) -> impl Iterator<Item = Nanos> {
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
    fn mostly_idle_mesh(seed: u64) -> Simulation {
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
    fn graph_bits(g: &ServiceGraph) -> impl PartialEq + std::fmt::Debug {
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
    fn assert_matches_forgetful_twin(
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
            let (refreshes, analyzer, _) = drive_refreshes(
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

    /// A phase forks only when its last run was worth it, and every refresh
    /// leaves the next one that estimate for each phase it ran. (That the
    /// choice cannot reach a graph is the twin tests' business: the twin's
    /// memory is wiped before every refresh, so it always forks.)
    #[test]
    fn a_phase_goes_to_the_pool_only_when_its_last_run_was_worth_a_fork() {
        assert_eq!(pool_for(None, 8), 8);
        assert_eq!(pool_for(Some(FORK_WORTH), 8), 8);
        assert_eq!(pool_for(Some(FORK_WORTH - Duration::from_nanos(1)), 8), 1);
        assert_eq!(pool_for(Some(Duration::ZERO), 1), 1);

        let (_, analyzer) = run_online(3, 30);
        let costs = analyzer.memory.costs;
        assert!(costs.fine.is_some() && costs.discovery.is_some());
    }

    /// One stack, arrivals every 25 ms for the first 10 s, then total
    /// silence — long enough for every nonzero tick to leave retention. The
    /// activity gate must actually *fire* once the deployment goes idle,
    /// while every refresh stays bit-identical to the from-scratch
    /// computation.
    #[test]
    fn burst_then_silence_matches_the_forgetful_twin() {
        let scenario = || crate::testutil::idle_mesh(5, &[Workload::trace(burst(0, 10).collect())]);
        let (stats, _) = assert_matches_forgetful_twin(scenario, cfg(), 80, None, None);
        let last = stats.last().expect("refreshes ran");
        assert!(
            last.fine_skipped > 0,
            "deep-idle refresh skipped no pair: {last:?}"
        );
        assert!(
            last.reused_roots > 0,
            "deep-idle refresh reused no root: {last:?}"
        );
    }

    /// Asserts the gate fired before the heal at refresh `healed`, found
    /// nothing to stand on at it, and fired again afterwards.
    fn assert_skips_resume_after_heal(stats: &[IncrementalStats], healed: usize) {
        let fired = |s: &IncrementalStats| s.fine_skipped > 0 && s.reused_roots > 0;
        assert!(
            stats[..healed].iter().any(fired),
            "gate never fired before the heal"
        );
        let at = stats[healed];
        assert!(at.fine_pairs > 0, "heal refresh tracked no pair: {at:?}");
        assert_eq!(
            (at.fine_skipped, at.reused_roots),
            (0, 0),
            "a heal must drop the whole memory"
        );
        assert!(
            stats[healed + 1..].iter().any(fired),
            "gate never fired after the heal"
        );
    }

    #[test]
    fn mostly_idle_mesh_matches_the_forgetful_twin_across_a_heal() {
        // The flush of step 35 loses a frame; step 36 ingests past the gap.
        let (stats, _) =
            assert_matches_forgetful_twin(|| mostly_idle_mesh(3), cfg(), 100, None, Some(35));
        assert_skips_resume_after_heal(&stats, 35);
        // Most of the mesh is idle most of the time.
        let (skipped, pairs) = stats
            .iter()
            .fold((0, 0), |(s, p), r| (s + r.fine_skipped, p + r.fine_pairs));
        assert!(
            2 * skipped > pairs,
            "only {skipped}/{pairs} fine pairs skipped"
        );
    }

    #[test]
    fn reduced_mesh_matches_the_forgetful_twin_across_a_heal() {
        let (stats, analyzer) = assert_matches_forgetful_twin(
            || mostly_idle_mesh(3),
            reduced_cfg(),
            100,
            None,
            Some(35),
        );
        assert_skips_resume_after_heal(&stats, 35);
        assert!(
            stats.iter().any(|s| s.fine_skipped > 0),
            "no fine pair was ever skipped"
        );
        assert!(
            stats.iter().any(|s| s.carried_verdicts > 0),
            "no verdict was ever carried"
        );
        // Every stack is one owned root's own: the other roots never
        // consult its edges, so no edge is vouched dead by every root.
        let red = analyzer.reduction_stats().expect("reduction enabled");
        assert_eq!(red.demotions, 0, "an untracked pair counted as dead");
    }

    /// One front end shared by three classes with two private backends
    /// each, on for 4 s of a 36 s period, phases 12 s apart — so a class's
    /// burst sits alone inside the analysis window for a refresh or two,
    /// then leaves retention altogether — plus a fourth class that never
    /// stops. Every root's exploration fans through the front end's
    /// out-edges, the always-on class's among them, so no root is ever
    /// clean: whatever is saved is saved pair by pair.
    fn phased_fanout(seed: u64) -> Simulation {
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

    /// The pair-granular savings of Phase 2 — deciding a pair from its
    /// all-zero products, carrying a skipped pair's spike list — held to
    /// the twin that remembers nothing, on a deployment where the
    /// root-granular one never applies.
    #[test]
    fn phased_fanout_matches_the_forgetful_twin_pair_by_pair() {
        let (stats, _) = assert_matches_forgetful_twin(|| phased_fanout(7), cfg(), 100, None, None);
        // Past the first 36 s period every class has been seen.
        let steady = &stats[18..];
        let sum = |f: fn(&IncrementalStats) -> u64| steady.iter().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.reused_roots), 0, "a root was clean");
        assert!(
            sum(|s| s.evidence_free_pairs) > 0,
            "no pair was decided evidence-free"
        );
        assert!(sum(|s| s.carried_verdicts) > 0, "no verdict was carried");
        assert!(
            sum(|s| s.carried_verdicts + s.evidence_free_pairs) < sum(|s| s.visited_pairs),
            "no pair was decided the long way"
        );
    }

    #[test]
    fn reduced_phased_fanout_matches_the_forgetful_twin() {
        let (stats, analyzer) =
            assert_matches_forgetful_twin(|| phased_fanout(7), reduced_cfg(), 100, None, None);
        // Every root explores every backend edge, so a class's backends
        // demote once its burst leaves the window and promote when the
        // next one starts; verdicts are carried around them.
        let sum = |f: fn(&IncrementalStats) -> u64| stats.iter().map(f).sum::<u64>();
        assert!(sum(|s| s.fine_skipped) > 0, "no fine pair was skipped");
        assert!(sum(|s| s.carried_verdicts) > 0, "no verdict was carried");
        assert!(
            sum(|s| s.reused_roots) < sum(|s| s.roots),
            "no root was dirty"
        );
        let red = analyzer.reduction_stats().expect("reduction enabled");
        assert!(red.demotions > 0 && red.promotions > 0, "{red:?}");
    }

    /// Demotions and promotions move the signal-edge generation, and a
    /// promote's backfill heals a gap: the memory must survive all three.
    #[test]
    fn demotion_promotion_and_backfill_match_the_forgetful_twin() {
        let (_, analyzer) = assert_matches_forgetful_twin(
            || crate::testutil::shifting_fanout_sim(4, 23, 60.0),
            fanout_cfg(Some(crate::config::ReductionConfig::default())),
            56,
            Some(1),
            None,
        );
        let stats = analyzer.reduction_stats().expect("reduction enabled");
        assert!(
            stats.demotions > 0 && stats.promotions > 0,
            "stats: {stats:?}"
        );
    }

    /// Asserts two graph sets are structurally identical (edge sets, spike
    /// lags, hop delays, bottleneck flags) with spike strengths within
    /// 1e-9 — the tolerance for promoted pairs whose full-resolution
    /// recompute sums the same products in a different order.
    fn assert_graphs_equivalent(plain: &[ServiceGraph], reduced: &[ServiceGraph]) {
        assert_eq!(plain.len(), reduced.len(), "graph count differs");
        for (ga, gb) in plain.iter().zip(reduced) {
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

    /// A client that sends to two receivers infers as two roots; online,
    /// a heal of either front's stream would be a heal of both.
    #[test]
    #[should_panic(expected = "two roots share a client")]
    fn two_roots_with_one_client_are_rejected() {
        let (_tx, rx) = unbounded::<TracerFrame>();
        let (cli, a, b) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        OnlineAnalyzer::new(cfg(), vec![(cli, a), (cli, b)], NodeLabels::default(), rx);
    }

    /// A shard whose universe lacks its own root's client would explore
    /// the root's response edge into that client and on through its
    /// out-edges.
    #[test]
    #[should_panic(expected = "universe misses an owned root's client")]
    fn a_universe_without_an_owned_client_is_rejected() {
        let (_tx, rx) = unbounded::<TracerFrame>();
        let (cli, web, other) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        OnlineAnalyzer::with_universe(
            cfg(),
            vec![(cli, web)],
            HashSet::from([other]),
            NodeLabels::default(),
            rx,
        );
    }

    /// The correlator of `client`'s root for `edge`.
    fn correlator(analyzer: &OnlineAnalyzer, client: NodeId, edge: Edge) -> &IncrementalCorrelator {
        let root = analyzer.roots.iter().find(|root| root.client == client);
        &root.expect("an owned root").pairs[&edge]
    }

    /// A heal of a root's source stream drops every pair of that root and
    /// no other root's; a heal of a candidate edge drops that edge's pair
    /// from every root, and nothing else.
    #[test]
    fn a_heal_drops_the_pairs_that_read_the_healed_stream() {
        let (_tx, rx) = unbounded::<TracerFrame>();
        let [a, b, web, s, shared] = [0, 1, 2, 3, 4].map(NodeId::new);
        let mut analyzer =
            OnlineAnalyzer::new(cfg(), vec![(a, web), (b, web)], NodeLabels::default(), rx);
        let tracked = [(web, s), (web, shared)];
        for root in &mut analyzer.roots {
            for edge in tracked {
                root.pairs.insert(edge, IncrementalCorrelator::new(4));
            }
        }
        let pairs = |analyzer: &OnlineAnalyzer| -> Vec<Vec<Edge>> {
            let sorted = |root: &Root| {
                let mut edges: Vec<Edge> = root.pairs.keys().copied().collect();
                edges.sort_unstable();
                edges
            };
            analyzer.roots.iter().map(sorted).collect()
        };
        // A chunk past the end of the retained stream heals a gap.
        let heal = |analyzer: &mut OnlineAnalyzer, edge: Edge| {
            analyzer.extend_window(edge, Tick::ZERO, 100, []);
            analyzer.extend_window(edge, Tick::new(200), 100, []);
        };
        heal(&mut analyzer, (a, web));
        assert_eq!(pairs(&analyzer), vec![vec![], tracked.to_vec()]);
        heal(&mut analyzer, (web, shared));
        assert_eq!(pairs(&analyzer), vec![vec![], vec![(web, s)]]);
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
    fn v1_and_v2_frames_of_the_same_series_ingest_to_identical_windows() {
        // What is left of the v1-vs-v2 equivalence now that nothing emits
        // v1: the reader-side arm kept for it must build the same windows
        // as the batch cursor.
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
        let analyzer = |frames: Vec<TracerFrame>| {
            let (tx, rx) = unbounded();
            let mut analyzer = OnlineAnalyzer::new(
                cfg(),
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
        let window = |analyzer: &OnlineAnalyzer| analyzer.streams.get(&edge).unwrap().series();
        assert_eq!(window(&v1), window(&v2));
        assert_eq!(window(&v1).end(), Tick::new(8_000));
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
        let config = PathmapConfig::builder()
            .window(Nanos::from_secs(10))
            .refresh(Nanos::from_secs(2))
            .max_delay(Nanos::from_secs(1))
            .num_workers(1)
            .build();
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

    /// Fanout-test config, optionally with the edge-reduction tier on.
    fn fanout_cfg(reduction: Option<crate::config::ReductionConfig>) -> PathmapConfig {
        let mut b = PathmapConfig::builder()
            .window(Nanos::from_secs(20))
            .refresh(Nanos::from_secs(5))
            .max_delay(Nanos::from_millis(500));
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

    /// A class bursts for 10 s and falls silent for good. Once its runs
    /// have left the analysis views its backend edge is demoted, although
    /// the pair's products are not zeros but the rounding residue
    /// `(acc + Δa) − Δe` leaves once the evidence is evicted: the rule
    /// reads supports, not products.
    #[test]
    fn went_cold_backend_is_demoted_despite_residue_products() {
        let scenario = || crate::testutil::idle_mesh(5, &[Workload::trace(burst(0, 10).collect())]);
        let (cli, web, db) = (NodeId::new(2), NodeId::new(0), NodeId::new(1));

        // Without reduction the correlator survives to show its products.
        let (plain, analyzer) = drive_online(scenario(), cfg(), 40);
        let (start, end, data_end) = analyzer.memory.prev.expect("refreshes ran");
        let x = analyzer.streams.get(&(cli, web)).unwrap().view(start, end);
        let y = analyzer
            .streams
            .get(&(web, db))
            .unwrap()
            .view(start, data_end);
        assert!(
            !supports_overlap(&x, &y, cfg().max_lag()),
            "still overlapping"
        );
        let residue = correlator(&analyzer, cli, (web, db))
            .corr()
            .values()
            .iter()
            .fold(0.0f64, |m, r| m.max(r.abs()));
        assert!(residue > 1e-12, "products are exact zeros: {residue:e}");

        let (reduced, analyzer) = drive_online(scenario(), reduced_cfg(), 40);
        let red = analyzer.reduction.as_ref().expect("reduction enabled");
        assert!(
            matches!(red.status.get(&(web, db)), Some(EdgeStatus::Demoted { .. })),
            "the cold backend stayed fine: {:?}",
            red.status
        );
        assert!(!red.status.contains_key(&(cli, web)), "root signal demoted");
        assert_eq!(
            plain.iter().map(graph_bits).collect::<Vec<_>>(),
            reduced.iter().map(graph_bits).collect::<Vec<_>>()
        );
    }

    /// A pair whose supports meet at a single lag, with products of
    /// `1e-13` there, is evidence (Eq. 1 is scale-free): it is never
    /// demoted, while its fully disjoint sibling is.
    #[test]
    fn a_pair_overlapping_at_one_lag_is_never_demoted() {
        let (cli, web, db, idle) = (
            NodeId::new(0),
            NodeId::new(1),
            NodeId::new(2),
            NodeId::new(3),
        );
        let config = PathmapConfig::builder()
            .window(Nanos::from_millis(2_000))
            .refresh(Nanos::from_millis(500))
            .max_delay(Nanos::from_millis(100))
            .reduction(crate::config::ReductionConfig::default())
            .build();
        // Faint pulses twice per 500-tick chunk on the root signal, echoed
        // 7 ticks later on `(web, db)` — its only overlap — and 140 ticks
        // later on `(web, idle)`: past the 100-tick lag bound, and past
        // the coarse one too (no promotion undoes the demotion).
        let faint = 1e-13f64.sqrt();
        let chunk = |k: u64, offset: u64| {
            let at = |t: u64| Run::new(Tick::new(500 * k + t + offset), 1, faint);
            RleSeries::from_parts(Tick::new(500 * k), 500, vec![at(100), at(350)])
        };
        let key = |(a, b): (NodeId, NodeId)| (a.index() as u32, b.index() as u32);
        let (tx, rx) = unbounded();
        let mut analyzer =
            OnlineAnalyzer::new(config.clone(), vec![(cli, web)], NodeLabels::default(), rx);
        for k in 0..16 {
            let entries = [
                (key((cli, web)), chunk(k, 0)),
                (key((web, db)), chunk(k, 7)),
                (key((web, idle)), chunk(k, 140)),
            ];
            tx.send(TracerFrame::Batch {
                payload: wire::encode_batch(&entries, false),
            })
            .expect("open");
            analyzer.ingest();
            analyzer.refresh(Nanos::from_millis(500 * (k + 1)));
            let red = analyzer.reduction.as_ref().expect("reduction enabled");
            assert!(!red.status.contains_key(&(web, db)), "chunk {k}: demoted");
        }
        let products = correlator(&analyzer, cli, (web, db)).corr();
        assert!(products.values().iter().all(|&r| r < 1e-12));
        assert!(products.value_at(7) > 0.0);
        let red = analyzer.reduction.as_ref().expect("reduction enabled");
        assert!(
            matches!(
                red.status.get(&(web, idle)),
                Some(EdgeStatus::Demoted { .. })
            ),
            "the disjoint sibling stayed fine: {:?}",
            red.status
        );
    }

    /// One root `(cli, web)` with one candidate edge `(web, db)` (nodes
    /// 0, 1, 2), at 1 ms ticks: `W` = 2 000, `L` = 100, a refresh every
    /// 500 ticks. `chunks(k)` names the chunks delivered before refresh
    /// `k`, each as `(edge, first tick, length, runs)`. Every refresh's
    /// graphs are held to the forgetful twin's bits; returns each
    /// refresh's count of skipped pairs — an asleep root's pair counts as
    /// skipped, so a stream that should have woken and did not shows as a
    /// skip where the exact predicate forbids one.
    fn scripted_skips(chunks: impl Fn(u64) -> Vec<(Edge, u64, u64, Vec<Run>)>) -> Vec<u64> {
        let config = PathmapConfig::builder()
            .window(Nanos::from_millis(2_000))
            .refresh(Nanos::from_millis(500))
            .max_delay(Nanos::from_millis(100))
            .build();
        let key = |(a, b): Edge| (a.index() as u32, b.index() as u32);
        let run = |forgetful: bool| {
            let (tx, rx) = unbounded();
            let (cli, web) = (NodeId::new(0), NodeId::new(1));
            let mut analyzer =
                OnlineAnalyzer::new(config.clone(), vec![(cli, web)], NodeLabels::default(), rx);
            (0..12u64)
                .map(|k| {
                    let entries: Vec<_> = chunks(k)
                        .into_iter()
                        .map(|(edge, at, len, runs)| {
                            (key(edge), RleSeries::from_parts(Tick::new(at), len, runs))
                        })
                        .collect();
                    let payload = wire::encode_batch(&entries, false);
                    tx.send(TracerFrame::Batch { payload }).expect("open");
                    analyzer.ingest();
                    if forgetful {
                        analyzer.memory = RefreshMemory::default();
                    }
                    let graphs = analyzer.refresh(Nanos::from_millis(500 * (k + 1)));
                    let bits: Vec<_> = graphs.iter().map(graph_bits).collect();
                    (bits, analyzer.memory.stats.fine_skipped)
                })
                .collect::<Vec<_>>()
        };
        let (remembering, forgetful) = (run(false), run(true));
        for (k, ((got, _), (want, _))) in remembering.iter().zip(&forgetful).enumerate() {
            assert_eq!(
                got, want,
                "refresh {k}: bits differ from the from-scratch refresh"
            );
        }
        remembering.into_iter().map(|(_, skips)| skips).collect()
    }

    /// The script's two streams, each sent chunk `k` — `[500k, 500k + 500)`
    /// — with `pulse(edge, k)` as its runs.
    fn in_step(
        pulse: impl Fn(Edge, u64) -> Vec<Run>,
    ) -> impl Fn(u64) -> Vec<(Edge, u64, u64, Vec<Run>)> {
        let (cli, web, db) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        move |k| {
            [(cli, web), (web, db)]
                .into_iter()
                .map(|edge| (edge, 500 * k, 500, pulse(edge, k)))
                .collect()
        }
    }

    /// A pulse of `len` ticks at `at`, echoed 7 ticks later on the
    /// candidate edge.
    fn pulse_at(edge: Edge, at: u64, len: u64) -> Vec<Run> {
        let echo = if edge.0 == NodeId::new(0) { 0 } else { 7 };
        vec![Run::new(Tick::new(at + echo), len, 1.0)]
    }

    /// The stack's last burst, in chunk 2, is then only ever evicted: no
    /// chunk after it moves an epoch, and it sits far from the moving
    /// end. Refreshes run from chunk 4 on (`start` = 400, 900, 1 400, …):
    /// at `start` = 900 the start-side region `[400, 1 000)` misses the
    /// burst and the pair skips; at 1 400 the region `[900, 1 500)`
    /// reaches it and the pair must advance. Only the retention calendar
    /// wakes the streams there. (At 1 900 the burst is behind the start
    /// and the pair skips again, until its eviction moves the epoch.)
    #[test]
    fn the_calendar_wakes_a_burst_the_window_start_reaches() {
        let skips = scripted_skips(in_step(|edge, k| match k {
            2 => pulse_at(edge, 1_100, 20),
            _ => Vec::new(),
        }));
        assert_eq!(&skips[4..9], &[0, 1, 0, 1, 0], "{skips:?}");
    }

    /// A pulse just short of the newest data (tick 2 950 of chunk 5, past
    /// that refresh's `end` of 2 900) and then silence: the next refresh's
    /// end-side region `[2 900, 3 500)` holds it, though nothing arrives
    /// and the calendar is nowhere near it. Only the head carry-over keeps
    /// the streams awake for that refresh.
    #[test]
    fn a_run_past_the_end_stays_awake_for_the_next_refresh() {
        let skips = scripted_skips(in_step(|edge, k| match k {
            5 => pulse_at(edge, 2_940, 5),
            _ => Vec::new(),
        }));
        assert_eq!(&skips[4..9], &[0, 0, 0, 1, 1], "{skips:?}");
    }

    /// The candidate stream jumps three chunks ahead of the common end at
    /// step 6, all-zero: its retention start (5 000 − 3 100 = 1 900) passes
    /// the last refresh's start (900), so a pair standing there may not
    /// skip — it refills. No epoch moves and no run is anywhere: only the
    /// retention-start check at ingest wakes the stream. The refresh that
    /// finds it ahead keeps it awake for the next (1 900 is still past
    /// that refresh's start of 1 400): it refills again.
    #[test]
    fn a_stream_run_ahead_wakes_by_its_retention_start() {
        let (cli, web, db) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let skips = scripted_skips(|k| match k {
            ..6 => in_step(|_, _| Vec::new())(k),
            6 => vec![
                ((cli, web), 3_000, 500, Vec::new()),
                ((web, db), 3_000, 2_000, Vec::new()),
            ],
            _ => vec![((cli, web), 500 * k, 500, Vec::new())],
        });
        assert_eq!(&skips[4..8], &[0, 1, 0, 0], "{skips:?}");
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
        let config = cfg();
        let (tx, rx) = unbounded();
        let clients: HashSet<NodeId> = sim.topology().clients().into_iter().collect();
        let mut agents: Vec<TracerAgent> = sim
            .topology()
            .services()
            .into_iter()
            .map(|node| TracerAgent::new(node, clients.clone(), config.clone(), tx.clone()))
            .collect();
        let labels = NodeLabels::from_topology(sim.topology());
        let mut analyzer = OnlineAnalyzer::new(
            config,
            roots_from_topology(sim.topology()),
            labels.clone(),
            rx,
        );
        let sub = analyzer.subscribe();
        for step in 1..=30u64 {
            let now = Nanos::from_secs(step * 2);
            sim.run_until(now);
            for a in &mut agents {
                a.poll(sim.captures(), Tick::new(step * 2_000 - 1_000));
            }
            analyzer.ingest();
            analyzer.refresh(now);
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
    fn denser_edges_demote_to_coarser_levels() {
        // 5 % and 20 % support are where the level doubles.
        assert_eq!(demotion_level(0, 1_000, 16), 16);
        assert_eq!(demotion_level(49, 1_000, 16), 16);
        assert_eq!(demotion_level(50, 1_000, 16), 32);
        assert_eq!(demotion_level(199, 1_000, 16), 32);
        assert_eq!(demotion_level(200, 1_000, 16), 64);
        assert_eq!(demotion_level(1_000, 1_000, 16), 64);
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
