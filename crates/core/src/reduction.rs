//! Analyzer→tracer data-reduction control state (the feedback direction).
//!
//! When [`PathmapConfig::reduction`](crate::config::PathmapConfig::reduction)
//! is enabled, each analyzer shard derives per-edge decimation verdicts from
//! the supports of its signals: edges whose every tracked (client, edge)
//! pair has no overlapping runs at any lag are *demoted* and ship only a
//! coarse decimated image; edges whose coarse image overlaps a root signal
//! again are *promoted* back to full resolution. Both decisions are one
//! test, `supports_overlap`, at two resolutions. A shard publishes its
//! complete verdict as a [`HintState`] snapshot — idempotent by
//! construction, so replaying the latest snapshot after a reconnect
//! converges to the same tracer state.
//!
//! Tracer agents keep the latest snapshot per shard and merge them with
//! [`effective_levels`]; the transport layer carries snapshots broker→tracer
//! as `Hint` control frames with the same exactly-once seq/dedup machinery
//! as data frames.
//!
//! The analyzer half of the loop lives here too: the per-edge status and
//! coarse images (`ReductionState`) and the refresh's promote/demote
//! pass (`reduction_pass`). The online analyzer only feeds it chunks
//! and calls the pass ahead of everything that reads the signal set.

use crate::analyzer::{Edge, Root, Streams};
use crate::config::ReductionConfig;
use crate::hashing::FxHashMap;
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::pyramid::DecimatedWindow;
use e2eprof_timeseries::window::SlidingWindow;
use e2eprof_timeseries::{RleSeries, Tick};

/// Whether two non-negative signals have overlapping runs at *any* lag
/// `d ∈ [0, lags)`: some `t` with `x(t) ≠ 0` and `y(t + d) ≠ 0`.
///
/// Where they do not, every lagged product `x(t)·y(t+d)` has a zero
/// factor, so the pair's exact correlation is zero at every lag — the
/// fact demotion rests on (with fine views and `L` lags). The test only
/// reads supports, so it holds at any resolution and for any amplitude
/// convention: promotion asks it of coarse images over
/// [`coarse_lag_bound`] lags.
///
/// Runs are scanned with two pointers in `O(runs(x) + runs(y))`.
pub(crate) fn supports_overlap(x: &RleSeries, y: &RleSeries, lags: u64) -> bool {
    if lags == 0 {
        return false;
    }
    let xr = x.runs();
    let yr = y.runs();
    let mut i = 0usize;
    for ry in yr {
        // Drop source runs that end too early to reach this (or any
        // later) target run at an admissible lag: t + d spans
        // [rx.start, rx.end + lags - 1).
        while i < xr.len() && xr[i].end().index() + lags - 1 <= ry.start().index() {
            i += 1;
        }
        if i < xr.len() && xr[i].start() < ry.end() {
            return true;
        }
    }
    false
}

/// Number of coarse lags, at `k` fine ticks per coarse tick, that cover
/// every fine lag `d < max_lag`: `⌊(max_lag−1)/k⌋ + 2`.
///
/// A fine product `x(t)·y(t+d)` with `t = Jk + a`, `a ∈ [0, k)`, lands in
/// coarse blocks `J` and `⌊(t+d)/k⌋ = J + ⌊(a+d)/k⌋`, a coarse lag of
/// `⌊d/k⌋` or `⌊d/k⌋ + 1`. A non-zero fine product therefore puts both
/// coarse blocks in their images' supports at a coarse lag below this
/// bound, which is what makes coarse [`supports_overlap`] a sound promote
/// trigger: without it no fine product of the window can be non-zero.
pub(crate) fn coarse_lag_bound(max_lag: u64, k: u64) -> u64 {
    assert!(k > 0, "decimation factor must be positive");
    if max_lag == 0 {
        0
    } else {
        (max_lag - 1) / k + 2
    }
}

/// One analyzer shard's complete reduction verdict.
///
/// A snapshot lists **every** edge the shard currently wants demoted, with
/// its decimation level. Snapshots are full-state and idempotent: applying
/// the latest one per shard — in any order, any number of times — yields
/// the same tracer-side levels, which is what makes hint replay after a
/// connection cut safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintState {
    /// The analyzer shard that produced this snapshot.
    pub shard: u32,
    /// Total number of analyzer shards in the tier.
    pub of: u32,
    /// Every currently demoted edge (as node-index pairs) with its
    /// decimation level — fine ticks per coarse block, always ≥ 2. Edges
    /// absent from every shard's snapshot stream at full resolution.
    pub edges: Vec<((u32, u32), u64)>,
}

/// Merges the latest [`HintState`] per shard into effective per-edge
/// decimation levels.
///
/// Analyzer shards partition *roots*, not edges: every shard ingests every
/// edge stream, so an edge may only be decimated once **every** shard has
/// declared it dead for its own roots. The merge is therefore an
/// intersection — an edge's effective level is the minimum across all
/// shards' snapshots, and an edge missing from *any* shard's snapshot
/// (including shards that have not reported yet) streams at full
/// resolution. Erring toward full resolution can cost bytes but never
/// graph fidelity.
pub fn effective_levels(states: &FxHashMap<u32, HintState>) -> FxHashMap<(u32, u32), u64> {
    let mut out: FxHashMap<(u32, u32), u64> = FxHashMap::default();
    let Some(of) = states.values().map(|s| s.of as usize).max() else {
        return out;
    };
    if states.len() < of {
        return out; // some shard has not reported yet: everything fine
    }
    let mut seen: FxHashMap<(u32, u32), (u64, usize)> = FxHashMap::default();
    for state in states.values() {
        for &(edge, level) in &state.edges {
            let slot = seen.entry(edge).or_insert((level, 0));
            slot.0 = slot.0.min(level);
            slot.1 += 1;
        }
    }
    let quorum = states.len();
    for (edge, (level, count)) in seen {
        if count == quorum {
            out.insert(edge, level);
        }
    }
    out
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
/// [`OnlineAnalyzer::reduction_stats`](crate::analyzer::OnlineAnalyzer::reduction_stats)).
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
/// ([`PathmapConfig::reduction`](crate::config::PathmapConfig::reduction)):
/// the analyzer half of the analyzer→tracer feedback loop.
#[derive(Debug, Default)]
pub(crate) struct ReductionState {
    cfg: ReductionConfig,
    /// The analyzer's lag bound `L` and sliding-window capacity in fine
    /// ticks.
    max_lag: u64,
    capacity: u64,
    /// This analyzer's shard index and tier width, stamped into every
    /// [`HintState`] snapshot (tracer-side merge intersects across shards).
    pub(crate) shard: u32,
    pub(crate) of: u32,
    status: FxHashMap<Edge, EdgeStatus>,
    /// Consecutive refreshes each candidate edge's tracked pairs have all
    /// had disjoint supports (demotion fires at `cfg.patience`).
    cold: FxHashMap<Edge, u32>,
    /// Coarse image per demoted edge, for the promote-overlap check.
    stores: FxHashMap<Edge, CoarseStore>,
    /// Whether the demoted-edge set changed since the last
    /// [`take_hints`](Self::take_hints).
    dirty: bool,
    /// Bumped whenever an edge enters or leaves `status` — whenever the
    /// signal-edge set loses or regains an edge.
    pub(crate) generation: u64,
    demotions: u64,
    promotions: u64,
}

impl ReductionState {
    /// A lone analyzer's state (shard `0` of `1`), nothing demoted, for
    /// an analyzer correlating over `max_lag` lags from windows of
    /// `capacity` fine ticks.
    pub(crate) fn new(cfg: ReductionConfig, max_lag: u64, capacity: u64) -> Self {
        ReductionState {
            cfg,
            max_lag,
            capacity,
            of: 1,
            ..ReductionState::default()
        }
    }

    /// Whether the tier holds `edge`: demoted, or promoting and not yet
    /// streaming fine again. Discovery does not see such an edge.
    pub(crate) fn holds(&self, edge: &Edge) -> bool {
        self.status.contains_key(edge)
    }

    /// Every demoted edge with its level, sorted. A promoting edge is not
    /// among them: leaving the snapshot is exactly what tells the tracer to
    /// backfill and resume fine.
    fn demoted(&self) -> Vec<(Edge, u64)> {
        let mut demoted: Vec<(Edge, u64)> = self
            .status
            .iter()
            .filter_map(|(&edge, &status)| match status {
                EdgeStatus::Demoted { level } => Some((edge, level)),
                EdgeStatus::Promoting => None,
            })
            .collect();
        demoted.sort_unstable();
        demoted
    }

    /// Takes the pending hint snapshot, if the demoted-edge set changed
    /// since the last call.
    pub(crate) fn take_hints(&mut self) -> Option<HintState> {
        if !self.dirty {
            return None;
        }
        self.dirty = false;
        let edges = self
            .demoted()
            .into_iter()
            .map(|((a, b), level)| ((a.index() as u32, b.index() as u32), level))
            .collect();
        Some(HintState {
            shard: self.shard,
            of: self.of,
            edges,
        })
    }

    /// The tier's counters.
    pub(crate) fn stats(&self) -> ReductionStats {
        ReductionStats {
            demotions: self.demotions,
            promotions: self.promotions,
            reduced_now: self.status.len(),
        }
    }

    /// Notes that fine data over `span` just entered `edge`'s `window`. A
    /// promoting edge's round trip is complete: its fine
    /// stream (backfill or first live chunk) resumed. A demoted edge's
    /// tracer has not applied the hint yet (or another shard keeps the
    /// edge fine): the chunk is folded into the coarse image, which keeps
    /// the promote check seeing activity.
    pub(crate) fn fine_arrived(&mut self, edge: Edge, window: &SlidingWindow, span: (Tick, Tick)) {
        match self.status.get(&edge) {
            Some(EdgeStatus::Promoting) => {
                self.status.remove(&edge);
                self.stores.remove(&edge);
                self.generation += 1;
            }
            Some(&EdgeStatus::Demoted { level }) => {
                self.stores
                    .entry(edge)
                    .or_insert_with(|| CoarseStore::new(level, self.capacity))
                    .win
                    .append_or_reset(&window.view(span.0, span.1));
            }
            None => {}
        }
    }

    /// Flips `edge` to [`EdgeStatus::Demoted`] at `level` and drops every
    /// correlator touching it — the fresh [`CoarseStore`] is the edge's
    /// only remaining footprint.
    fn demote(&mut self, roots: &mut [Root], edge: Edge, level: u64) {
        self.status.insert(edge, EdgeStatus::Demoted { level });
        self.stores
            .insert(edge, CoarseStore::new(level, self.capacity));
        self.cold.remove(&edge);
        self.dirty = true;
        self.generation += 1;
        self.demotions += 1;
        for root in roots {
            root.pairs.remove(&edge);
        }
    }

    /// Appends one wire-ingested coarse chunk (already decimated by
    /// `level`) to the edge's store. A level mismatch — the tracer caught
    /// up with a newer hint — resets the store to the new resolution.
    pub(crate) fn feed_coarse(&mut self, edge: Edge, level: u64, chunk: &RleSeries) {
        let new = || CoarseStore::new(level, self.capacity);
        let store = self.stores.entry(edge).or_insert_with(new);
        if store.level != level {
            *store = new();
        }
        store.win.append_coarse_or_reset(chunk);
    }
}

/// One refresh's reduction decisions (see
/// [`OnlineAnalyzer::refresh`](crate::analyzer::OnlineAnalyzer::refresh)):
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
pub(crate) fn reduction_pass(
    red: &mut ReductionState,
    streams: &Streams,
    roots: &mut [Root],
    (start, end, data_end): (Tick, Tick, Tick),
) {
    let (max_lag, window_ticks, base_level) = (red.max_lag, end - start, red.cfg.base_level);
    let level = |w: &SlidingWindow| demotion_level(w.series().support(), window_ticks, base_level);
    let window = |edge: &Edge| streams.get(edge).map(|(_, stream)| &stream.window);
    // Promote: any support overlap between a root's coarse source image
    // and a demoted edge's coarse store revives the edge.
    // Root sources decimated once per (client, level), not per edge.
    let mut src_cache: FxHashMap<(NodeId, u64), RleSeries> = FxHashMap::default();
    for (edge, level) in red.demoted() {
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
                window(&(root.client, root.front))
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
        .map(|root| Some(window(&(root.client, root.front))?.view(start, end)))
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
    let mut edges: Vec<Edge> = streams.list.iter().map(|stream| stream.edge).collect();
    edges.sort_unstable();
    for edge in edges {
        if red.status.contains_key(&edge) {
            continue;
        }
        let w = window(&edge).expect("a stream of every edge");
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
        red.demote(roots, edge, level(w));
        // A reduction verdict is about the conversation, not one
        // direction of it: the response stream `(b, a)` carries the
        // replies to the request stream's messages, so it inherits the
        // request stream's demotion — otherwise every dead edge keeps
        // shipping its return path at full resolution forever. The
        // reverse edge stays fine when it carries a root signal or a
        // tracked pair of its own overlaps (mutual-traffic topologies).
        let rev = (edge.1, edge.0);
        if let Some(w) = window(&rev) {
            if rev != edge
                && !red.status.contains_key(&rev)
                && !carries_root_signal(roots, rev)
                && !live(roots, rev, w)
            {
                red.demote(roots, rev, level(w));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::tests::*;
    use crate::analyzer::OnlineAnalyzer;
    use crate::config::PathmapConfig;
    use crate::graph::NodeLabels;
    use crate::tracer::TracerFrame;
    use crossbeam::channel::unbounded;
    use e2eprof_netsim::prelude::*;
    use e2eprof_timeseries::{wire, DenseSeries, Nanos, Run};

    fn rles(start: u64, v: Vec<f64>) -> RleSeries {
        DenseSeries::new(Tick::new(start), v).to_sparse().to_rle()
    }

    fn pseudo_signal(len: u64, seed: u64, density: u64) -> RleSeries {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let v: Vec<f64> = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(density) {
                    (1.0 + (state % 4) as f64).sqrt()
                } else {
                    0.0
                }
            })
            .collect();
        rles(0, v)
    }

    #[test]
    fn supports_overlap_matches_admissible_lag_windows() {
        // y active only at tick 10: reachable from x's run [2, 5) only
        // when the lag horizon extends past 10 − 4 = 6.
        let x = rles(0, {
            let mut v = vec![0.0; 16];
            v[2] = 1.0;
            v[3] = 1.0;
            v[4] = 2.0;
            v
        });
        let y = rles(0, {
            let mut v = vec![0.0; 16];
            v[10] = 3.0;
            v
        });
        assert!(!supports_overlap(&x, &y, 0));
        assert!(!supports_overlap(&x, &y, 6)); // t + d ≤ 4 + 5 = 9 < 10
        assert!(supports_overlap(&x, &y, 7)); // t = 4, d = 6 reaches 10

        // Anti-causal activity (target strictly before the source) never
        // counts: lags are non-negative, however long the horizon.
        assert!(!supports_overlap(&y, &x, 4));
        assert!(!supports_overlap(&y, &x, 100));
        // Coincident activity overlaps at any positive horizon.
        assert!(supports_overlap(&x, &x, 1));
    }

    /// The test is exact: it says "overlap" precisely when some lagged
    /// product is non-zero.
    #[test]
    fn supports_overlap_iff_some_lagged_product_is_nonzero() {
        for (sx, sy) in [(1, 2), (3, 4), (5, 6), (7, 8)] {
            let x = pseudo_signal(120, sx, 9);
            let y = pseudo_signal(160, sy, 11);
            for lags in [1u64, 3, 8, 24] {
                let product = (0..120u64).any(|t| {
                    (0..lags)
                        .any(|d| x.value_at(Tick::new(t)) * y.value_at(Tick::new(t + d)) != 0.0)
                });
                assert_eq!(supports_overlap(&x, &y, lags), product, "lags {lags}");
            }
        }
    }

    #[test]
    fn coarse_lag_bound_covers_every_fine_lag() {
        for max_lag in [1u64, 7, 16, 100] {
            for k in [2u64, 4, 8, 16] {
                let lc = coarse_lag_bound(max_lag, k);
                // The last fine lag lands at coarse lag ⌊(L−1)/k⌋ + 1 at
                // most, which must be < Lc.
                assert!((max_lag - 1) / k + 1 < lc, "L={max_lag} k={k}");
            }
        }
        assert_eq!(coarse_lag_bound(0, 4), 0);
    }

    /// Promotion's soundness: fine overlap within `L` lags implies coarse
    /// overlap within `coarse_lag_bound(L, k)` lags, so a demoted edge
    /// whose coarse image shows none cannot have a non-zero fine product.
    #[test]
    fn fine_overlap_implies_coarse_overlap() {
        let max_lag = 24;
        for seed in 0..16u64 {
            let x = pseudo_signal(120, 2 * seed + 1, 40);
            let y = pseudo_signal(160, 2 * seed + 2, 50);
            for k in [2u64, 4, 8] {
                let coarse =
                    supports_overlap(&x.decimate(k), &y.decimate(k), coarse_lag_bound(max_lag, k));
                assert!(
                    coarse || !supports_overlap(&x, &y, max_lag),
                    "seed {seed} k={k}"
                );
            }
        }
    }

    #[test]
    fn levels_intersect_across_shards_with_min_level() {
        let mut states = FxHashMap::default();
        states.insert(
            0,
            HintState {
                shard: 0,
                of: 2,
                edges: vec![((1, 2), 16), ((3, 4), 32)],
            },
        );
        states.insert(
            1,
            HintState {
                shard: 1,
                of: 2,
                edges: vec![((5, 6), 8), ((3, 4), 16)],
            },
        );
        let levels = effective_levels(&states);
        assert_eq!(
            levels.get(&(1, 2)),
            None,
            "edge shard 1 still needs stays fine"
        );
        assert_eq!(levels.get(&(5, 6)), None);
        assert_eq!(levels.get(&(3, 4)), Some(&16), "unanimous edge takes min");
        assert_eq!(levels.get(&(9, 9)), None, "unmentioned edges stay fine");
    }

    #[test]
    fn no_decimation_until_every_shard_reports() {
        let mut states = FxHashMap::default();
        states.insert(
            0,
            HintState {
                shard: 0,
                of: 2,
                edges: vec![((1, 2), 16)],
            },
        );
        assert!(
            effective_levels(&states).is_empty(),
            "one of two shards reported: everything must stay fine"
        );
    }

    #[test]
    fn replacing_a_shard_snapshot_is_idempotent() {
        let mut states = FxHashMap::default();
        let snap = HintState {
            shard: 0,
            of: 1,
            edges: vec![((1, 2), 16)],
        };
        states.insert(0, snap.clone());
        let once = effective_levels(&states);
        states.insert(0, snap);
        assert_eq!(effective_levels(&states), once);
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
        let (start, end, data_end) = last_geometry(&analyzer);
        let x = window(&analyzer, (cli, web)).view(start, end);
        let y = window(&analyzer, (web, db)).view(start, data_end);
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
        let red = reduction(&analyzer);
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
            let red = reduction(&analyzer);
            assert!(!red.status.contains_key(&(web, db)), "chunk {k}: demoted");
        }
        let products = correlator(&analyzer, cli, (web, db)).corr();
        assert!(products.values().iter().all(|&r| r < 1e-12));
        assert!(products.value_at(7) > 0.0);
        let red = reduction(&analyzer);
        assert!(
            matches!(
                red.status.get(&(web, idle)),
                Some(EdgeStatus::Demoted { .. })
            ),
            "the disjoint sibling stayed fine: {:?}",
            red.status
        );
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
}
