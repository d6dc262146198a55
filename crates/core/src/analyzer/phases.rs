//! Roots and the two pooled phases of a refresh: Phase 1 brings every
//! awake root's correlators to the window, Phase 2 explores the roots that
//! are not clean.

use super::{Edge, OnlineAnalyzer, RefreshRecord};
use crate::graph::ServiceGraph;
use crate::hashing::FxHashMap;
use crate::parallel::{self, ScratchPool};
use crate::pathmap::CorrelationProvider;
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::window::SlidingWindow;
use e2eprof_timeseries::{RleSeries, Tick};
use e2eprof_xcorr::incremental::{IncrementalCorrelator, SlideScratch};
use e2eprof_xcorr::{CorrSeries, Spike};
use std::borrow::Cow;
use std::sync::atomic::Ordering::Relaxed;
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
pub(super) fn pool_for(last: Option<Duration>, num_workers: usize) -> usize {
    match last {
        Some(cost) if cost < FORK_WORTH => 1,
        _ => num_workers,
    }
}

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
pub(crate) struct Root {
    pub(crate) client: NodeId,
    pub(crate) front: NodeId,
    pub(crate) pairs: FxHashMap<Edge, IncrementalCorrelator>,
    /// In the coming refresh's wake set, whose roots are visited: set for
    /// the readers of a stream that woke and was not still, and for a
    /// root left unsettled.
    pub(super) awake: bool,
    /// The window every correlator of the root stands at, when the root is
    /// *settled*: it had a source view and a remembered graph at the end
    /// of its last run, and every pair stood at that refresh's window.
    /// While nothing the root reads wakes, each refresh would skip its
    /// every pair and find it clean, so it is not visited at all; its
    /// correlators are slid to the last refresh's window when it next
    /// wakes, exactly where the skips would have left them.
    pub(super) settled: Option<(Tick, Tick)>,
    /// The root's last discovery result, which the refresh memory stands
    /// for (`None` while nothing is remembered).
    pub(super) memory: Option<RootMemory>,
}

impl Root {
    pub(super) fn new((client, front): Edge) -> Self {
        Root {
            client,
            front,
            pairs: FxHashMap::default(),
            awake: false,
            settled: None,
            memory: None,
        }
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
pub(super) enum Step<'a> {
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
    pub(super) fn decide(
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
    /// `inc.corr()`. Returns whether an advance had to grow its slide
    /// scratch (a refill allocates by definition).
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
                false
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
    /// Where the refresh counts how pairs were settled.
    record: &'a RefreshRecord,
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
        let inc = self.pairs.entry(edge).or_insert_with(|| {
            self.added.push(edge);
            IncrementalCorrelator::new(max_lag)
        });
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
        self.record.carried_verdicts.fetch_add(1, Relaxed);
        Some(self.previous[at].1.clone())
    }

    fn decided(&mut self, _client: NodeId, edge: Edge, spikes: Vec<Spike>, evidence_free: bool) {
        self.record.visited_pairs.fetch_add(1, Relaxed);
        let evidence_free = u64::from(evidence_free);
        self.record
            .evidence_free_pairs
            .fetch_add(evidence_free, Relaxed);
        self.support.push((edge, spikes));
    }
}

impl OnlineAnalyzer {
    /// Phase 1 — brings the correlators of every awake root to this
    /// window, in place in the root's map, on `workers` threads. Each
    /// pair owns its accumulator and only *reads* the shared windows, so
    /// its arithmetic is identical no matter which thread runs it. A root
    /// that slept first slides its correlators to the `last` refresh's
    /// window, where the skips it slept through would have left them.
    ///
    /// Returns each awake root's source view, sliced once here for both
    /// phases, and the pairs of each it skipped.
    pub(super) fn advance(
        &mut self,
        last: (Tick, Tick),
        workers: usize,
    ) -> (Vec<Option<RleSeries>>, Vec<Vec<Edge>>) {
        let (start, end, _) = self.record.geometry;
        let max_lag = self.config.max_lag();
        let (streams, signals) = (&self.streams, &self.signals);
        let record = &mut self.record;
        let picked: Vec<&mut Root> = self.roots.iter_mut().filter(|root| root.awake).collect();
        let sources: Vec<Option<RleSeries>> = picked
            .iter()
            .map(|root| signals.source_signal(root.client, root.front))
            .collect();
        let mut skipped = vec![Vec::new(); sources.len()];
        let prev_window = self.memory.prev.map(|(start0, end0, _)| (start0, end0));
        let mut items = Vec::new();
        for ((root, x), skips) in picked.into_iter().zip(&sources).zip(&mut skipped) {
            if root.settled.is_some_and(|w| w != last) {
                root.pairs.values_mut().for_each(|inc| inc.slide(last));
            }
            let source = streams.get(&(root.client, root.front));
            for (&edge, inc) in &mut root.pairs {
                let target = streams.get(&edge);
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
                record.count(&step);
                if matches!(step, Step::Skip) {
                    skips.push(edge);
                }
                items.push((inc, step));
            }
        }
        let (grown, slide_scratch) = (&record.grown, &self.slide_scratch);
        record.fine_time = for_each_step(
            &mut items,
            workers,
            |&(_, step)| step,
            |(inc, step)| {
                let grew = step.run(inc, max_lag, (start, end), slide_scratch);
                grown.fetch_add(u64::from(grew), Relaxed);
            },
        );
        (sources, skipped)
    }

    /// Phase 2 — path discovery (normalization + spike detection), one
    /// awake root per item on `workers` threads, reading each pair's
    /// products where Phase 1 left them: in the root's correlator. A pair
    /// first reached this refresh gets its correlator in the root's map
    /// too. `sources` and `skipped` are what [`advance`](Self::advance)
    /// returned.
    ///
    /// A root is clean when the signal-edge set is `reusable` and every
    /// pair its last exploration consulted carried its series bitwise
    /// (Phase-1 skip). Exploration is deterministic in those inputs, so a
    /// clean root's recompute would reproduce last refresh's graph bit for
    /// bit — its remembered one is kept instead. A dirty root is explored
    /// again, but a pair of its old support that Phase 1 skipped stands on
    /// the very premises a clean root does — bitwise-carried products, two
    /// quiet signals — so the spike list decided for it last time is the
    /// one deciding it again would yield: the root's provider hands it out
    /// instead (DESIGN.md §6.1, "What Phase 2 decides, skips and
    /// carries").
    ///
    /// Every awake root then files for the next refresh: the streams of
    /// the pairs it first reached list it as a reader, and a root whose
    /// correlators all stand at this window, with a source view, is
    /// settled: it sleeps until a stream it reads wakes. Any other stays
    /// awake.
    pub(super) fn discover(
        &mut self,
        (sources, skipped): (Vec<Option<RleSeries>>, Vec<Vec<Edge>>),
        reusable: bool,
        workers: usize,
    ) {
        struct RootItem<'a> {
            root: &'a mut Root,
            /// The root's source view, as Phase 1 sliced it.
            x: Option<RleSeries>,
            /// The root's pairs Phase 1 skipped.
            skipped: Vec<Edge>,
            /// Whether the root was explored (it was not clean).
            explored: bool,
            /// Pairs the exploration reached for the first time.
            added: Vec<Edge>,
        }
        let (start, end, _) = self.record.geometry;
        let (pathmap, signals) = (&self.pathmap, &self.signals);
        let (universe, labels, record) = (&self.universe, &self.labels, &self.record);
        let mut items: Vec<RootItem<'_>> = self
            .roots
            .iter_mut()
            .filter(|root| root.awake)
            .zip(sources)
            .zip(skipped)
            .map(|((root, x), skipped)| RootItem {
                root,
                x,
                skipped,
                explored: false,
                added: Vec::new(),
            })
            .collect();
        let time = parallel::for_each_mut(&mut items, workers, |item| {
            item.skipped.sort_unstable();
            let root = &mut *item.root;
            let previous = root.memory.take();
            let clean = reusable
                && previous.as_ref().is_some_and(|(_, support)| {
                    support
                        .iter()
                        .all(|(edge, _)| item.skipped.binary_search(edge).is_ok())
                });
            if clean {
                root.memory = previous;
                return;
            }
            item.explored = true;
            let mut provider = CachedProvider {
                pairs: &mut root.pairs,
                skipped: &item.skipped,
                previous: previous.as_ref().map_or(&[], |(_, support)| support),
                support: Vec::new(),
                added: Vec::new(),
                record,
            };
            let source = (root.client, root.front);
            let graph = item.x.as_ref().map(|x| {
                pathmap.discover_root(source, x, signals, universe, labels, &mut provider)
            });
            let mut support = provider.support;
            support.sort_unstable_by_key(|&(edge, _)| edge);
            item.added = provider.added;
            root.memory = Some((graph, support));
        });
        let record = &mut self.record;
        record.discovery_time = time;
        for (k, item) in items.into_iter().enumerate() {
            let (r, root) = (record.woken_roots[k], item.root);
            if item.explored {
                record.explored.push(root.client);
            } else {
                record.reused_roots += 1;
            }
            for edge in item.added {
                let i = self.streams.at[&edge];
                self.streams.list[i].readers.push(r);
            }
            let settled = item.x.is_some()
                && root
                    .pairs
                    .values()
                    .all(|inc| inc.window() == Some((start, end)));
            root.settled = settled.then_some((start, end));
            root.awake = !settled;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::tests::*;
    use crate::pathmap::IncrementalStats;

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
        let record = &analyzer.record;
        assert!(analyzer.memory.prev.is_some(), "no memory to go by");
        assert!(record.fine_time > Duration::ZERO && record.discovery_time > Duration::ZERO);
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
}
