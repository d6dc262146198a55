//! Roots and the two pooled phases of a refresh: Phase 1 brings every
//! awake root's correlators to the window, Phase 2 explores the roots that
//! are not clean. Each phase moves its work items into the analyzer's
//! refresh pool ([`Pool`](crate::parallel::Pool)) and puts every one back
//! where it came from.

use super::{Context, Edge, OnlineAnalyzer};
use crate::graph::ServiceGraph;
use crate::hashing::FxHashMap;
use crate::parallel::ScratchPool;
use crate::pathmap::CorrelationProvider;
use crate::signals::EdgeSignals;
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::window::SlidingWindow;
use e2eprof_timeseries::{RleSeries, Tick};
use e2eprof_xcorr::incremental::{IncrementalCorrelator, SlideScratch};
use e2eprof_xcorr::{CorrSeries, Spike};
use std::borrow::Cow;
use std::sync::Arc;

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
/// decision as it stands. A step owns what it reads, so it can travel to
/// any worker with the correlator it applies to.
///
/// This is the single code path for correlator maintenance, and each
/// pair's arithmetic depends on nothing but its own step, which is what
/// makes parallel refreshes bitwise identical to serial ones.
#[derive(Debug, Clone)]
pub(super) enum Step {
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
    /// the source and the target stream, one fused slide from the window
    /// `from` the correlator stands at.
    Advance {
        from: (Tick, Tick),
        xw: Arc<SlidingWindow>,
        yw: Arc<SlidingWindow>,
    },
    /// No usable prior state — the pair's first window, or the first after
    /// a stream heal: a one-shot from-scratch computation over the root's
    /// source view `x` and the target's view, at position `y` of the
    /// signal index.
    Refill { x: Arc<RleSeries>, y: usize },
}

impl Step {
    /// Decides the step towards the source window `window` of a pair whose
    /// correlator stands at `recorded`.
    ///
    /// `views` are the pair's source view and the position of its target's
    /// view this window, and `xw` and `yw` the retained streams they were
    /// cut from — the source is always the root's client signal, retained
    /// on its `(client, front)` stream. `quiet` is the caller's proof that
    /// nothing moved in either stream since the window `recorded`.
    pub(super) fn decide(
        recorded: Option<(Tick, Tick)>,
        views: Option<(&Arc<RleSeries>, usize)>,
        xw: Option<&Arc<SlidingWindow>>,
        yw: Option<&Arc<SlidingWindow>>,
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
                    Step::Advance {
                        from: (s, e),
                        xw: Arc::clone(xw),
                        yw: Arc::clone(yw),
                    }
                }
            }
            _ => Step::Refill {
                x: Arc::clone(x),
                y,
            },
        }
    }

    /// Whether the step computes (an advance or a refill) rather than
    /// keeping O(1) books (a carry or a skip).
    fn computes(&self) -> bool {
        matches!(self, Step::Advance { .. } | Step::Refill { .. })
    }

    /// Executes the step, leaving the lagged products for `window` in
    /// `inc.corr()`. `signals` is the signal index a refill reads its
    /// target view from. Returns whether an advance had to grow its slide
    /// scratch (a refill allocates by definition).
    fn run(
        self,
        inc: &mut IncrementalCorrelator,
        signals: &EdgeSignals,
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
            Step::Advance { from, xw, yw } => {
                if from == window {
                    // No data arrived since the last refresh: nothing
                    // enters or leaves, so there is nothing to take views
                    // of.
                    return false;
                }
                let ((s, e), (ws, we)) = (from, window);
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
                inc.refill(&x, signals.view(y));
                false
            }
        }
    }
}

/// One computing pair of Phase 1: its correlator, moved out of its root's
/// map (an empty one stands in for it there), and its step.
struct PairItem {
    inc: IncrementalCorrelator,
    step: Step,
}

/// One awake root of Phase 2, moved out of the analyzer's root list.
struct RootItem {
    root: Root,
    /// The root's source view, as Phase 1 sliced it.
    x: Option<Arc<RleSeries>>,
    /// The root's pairs Phase 1 skipped.
    skipped: Vec<Edge>,
}

/// How the pairs one exploration visited were settled.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct Visits {
    /// Pairs the exploration decided.
    pub(super) visited: u64,
    /// Of those, pairs decided from products that were zero at every lag.
    pub(super) evidence_free: u64,
    /// Of those, pairs whose previous spike list was carried.
    pub(super) carried: u64,
}

/// What Phase 2 hands back for one root: the root, to go back in its place,
/// and what the refresh record counts of it.
struct Explored {
    root: Root,
    /// Whether the root had a source view this window.
    sourced: bool,
    /// Whether the root was explored (it was not clean).
    explored: bool,
    /// Pairs the exploration reached for the first time.
    added: Vec<Edge>,
    visits: Visits,
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
    /// How the pairs were settled.
    visits: Visits,
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
        self.visits.carried += 1;
        Some(self.previous[at].1.clone())
    }

    fn decided(&mut self, _client: NodeId, edge: Edge, spikes: Vec<Spike>, evidence_free: bool) {
        self.visits.visited += 1;
        self.visits.evidence_free += u64::from(evidence_free);
        self.support.push((edge, spikes));
    }
}

/// Phase 2's work on one root (see [`OnlineAnalyzer::discover`]): keeps the
/// remembered graph of a clean root, explores any other.
fn explore(item: RootItem, context: &Context, reusable: bool) -> Explored {
    let RootItem {
        mut root,
        x,
        mut skipped,
    } = item;
    skipped.sort_unstable();
    let sourced = x.is_some();
    let previous = root.memory.take();
    let clean = reusable
        && previous.as_ref().is_some_and(|(_, support)| {
            support
                .iter()
                .all(|(edge, _)| skipped.binary_search(edge).is_ok())
        });
    if clean {
        root.memory = previous;
        return Explored {
            root,
            sourced,
            explored: false,
            added: Vec::new(),
            visits: Visits::default(),
        };
    }
    let mut provider = CachedProvider {
        pairs: &mut root.pairs,
        skipped: &skipped,
        previous: previous.as_ref().map_or(&[], |(_, support)| support),
        support: Vec::new(),
        added: Vec::new(),
        visits: Visits::default(),
    };
    let source = (root.client, root.front);
    let graph = x.map(|x| {
        let Context {
            pathmap,
            signals,
            universe,
            labels,
        } = context;
        pathmap.discover_root(source, &x, signals, universe, labels, &mut provider)
    });
    let CachedProvider {
        mut support,
        added,
        visits,
        ..
    } = provider;
    support.sort_unstable_by_key(|&(edge, _)| edge);
    root.memory = Some((graph, support));
    Explored {
        root,
        sourced,
        explored: true,
        added,
        visits,
    }
}

impl OnlineAnalyzer {
    /// Phase 1 — brings the correlators of every awake root to this
    /// window. A carry or a skip is done in place; every pair that
    /// computes has its correlator moved out of its root's map, with an
    /// empty one standing in, and runs on the refresh pool. Each pair owns
    /// its accumulator and only *reads* the shared windows, so its
    /// arithmetic is identical no matter which thread runs it; its
    /// correlator goes back under its edge, so no map changes its order. A
    /// root that slept first slides its correlators to the `last`
    /// refresh's window, where the skips it slept through would have left
    /// them.
    ///
    /// Returns each awake root's source view, sliced once here for both
    /// phases, and the pairs of each it skipped.
    pub(super) fn advance(
        &mut self,
        last: (Tick, Tick),
    ) -> (Vec<Option<Arc<RleSeries>>>, Vec<Vec<Edge>>) {
        let (start, end, _) = self.record.geometry;
        let max_lag = self.config.max_lag();
        let (streams, signals) = (&self.streams, &self.context.signals);
        let (roots, record, scratch) = (&mut self.roots, &mut self.record, &self.slide_scratch);
        let prev_window = self.memory.prev.map(|(start0, end0, _)| (start0, end0));
        let awake = record.woken_roots.len();
        let (mut sources, mut skipped) = (Vec::with_capacity(awake), Vec::with_capacity(awake));
        // Each computing item, and the root and edge it goes back to.
        let (mut items, mut homes) = (Vec::new(), Vec::new());
        for k in 0..awake {
            let r = record.woken_roots[k];
            let root = &mut roots[r];
            let x = signals.source_signal(root.client, root.front).map(Arc::new);
            if root.settled.is_some_and(|w| w != last) {
                root.pairs.values_mut().for_each(|inc| inc.slide(last));
            }
            let source = streams.get(&(root.client, root.front));
            let mut skips = Vec::new();
            for (&edge, inc) in &mut root.pairs {
                let target = streams.get(&edge);
                // Both signals of the pair quiet — proven against the
                // previous refresh's geometry, so it only speaks for a
                // correlator standing at exactly that window.
                let quiet = inc.window() == prev_window
                    && source.is_some_and(|(_, stream)| stream.quiet)
                    && target.is_some_and(|(_, stream)| stream.quiet);
                let step = Step::decide(
                    inc.window(),
                    x.as_ref().zip(target.map(|(i, _)| i)),
                    source.map(|(_, stream)| &stream.window),
                    target.map(|(_, stream)| &stream.window),
                    (start, end),
                    quiet,
                );
                record.count(&step);
                if matches!(step, Step::Skip) {
                    skips.push(edge);
                }
                if step.computes() {
                    let inc = std::mem::replace(inc, IncrementalCorrelator::new(0));
                    items.push(PairItem { inc, step });
                    homes.push((r, edge));
                } else {
                    step.run(inc, signals, max_lag, (start, end), scratch);
                }
            }
            sources.push(x);
            skipped.push(skips);
        }
        let (context, scratch) = (Arc::clone(&self.context), Arc::clone(scratch));
        let advanced = self.pool.run(items, move |PairItem { mut inc, step }| {
            let grew = step.run(&mut inc, &context.signals, max_lag, (start, end), &scratch);
            (inc, grew)
        });
        for ((r, edge), (inc, grew)) in homes.into_iter().zip(advanced) {
            self.roots[r].pairs.insert(edge, inc);
            self.record.grown += u64::from(grew);
        }
        (sources, skipped)
    }

    /// Phase 2 — path discovery (normalization + spike detection), one
    /// awake root per item on the refresh pool, reading each pair's
    /// products where Phase 1 left them: in the root's correlator. Each
    /// awake root is moved out of the root list for its item, with the
    /// shared [`Context`], and put back in its place; a pair first reached
    /// this refresh gets its correlator in the root's map too. `sources`
    /// and `skipped` are what [`advance`](Self::advance) returned.
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
    /// awake. What each item counted is summed here, in root order.
    pub(super) fn discover(
        &mut self,
        (sources, skipped): (Vec<Option<Arc<RleSeries>>>, Vec<Vec<Edge>>),
        reusable: bool,
    ) {
        let (start, end, _) = self.record.geometry;
        let roots = &mut self.roots;
        let items: Vec<RootItem> = self
            .record
            .woken_roots
            .iter()
            .zip(sources)
            .zip(skipped)
            .map(|((&r, x), skipped)| {
                let stand_in = Root::new((roots[r].client, roots[r].front));
                let root = std::mem::replace(&mut roots[r], stand_in);
                RootItem { root, x, skipped }
            })
            .collect();
        let context = Arc::clone(&self.context);
        let explored = self
            .pool
            .run(items, move |item| explore(item, &context, reusable));
        let record = &mut self.record;
        for (k, done) in explored.into_iter().enumerate() {
            let (r, mut root) = (record.woken_roots[k], done.root);
            if done.explored {
                record.explored.push(root.client);
            } else {
                record.reused_roots += 1;
            }
            record.visited_pairs += done.visits.visited;
            record.evidence_free_pairs += done.visits.evidence_free;
            record.carried_verdicts += done.visits.carried;
            for edge in done.added {
                let i = self.streams.at[&edge];
                self.streams.list[i].readers.push(r);
            }
            let settled = done.sourced
                && root
                    .pairs
                    .values()
                    .all(|inc| inc.window() == Some((start, end)));
            root.settled = settled.then_some((start, end));
            root.awake = !settled;
            self.roots[r] = root;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::analyzer::tests::*;
    use crate::pathmap::IncrementalStats;

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
}
