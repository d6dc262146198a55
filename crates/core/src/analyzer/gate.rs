//! The activity gate: the streams, what the coming refresh must look at
//! (the wake set), and what the last refresh left it to stand on (the
//! refresh memory).

use super::phases::Root;
use super::{Edge, OnlineAnalyzer};
use crate::hashing::FxHashMap;
use e2eprof_timeseries::window::SlidingWindow;
use e2eprof_timeseries::Tick;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One edge's fine stream: its sliding window and what the activity gate
/// knows about it between refreshes. Streams are never removed; each keeps
/// its position in [`Streams::list`], which is also the position of its
/// view in the analyzer's [`EdgeSignals`](crate::signals::EdgeSignals).
#[derive(Debug)]
pub(crate) struct Stream {
    pub(crate) edge: Edge,
    /// Shared with the Phase 1 steps that advance a pair on it; between
    /// refreshes the stream holds the only reference, and ingest appends
    /// in place through `Arc::make_mut`.
    pub(crate) window: Arc<SlidingWindow>,
    /// The window's change epoch when the gate last evaluated it (`None`
    /// before it first did).
    pub(super) seen: Option<u64>,
    /// In the coming refresh's wake set, whose streams have their quiet
    /// predicate evaluated: set by ingest when the window's epoch moves,
    /// it is created or its retention start passes the last refresh's
    /// start; by a refresh for a window whose runs reach past its end or
    /// whose retention start is past its start; and by the calendar.
    pub(super) awake: bool,
    /// The quiet verdict of the refresh under way. `true` for a stream
    /// that did not wake — the wake set proves it quiet — and between
    /// refreshes.
    pub(super) quiet: bool,
    /// Lazy-deletion stamp: a calendar entry with an older stamp is stale.
    stamp: u32,
    /// The owned roots that read the stream: those holding a pair on it
    /// and the one whose source it is. May still name a root that has
    /// dropped its pair since (a heal) — that only wakes it.
    pub(super) readers: Vec<usize>,
}

impl Stream {
    /// A stream first seen now: awake, so the refresh that first sees it
    /// evaluates it.
    pub(super) fn new(edge: Edge, capacity: u64) -> Self {
        Stream {
            edge,
            window: Arc::new(SlidingWindow::new(capacity)),
            seen: None,
            awake: true,
            quiet: true,
            stamp: 0,
            readers: Vec::new(),
        }
    }
}

/// Every fine stream, by position, and each edge's position.
#[derive(Debug, Default)]
pub(crate) struct Streams {
    pub(super) at: FxHashMap<Edge, usize>,
    pub(crate) list: Vec<Stream>,
}

impl Streams {
    /// The position and the state of `edge`'s stream.
    pub(crate) fn get(&self, edge: &Edge) -> Option<(usize, &Stream)> {
        self.at.get(edge).map(|&i| (i, &self.list[i]))
    }

    /// Lists every root as a reader of its source stream and of each
    /// stream it holds a pair on, and nothing else.
    fn rebuild_readers(&mut self, roots: &[Root]) {
        self.list
            .iter_mut()
            .for_each(|stream| stream.readers.clear());
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

/// The retention calendar, a min-heap of `(first, stream, stamp)`: `first`
/// is the start of the stream's first run ending after the refresh start
/// it was filed at, and it wakes the stream once a refresh's start-side
/// boundary region `[start₀, start + L)` reaches it.
///
/// With the [`Stream::awake`] and [`Root::awake`] flags it makes up the
/// event-driven half of the activity gate: what the coming refresh must
/// look at. Whatever is not in it is proven quiet (DESIGN.md §6.1, "The
/// wake set").
pub(super) type Calendar = BinaryHeap<Reverse<(Tick, usize, u32)>>;

/// What one refresh remembers for the next: everything needed to *prove*
/// that carrying a pair's accumulated products (or a whole root's graph)
/// forward unchanged is bitwise identical to recomputing it. Each root's
/// remembered graph and support live with the root ([`Root::memory`]).
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
pub(super) struct RefreshMemory {
    /// Geometry of the last completed refresh: `(start, end, data_end)`.
    pub(super) prev: Option<(Tick, Tick, Tick)>,
    /// Generation of the signal-edge set at that refresh
    /// ([`OnlineAnalyzer::signal_generation`]). Any change — an edge
    /// appearing — dirties every root, because exploration enumerates
    /// candidate edges from the set.
    generation: u64,
    /// Order-free digest of the signal-edge set at that refresh, against
    /// which debug builds check that an unchanged generation means an
    /// unchanged set.
    #[cfg(debug_assertions)]
    digest: u64,
}

impl OnlineAnalyzer {
    /// The generation of the signal-edge set: the stream count, which
    /// moves exactly when a fine stream is first seen (streams are never
    /// removed) — the one way the set of edges discovery sees can change.
    fn signal_generation(&self) -> u64 {
        self.streams.list.len() as u64
    }

    /// Drops everything the refresh memory stands for, so the next refresh
    /// is computed from scratch.
    pub(super) fn forget(&mut self) {
        self.memory = RefreshMemory::default();
        self.roots.iter_mut().for_each(|root| root.memory = None);
    }

    /// Opens the gate for the refresh at the record's geometry: decides
    /// what it looks at, records the woken streams and roots, and counts
    /// each root left asleep as skipping its every pair and found clean —
    /// it is clean by construction, and its remembered graph is published
    /// again. Returns whether the remembered graphs speak for this
    /// refresh's signal-edge set (`reusable`) and whether every stream and
    /// root woke (`from_scratch`).
    ///
    /// A remembered root graph speaks only for the signal-edge set it was
    /// explored against: candidate edges are enumerated from it. The wake
    /// set stands on the previous refresh's proofs only while that set
    /// holds and the window moves forward by less than its own length;
    /// otherwise every stream and every root wakes — the from-scratch
    /// refresh.
    pub(super) fn open_gate(&mut self) -> (bool, bool) {
        let (start, end, _) = self.record.geometry;
        let generation = self.signal_generation();
        let prev = self.memory.prev;
        let reusable = prev.is_some() && self.memory.generation == generation;
        let from_scratch = !reusable
            || !prev
                .is_some_and(|(start0, end0, _)| start0 <= start && start <= end0 && end0 <= end);
        self.memory.generation = generation;
        self.wake_streams(from_scratch);
        #[cfg(debug_assertions)]
        {
            self.memory.digest = self.assert_wake_set_sound(reusable);
        }
        let record = &mut self.record;
        for (r, root) in self.roots.iter().enumerate() {
            if root.awake {
                record.woken_roots.push(r);
            } else {
                record.skips += root.pairs.len() as u64;
                record.reused_roots += 1;
            }
        }
        (reusable, from_scratch)
    }

    /// Closes the gate behind the refresh: its woken streams are quiet
    /// between refreshes, every root's reader lists are rebuilt after a
    /// `from_scratch` one, and its geometry is the reference frame the
    /// next refresh's quiet predicate is proven against.
    pub(super) fn close_gate(&mut self, from_scratch: bool) {
        if from_scratch {
            self.streams.rebuild_readers(&self.roots);
        }
        for &i in &self.record.woken_streams {
            self.streams.list[i].quiet = true;
        }
        self.memory.prev = Some(self.record.geometry);
    }

    /// The stream half of the activity gate. Wakes every stream and root,
    /// and rebuilds the signal index, for a from-scratch refresh — which
    /// every change of the signal-edge set forces — else wakes the streams
    /// whose calendar entry came due; re-stamps the views of the streams
    /// that did not wake and evaluates the exact quiet predicate of those
    /// that did, cutting their views again and waking the roots that read
    /// one that moved; and files each evaluated stream for the next
    /// refresh. Records the evaluated streams.
    ///
    /// A stream is *quiet* when its change epoch is unchanged since the
    /// previous refresh (no nonzero content entered or left retention) and
    /// it has no runs in the two boundary regions the slide touches —
    /// everything the slide's append/evict corrections could read. It is
    /// *still* when, moreover, a pair standing at the previous window
    /// could skip on it: discovery sees it, and it retains that window's
    /// start. Only a stream that is not still wakes its readers.
    fn wake_streams(&mut self, from_scratch: bool) {
        let (start, end, data_end) = self.record.geometry;
        let max_lag = self.config.max_lag();
        let prev = self.memory.prev;
        let calendar = &mut self.calendar;
        let streams = &mut self.streams.list;
        let roots = &mut self.roots;
        let signals = &mut Arc::make_mut(&mut self.context).signals;
        if from_scratch {
            calendar.clear();
            streams.iter_mut().for_each(|stream| stream.awake = true);
            roots.iter_mut().for_each(|root| root.awake = true);
            signals.reindex(
                streams
                    .iter()
                    .enumerate()
                    .map(|(i, stream)| (stream.edge, i)),
            );
        } else {
            // A run ending after the last start, first in line: the stream
            // is quiet on the start side until the region `[start₀, start +
            // L)` reaches that run's start.
            while let Some(&Reverse((first, i, stamp))) = calendar.peek() {
                if first >= start + max_lag {
                    break;
                }
                calendar.pop();
                streams[i].awake |= streams[i].stamp == stamp;
            }
        }
        signals.set_window((start, end));
        let views = signals.views_mut();
        // A stream that did not wake is quiet: its runs are the ones its
        // last view was cut from, and none reaches into either boundary
        // region, so they lie between them, none of them clipped — only
        // the view's span moves.
        let mut woken = Vec::new();
        for (i, (view, stream)) in views.iter_mut().zip(streams.iter()).enumerate() {
            if stream.awake {
                woken.push(i);
            } else {
                stream.window.restamp(view, start, data_end);
            }
        }
        for &i in &woken {
            let stream = &mut streams[i];
            let w = &*stream.window;
            let epoch = w.epoch();
            let unchanged = stream.seen.replace(epoch) == Some(epoch);
            stream.quiet = prev.is_some_and(|(start0, end0, _)| {
                unchanged
                    && !w.has_runs_in(start0, start + max_lag)
                    && !w.has_runs_in(end0, data_end)
            });
            views[i] = w.view(start, data_end);
            let still = stream.quiet && prev.is_some_and(|(start0, _, _)| w.start() <= start0);
            if !still {
                stream.readers.iter().for_each(|&r| roots[r].awake = true);
            }
            // What the next refresh must look at: a stream with runs past
            // this end (the next end-side region starts there), or whose
            // retention start is past this start (a pair standing here
            // cannot skip on it), stays awake; any other sleeps until its
            // first run after this start comes due on the calendar — or
            // ingest wakes it first.
            stream.stamp = stream.stamp.wrapping_add(1);
            stream.awake = w.has_runs_in(end, w.end()) || w.start() > start;
            if !stream.awake {
                if let Some(first) = w.next_run_start(start) {
                    calendar.push(Reverse((first, i, stream.stamp)));
                }
            }
        }
        self.record.woken_streams = woken;
    }

    /// Holds the wake set to the full pass it stands for: every stream that
    /// did not wake satisfies the exact quiet predicate, lets a pair skip,
    /// and has the view a fresh cut would give; every root left asleep
    /// would have skipped its every pair and been found clean; and an
    /// unchanged generation is an unchanged signal-edge set. Returns the
    /// set's digest for the next refresh to compare.
    #[cfg(debug_assertions)]
    fn assert_wake_set_sound(&self, reusable: bool) -> u64 {
        use super::phases::Step;
        use e2eprof_timeseries::RleSeries;
        use std::hash::BuildHasher;
        let (start, end, data_end) = self.record.geometry;
        let signals = &self.context.signals;
        let hasher = crate::hashing::FxBuildHasher::default();
        let digest = self.streams.list.iter().fold(0u64, |digest, stream| {
            digest.wrapping_add(hasher.hash_one(stream.edge))
        });
        if reusable {
            assert_eq!(
                digest, self.memory.digest,
                "edge set moved, generation did not"
            );
        }
        let mut evaluated = vec![false; self.streams.list.len()];
        for &i in &self.record.woken_streams {
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
            let (edge, w) = (stream.edge, &*stream.window);
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
            assert_eq!(
                bits(signals.view(i)),
                bits(&w.view(start, data_end)),
                "{edge:?}: re-stamped view"
            );
        }
        for root in self.roots.iter().filter(|root| !root.awake) {
            let client = root.client;
            let settled = root.settled.expect("an asleep root is settled");
            assert!(reusable, "{client:?}: asleep across a new edge set");
            let (_, x) = self
                .streams
                .get(&(client, root.front))
                .expect("an asleep root has a source");
            let xv = signals.source_signal(client, root.front).map(Arc::new);
            for (&edge, inc) in &root.pairs {
                assert_eq!(inc.window(), Some(settled), "{client:?}: unsettled pair");
                let (i, y) = self.streams.get(&edge).expect("a pair's stream");
                let y_view = signals.target_signal(edge.0, edge.1).map(|_| i);
                let step = Step::decide(
                    Some((start0, end0)),
                    xv.as_ref().zip(y_view),
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
            let (_, support) = root.memory.as_ref().expect("an asleep root remembers");
            assert!(
                support
                    .iter()
                    .all(|(edge, _)| root.pairs.contains_key(edge)),
                "{client:?}: asleep, not clean"
            );
        }
        digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::tests::*;
    use crate::config::PathmapConfig;
    use crate::graph::NodeLabels;
    use crate::pathmap::IncrementalStats;
    use crate::tracer::TracerFrame;
    use crossbeam::channel::unbounded;
    use e2eprof_netsim::prelude::*;
    use e2eprof_timeseries::{wire, Nanos, RleSeries, Run};

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
        assert!(
            stats.iter().any(|s| s.carried_verdicts > 0),
            "no verdict was ever carried"
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
                        analyzer.forget();
                    }
                    let graphs = analyzer.refresh(Nanos::from_millis(500 * (k + 1)));
                    let bits: Vec<_> = graphs.iter().map(graph_bits).collect();
                    (bits, analyzer.record.skips)
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
}
