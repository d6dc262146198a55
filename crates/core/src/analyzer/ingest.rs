//! Ingest: tracer frames into the streams' sliding windows, waking what a
//! chunk may have moved.

use super::gate::Stream;
use super::{Edge, OnlineAnalyzer};
use crate::tracer::TracerFrame;
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::wire::DecodeError;
use e2eprof_timeseries::{wire, RleSeries, Run, Tick};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

/// One frame, decoded and validated whole before any of it reaches a
/// window. Reused across frames, so steady-state ingest allocates nothing.
#[derive(Debug, Default)]
pub(super) struct FrameScratch {
    /// Each entry's edge, span start, span length and the end of its runs
    /// in `runs`.
    entries: Vec<(Edge, Tick, u64, usize)>,
    /// Every entry's runs, in frame order.
    runs: Vec<Run>,
}

impl FrameScratch {
    /// Decodes `frame` into the scratch in one pass: every header and run
    /// is validated, trailing bytes included, before the caller applies
    /// anything.
    fn decode(&mut self, frame: &TracerFrame) -> Result<(), DecodeError> {
        self.entries.clear();
        self.runs.clear();
        match frame {
            // No producer in this repo; removal waits for a `benchmark` PR.
            TracerFrame::Series { edge, payload } => {
                let chunk = wire::decode(payload)?;
                self.runs.extend_from_slice(chunk.runs());
                self.entries
                    .push((*edge, chunk.start(), chunk.len(), self.runs.len()));
            }
            // No producer in this repo either: a `Backfill` is ingested
            // exactly like the batch it carries.
            TracerFrame::Batch { payload } | TracerFrame::Backfill { payload } => {
                let mut cursor = wire::FrameCursor::new(payload)?;
                while let Some(entry) = cursor.next_entry()? {
                    while let Some(run) = cursor.next_run()? {
                        self.runs.push(run);
                    }
                    let edge = (NodeId::new(entry.key.0), NodeId::new(entry.key.1));
                    self.entries
                        .push((edge, entry.start, entry.len, self.runs.len()));
                }
            }
        }
        Ok(())
    }
}

impl OnlineAnalyzer {
    /// Drains all pending tracer frames into the sliding windows. Returns
    /// the number of frames ingested.
    ///
    /// A batch frame is walked by a zero-copy [`wire::FrameCursor`] whose
    /// runs stream straight into
    /// [`SlidingWindow::extend_runs`](e2eprof_timeseries::window::SlidingWindow::extend_runs)
    /// — in steady state ingest materializes no intermediate series at all.
    /// (A v1 [`TracerFrame::Series`] is still accepted — decoded to one
    /// owned chunk — though no tracer in this repository produces one.)
    ///
    /// Stream discontinuities heal automatically: a restarted tracer's
    /// replayed history is deduplicated (only novel ticks append), and a
    /// true gap (frames lost in transit) resets that edge's window, with
    /// the affected incremental correlators falling back to a from-scratch
    /// computation on the next refresh.
    ///
    /// A frame that fails to decode — a tracer speaking another wire
    /// version, or a buggy one — is rejected whole: it is validated to the
    /// last byte before its first run is applied, so a rejected frame
    /// leaves every window as it was. It still counts as ingested, and
    /// [`rejected_frames`](Self::rejected_frames) counts it.
    pub fn ingest(&mut self) -> usize {
        self.ingest_from(|rx, _| rx.try_recv().ok())
    }

    /// Ingests exactly `frames` tracer frames, *blocking* until they
    /// arrive (or every sender disconnects, whichever comes first), and
    /// returns the number actually ingested, rejected frames included
    /// (see [`ingest`](Self::ingest)).
    ///
    /// This is the deterministic synchronization primitive for the
    /// distributed pipeline: the driving side counts the frames its
    /// agents emitted, and the analyzer side blocks until that many have
    /// crossed the transport — no sleeps, no timing assumptions, and a
    /// refresh never runs against a partially delivered flush.
    pub fn ingest_expected(&mut self, frames: usize) -> usize {
        self.ingest_from(|rx, count| if count < frames { rx.recv().ok() } else { None })
    }

    /// Ingests the frames `next` hands out, given the receiver and the
    /// count so far, until it hands out none.
    fn ingest_from(
        &mut self,
        mut next: impl FnMut(&Receiver<TracerFrame>, usize) -> Option<TracerFrame>,
    ) -> usize {
        let mut count = 0;
        while let Some(frame) = next(&self.rx, count) {
            self.ingest_frame(&frame);
            count += 1;
        }
        count
    }

    /// Frames rejected as undecodable since the analyzer was built (see
    /// [`ingest`](Self::ingest)).
    pub fn rejected_frames(&self) -> u64 {
        self.rejected_frames
    }

    /// Applies one tracer frame to the sliding windows, or rejects it
    /// whole (see [`ingest`](Self::ingest) for the decoding contract).
    fn ingest_frame(&mut self, frame: &TracerFrame) {
        let mut scratch = std::mem::take(&mut self.frame_scratch);
        match scratch.decode(frame) {
            Ok(()) => {
                let mut from = 0;
                for &(edge, start, len, to) in &scratch.entries {
                    self.extend_window(edge, start, len, scratch.runs[from..to].iter().copied());
                    from = to;
                }
            }
            Err(_) => self.rejected_frames += 1,
        }
        self.frame_scratch = scratch;
    }

    /// Appends one chunk — its span and its runs — to an edge's fine
    /// window, wakes the window for the coming
    /// refresh when the chunk may have made it non-quiet, and drops the
    /// correlators a healed gap invalidated.
    pub(super) fn extend_window(
        &mut self,
        edge: Edge,
        start: Tick,
        len: u64,
        runs: impl IntoIterator<Item = Run>,
    ) {
        // Between refreshes no pool item holds the context or a window, so
        // writing through `make_mut` copies nothing.
        debug_assert_eq!(Arc::strong_count(&self.context), 1, "context shared");
        let (at, list) = (&mut self.streams.at, &mut self.streams.list);
        let views = Arc::make_mut(&mut self.context).signals.views_mut();
        // A new stream is awake from birth; it also moves the signal-edge
        // generation, so the refresh that first sees it wakes everything.
        let i = *at.entry(edge).or_insert_with(|| {
            list.push(Stream::new(edge, self.capacity));
            views.push(RleSeries::empty(Tick::ZERO, 0));
            list.len() - 1
        });
        let stream = &mut list[i];
        debug_assert_eq!(Arc::strong_count(&stream.window), 1, "window shared");
        let healed = Arc::make_mut(&mut stream.window).extend_runs(start, len, runs);
        // The epoch moved (content entered or left retention), or the
        // retention start passed the last refresh's start, which a pair
        // standing at that window needs to advance or skip.
        let prev_start = self.memory.prev.map(|(start0, _, _)| start0);
        if stream.seen != Some(stream.window.epoch())
            || prev_start.is_some_and(|start0| stream.window.start() > start0)
        {
            stream.awake = true;
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
        // are rare (frames lost in transit), so drop the whole
        // cross-refresh memory rather than reason about partial validity.
        self.forget();
    }

    /// The newest tick for which *every* stream has data (streams drained
    /// to different points can only be analyzed up to the common prefix).
    pub fn common_end(&self) -> Option<Tick> {
        self.streams.list.iter().map(|s| s.window.end()).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::tests::*;
    use crate::analyzer::Root;
    use crate::graph::NodeLabels;
    use crate::pathmap::roots_from_topology;
    use e2eprof_xcorr::incremental::IncrementalCorrelator;
    use std::sync::mpsc::channel;

    /// A heal of a root's source stream drops every pair of that root and
    /// no other root's; a heal of a candidate edge drops that edge's pair
    /// from every root, and nothing else.
    #[test]
    fn a_heal_drops_the_pairs_that_read_the_healed_stream() {
        let (_tx, rx) = channel::<TracerFrame>();
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
            let (tx, rx) = channel();
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
        let window = |analyzer: &OnlineAnalyzer| window(analyzer, edge).series();
        assert_eq!(window(&v1), window(&v2));
        assert_eq!(window(&v1).end(), Tick::new(8_000));
    }
}
