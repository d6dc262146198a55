//! Node-side tracer agents — the userspace analogue of the paper's
//! `tracer` kernel module.
//!
//! Each service node runs an agent that (1) taps the node's packet capture,
//! (2) converts message timestamps into the density time series on the
//! node itself (offloading the central analyzer, Section 3.6), (3)
//! run-length-encodes the series, and (4) streams wire-encoded chunks to
//! the analyzer every `ΔW`.
//!
//! Signal ownership follows the paper's conventions: a node streams the
//! *receiver-side* series of every edge arriving at it, plus the
//! *sender-side* series of its edges toward (untraced) client nodes.

use crate::config::PathmapConfig;
use bytes::Bytes;
use crossbeam::channel::Sender;
use e2eprof_netsim::capture::TraceKey;
use e2eprof_netsim::{CaptureStore, NodeId};
use e2eprof_timeseries::density::{CountRun, DensityEstimator};
use e2eprof_timeseries::{wire, Nanos, Tick};
use std::collections::HashSet;

/// One message on the tracer→analyzer channel.
#[derive(Debug, Clone, PartialEq)]
pub enum TracerFrame {
    /// Wire-v1: one edge's RLE density chunk, encoded with
    /// [`wire::encode`]. No producer in this repository — agents emit
    /// [`Batch`](TracerFrame::Batch) only; the variant and the arms that
    /// accept it stay for the readers that still match on it, and removal
    /// waits for a `benchmark` PR.
    Series {
        /// The directed edge the series describes.
        edge: (NodeId, NodeId),
        /// Wire-encoded [`RleSeries`](e2eprof_timeseries::RleSeries).
        payload: Bytes,
    },
    /// Every series one agent owns for one flush, over `[previous drain
    /// tick, drain tick)`, as one [`wire::BatchWriter`] frame — the edges
    /// travel in-band as node indices.
    Batch {
        /// Wire-encoded batch frame.
        payload: Bytes,
    },
    /// A batch-encoded frame like [`TracerFrame::Batch`]. No producer in
    /// this repository — it carried the edge-side reduction tier's
    /// backfills, which is gone; the analyzer ingests it exactly like a
    /// batch and the network link ships it as one. The variant stays for
    /// the end-to-end benchmark, which still matches on it; removal waits
    /// for a `benchmark` PR.
    Backfill {
        /// Wire-encoded batch frame.
        payload: Bytes,
    },
}

/// Where a tracer agent delivers its frames.
///
/// The in-process pipeline uses a channel ([`ChannelSink`]); the network
/// transport plugs in a socket-backed link. Either way the agent's
/// capture loop never blocks on a slow consumer: a sink under
/// backpressure admits the new frame and reports how many *older* queued
/// frames it evicted to make room.
pub trait FrameSink: Send {
    /// Delivers one frame. Returns the number of previously queued frames
    /// dropped under backpressure to admit it (0 when nothing was lost).
    fn send_frame(&mut self, frame: TracerFrame) -> u64;

    /// Tells the sink which directed edges (as node-index pairs) this
    /// agent owns. No sink in this repo reads it — every analyzer
    /// subscriber receives every stream — but the benchmark harness
    /// implements and calls it; removal waits for a `benchmark` PR.
    fn announce(&mut self, edges: &[(u32, u32)]) {
        let _ = edges;
    }
}

/// The in-process [`FrameSink`]: an unbounded channel straight into the
/// analyzer. Never drops; a disconnected receiver discards frames (the
/// tracer must not crash the node it runs on) without counting them as
/// backpressure drops.
#[derive(Debug, Clone)]
pub struct ChannelSink(pub Sender<TracerFrame>);

impl FrameSink for ChannelSink {
    fn send_frame(&mut self, frame: TracerFrame) -> u64 {
        let _ = self.0.send(frame);
        0
    }
}

/// What one [`TracerAgent::poll`] did at the sink boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollOutcome {
    /// Every frame emitted this poll was admitted without loss; the
    /// payload is the number of frames handed to the sink.
    Sent(usize),
    /// The sink evicted this many older queued frames under backpressure
    /// while admitting this poll's output.
    Dropped(u64),
}

#[derive(Debug)]
struct StreamState {
    /// The stream's directed edge as node indices — its key on the wire.
    edge: (u32, u32),
    estimator: DensityEstimator,
    /// Records of the capture already consumed.
    cursor: usize,
    drained_to: Tick,
}

/// A tracer agent for one service node.
pub struct TracerAgent {
    node: NodeId,
    clients: HashSet<NodeId>,
    config: PathmapConfig,
    /// The streams this node owns, sorted — what it last announced to the
    /// sink — as of the capture edge set the agent last looked at
    /// (`edges_seen` edges): rebuilt only when that set has grown, not on
    /// every flush.
    owned: Vec<TraceKey>,
    edges_seen: usize,
    /// Per-stream state, index-aligned with `owned`.
    streams: Vec<StreamState>,
    sink: Box<dyn FrameSink>,
    /// Wire-encoding buffer reused across flushes; each poll writes its
    /// batch into it and ships an exact-size copy — the one allocation of
    /// a steady-state flush.
    frame_buf: Vec<u8>,
    /// One stream's drained runs on their way into `frame_buf`, reused
    /// across streams and flushes.
    run_scratch: Vec<CountRun>,
    /// Frames handed to the sink over the agent's lifetime.
    frames_emitted: u64,
    /// Older frames the sink reported evicted under backpressure.
    frames_dropped: u64,
    /// Records skipped because they could no longer be represented.
    late_records: u64,
}

impl std::fmt::Debug for TracerAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracerAgent")
            .field("node", &self.node)
            .field("streams", &self.streams.len())
            .field("frames_emitted", &self.frames_emitted)
            .field("frames_dropped", &self.frames_dropped)
            .finish_non_exhaustive()
    }
}

impl TracerAgent {
    /// Creates an agent for `node` delivering over an in-process channel.
    /// `clients` are the untraced client nodes (the agent streams
    /// sender-side series for edges toward them).
    pub fn new(
        node: NodeId,
        clients: HashSet<NodeId>,
        config: PathmapConfig,
        tx: Sender<TracerFrame>,
    ) -> Self {
        TracerAgent::with_sink(node, clients, config, Box::new(ChannelSink(tx)))
    }

    /// Creates an agent delivering through an arbitrary [`FrameSink`] —
    /// the hook the network transport uses.
    pub fn with_sink(
        node: NodeId,
        clients: HashSet<NodeId>,
        config: PathmapConfig,
        sink: Box<dyn FrameSink>,
    ) -> Self {
        TracerAgent {
            node,
            clients,
            config,
            owned: Vec::new(),
            edges_seen: 0,
            streams: Vec::new(),
            sink,
            frame_buf: Vec::new(),
            run_scratch: Vec::new(),
            frames_emitted: 0,
            frames_dropped: 0,
            late_records: 0,
        }
    }

    /// The node this agent runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Frames handed to the sink over the agent's lifetime.
    pub fn frames_emitted(&self) -> u64 {
        self.frames_emitted
    }

    /// Older queued frames the sink reported dropped under backpressure.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped
    }

    /// Captured records the agent skipped because they were stamped behind
    /// a tick it had already drained, or behind an earlier record of the
    /// same stream (a stepped clock, a late capture). The density series
    /// cannot represent them any more; skipping keeps the node alive and
    /// this counter keeps the loss visible.
    pub fn late_records(&self) -> u64 {
        self.late_records
    }

    /// Looks for streams this node newly owns — only when the deployment's
    /// edge set grew since the last look (it never shrinks), so a
    /// steady-state flush does not walk every edge of every node.
    fn discover_streams(&mut self, capture: &CaptureStore) {
        if capture.num_edges() == self.edges_seen {
            return;
        }
        self.edges_seen = capture.num_edges();
        let mut owned: Vec<TraceKey> = Vec::new();
        for (src, dst) in capture.edges() {
            if dst == self.node {
                owned.push(TraceKey::at_receiver(src, dst));
            } else if src == self.node && self.clients.contains(&dst) {
                owned.push(TraceKey::at_sender(src, dst));
            }
        }
        owned.sort_unstable();
        if owned == self.owned {
            return;
        }
        let edges: Vec<(u32, u32)> = owned
            .iter()
            .map(|k| (k.src.index() as u32, k.dst.index() as u32))
            .collect();
        self.sink.announce(&edges);
        // Keep `streams` aligned with the grown key list: known streams
        // carry their state over, new ones start at tick zero.
        let mut known: Vec<Option<StreamState>> = std::mem::take(&mut self.streams)
            .into_iter()
            .map(Some)
            .collect();
        self.streams = owned
            .iter()
            .zip(edges)
            .map(|(key, edge)| match self.owned.binary_search(key) {
                Ok(i) => known[i].take().expect("owned keys are distinct"),
                Err(_) => StreamState {
                    edge,
                    estimator: DensityEstimator::new(
                        self.config.quanta(),
                        self.config.omega_ticks(),
                    ),
                    cursor: 0,
                    drained_to: Tick::ZERO,
                },
            })
            .collect();
        self.owned = owned;
    }

    /// Streams all series this agent owns up to tick `drain_to`.
    ///
    /// The caller guarantees that `capture` already contains every record
    /// this node will ever produce with local timestamp below
    /// `drain_to·τ + ω/2` (in practice: poll with `drain_to` at least
    /// `ω + max clock error` behind the current time). A record that
    /// breaks the guarantee — stamped behind a tick already drained — is
    /// skipped and counted in [`late_records`](TracerAgent::late_records):
    /// the tracer must not crash the node it runs on.
    ///
    /// A poll emits **one** frame: a [`TracerFrame::Batch`] with an entry
    /// — possibly an empty chunk — for every owned stream it drained, so
    /// the analyzer's sliding windows stay contiguous. A stream is
    /// owned from the first poll after its edge first carried traffic, and
    /// its first chunk reaches back to tick zero, so nothing recorded
    /// before the agent noticed the edge is lost. An agent taps one
    /// capture for its whole life.
    ///
    /// The cost of a flush is proportional to the records it consumes plus
    /// the streams the agent owns — not to the ticks it covers: each
    /// stream's count runs go from its estimator through one reused
    /// scratch vector into one reused frame buffer, and the only
    /// allocation in steady state is the frame handed to the sink.
    ///
    /// The returned [`PollOutcome`] surfaces what happened at the sink
    /// boundary: [`Sent`](PollOutcome::Sent) when the frame was admitted
    /// losslessly, [`Dropped`](PollOutcome::Dropped) when the sink evicted
    /// older queued frames under backpressure. Drops also accumulate in
    /// [`frames_dropped`](TracerAgent::frames_dropped) — backpressure is
    /// observable, never silent.
    pub fn poll(&mut self, capture: &CaptureStore, drain_to: Tick) -> PollOutcome {
        self.discover_streams(capture);

        let tau = self.config.quanta().duration().as_nanos();
        let horizon =
            Nanos::from_nanos(drain_to.index() * tau + self.config.omega_ticks() * tau / 2);
        // Density amplitudes are √count, so the integer-amplitude coding is
        // lossless here.
        let mut writer = wire::BatchWriter::new(&mut self.frame_buf, true);
        for (&key, state) in self.owned.iter().zip(&mut self.streams) {
            if drain_to <= state.drained_to && state.drained_to > Tick::ZERO {
                continue; // nothing new to drain for this stream
            }
            let mut taken = 0;
            for &ts in capture.timestamps_since(key, state.cursor) {
                if ts >= horizon {
                    break;
                }
                if state.estimator.try_push(ts).is_err() {
                    self.late_records += 1;
                }
                taken += 1;
            }
            state.cursor += taken;
            let start = state.drained_to;
            let len = drain_to.index() - start.index();
            state.estimator.drain_runs(drain_to, &mut self.run_scratch);
            state.drained_to = drain_to;
            writer.count_runs(state.edge, start, len, &self.run_scratch);
        }
        // A poll that drained nothing (a repeat at the same tick) has
        // nothing to say.
        if writer.finish() == 0 {
            return PollOutcome::Sent(0);
        }
        let dropped = self.sink.send_frame(TracerFrame::Batch {
            payload: Bytes::copy_from_slice(&self.frame_buf),
        });
        self.frames_emitted += 1;
        self.frames_dropped += dropped;
        if dropped > 0 {
            PollOutcome::Dropped(dropped)
        } else {
            PollOutcome::Sent(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::tests::cfg;
    use crossbeam::channel::unbounded;
    use e2eprof_netsim::prelude::*;
    use e2eprof_netsim::Route;
    use e2eprof_timeseries::RleSeries;
    use std::collections::HashMap;

    fn two_tier(seed: u64) -> Simulation {
        let mut t = TopologyBuilder::new();
        let class = t.service_class("c");
        let web = t.service("web", ServiceConfig::new(DelayDist::constant_millis(2)));
        let db = t.service("db", ServiceConfig::new(DelayDist::constant_millis(5)));
        let cli = t.client("cli", class, web, Workload::poisson(40.0));
        t.connect(cli, web, DelayDist::constant_millis(1));
        t.connect(web, db, DelayDist::constant_millis(1));
        t.route(web, class, Route::fixed(db));
        t.route(db, class, Route::terminal());
        Simulation::new(t.build().unwrap(), seed)
    }

    /// Decodes an emitted frame into `(edge, chunk)` pairs.
    fn decode_frame(frame: &TracerFrame) -> Vec<((NodeId, NodeId), RleSeries)> {
        let TracerFrame::Batch { payload } = frame else {
            unreachable!("agents emit batches only");
        };
        wire::decode_batch(payload)
            .expect("decodable batch frame")
            .into_iter()
            .map(|((src, dst), chunk)| ((NodeId::new(src), NodeId::new(dst)), chunk))
            .collect()
    }

    #[test]
    fn agent_streams_owned_edges_only() {
        let mut sim = two_tier(1);
        sim.run_until(Nanos::from_secs(5));
        let (tx, rx) = unbounded();
        let web = NodeId::new(0);
        let cli = NodeId::new(2);
        let mut agent = TracerAgent::new(web, HashSet::from([cli]), cfg(), tx);
        agent.poll(sim.captures(), Tick::new(4_000));
        let frames: Vec<TracerFrame> = rx.try_iter().collect();
        let mut edges: Vec<(NodeId, NodeId)> = frames
            .iter()
            .flat_map(decode_frame)
            .map(|(edge, _)| edge)
            .collect();
        edges.sort_unstable();
        // web owns: cli->web (recv), db->web (recv), web->cli (send).
        let db = NodeId::new(1);
        assert_eq!(edges, vec![(web, cli), (db, web), (cli, web)]);
    }

    #[test]
    fn chunks_are_contiguous_and_decodable() {
        let mut sim = two_tier(2);
        let (tx, rx) = unbounded();
        let web = NodeId::new(0);
        let cli = NodeId::new(2);
        let mut agent = TracerAgent::new(web, HashSet::from([cli]), cfg(), tx);
        let mut assembled: HashMap<(NodeId, NodeId), RleSeries> = HashMap::new();
        for step in 1..=5u64 {
            sim.run_until(Nanos::from_secs(step * 2));
            // Drain 1s behind the simulation clock (≫ ω = 50 ms).
            agent.poll(sim.captures(), Tick::new(step * 2_000 - 1_000));
            for frame in rx.try_iter() {
                for (edge, chunk) in decode_frame(&frame) {
                    match assembled.get_mut(&edge) {
                        None => {
                            assembled.insert(edge, chunk);
                        }
                        Some(series) => series.append_chunk(&chunk), // panics if gap
                    }
                }
            }
        }
        let db = NodeId::new(1);
        let series = &assembled[&(cli, web)];
        assert_eq!(series.end(), Tick::new(9_000));
        assert!(series.support() > 0, "client arrivals must show up");
        assert!(assembled.contains_key(&(db, web)));
    }

    #[test]
    fn poll_emits_one_batch_frame_whatever_the_edge_count() {
        let mut sim = two_tier(6);
        sim.run_until(Nanos::from_secs(5));
        let (web, db, cli) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        // web owns three streams, db one; each poll is one frame.
        for (node, streams) in [(web, 3), (db, 1)] {
            let (tx, rx) = unbounded();
            let mut agent = TracerAgent::new(node, HashSet::from([cli]), cfg(), tx);
            for drain in [2_000, 4_000] {
                assert_eq!(
                    agent.poll(sim.captures(), Tick::new(drain)),
                    PollOutcome::Sent(1)
                );
                let frames: Vec<TracerFrame> = rx.try_iter().collect();
                assert_eq!(frames.len(), 1);
                assert!(matches!(frames[0], TracerFrame::Batch { .. }));
                assert_eq!(decode_frame(&frames[0]).len(), streams);
            }
            assert_eq!(agent.frames_emitted(), 2);
        }
    }

    #[test]
    fn all_idle_poll_still_advances_every_window() {
        // Traffic stops at 5 s; polls far past it find nothing to ship,
        // yet every owned stream gets its (empty) entry so the analyzer's
        // windows keep moving.
        let mut sim = two_tier(6);
        sim.run_until(Nanos::from_secs(5));
        let (tx, rx) = unbounded();
        let (web, cli) = (NodeId::new(0), NodeId::new(2));
        let mut agent = TracerAgent::new(web, HashSet::from([cli]), cfg(), tx);
        agent.poll(sim.captures(), Tick::new(8_000));
        rx.try_iter().for_each(drop);
        agent.poll(sim.captures(), Tick::new(9_000));
        let frames: Vec<TracerFrame> = rx.try_iter().collect();
        assert_eq!(frames.len(), 1, "an idle flush is still one frame");
        let entries = decode_frame(&frames[0]);
        assert_eq!(entries.len(), 3);
        for (edge, chunk) in entries {
            assert_eq!(
                (chunk.start(), chunk.end(), chunk.num_runs()),
                (Tick::new(8_000), Tick::new(9_000), 0),
                "edge {edge:?}"
            );
        }
    }

    #[test]
    fn late_record_is_skipped_and_counted_not_fatal() {
        let (web, cli) = (NodeId::new(0), NodeId::new(2));
        let mut capture = CaptureStore::new();
        capture.record(web, cli, web, Nanos::from_millis(100), 1);
        let (tx, rx) = unbounded();
        let mut agent = TracerAgent::new(web, HashSet::new(), cfg(), tx);
        agent.poll(&capture, Tick::new(1_000));
        // Stamped below the horizon the agent already drained to (a
        // stepped clock, a late capture), followed by a healthy record.
        capture.record(web, cli, web, Nanos::from_millis(500), 1);
        capture.record(web, cli, web, Nanos::from_millis(1_500), 1);
        agent.poll(&capture, Tick::new(2_000));
        assert_eq!(agent.late_records(), 1);
        let chunks: Vec<RleSeries> = rx
            .try_iter()
            .flat_map(|f| decode_frame(&f))
            .map(|(_, chunk)| chunk)
            .collect();
        assert_eq!(chunks.len(), 2);
        let mut assembled = chunks[0].clone();
        assembled.append_chunk(&chunks[1]); // panics on a gap
        assert_eq!(assembled.end(), Tick::new(2_000));
        assert_eq!(
            assembled.value_at(Tick::new(500)),
            0.0,
            "the late record is gone"
        );
        assert_eq!(
            assembled.value_at(Tick::new(1_500)),
            1.0,
            "later records stream"
        );
        // The skipped record was consumed, not retried forever.
        agent.poll(&capture, Tick::new(3_000));
        assert_eq!(agent.late_records(), 1);
    }

    #[test]
    fn repeated_poll_at_same_tick_is_idempotent() {
        let mut sim = two_tier(3);
        sim.run_until(Nanos::from_secs(4));
        let (tx, rx) = unbounded();
        let web = NodeId::new(0);
        let mut agent = TracerAgent::new(web, HashSet::new(), cfg(), tx);
        agent.poll(sim.captures(), Tick::new(3_000));
        let first: Vec<_> = rx.try_iter().collect();
        agent.poll(sim.captures(), Tick::new(3_000));
        let second: Vec<_> = rx.try_iter().collect();
        assert!(!first.is_empty());
        assert!(second.is_empty(), "no duplicate frames for the same tick");
    }

    #[test]
    fn dropped_receiver_does_not_panic() {
        let mut sim = two_tier(4);
        sim.run_until(Nanos::from_secs(3));
        let (tx, rx) = unbounded();
        drop(rx);
        let web = NodeId::new(0);
        let mut agent = TracerAgent::new(web, HashSet::new(), cfg(), tx);
        agent.poll(sim.captures(), Tick::new(2_000)); // must not panic
    }

    /// A sink holding at most one frame: every admission past the first
    /// evicts the queued frame — the smallest honest backpressure model.
    struct OneSlotSink {
        queued: bool,
    }

    impl FrameSink for OneSlotSink {
        fn send_frame(&mut self, _frame: TracerFrame) -> u64 {
            let dropped = u64::from(self.queued);
            self.queued = true;
            dropped
        }
    }

    #[test]
    fn poll_surfaces_backpressure_drops_in_outcome_and_counters() {
        // Regression: poll used to `let _ =` the send, so a slow consumer
        // lost frames invisibly. Now the outcome and the agent counters
        // must both record every eviction.
        let mut sim = two_tier(8);
        sim.run_until(Nanos::from_secs(5));
        let web = NodeId::new(0);
        let cli = NodeId::new(2);
        let mut agent = TracerAgent::with_sink(
            web,
            HashSet::from([cli]),
            cfg(),
            Box::new(OneSlotSink { queued: false }),
        );
        // A poll is one frame, so the one-slot sink holds the first
        // without loss; each later poll evicts its predecessor.
        assert_eq!(
            agent.poll(sim.captures(), Tick::new(2_000)),
            PollOutcome::Sent(1)
        );
        for drain in [3_000, 4_000] {
            let outcome = agent.poll(sim.captures(), Tick::new(drain));
            assert_eq!(outcome, PollOutcome::Dropped(1));
        }
        assert_eq!(agent.frames_emitted(), 3);
        assert_eq!(agent.frames_dropped(), 2);
    }

    #[test]
    fn lossless_poll_reports_sent_count() {
        let mut sim = two_tier(8);
        sim.run_until(Nanos::from_secs(5));
        let (tx, rx) = unbounded();
        let web = NodeId::new(0);
        let cli = NodeId::new(2);
        let mut agent = TracerAgent::new(web, HashSet::from([cli]), cfg(), tx);
        let outcome = agent.poll(sim.captures(), Tick::new(4_000));
        assert_eq!(outcome, PollOutcome::Sent(1));
        assert_eq!(agent.frames_dropped(), 0);
        assert_eq!(rx.try_iter().count(), 1);
    }

    /// Records announced edge sets for assertion.
    type AnnounceLog = std::sync::Arc<std::sync::Mutex<Vec<Vec<(u32, u32)>>>>;
    struct AnnounceProbe(AnnounceLog);

    impl FrameSink for AnnounceProbe {
        fn send_frame(&mut self, _frame: TracerFrame) -> u64 {
            0
        }

        fn announce(&mut self, edges: &[(u32, u32)]) {
            self.0.lock().expect("probe lock").push(edges.to_vec());
        }
    }

    /// Logs announcements like [`AnnounceProbe`] and forwards frames.
    struct AnnounceAndForward(AnnounceLog, Sender<TracerFrame>);

    impl FrameSink for AnnounceAndForward {
        fn send_frame(&mut self, frame: TracerFrame) -> u64 {
            let _ = self.1.send(frame);
            0
        }

        fn announce(&mut self, edges: &[(u32, u32)]) {
            self.0.lock().expect("probe lock").push(edges.to_vec());
        }
    }

    #[test]
    fn edge_appearing_mid_run_is_announced_once_and_streamed_from_its_first_record() {
        let (web, db, cli) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let mut capture = CaptureStore::new();
        capture.record(web, cli, web, Nanos::from_millis(100), 1);
        let log: AnnounceLog = Default::default();
        let (tx, rx) = unbounded();
        let mut agent = TracerAgent::with_sink(
            web,
            HashSet::from([cli]),
            cfg(),
            Box::new(AnnounceAndForward(log.clone(), tx)),
        );
        let announces = || log.lock().expect("probe lock").clone();

        agent.poll(&capture, Tick::new(1_000));
        assert_eq!(announces(), vec![vec![(2, 0)]]);
        // More traffic on the known edge: the capture's edge set did not
        // grow, so nothing is re-announced.
        capture.record(web, cli, web, Nanos::from_millis(1_500), 1);
        agent.poll(&capture, Tick::new(2_000));
        assert_eq!(announces().len(), 1, "unchanged edge set re-announced");
        rx.try_iter().for_each(drop);

        // db -> web first carries traffic only now.
        capture.record(web, db, web, Nanos::from_millis(2_500), 1);
        agent.poll(&capture, Tick::new(3_000));
        assert_eq!(announces(), vec![vec![(2, 0)], vec![(1, 0), (2, 0)]]);
        let chunks: Vec<_> = rx.try_iter().flat_map(|f| decode_frame(&f)).collect();
        let (_, first) = chunks
            .iter()
            .find(|(edge, _)| *edge == (db, web))
            .expect("new edge streamed on the poll that discovered it");
        // Its first chunk reaches back to tick zero and holds the record
        // that made the edge appear (smeared over ω around tick 2500).
        assert_eq!((first.start(), first.end()), (Tick::ZERO, Tick::new(3_000)));
        assert!(first.value_at(Tick::new(2_500)) > 0.0);

        agent.poll(&capture, Tick::new(4_000));
        assert_eq!(announces().len(), 2, "stable edge set re-announced");
    }

    #[test]
    fn agent_announces_owned_edges_once_until_they_change() {
        let mut sim = two_tier(8);
        sim.run_until(Nanos::from_secs(5));
        let web = NodeId::new(0);
        let cli = NodeId::new(2);
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut agent = TracerAgent::with_sink(
            web,
            HashSet::from([cli]),
            cfg(),
            Box::new(AnnounceProbe(log.clone())),
        );
        agent.poll(sim.captures(), Tick::new(3_000));
        agent.poll(sim.captures(), Tick::new(4_000));
        let announces = log.lock().expect("probe lock").clone();
        assert_eq!(announces.len(), 1, "stable edge set announced once");
        // web's owned streams: web->cli (send), db->web and cli->web (recv).
        assert_eq!(announces[0], vec![(0, 2), (1, 0), (2, 0)]);
    }
}
