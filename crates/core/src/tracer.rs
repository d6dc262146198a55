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

use crate::config::{PathmapConfig, WireVersion};
use crate::hashing::FxHashMap;
use crate::reduction::{effective_levels, HintState};
use bytes::Bytes;
use crossbeam::channel::Sender;
use e2eprof_netsim::capture::TraceKey;
use e2eprof_netsim::{CaptureStore, NodeId};
use e2eprof_timeseries::density::DensityEstimator;
use e2eprof_timeseries::{pyramid, wire, Nanos, RleSeries, Tick};
use std::collections::HashSet;

/// One message on the tracer→analyzer channel.
#[derive(Debug, Clone, PartialEq)]
pub enum TracerFrame {
    /// Wire-v1: one edge's RLE density chunk over `[previous drain tick,
    /// drain tick)`, encoded with [`wire::encode`].
    Series {
        /// The directed edge the series describes.
        edge: (NodeId, NodeId),
        /// Wire-encoded [`RleSeries`].
        payload: Bytes,
    },
    /// Wire-v2: every series one agent owns for one flush, batch-encoded
    /// with [`wire::encode_batch`] — the edges travel in-band as node
    /// indices.
    Batch {
        /// Wire-encoded batch frame.
        payload: Bytes,
    },
    /// Promote-triggered backfill: the retained fine window of an edge that
    /// just left decimation, batch-encoded like [`TracerFrame::Batch`]. The
    /// analyzer ingests it exactly like a batch; the distinct variant lets
    /// the transport and diagnostics tell warm-up traffic from steady-state
    /// streaming.
    Backfill {
        /// Wire-encoded batch frame carrying the fine retention window.
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
    /// agent owns — transport sinks forward the set to their broker; the
    /// in-process sink has no use for it.
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

/// Sentinel for [`StreamState::coarse_sent`]: no coarse block shipped yet
/// since this stream was last demoted.
const COARSE_UNSET: u64 = u64::MAX;

#[derive(Debug)]
struct StreamState {
    estimator: DensityEstimator,
    cursor: usize,
    drained_to: Tick,
    /// Effective decimation level from the latest analyzer hints: 0 means
    /// full resolution, `k ≥ 2` means ship √(count)-amplitude blocks of
    /// `k` fine ticks.
    level: u64,
    /// Contiguous fine runs retained while demoted, bounded to the
    /// retention span — the payload of a promote-triggered backfill.
    ring: Option<RleSeries>,
    /// Fine-tick watermark (block aligned) up to which coarse blocks have
    /// been shipped; [`COARSE_UNSET`] right after a demotion.
    coarse_sent: u64,
}

/// A tracer agent for one service node.
pub struct TracerAgent {
    node: NodeId,
    clients: HashSet<NodeId>,
    config: PathmapConfig,
    streams: FxHashMap<TraceKey, StreamState>,
    sink: Box<dyn FrameSink>,
    /// Wire-encoding buffer reused across frames; each poll encodes into
    /// it and ships an exact-size copy, so the agent's per-frame cost does
    /// not include growing a fresh vector.
    frame_buf: Vec<u8>,
    /// The streams this node owns, sorted — what it last announced to the
    /// sink — as of the capture edge set the agent last looked at
    /// (`edges_seen` edges): rebuilt only when that set has grown, not on
    /// every flush.
    owned: Vec<TraceKey>,
    edges_seen: usize,
    /// Frames handed to the sink over the agent's lifetime.
    frames_emitted: u64,
    /// Older frames the sink reported evicted under backpressure.
    frames_dropped: u64,
    /// Latest reduction snapshot per analyzer shard.
    hints: FxHashMap<u32, HintState>,
    /// Per-edge decimation levels merged from `hints`.
    levels: FxHashMap<(u32, u32), u64>,
    /// Backfill frames emitted on promote transitions.
    backfills_emitted: u64,
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
            streams: FxHashMap::default(),
            sink,
            frame_buf: Vec::new(),
            owned: Vec::new(),
            edges_seen: 0,
            frames_emitted: 0,
            frames_dropped: 0,
            hints: FxHashMap::default(),
            levels: FxHashMap::default(),
            backfills_emitted: 0,
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

    /// Backfill frames emitted on promote transitions over the agent's
    /// lifetime.
    pub fn backfills_emitted(&self) -> u64 {
        self.backfills_emitted
    }

    /// The effective decimation level this agent currently applies to
    /// `edge` (node-index pair): 0 = full resolution.
    pub fn effective_level(&self, edge: (u32, u32)) -> u64 {
        self.levels.get(&edge).copied().unwrap_or(0)
    }

    /// Fine ticks the retention ring spans: one analysis window plus the
    /// lag horizon, plus two refresh intervals of slack so the unshipped
    /// coarse tail never falls off before it is decimated.
    fn retention_ticks(&self) -> u64 {
        self.config.window_ticks() + self.config.max_lag() + 2 * self.config.refresh_ticks()
    }

    /// Applies one analyzer shard's reduction snapshot.
    ///
    /// Stores the snapshot (replacing this shard's previous one), merges
    /// all shards' snapshots into per-edge effective levels, and
    /// reconciles every live stream:
    ///
    /// * fine → demoted: the stream starts retaining fine runs and ships
    ///   only coarse blocks from the next [`poll`](TracerAgent::poll) on;
    /// * demoted → fine (*promote*): the retained fine window is shipped
    ///   immediately as one [`TracerFrame::Backfill`] so the analyzer's
    ///   fine correlator warms without waiting a full window;
    /// * level change while demoted: the coarse watermark realigns to the
    ///   new block size (the analyzer resets its coarse window on a level
    ///   mismatch anyway).
    ///
    /// Snapshots are full-state and idempotent — replaying the latest one
    /// after a reconnect converges to the same levels and emits no
    /// duplicate backfills.
    pub fn apply_hint_state(&mut self, state: &HintState) {
        self.hints.insert(state.shard, state.clone());
        self.levels = effective_levels(&self.hints);
        let mut emitted = 0u64;
        let mut dropped = 0u64;
        for (key, st) in self.streams.iter_mut() {
            let edge = (key.src.index() as u32, key.dst.index() as u32);
            let new_level = self.levels.get(&edge).copied().unwrap_or(0);
            if new_level == st.level {
                continue;
            }
            if new_level == 0 {
                // Promote: backfill the retained fine window, resume fine.
                if let Some(ring) = st.ring.take() {
                    if ring.support() > 0 {
                        let batch = [(edge, ring)];
                        wire::encode_batch_into(&batch, true, &mut self.frame_buf);
                        dropped += self.sink.send_frame(TracerFrame::Backfill {
                            payload: Bytes::copy_from_slice(&self.frame_buf),
                        });
                        emitted += 1;
                        self.backfills_emitted += 1;
                    }
                }
                st.coarse_sent = COARSE_UNSET;
            } else if st.level == 0 {
                // Fresh demotion: start retaining from the next poll.
                st.ring = None;
                st.coarse_sent = COARSE_UNSET;
            } else {
                // Demoted at a different factor: realign the watermark up
                // to the new block size; the skipped partial block is
                // never shipped mis-summed.
                if st.coarse_sent != COARSE_UNSET {
                    st.coarse_sent = st.coarse_sent.div_ceil(new_level) * new_level;
                }
            }
            st.level = new_level;
        }
        self.frames_emitted += emitted;
        self.frames_dropped += dropped;
    }

    /// Streams all series this agent owns up to tick `drain_to`.
    ///
    /// The caller guarantees that `capture` already contains every record
    /// this node will ever produce with local timestamp below
    /// `drain_to·τ + ω/2` (in practice: poll with `drain_to` at least
    /// `ω + max clock error` behind the current time).
    ///
    /// Every owned stream emits a frame per poll — possibly an empty chunk
    /// — so the analyzer's sliding windows stay contiguous. A stream is
    /// owned from the first poll after its edge first carried traffic, and
    /// its first chunk reaches back to tick zero, so nothing recorded
    /// before the agent noticed the edge is lost. An agent taps one
    /// capture for its whole life.
    ///
    /// The returned [`PollOutcome`] surfaces what happened at the sink
    /// boundary: [`Sent`](PollOutcome::Sent) when every emitted frame was
    /// admitted losslessly, [`Dropped`](PollOutcome::Dropped) when the
    /// sink evicted older queued frames under backpressure. Drops also
    /// accumulate in [`frames_dropped`](TracerAgent::frames_dropped) —
    /// backpressure is observable, never silent.
    pub fn poll(&mut self, capture: &CaptureStore, drain_to: Tick) -> PollOutcome {
        // Discover streams this node owns — only when the deployment's
        // edge set grew since the last look (it never shrinks), so a
        // steady-state flush does not walk every edge of every node.
        if capture.num_edges() != self.edges_seen {
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
            if owned != self.owned {
                let edges: Vec<(u32, u32)> = owned
                    .iter()
                    .map(|k| (k.src.index() as u32, k.dst.index() as u32))
                    .collect();
                self.sink.announce(&edges);
                self.owned = owned;
            }
        }
        let mut emitted = 0usize;
        let mut dropped = 0u64;

        let quanta = self.config.quanta();
        let omega = self.config.omega_ticks();
        let horizon = Nanos::from_nanos(
            drain_to.index() * quanta.duration().as_nanos()
                + omega * quanta.duration().as_nanos() / 2,
        );
        let batched = self.config.wire() == WireVersion::V2;
        let reduction = self.config.reduction().is_some();
        let retention = self.retention_ticks();
        let mut batch: Vec<((u32, u32), RleSeries)> = Vec::new();
        let mut leveled: Vec<((u32, u32), u64, RleSeries)> = Vec::new();
        // Lent out for the loop, which mutates the rest of `self`.
        let owned = std::mem::take(&mut self.owned);
        for &key in &owned {
            let edge = (key.src.index() as u32, key.dst.index() as u32);
            let initial_level = if reduction {
                self.levels.get(&edge).copied().unwrap_or(0)
            } else {
                0
            };
            let state = self.streams.entry(key).or_insert_with(|| StreamState {
                estimator: DensityEstimator::new(quanta, omega),
                cursor: 0,
                drained_to: Tick::ZERO,
                level: initial_level,
                ring: None,
                coarse_sent: COARSE_UNSET,
            });
            if drain_to <= state.drained_to && state.drained_to > Tick::ZERO {
                continue; // nothing new to drain for this stream
            }
            let new = capture.timestamps_since(key, state.cursor);
            let mut pushed = 0;
            for &ts in new {
                if ts >= horizon {
                    break;
                }
                state.estimator.push(ts);
                pushed += 1;
            }
            state.cursor += pushed;
            let chunk = state.estimator.drain_chunk(drain_to);
            state.drained_to = drain_to;
            if reduction && state.level > 0 {
                // Demoted: retain the fine chunk locally, ship only the
                // newly completed coarse blocks (if any are non-zero).
                let fine = chunk.to_rle();
                match &mut state.ring {
                    Some(ring) => ring.append_chunk(&fine),
                    None => state.ring = Some(fine),
                }
                let ring = state.ring.as_mut().expect("ring populated above");
                if ring.len() > retention {
                    let end = ring.end();
                    *ring = ring.slice(Tick::new(end.index() - retention), end);
                }
                let level = state.level;
                if state.coarse_sent == COARSE_UNSET || state.coarse_sent < ring.start().index() {
                    // Align up: a partial first block is skipped rather
                    // than shipped under-counted.
                    state.coarse_sent = ring.start().index().div_ceil(level) * level;
                }
                let complete_end = (drain_to.index() / level) * level;
                if complete_end > state.coarse_sent {
                    let fine_slice =
                        ring.slice(Tick::new(state.coarse_sent), Tick::new(complete_end));
                    state.coarse_sent = complete_end;
                    let coarse = pyramid::decimate_counts(&fine_slice, level);
                    // All-zero coarse chunks are suppressed outright; the
                    // analyzer's coarse store heals the gap by resetting.
                    if coarse.support() > 0 {
                        leveled.push((edge, level, coarse));
                    }
                }
                continue;
            }
            if batched {
                if reduction {
                    leveled.push((edge, 0, chunk.to_rle()));
                } else {
                    batch.push((edge, chunk.to_rle()));
                }
                continue;
            }
            wire::encode_into(&chunk.to_rle(), &mut self.frame_buf);
            let frame = TracerFrame::Series {
                edge: (key.src, key.dst),
                payload: Bytes::copy_from_slice(&self.frame_buf),
            };
            dropped += self.sink.send_frame(frame);
            emitted += 1;
        }
        self.owned = owned;
        if !batch.is_empty() {
            // One frame — and one allocation — per flush, not per edge.
            // Density amplitudes are √count, so the integer-amplitude
            // encoding is lossless here.
            wire::encode_batch_into(&batch, true, &mut self.frame_buf);
            dropped += self.sink.send_frame(TracerFrame::Batch {
                payload: Bytes::copy_from_slice(&self.frame_buf),
            });
            emitted += 1;
        }
        if !leveled.is_empty() {
            // Reduction path: fine (level 0) and coarse entries share one
            // level-tagged batch frame. Coarse amplitudes are √(block
            // count), so integer-amplitude coding stays lossless.
            wire::encode_batch_leveled_into(&leveled, true, &mut self.frame_buf);
            dropped += self.sink.send_frame(TracerFrame::Batch {
                payload: Bytes::copy_from_slice(&self.frame_buf),
            });
            emitted += 1;
        }
        self.frames_emitted += emitted as u64;
        self.frames_dropped += dropped;
        if dropped > 0 {
            PollOutcome::Dropped(dropped)
        } else {
            PollOutcome::Sent(emitted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use e2eprof_netsim::prelude::*;
    use e2eprof_netsim::Route;
    use e2eprof_timeseries::RleSeries;
    use std::collections::HashMap;

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
        let db = t.service("db", ServiceConfig::new(DelayDist::constant_millis(5)));
        let cli = t.client("cli", class, web, Workload::poisson(40.0));
        t.connect(cli, web, DelayDist::constant_millis(1));
        t.connect(web, db, DelayDist::constant_millis(1));
        t.route(web, class, Route::fixed(db));
        t.route(db, class, Route::terminal());
        Simulation::new(t.build().unwrap(), seed)
    }

    /// Decodes a frame of either wire version into `(edge, chunk)` pairs.
    fn decode_frame(frame: &TracerFrame) -> Vec<((NodeId, NodeId), RleSeries)> {
        match frame {
            TracerFrame::Series { edge, payload } => {
                vec![(*edge, wire::decode(payload).expect("decodable frame"))]
            }
            TracerFrame::Batch { payload } | TracerFrame::Backfill { payload } => {
                wire::decode_batch(payload)
                    .expect("decodable batch frame")
                    .into_iter()
                    .map(|((src, dst), chunk)| ((NodeId::new(src), NodeId::new(dst)), chunk))
                    .collect()
            }
        }
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
    fn v2_poll_coalesces_all_owned_edges_into_one_batch_frame() {
        let poll = |config: PathmapConfig| {
            let mut sim = two_tier(6);
            sim.run_until(Nanos::from_secs(5));
            let (tx, rx) = unbounded();
            let web = NodeId::new(0);
            let cli = NodeId::new(2);
            let mut agent = TracerAgent::new(web, HashSet::from([cli]), config, tx);
            agent.poll(sim.captures(), Tick::new(4_000));
            rx.try_iter().collect::<Vec<TracerFrame>>()
        };
        let v1 = poll(cfg());
        let v2 = poll(
            PathmapConfig::builder()
                .window(Nanos::from_secs(10))
                .refresh(Nanos::from_secs(2))
                .max_delay(Nanos::from_secs(1))
                .wire(WireVersion::V2)
                .build(),
        );
        assert_eq!(v1.len(), 3, "v1 ships one frame per owned edge");
        assert_eq!(v2.len(), 1, "v2 coalesces the flush into one frame");
        assert!(matches!(v2[0], TracerFrame::Batch { .. }));
        // The batch carries the same series, bit-for-bit.
        let sort = |mut v: Vec<((NodeId, NodeId), RleSeries)>| {
            v.sort_by_key(|&(edge, _)| edge);
            v
        };
        let from_v1 = sort(v1.iter().flat_map(decode_frame).collect());
        let from_v2 = sort(decode_frame(&v2[0]));
        assert_eq!(from_v1, from_v2);
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
        // web owns three edge streams, so one v1 poll emits three frames
        // into a one-slot sink: two evictions.
        let outcome = agent.poll(sim.captures(), Tick::new(4_000));
        assert_eq!(outcome, PollOutcome::Dropped(2));
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
        assert_eq!(outcome, PollOutcome::Sent(3));
        assert_eq!(agent.frames_dropped(), 0);
        assert_eq!(rx.try_iter().count(), 3);
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
