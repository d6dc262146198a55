//! Pipeline assembly and the closed-loop replay.
//!
//! The pipeline is put together from the same public parts
//! `e2eprof_net::PipelineBuilder::build` uses — `TracerAgent`,
//! `TracerLink`, `BrokerHandle`, `AnalyzerConn`, `OnlineAnalyzer` — so
//! the harness can drive several flushes per refresh and stand at every
//! layer boundary, neither of which `DistributedPipeline::step` allows.
//!
//! One *step* is one refresh interval `ΔW`: `F` tracer flushes (every
//! agent polled to `F` successive drain ticks), then every shard ingests
//! exactly the frames written and refreshes, and the per-shard graphs are
//! concatenated in shard order. The driver is single-threaded and closed
//! loop: a step starts when the previous one has published.

use crate::trace::{SpanId, Trace};
use crate::workloads::{Capture, Link, Spec, DRAIN_LAG_MS, OMEGA_TICKS, QUANTA_MS};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use e2eprof_core::analyzer::OnlineAnalyzer;
use e2eprof_core::config::PathmapConfig;
use e2eprof_core::graph::{NodeLabels, ServiceGraph};
use e2eprof_core::parallel::shard_ranges;
use e2eprof_core::pathmap::roots_from_topology;
use e2eprof_core::tracer::{ChannelSink, FrameSink, TracerAgent, TracerFrame};
use e2eprof_net::stream::{Dialer, NetStream};
use e2eprof_net::{
    AnalyzerConn, BoundEndpoint, BrokerConfig, BrokerHandle, CountingAcceptor, Endpoint,
    IoCounters, LinkConfig, TracerLink,
};
use e2eprof_netsim::capture::TraceKey;
use e2eprof_netsim::{CaptureStore, NodeId};
use e2eprof_timeseries::{Nanos, Tick};
use std::collections::HashSet;
use std::io::{IoSlice, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one replay pass will do, worked out from the capture before any
/// timing starts: the same for every pass over the same capture.
#[derive(Debug)]
pub struct Plan {
    /// The workload.
    pub spec: Spec,
    /// Its analysis configuration.
    pub config: PathmapConfig,
    /// Pathmap roots `(client, front end)` in global root order.
    pub roots: Vec<(NodeId, NodeId)>,
    /// The streams agents own: receiver side of every edge into a
    /// service, sender side of every edge toward an (untraced) client.
    pub owned: Vec<TraceKey>,
    /// Records the agents consume in step `i + 1` (capture timestamps
    /// that fall below the step's last drain horizon and above the
    /// previous step's).
    pub records: Vec<u64>,
    /// Indices into `roots` of the clients with traffic inside step
    /// `i + 1`'s analysis window — the graphs that step must publish.
    /// Empty while the window is not yet full.
    pub active: Vec<Vec<usize>>,
}

impl Plan {
    /// Works the plan out for `spec` over `capture`.
    pub fn new(spec: Spec, capture: &Capture) -> Plan {
        let config = spec.config();
        let sim = capture.sim();
        let roots = roots_from_topology(sim.topology());
        let clients: HashSet<NodeId> = sim.topology().clients().into_iter().collect();
        let store = sim.captures();
        let owned: Vec<TraceKey> = store
            .edges()
            .map(|(src, dst)| {
                if clients.contains(&dst) {
                    TraceKey::at_sender(src, dst)
                } else {
                    TraceKey::at_receiver(src, dst)
                }
            })
            .collect();
        let below = |key: TraceKey, t: Nanos| store.timestamps(key).partition_point(|&ts| ts < t);
        let mut records = Vec::new();
        let mut active = Vec::new();
        let mut consumed = 0u64;
        for step in 1..=spec.steps() {
            let drain_ms = (step * spec.refresh_ms).saturating_sub(DRAIN_LAG_MS);
            let horizon = Plan::horizon(Tick::new(drain_ms / QUANTA_MS));
            let upto: u64 = owned.iter().map(|&k| below(k, horizon) as u64).sum();
            records.push(upto - consumed);
            consumed = upto;

            let span_ms = (spec.window_secs + spec.max_delay_secs) * 1_000;
            let mut live = Vec::new();
            if drain_ms >= span_ms {
                let end = Nanos::from_millis(drain_ms - spec.max_delay_secs * 1_000);
                let start = Nanos::from_millis(drain_ms - span_ms);
                for (i, &(client, front)) in roots.iter().enumerate() {
                    let key = TraceKey::at_receiver(client, front);
                    if below(key, end) > below(key, start) {
                        live.push(i);
                    }
                }
            }
            active.push(live);
        }
        Plan {
            spec,
            config,
            roots,
            owned,
            records,
            active,
        }
    }

    /// The drain ticks of step `step` (1-based), one per flush: agents
    /// drain [`DRAIN_LAG_MS`] behind the flush's clock. Flushes that early
    /// in a run that there is nothing to drain yet are left out.
    pub fn drains(&self, step: u64) -> impl Iterator<Item = Tick> + '_ {
        let spec = &self.spec;
        (1..=spec.flushes_per_step)
            .map(move |flush| {
                let at_ms =
                    (step - 1) * spec.refresh_ms + flush * spec.refresh_ms / spec.flushes_per_step;
                Tick::new(at_ms.saturating_sub(DRAIN_LAG_MS) / QUANTA_MS)
            })
            .filter(|&drain| drain > Tick::ZERO)
    }

    /// The capture time below which an agent draining to `drain` takes
    /// records: `drain·τ + ω/2` (the documented `TracerAgent::poll`
    /// contract).
    pub fn horizon(drain: Tick) -> Nanos {
        Nanos::from_millis(drain.index() * QUANTA_MS + OMEGA_TICKS * QUANTA_MS / 2)
    }

    /// The wall-clock label of step `step`.
    fn now(&self, step: u64) -> Nanos {
        Nanos::from_millis(step * self.spec.refresh_ms)
    }
}

/// Byte counts at the tracer's sink boundary, shared between the counting
/// wrappers and the driver.
#[derive(Debug, Default)]
pub struct SinkCounters {
    /// Wire-payload bytes of those frames.
    pub payload_bytes: AtomicU64,
    /// Bytes tracer links wrote to their sockets: payloads, transport
    /// envelopes and the Hello/Announce preamble. Zero in process.
    pub socket_bytes: AtomicU64,
}

/// The wire payload of a frame of any kind.
pub fn payload(frame: &TracerFrame) -> &Bytes {
    match frame {
        TracerFrame::Series { payload, .. }
        | TracerFrame::Batch { payload }
        | TracerFrame::Backfill { payload } => payload,
    }
}

/// A pass-through [`FrameSink`] that counts payload bytes on their way
/// into the real sink.
struct CountedSink<S> {
    inner: S,
    counters: Arc<SinkCounters>,
}

impl<S: FrameSink> FrameSink for CountedSink<S> {
    fn send_frame(&mut self, frame: TracerFrame) -> u64 {
        self.counters
            .payload_bytes
            .fetch_add(payload(&frame).len() as u64, Ordering::Relaxed);
        self.inner.send_frame(frame)
    }

    fn announce(&mut self, edges: &[(u32, u32)]) {
        self.inner.announce(edges);
    }
}

/// What an agent handed its sink during a traced poll.
enum Outgoing {
    Announce(Vec<(u32, u32)>),
    Frame(TracerFrame),
}

/// The traced run's sink: keeps everything the agent emits so `poll` is
/// timed on its own; the driver then feeds the real sink itself.
struct CollectingSink {
    agent: usize,
    outbox: Arc<Mutex<Vec<(usize, Outgoing)>>>,
}

impl FrameSink for CollectingSink {
    fn send_frame(&mut self, frame: TracerFrame) -> u64 {
        self.outbox
            .lock()
            .expect("outbox lock: the driver is single-threaded")
            .push((self.agent, Outgoing::Frame(frame)));
        0
    }

    fn announce(&mut self, edges: &[(u32, u32)]) {
        self.outbox
            .lock()
            .expect("outbox lock: the driver is single-threaded")
            .push((self.agent, Outgoing::Announce(edges.to_vec())));
    }
}

/// A [`Dialer`] whose connections count the bytes written through them —
/// the exact on-the-wire cost of a tracer link, envelope included.
struct CountingDialer {
    inner: Box<dyn Dialer>,
    counters: Arc<SinkCounters>,
}

struct CountingConn {
    inner: Box<dyn NetStream>,
    counters: Arc<SinkCounters>,
}

impl Dialer for CountingDialer {
    fn dial(&self) -> std::io::Result<Box<dyn NetStream>> {
        Ok(Box::new(CountingConn {
            inner: self.inner.dial()?,
            counters: Arc::clone(&self.counters),
        }))
    }
}

impl Read for CountingConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for CountingConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counters
            .socket_bytes
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        let n = self.inner.write_vectored(bufs)?;
        self.counters
            .socket_bytes
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl NetStream for CountingConn {
    fn shutdown_stream(&mut self) {
        self.inner.shutdown_stream();
    }

    fn vectored_writes(&self) -> bool {
        self.inner.vectored_writes()
    }
}

/// The socket tier of a TCP workload.
struct Net {
    broker: BrokerHandle,
    conns: Vec<AnalyzerConn>,
    /// Per tracer link: data frames fully written to the broker.
    delivered: Vec<Arc<AtomicU64>>,
    /// Per tracer link: reconnects.
    redials: Vec<Arc<AtomicU64>>,
    /// Broker-side write calls (traced runs only; `None` untraced).
    broker_io: Option<Arc<IoCounters>>,
    /// Dropped last: the listener outlives every connection.
    _endpoint: BoundEndpoint,
}

/// The harness side of a traced pipeline: the real sinks, fed by the
/// driver between spans.
struct Taps {
    outbox: Arc<Mutex<Vec<(usize, Outgoing)>>>,
    /// Per agent, the link the driver sends through (TCP only).
    links: Vec<TracerLink>,
    /// Per shard, the receiver the broker connection delivers to (TCP
    /// only) — the driver drains it to time the relay.
    arrivals: Vec<Receiver<TracerFrame>>,
    /// Per shard, the channel its analyzer ingests from.
    feeds: Vec<Sender<TracerFrame>>,
}

/// What one step did.
#[derive(Debug, Default)]
pub struct StepSample {
    /// First poll to last refresh returning, nanoseconds.
    pub wall_ns: u64,
    /// Inside `TracerAgent::poll` (all agents, all flushes), nanoseconds.
    pub poll_ns: u64,
    /// Frames written to the transport but not ingested by some shard.
    pub lost: u64,
    /// The merged graphs, in shard order.
    pub graphs: Vec<ServiceGraph>,
    /// Traced runs: time inside `TracerLink::send_frame`/`announce`.
    pub link_ns: u64,
    /// Traced TCP runs: last send returning → every shard holding the
    /// whole step.
    pub relay_ns: u64,
    /// Traced TCP runs: first shard complete → last shard complete.
    pub skew_ns: u64,
    /// Traced runs: inside `OnlineAnalyzer::ingest`, all shards.
    pub ingest_ns: u64,
    /// Traced runs: inside `OnlineAnalyzer::refresh`, all shards.
    pub refresh_ns: u64,
}

/// An assembled pipeline over one capture, replayed step by step.
pub struct Pipeline<'a> {
    plan: &'a Plan,
    store: &'a CaptureStore,
    agents: Vec<TracerAgent>,
    shards: Vec<OnlineAnalyzer>,
    net: Option<Net>,
    taps: Option<Taps>,
    /// Sink-boundary counters.
    pub counters: Arc<SinkCounters>,
    /// Frames accounted for as written at the end of the previous step.
    written: u64,
}

impl<'a> Pipeline<'a> {
    /// Assembles the pipeline `plan.spec` describes over `capture`. With
    /// `traced`, agents emit into a collecting sink and the driver stands
    /// between them and the real sinks; otherwise agents are wired
    /// straight through and analyzers read their transport directly.
    pub fn build(plan: &'a Plan, capture: &'a Capture, traced: bool) -> Pipeline<'a> {
        let sim = capture.sim();
        let topo = sim.topology();
        let config = &plan.config;
        let clients: HashSet<NodeId> = topo.clients().into_iter().collect();
        let universe: HashSet<NodeId> = plan.roots.iter().map(|&(c, _)| c).collect();
        let labels = NodeLabels::from_topology(topo);
        let counters = Arc::new(SinkCounters::default());
        let outbox = Arc::new(Mutex::new(Vec::new()));
        let services = topo.services();

        let mut sinks: Vec<Box<dyn FrameSink>> = Vec::new();
        let mut links = Vec::new();
        let mut arrivals = Vec::new();
        let mut feeds = Vec::new();
        let mut shards = Vec::new();
        let mut net = None;

        match plan.spec.link {
            Link::InProcess => {
                let (tx, rx) = unbounded();
                for agent in 0..services.len() {
                    sinks.push(if traced {
                        Box::new(CollectingSink {
                            agent,
                            outbox: Arc::clone(&outbox),
                        })
                    } else {
                        Box::new(CountedSink {
                            inner: ChannelSink(tx.clone()),
                            counters: Arc::clone(&counters),
                        })
                    });
                }
                feeds.push(tx);
                shards.push(OnlineAnalyzer::new(
                    config.clone(),
                    plan.roots.clone(),
                    labels,
                    rx,
                ));
            }
            Link::Tcp { shards: count } => {
                // Same link and broker settings as `PipelineBuilder::new`.
                let link_config = LinkConfig::immediate();
                let endpoint = Endpoint::Tcp.bind().expect("bind loopback TCP");
                let broker_io = traced.then(IoCounters::shared);
                let acceptor = match &broker_io {
                    Some(io) => {
                        Arc::new(CountingAcceptor::new(endpoint.acceptor(), Arc::clone(io))) as _
                    }
                    None => endpoint.acceptor(),
                };
                let broker = BrokerHandle::spawn(
                    acceptor,
                    BrokerConfig {
                        ring_capacity: 1 << 16,
                    },
                );
                let mut delivered = Vec::new();
                let mut redials = Vec::new();
                for (agent, node) in services.iter().enumerate() {
                    let dialer = Box::new(CountingDialer {
                        inner: endpoint.dialer(),
                        counters: Arc::clone(&counters),
                    });
                    let link = TracerLink::new(node.index() as u32, dialer, link_config.clone());
                    delivered.push(link.delivered_handle());
                    redials.push(link.redials_handle());
                    if traced {
                        links.push(link);
                        sinks.push(Box::new(CollectingSink {
                            agent,
                            outbox: Arc::clone(&outbox),
                        }));
                    } else {
                        sinks.push(Box::new(CountedSink {
                            inner: link,
                            counters: Arc::clone(&counters),
                        }));
                    }
                }
                let ranges = shard_ranges(plan.roots.len(), count);
                let of = ranges.len().max(1) as u32;
                let mut conns = Vec::new();
                for (i, range) in ranges.into_iter().enumerate() {
                    let (conn, rx) =
                        AnalyzerConn::spawn(endpoint.dialer(), i as u32, of, link_config.clone());
                    conns.push(conn);
                    let rx = if traced {
                        let (tx, own) = unbounded();
                        arrivals.push(rx);
                        feeds.push(tx);
                        own
                    } else {
                        rx
                    };
                    shards.push(OnlineAnalyzer::with_universe(
                        config.clone(),
                        plan.roots[range].to_vec(),
                        universe.clone(),
                        labels.clone(),
                        rx,
                    ));
                }
                net = Some(Net {
                    broker,
                    conns,
                    delivered,
                    redials,
                    broker_io,
                    _endpoint: endpoint,
                });
            }
        }

        let agents = services
            .iter()
            .zip(sinks)
            .map(|(&node, sink)| {
                TracerAgent::with_sink(node, clients.clone(), config.clone(), sink)
            })
            .collect();
        Pipeline {
            plan,
            store: sim.captures(),
            agents,
            shards,
            net,
            taps: traced.then_some(Taps {
                outbox,
                links,
                arrivals,
                feeds,
            }),
            counters,
            written: 0,
        }
    }

    /// Frames fully handed to the transport so far: written to the
    /// broker over TCP, emitted into the channel in process.
    fn frames_written(&self) -> u64 {
        match &self.net {
            Some(net) => net
                .delivered
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .sum(),
            None => self.frames_emitted(),
        }
    }

    /// Frames the agents handed to their sinks so far.
    pub fn frames_emitted(&self) -> u64 {
        self.agents.iter().map(TracerAgent::frames_emitted).sum()
    }

    /// Frames a sink evicted under backpressure so far.
    pub fn frames_dropped(&self) -> u64 {
        let queued: u64 = self.agents.iter().map(TracerAgent::frames_dropped).sum();
        let linked: u64 = self.taps.as_ref().map_or(0, |t| {
            t.links.iter().map(|l| l.stats().queue.dropped_oldest).sum()
        });
        queued + linked
    }

    /// Frames emitted but never written to the transport (still queued
    /// behind a dead connection when asked).
    pub fn frames_unwritten(&self) -> u64 {
        self.frames_emitted()
            .saturating_sub(self.frames_dropped())
            .saturating_sub(self.frames_written())
    }

    /// Tracer-link reconnects so far.
    pub fn redials(&self) -> u64 {
        self.net.as_ref().map_or(0, |n| {
            n.redials.iter().map(|r| r.load(Ordering::Relaxed)).sum()
        })
    }

    /// Broker counters: `(duplicates rejected, ring evictions, write
    /// calls toward subscribers)`; zeros in process.
    pub fn broker_counters(&self) -> (u64, u64, u64) {
        self.net.as_ref().map_or((0, 0, 0), |n| {
            (
                n.broker.duplicates_rejected(),
                n.broker.ring_dropped(),
                n.broker_io
                    .as_ref()
                    .map_or(0, |io| io.write_calls.load(Ordering::Relaxed)),
            )
        })
    }

    /// Analyzer shards.
    pub fn shards(&self) -> &[OnlineAnalyzer] {
        &self.shards
    }

    /// Runs step `step` (1-based) untraced: agents write straight into
    /// their sinks, analyzers block on their transport.
    pub fn step(&mut self, step: u64) -> StepSample {
        let mut sample = StepSample::default();
        let t0 = Instant::now();
        for drain in self.plan.drains(step) {
            let tp = Instant::now();
            for agent in &mut self.agents {
                agent.poll(self.store, drain);
            }
            sample.poll_ns += tp.elapsed().as_nanos() as u64;
        }
        let written = self.frames_written();
        let arriving = (written - self.written) as usize;
        self.written = written;
        let now = self.plan.now(step);
        for shard in &mut self.shards {
            let got = shard.ingest_expected(arriving);
            sample.lost += (arriving - got) as u64;
            sample.graphs.extend(shard.refresh(now));
        }
        sample.wall_ns = t0.elapsed().as_nanos() as u64;
        sample
    }

    /// Runs step `step` traced: every layer boundary gets a span, and the
    /// driver carries frames across the boundaries itself.
    pub fn step_traced(&mut self, step: u64, trace: &mut Trace) -> StepSample {
        let mut sample = StepSample::default();
        let mut taps = self.taps.take().expect("traced pipeline has taps");
        let root = trace.open("bench.step", step, None);
        for drain in self.plan.drains(step) {
            let span = trace.open("core.tracer.poll", step, Some(root));
            for agent in &mut self.agents {
                agent.poll(self.store, drain);
            }
            sample.poll_ns += trace.close(span);

            let out = std::mem::take(
                &mut *taps
                    .outbox
                    .lock()
                    .expect("outbox lock: the driver is single-threaded"),
            );
            // In process there is no link layer: the channel send below
            // is the whole hand-over and stays in the driver's self time.
            let span =
                (!taps.links.is_empty()).then(|| trace.open("net.link.send", step, Some(root)));
            for (agent, item) in out {
                match item {
                    Outgoing::Announce(edges) => {
                        if let Some(link) = taps.links.get_mut(agent) {
                            link.announce(&edges);
                        }
                    }
                    Outgoing::Frame(frame) => {
                        self.counters
                            .payload_bytes
                            .fetch_add(payload(&frame).len() as u64, Ordering::Relaxed);
                        match taps.links.get_mut(agent) {
                            Some(link) => {
                                link.send_frame(frame);
                            }
                            None => {
                                let _ = taps.feeds[0].send(frame);
                            }
                        }
                    }
                }
            }
            if let Some(span) = span {
                sample.link_ns += trace.close(span);
            }
        }

        let written = self.frames_written();
        let arriving = (written - self.written) as usize;
        self.written = written;
        if !taps.arrivals.is_empty() {
            (sample.relay_ns, sample.skew_ns) = relay(&taps, arriving, step, root, trace);
        }

        let now = self.plan.now(step);
        for shard in &mut self.shards {
            let span = trace.open("core.analyzer.ingest", step, Some(root));
            let got = shard.ingest();
            sample.ingest_ns += trace.close(span);
            sample.lost += arriving.saturating_sub(got) as u64;
            let span = trace.open("core.analyzer.refresh", step, Some(root));
            let graphs = shard.refresh(now);
            sample.refresh_ns += trace.close(span);
            sample.graphs.extend(graphs);
        }
        sample.wall_ns = trace.close(root);
        self.taps = Some(taps);
        sample
    }

    /// Tears the socket tier down: broker first (wakes blocked readers),
    /// then the analyzer connections are joined.
    pub fn shutdown(mut self) {
        self.agents.clear();
        self.taps = None;
        if let Some(mut net) = self.net.take() {
            net.broker.shutdown();
            for conn in &mut net.conns {
                conn.stop();
            }
        }
    }
}

/// The frames the tracers really emit over steps `1..=last_step`, in
/// emission order — the offline probes' input.
pub fn emitted_frames(plan: &Plan, capture: &Capture, last_step: u64) -> Vec<TracerFrame> {
    let topo = capture.sim().topology();
    let clients: HashSet<NodeId> = topo.clients().into_iter().collect();
    let outbox = Arc::new(Mutex::new(Vec::new()));
    let mut agents: Vec<TracerAgent> = topo
        .services()
        .into_iter()
        .enumerate()
        .map(|(agent, node)| {
            let sink = CollectingSink {
                agent,
                outbox: Arc::clone(&outbox),
            };
            TracerAgent::with_sink(node, clients.clone(), plan.config.clone(), Box::new(sink))
        })
        .collect();
    for step in 1..=last_step {
        for drain in plan.drains(step) {
            for agent in &mut agents {
                agent.poll(capture.sim().captures(), drain);
            }
        }
    }
    let out = std::mem::take(
        &mut *outbox
            .lock()
            .expect("outbox lock: the driver is single-threaded"),
    );
    out.into_iter()
        .filter_map(|(_, item)| match item {
            Outgoing::Frame(frame) => Some(frame),
            Outgoing::Announce(_) => None,
        })
        .collect()
}

/// The traced relay wait: moves `arriving` frames per shard from the
/// broker connections' receivers into the analyzers' channels, polling
/// the shards round-robin so each one's completion is seen promptly.
/// Returns `(last send → all shards complete, first shard complete →
/// last shard complete)` in nanoseconds.
fn relay(taps: &Taps, arriving: usize, step: u64, root: SpanId, trace: &mut Trace) -> (u64, u64) {
    let span = trace.open("net.broker.relay", step, Some(root));
    let started = Instant::now();
    let mut left = vec![arriving; taps.arrivals.len()];
    let mut done_at = vec![0u64; taps.arrivals.len()];
    while left.iter().any(|&n| n > 0) {
        let mut progressed = false;
        for (shard, rx) in taps.arrivals.iter().enumerate() {
            while left[shard] > 0 {
                match rx.try_recv() {
                    Ok(frame) => {
                        let _ = taps.feeds[shard].send(frame);
                        left[shard] -= 1;
                        progressed = true;
                        if left[shard] == 0 {
                            done_at[shard] = started.elapsed().as_nanos() as u64;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    // A dead connection thread: whatever is missing is
                    // counted as lost by the ingest check.
                    Err(TryRecvError::Disconnected) => {
                        left[shard] = 0;
                        progressed = true;
                    }
                }
            }
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    let relay_ns = trace.close(span);
    let first = done_at.iter().copied().min().unwrap_or(0);
    let last = done_at.iter().copied().max().unwrap_or(0);
    (relay_ns, last - first)
}
