//! The distributed pathmap pipeline: tracer agents on socket-backed
//! links, a broker, and a horizontally sharded analyzer tier whose merged
//! output is — by construction — bit identical to the single in-process
//! analyzer of [`LocalPipeline`](e2eprof_core::pipeline::LocalPipeline).
//! Both build their tracers with [`tracer_agents`]; they differ only in
//! their sinks and shards.
//!
//! # Determinism
//!
//! The run loop contains no sleeps and no timing assumptions. Each step:
//!
//! 1. advances the simulation and polls every agent (the link flushes
//!    synchronously inside the poll, so by the time `poll` returns the
//!    step's frames are either fully written to the broker or still
//!    queued behind a fault);
//! 2. reads how many frames were *fully written* since the last step
//!    (each [`TracerLink`] counts them);
//! 3. blocks each shard's analyzer with
//!    [`ingest_expected`](OnlineAnalyzer::ingest_expected) until exactly
//!    that many frames arrive — every shard subscribes to every edge
//!    stream, so the count is the same for all of them;
//! 4. refreshes every shard and concatenates the per-shard graphs in
//!    shard order.
//!
//! # Why the merge is exact
//!
//! Shards are assigned *contiguous chunks* of the global root order
//! ([`shard_ranges`]), each shard ingests the complete edge-stream set
//! (identical sliding windows everywhere), and each discovers only its
//! own roots against the full client universe
//! ([`OnlineAnalyzer::with_universe`]). Discovery output is a function of
//! (windows, root) alone, so concatenating shard outputs in shard order
//! reproduces the single-analyzer refresh bit for bit.

use crate::broker::{BrokerConfig, BrokerHandle};
use crate::fault::{FaultPlan, FaultyDialer};
use crate::link::{AnalyzerConn, LinkConfig, TracerLink};
use crate::mem::MemListener;
use crate::stream::{Acceptor, Dialer, TcpDialer, UnixDialer};
use e2eprof_core::analyzer::OnlineAnalyzer;
use e2eprof_core::config::PathmapConfig;
use e2eprof_core::graph::NodeLabels;
use e2eprof_core::graph::ServiceGraph;
use e2eprof_core::parallel::shard_ranges;
use e2eprof_core::pathmap::roots_from_topology;
use e2eprof_core::pipeline::tracer_agents;
use e2eprof_core::tracer::TracerAgent;
use e2eprof_netsim::{NodeId, Simulation, Topology};
use e2eprof_timeseries::Nanos;
use std::collections::{BTreeMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A transport endpoint the pipeline can bind a broker on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// In-memory pipes — deterministic, used by the fault harness.
    Mem,
    /// Loopback TCP on an OS-assigned port.
    Tcp,
    /// A Unix-domain socket on a unique temp path.
    Unix,
}

/// Monotonic suffix so concurrent tests never collide on a socket path.
static UNIX_PATH_SEQ: AtomicU64 = AtomicU64::new(0);

enum BoundInner {
    Mem(Arc<MemListener>),
    Tcp(Arc<TcpListener>, SocketAddr),
    Unix(Arc<UnixListener>, PathBuf),
}

/// A bound [`Endpoint`]: hands the acceptor to a broker and mints dialers
/// for links. Dropping a Unix endpoint removes its socket file.
pub struct BoundEndpoint {
    inner: BoundInner,
}

impl Endpoint {
    /// Binds the endpoint (for kernel transports: to an ephemeral
    /// address).
    pub fn bind(self) -> std::io::Result<BoundEndpoint> {
        let inner = match self {
            Endpoint::Mem => BoundInner::Mem(Arc::new(MemListener::new())),
            Endpoint::Tcp => {
                let listener = TcpListener::bind(("127.0.0.1", 0))?;
                let addr = listener.local_addr()?;
                BoundInner::Tcp(Arc::new(listener), addr)
            }
            Endpoint::Unix => {
                let path = std::env::temp_dir().join(format!(
                    "e2eprof-{}-{}.sock",
                    std::process::id(),
                    UNIX_PATH_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                let _ = std::fs::remove_file(&path);
                BoundInner::Unix(Arc::new(UnixListener::bind(&path)?), path)
            }
        };
        Ok(BoundEndpoint { inner })
    }
}

impl BoundEndpoint {
    /// The acceptor a broker runs on.
    pub fn acceptor(&self) -> Arc<dyn Acceptor> {
        match &self.inner {
            BoundInner::Mem(l) => Arc::clone(l) as Arc<dyn Acceptor>,
            BoundInner::Tcp(l, _) => Arc::clone(l) as Arc<dyn Acceptor>,
            BoundInner::Unix(l, _) => Arc::clone(l) as Arc<dyn Acceptor>,
        }
    }

    /// A fresh dialer to this endpoint.
    pub fn dialer(&self) -> Box<dyn Dialer> {
        match &self.inner {
            BoundInner::Mem(l) => Box::new(l.dialer()),
            BoundInner::Tcp(_, addr) => Box::new(TcpDialer(*addr)),
            BoundInner::Unix(_, path) => Box::new(UnixDialer(path.clone())),
        }
    }
}

impl Drop for BoundEndpoint {
    fn drop(&mut self) {
        if let BoundInner::Unix(_, path) = &self.inner {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl std::fmt::Debug for BoundEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            BoundInner::Mem(_) => f.write_str("BoundEndpoint::Mem"),
            BoundInner::Tcp(_, a) => write!(f, "BoundEndpoint::Tcp({a})"),
            BoundInner::Unix(_, p) => write!(f, "BoundEndpoint::Unix({})", p.display()),
        }
    }
}

/// Configures a [`DistributedPipeline`] before it is built against a
/// topology.
pub struct PipelineBuilder {
    config: PathmapConfig,
    shards: usize,
    link: LinkConfig,
    tracer_faults: BTreeMap<u32, Vec<FaultPlan>>,
    analyzer_faults: BTreeMap<usize, Vec<FaultPlan>>,
}

impl PipelineBuilder {
    /// Starts a builder for `shards` analyzer shards under `config`.
    pub fn new(config: PathmapConfig, shards: usize) -> Self {
        PipelineBuilder {
            config,
            shards: shards.max(1),
            link: LinkConfig::immediate(),
            tracer_faults: BTreeMap::new(),
            analyzer_faults: BTreeMap::new(),
        }
    }

    /// Overrides the link configuration (queue capacity, redial budget,
    /// backoff) used by every tracer link and analyzer connection.
    pub fn link_config(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Scripts connection faults for the tracer on node index `node`:
    /// `plans[i]` shapes that tracer's `i`-th connection (cuts at byte
    /// offsets, jitter, stalls); connections past the script run clean.
    pub fn tracer_faults(mut self, node: u32, plans: Vec<FaultPlan>) -> Self {
        self.tracer_faults.insert(node, plans);
        self
    }

    /// Scripts connection faults for analyzer shard `shard`, like
    /// [`tracer_faults`](Self::tracer_faults).
    pub fn analyzer_faults(mut self, shard: usize, plans: Vec<FaultPlan>) -> Self {
        self.analyzer_faults.insert(shard, plans);
        self
    }

    /// Builds the full distributed tier against `topo`, bound to
    /// `endpoint`: broker, one agent-with-link per service node, and one
    /// subscribed analyzer per shard owning a contiguous chunk of the
    /// global root order.
    pub fn build(self, topo: &Topology, endpoint: &BoundEndpoint) -> DistributedPipeline {
        // Generous replay retention: fault tests disconnect subscribers
        // mid-run and everything published meanwhile must still be
        // replayable.
        let broker = BrokerHandle::spawn(
            endpoint.acceptor(),
            BrokerConfig {
                ring_capacity: 1 << 16,
            },
        );
        let roots = roots_from_topology(topo);
        let universe: HashSet<NodeId> = roots.iter().map(|&(c, _)| c).collect();
        let labels = NodeLabels::from_topology(topo);
        let ranges = shard_ranges(roots.len(), self.shards);
        let of = ranges.len().max(1) as u32;

        let mut delivered = Vec::new();
        let mut link_redials = Vec::new();
        let agents = tracer_agents(topo, &self.config, |node| {
            let origin = node.index() as u32;
            let dialer: Box<dyn Dialer> = match self.tracer_faults.get(&origin) {
                Some(plans) => Box::new(FaultyDialer::new(endpoint.dialer(), plans.clone())),
                None => endpoint.dialer(),
            };
            let link = TracerLink::new(origin, dialer, self.link.clone());
            delivered.push(link.delivered_handle());
            link_redials.push((origin, link.redials_handle()));
            Box::new(link)
        });

        let mut shards = Vec::new();
        for (i, range) in ranges.into_iter().enumerate() {
            let dialer: Box<dyn Dialer> = match self.analyzer_faults.get(&i) {
                Some(plans) => Box::new(FaultyDialer::new(endpoint.dialer(), plans.clone())),
                None => endpoint.dialer(),
            };
            let (conn, rx) = AnalyzerConn::spawn(dialer, i as u32, of, self.link.clone());
            let analyzer = OnlineAnalyzer::with_universe(
                self.config.clone(),
                roots[range].to_vec(),
                universe.clone(),
                labels.clone(),
                rx,
            );
            shards.push(ShardAnalyzer { analyzer, conn });
        }

        DistributedPipeline {
            config: self.config,
            broker,
            agents,
            delivered,
            link_redials,
            shards,
            expected: 0,
        }
    }
}

/// One analyzer shard: the analyzer plus the subscribing connection
/// feeding it.
pub struct ShardAnalyzer {
    /// The shard's analyzer (owns a contiguous chunk of the roots).
    pub analyzer: OnlineAnalyzer,
    /// The broker connection delivering every edge stream to it.
    pub conn: AnalyzerConn,
}

/// The assembled distributed tier. Drive it with
/// [`step`](DistributedPipeline::step); tear it down with
/// [`shutdown`](DistributedPipeline::shutdown).
pub struct DistributedPipeline {
    config: PathmapConfig,
    broker: BrokerHandle,
    agents: Vec<TracerAgent>,
    delivered: Vec<Arc<AtomicU64>>,
    /// `(node, reconnect counter)` per tracer data link.
    link_redials: Vec<(u32, Arc<AtomicU64>)>,
    shards: Vec<ShardAnalyzer>,
    expected: u64,
}

impl DistributedPipeline {
    /// Runs one refresh step at simulated time `now`, draining agent
    /// streams up to `now - drain_lag`, and returns the merged service
    /// graphs (per-shard outputs concatenated in shard order — the
    /// aggregator).
    pub fn step(
        &mut self,
        sim: &mut Simulation,
        now: Nanos,
        drain_lag: Nanos,
    ) -> Vec<ServiceGraph> {
        sim.run_until(now);
        let drain = self.config.quanta().tick_of(now.saturating_sub(drain_lag));
        for agent in &mut self.agents {
            agent.poll(sim.captures(), drain);
        }
        // Frames fully written to the broker since the last step — what
        // every All-subscribed shard must wait for. Frames still queued
        // behind a fault are *not* counted; they surface in a later step
        // once a flush lands them.
        let written: u64 = self
            .delivered
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .sum();
        let arriving = (written - self.expected) as usize;
        self.expected = written;
        let mut merged = Vec::new();
        for shard in &mut self.shards {
            shard.analyzer.ingest_expected(arriving);
            merged.extend(shard.analyzer.refresh(now));
        }
        merged
    }

    /// Total frames the agents' sinks evicted under backpressure.
    pub fn frames_dropped(&self) -> u64 {
        self.agents.iter().map(TracerAgent::frames_dropped).sum()
    }

    /// Total frames the agents handed to their sinks.
    pub fn frames_emitted(&self) -> u64 {
        self.agents.iter().map(TracerAgent::frames_emitted).sum()
    }

    /// Per-tracer data-link reconnect counts, `(node, reconnects)` in
    /// node order.
    pub fn link_redials(&self) -> Vec<(u32, u64)> {
        self.link_redials
            .iter()
            .map(|(node, c)| (*node, c.load(Ordering::Relaxed)))
            .collect()
    }

    /// The broker handle (counters: dedup rejections, ring drops,
    /// deliveries).
    pub fn broker(&self) -> &BrokerHandle {
        &self.broker
    }

    /// Per-shard analyzers and connections.
    pub fn shards(&self) -> &[ShardAnalyzer] {
        &self.shards
    }

    /// Tears the tier down: the broker first (wakes blocked readers),
    /// then the analyzer connections.
    pub fn shutdown(mut self) {
        self.broker.shutdown();
        for shard in &mut self.shards {
            shard.conn.stop();
        }
    }
}

/// Drives a distributed pipeline over `steps` refresh intervals — what
/// the equivalence suites hold to
/// [`LocalPipeline::step`](e2eprof_core::pipeline::LocalPipeline::step)
/// at the same times — returning each refresh's merged graphs.
pub fn run_distributed(
    sim: &mut Simulation,
    builder: PipelineBuilder,
    endpoint: &BoundEndpoint,
    steps: u64,
    step: Nanos,
    drain_lag: Nanos,
) -> Vec<Vec<ServiceGraph>> {
    let mut pipeline = builder.build(sim.topology(), endpoint);
    let mut out = Vec::new();
    for i in 1..=steps {
        let now = Nanos::from_nanos(step.as_nanos() * i);
        out.push(pipeline.step(sim, now, drain_lag));
    }
    pipeline.shutdown();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_bind_and_dial() {
        for ep in [Endpoint::Mem, Endpoint::Tcp, Endpoint::Unix] {
            let bound = ep.bind().expect("bind");
            let broker = BrokerHandle::spawn(bound.acceptor(), BrokerConfig::default());
            let mut conn = bound.dialer().dial().expect("dial");
            use std::io::Write;
            conn.write_all(b"x").expect("write");
            broker.shutdown();
        }
    }

    #[test]
    fn unix_endpoint_cleans_up_its_socket_file() {
        let bound = Endpoint::Unix.bind().expect("bind");
        let path = match &bound.inner {
            BoundInner::Unix(_, p) => p.clone(),
            _ => unreachable!(),
        };
        assert!(path.exists());
        drop(bound);
        assert!(!path.exists());
    }
}
