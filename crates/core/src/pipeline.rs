//! The in-process pathmap pipeline: a tracer agent on every service of a
//! deployment, one channel, and one analyzer owning every root — the
//! paper's toolkit (Section 3.6) in one process. Its socket twin, with a
//! broker and a sharded analyzer tier, is `e2eprof_net`'s
//! `DistributedPipeline`; both build their tracers with
//! [`tracer_agents`], so the two differ only in their sinks and shards.

use crate::analyzer::OnlineAnalyzer;
use crate::config::PathmapConfig;
use crate::graph::{NodeLabels, ServiceGraph};
use crate::pathmap::roots_from_topology;
use crate::tracer::{ChannelSink, FrameSink, TracerAgent};
use e2eprof_netsim::{CaptureStore, NodeId, Simulation, Topology};
use e2eprof_timeseries::{Nanos, Tick};
use std::collections::HashSet;
use std::sync::mpsc::channel;

/// One tracer agent per service of `topology`, in service order, each
/// delivering through the sink `sink` makes for its node.
pub fn tracer_agents(
    topology: &Topology,
    config: &PathmapConfig,
    mut sink: impl FnMut(NodeId) -> Box<dyn FrameSink>,
) -> Vec<TracerAgent> {
    let clients: HashSet<NodeId> = topology.clients().into_iter().collect();
    topology
        .services()
        .into_iter()
        .map(|node| TracerAgent::with_sink(node, clients.clone(), config.clone(), sink(node)))
        .collect()
}

/// Tracer agents on every service feeding one [`OnlineAnalyzer`] over a
/// channel.
///
/// Drive a live run with [`step`](Self::step); replay a finished capture
/// with [`poll`](Self::poll) and a refresh of
/// [`analyzer_mut`](Self::analyzer_mut), timed as the caller likes.
pub struct LocalPipeline {
    agents: Vec<TracerAgent>,
    analyzer: OnlineAnalyzer,
}

impl LocalPipeline {
    /// Builds the pipeline for `topology`: its analyzer owns every root
    /// [`roots_from_topology`] infers.
    pub fn new(topology: &Topology, config: PathmapConfig) -> Self {
        let (tx, rx) = channel();
        let agents = tracer_agents(topology, &config, |_| Box::new(ChannelSink(tx.clone())));
        let analyzer = OnlineAnalyzer::new(
            config,
            roots_from_topology(topology),
            NodeLabels::from_topology(topology),
            rx,
        );
        LocalPipeline { agents, analyzer }
    }

    /// Runs `sim` to `now`, drains every agent up to `now - drain_lag` and
    /// refreshes — the drain rule of `DistributedPipeline::step`.
    pub fn step(
        &mut self,
        sim: &mut Simulation,
        now: Nanos,
        drain_lag: Nanos,
    ) -> Vec<ServiceGraph> {
        sim.run_until(now);
        let drain = self
            .analyzer
            .config()
            .quanta()
            .tick_of(now.saturating_sub(drain_lag));
        self.poll(sim.captures(), drain);
        self.analyzer.refresh(now)
    }

    /// Drains every agent's streams of `capture` up to tick `drain` and
    /// ingests the frames; returns how many it ingested.
    pub fn poll(&mut self, capture: &CaptureStore, drain: Tick) -> usize {
        for agent in &mut self.agents {
            agent.poll(capture, drain);
        }
        self.analyzer.ingest()
    }

    /// The analyzer.
    pub fn analyzer(&self) -> &OnlineAnalyzer {
        &self.analyzer
    }

    /// The analyzer, to subscribe to or to refresh by hand.
    pub fn analyzer_mut(&mut self) -> &mut OnlineAnalyzer {
        &mut self.analyzer
    }
}
