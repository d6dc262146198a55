//! Topology definition: nodes, links, routes, and service classes.

use crate::clock::NodeClock;
use crate::dist::DelayDist;
use crate::ids::{ClassId, NodeId};
use crate::perturb::DelaySchedule;
use crate::routing::Route;
use crate::workload::Workload;
use e2eprof_timeseries::hashing::FxHashMap;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Configuration of one service node.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    service_time: DelayDist,
    response_time: DelayDist,
    fanout: u32,
    perturb: DelaySchedule,
    clock: NodeClock,
    packets_per_message: u32,
    servers: u32,
}

impl ServiceConfig {
    /// A service node with the given request service-time distribution.
    ///
    /// Defaults: 100 µs response-hop processing, fanout 1, no
    /// perturbation, synchronized clock, one packet per message.
    pub fn new(service_time: DelayDist) -> Self {
        ServiceConfig {
            service_time,
            response_time: DelayDist::Constant(e2eprof_timeseries::Nanos::from_micros(100)),
            fanout: 1,
            perturb: DelaySchedule::None,
            clock: NodeClock::synchronized(),
            packets_per_message: 1,
            servers: 1,
        }
    }

    /// Sets the response-hop processing-time distribution.
    pub fn with_response_time(mut self, dist: DelayDist) -> Self {
        self.response_time = dist;
        self
    }

    /// Sets the downstream fanout: the number of back-to-back queries this
    /// node issues per forwarded request (e.g. an EJB server issuing
    /// multiple database queries per client request).
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero.
    pub fn with_fanout(mut self, fanout: u32) -> Self {
        assert!(fanout >= 1, "fanout must be at least 1");
        self.fanout = fanout;
        self
    }

    /// Attaches a time-varying extra processing delay.
    pub fn with_perturbation(mut self, schedule: DelaySchedule) -> Self {
        self.perturb = schedule;
        self
    }

    /// Sets this node's local clock (skew/drift injection).
    pub fn with_clock(mut self, clock: NodeClock) -> Self {
        self.clock = clock;
        self
    }

    /// Sets how many packets each logical message produces on the wire
    /// (back-to-back, identical timestamps).
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn with_packets_per_message(mut self, packets: u32) -> Self {
        assert!(packets >= 1, "at least one packet per message");
        self.packets_per_message = packets;
        self
    }

    /// The request service-time distribution.
    pub fn service_time(&self) -> &DelayDist {
        &self.service_time
    }

    /// The response-hop processing-time distribution.
    pub fn response_time(&self) -> &DelayDist {
        &self.response_time
    }

    /// Downstream queries per forwarded request.
    pub fn fanout(&self) -> u32 {
        self.fanout
    }

    /// The perturbation schedule.
    pub fn perturb(&self) -> &DelaySchedule {
        &self.perturb
    }

    /// The node's clock.
    pub fn clock(&self) -> NodeClock {
        self.clock
    }

    /// Packets per logical message.
    pub fn packets_per_message(&self) -> u32 {
        self.packets_per_message
    }

    /// Sets the number of parallel servers (worker threads) at this node.
    ///
    /// Multi-threaded middleware (servlet containers, EJB servers,
    /// databases) processes requests concurrently; a single shared FIFO
    /// queue feeds `servers` parallel workers (M/G/k).
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn with_servers(mut self, servers: u32) -> Self {
        assert!(servers >= 1, "at least one server");
        self.servers = servers;
        self
    }

    /// Number of parallel servers.
    pub fn servers(&self) -> u32 {
        self.servers
    }
}

/// What a node is.
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// A request source: one service class, one front-end target, one
    /// arrival process.
    Client {
        /// The class all this client's requests belong to.
        class: ClassId,
        /// The front-end service node requests are sent to.
        target: NodeId,
        /// The arrival process.
        workload: Workload,
    },
    /// A service node.
    Service(ServiceConfig),
}

/// One node's definition.
#[derive(Debug, Clone)]
pub struct NodeDef {
    /// Human-readable label (unique within the topology).
    pub name: String,
    /// Client or service.
    pub kind: NodeKind,
}

/// Errors detected when validating a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// Two nodes share a name.
    DuplicateName(String),
    /// A route or client references a link that was never declared.
    MissingLink {
        /// Sending side.
        from: String,
        /// Receiving side.
        to: String,
    },
    /// A client targets (or a route forwards to) a client node.
    NotAService(String),
    /// A service node lacks a route for a class whose requests can reach it.
    MissingRoute {
        /// The service node.
        node: String,
        /// The class lacking a route.
        class: String,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateName(n) => write!(f, "duplicate node name {n:?}"),
            TopologyError::MissingLink { from, to } => {
                write!(f, "no link declared from {from:?} to {to:?}")
            }
            TopologyError::NotAService(n) => {
                write!(f, "node {n:?} is a client but is used as a service")
            }
            TopologyError::MissingRoute { node, class } => {
                write!(f, "service {node:?} has no route for class {class:?}")
            }
        }
    }
}

impl Error for TopologyError {}

/// A validated topology.
///
/// Links and routes are keyed by the builder's own node and class ids and
/// hashed with Fx: the simulator looks up one of each per hop.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<NodeDef>,
    classes: Vec<String>,
    links: FxHashMap<(NodeId, NodeId), DelayDist>,
    routes: FxHashMap<(NodeId, ClassId), Route>,
}

impl Topology {
    /// All node definitions, indexed by [`NodeId`].
    pub fn nodes(&self) -> &[NodeDef] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The definition of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &NodeDef {
        &self.nodes[id.index()]
    }

    /// The label of `id`.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.index()].name
    }

    /// Looks a node up by label.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId::new(i as u32))
    }

    /// Whether `id` is a client node.
    pub fn is_client(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.index()].kind, NodeKind::Client { .. })
    }

    /// The service configuration of `id`, if it is a service node.
    pub fn service_config(&self, id: NodeId) -> Option<&ServiceConfig> {
        match &self.nodes[id.index()].kind {
            NodeKind::Service(cfg) => Some(cfg),
            NodeKind::Client { .. } => None,
        }
    }

    /// All client node ids.
    pub fn clients(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId::new)
            .filter(|&n| self.is_client(n))
            .collect()
    }

    /// All service node ids.
    pub fn services(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId::new)
            .filter(|&n| !self.is_client(n))
            .collect()
    }

    /// Service-class names, indexed by [`ClassId`].
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// The name of a class.
    pub fn class_name(&self, class: ClassId) -> &str {
        &self.classes[class.index()]
    }

    /// The latency distribution of the directed link `from → to`, if any.
    pub fn link(&self, from: NodeId, to: NodeId) -> Option<&DelayDist> {
        self.links.get(&(from, to))
    }

    /// The route of `(node, class)`, if declared.
    pub fn route(&self, node: NodeId, class: ClassId) -> Option<&Route> {
        self.routes.get(&(node, class))
    }

    /// Front-end service nodes: the targets of client nodes, with the set
    /// of client nodes attached to each (the roots of pathmap's search).
    pub fn front_ends(&self) -> BTreeMap<NodeId, Vec<NodeId>> {
        let mut map: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for (i, def) in self.nodes.iter().enumerate() {
            if let NodeKind::Client { target, .. } = def.kind {
                map.entry(target).or_default().push(NodeId::new(i as u32));
            }
        }
        map
    }

    /// The client's `(class, target, workload)`, if `id` is a client.
    pub fn client_spec(&self, id: NodeId) -> Option<(ClassId, NodeId, &Workload)> {
        match &self.nodes[id.index()].kind {
            NodeKind::Client {
                class,
                target,
                workload,
            } => Some((*class, *target, workload)),
            NodeKind::Service(_) => None,
        }
    }
}

/// Incremental topology constructor.
///
/// See the crate-level example for typical usage.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<NodeDef>,
    classes: Vec<String>,
    links: FxHashMap<(NodeId, NodeId), DelayDist>,
    routes: FxHashMap<(NodeId, ClassId), Route>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a service class and returns its id.
    pub fn service_class(&mut self, name: &str) -> ClassId {
        let id = ClassId::new(self.classes.len() as u16);
        self.classes.push(name.to_owned());
        id
    }

    /// Adds a service node.
    pub fn service(&mut self, name: &str, config: ServiceConfig) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(NodeDef {
            name: name.to_owned(),
            kind: NodeKind::Service(config),
        });
        id
    }

    /// Adds a client node issuing `class` requests to `target` according to
    /// `workload`.
    pub fn client(
        &mut self,
        name: &str,
        class: ClassId,
        target: NodeId,
        workload: Workload,
    ) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(NodeDef {
            name: name.to_owned(),
            kind: NodeKind::Client {
                class,
                target,
                workload,
            },
        });
        id
    }

    /// Declares a bidirectional link between `a` and `b` with the given
    /// per-crossing latency distribution.
    pub fn connect(&mut self, a: NodeId, b: NodeId, latency: DelayDist) {
        self.links.insert((a, b), latency.clone());
        self.links.insert((b, a), latency);
    }

    /// Declares the route taken by `class` requests after service at
    /// `node`.
    pub fn route(&mut self, node: NodeId, class: ClassId, route: Route) {
        self.routes.insert((node, class), route);
    }

    /// Validates and freezes the topology.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] for duplicate names, dangling links,
    /// clients used as services, or service nodes statically reachable by a
    /// class without a route for it.
    pub fn build(self) -> Result<Topology, TopologyError> {
        let topo = Topology {
            nodes: self.nodes,
            classes: self.classes,
            links: self.links,
            routes: self.routes,
        };
        // Unique names.
        let mut seen = BTreeSet::new();
        for def in &topo.nodes {
            if !seen.insert(def.name.as_str()) {
                return Err(TopologyError::DuplicateName(def.name.clone()));
            }
        }
        // Clients: target must be a linked service.
        for (i, def) in topo.nodes.iter().enumerate() {
            if let NodeKind::Client { target, .. } = def.kind {
                let id = NodeId::new(i as u32);
                if topo.is_client(target) {
                    return Err(TopologyError::NotAService(
                        topo.node_name(target).to_owned(),
                    ));
                }
                if topo.link(id, target).is_none() {
                    return Err(TopologyError::MissingLink {
                        from: def.name.clone(),
                        to: topo.node_name(target).to_owned(),
                    });
                }
            }
        }
        // Static route hops must be linked services; routes must exist along
        // every statically reachable path.
        for (&(node, class), route) in &topo.routes {
            for hop in route.candidate_hops() {
                if topo.is_client(hop) {
                    return Err(TopologyError::NotAService(topo.node_name(hop).to_owned()));
                }
                if topo.link(node, hop).is_none() {
                    return Err(TopologyError::MissingLink {
                        from: topo.node_name(node).to_owned(),
                        to: topo.node_name(hop).to_owned(),
                    });
                }
                if topo.route(hop, class).is_none() {
                    return Err(TopologyError::MissingRoute {
                        node: topo.node_name(hop).to_owned(),
                        class: topo.class_name(class).to_owned(),
                    });
                }
            }
        }
        // Every client's front end must have a route for the client's class.
        for (i, def) in topo.nodes.iter().enumerate() {
            let _ = i;
            if let NodeKind::Client { class, target, .. } = def.kind {
                if topo.route(target, class).is_none() {
                    return Err(TopologyError::MissingRoute {
                        node: topo.node_name(target).to_owned(),
                        class: topo.class_name(class).to_owned(),
                    });
                }
            }
        }
        Ok(topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> TopologyBuilder {
        let mut t = TopologyBuilder::new();
        let class = t.service_class("c");
        let svc = t.service("svc", ServiceConfig::new(DelayDist::constant_millis(1)));
        let cli = t.client("cli", class, svc, Workload::poisson(1.0));
        t.connect(cli, svc, DelayDist::constant_millis(1));
        t.route(svc, class, Route::terminal());
        t
    }

    #[test]
    fn minimal_topology_builds() {
        let topo = minimal().build().unwrap();
        assert_eq!(topo.num_nodes(), 2);
        assert_eq!(topo.clients().len(), 1);
        assert_eq!(topo.services().len(), 1);
        assert_eq!(topo.node_by_name("svc"), Some(NodeId::new(0)));
        assert_eq!(topo.front_ends().len(), 1);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut t = minimal();
        let _ = t.service("svc", ServiceConfig::new(DelayDist::constant_millis(1)));
        assert_eq!(
            t.build().unwrap_err(),
            TopologyError::DuplicateName("svc".into())
        );
    }

    #[test]
    fn client_without_link_rejected() {
        let mut t = TopologyBuilder::new();
        let class = t.service_class("c");
        let svc = t.service("svc", ServiceConfig::new(DelayDist::constant_millis(1)));
        let _cli = t.client("cli", class, svc, Workload::poisson(1.0));
        t.route(svc, class, Route::terminal());
        assert!(matches!(
            t.build().unwrap_err(),
            TopologyError::MissingLink { .. }
        ));
    }

    #[test]
    fn route_to_unlinked_node_rejected() {
        let mut t = minimal();
        let class = ClassId::new(0);
        let other = t.service("other", ServiceConfig::new(DelayDist::constant_millis(1)));
        t.route(other, class, Route::terminal());
        t.route(NodeId::new(0), class, Route::fixed(other));
        assert!(matches!(
            t.build().unwrap_err(),
            TopologyError::MissingLink { .. }
        ));
    }

    #[test]
    fn downstream_missing_route_rejected() {
        let mut t = minimal();
        let class = ClassId::new(0);
        let svc = NodeId::new(0);
        let other = t.service("other", ServiceConfig::new(DelayDist::constant_millis(1)));
        t.connect(svc, other, DelayDist::constant_millis(1));
        t.route(svc, class, Route::fixed(other));
        // `other` has no route for the class.
        assert!(matches!(
            t.build().unwrap_err(),
            TopologyError::MissingRoute { .. }
        ));
    }

    #[test]
    fn front_end_missing_route_rejected() {
        let mut t = TopologyBuilder::new();
        let class = t.service_class("c");
        let svc = t.service("svc", ServiceConfig::new(DelayDist::constant_millis(1)));
        let cli = t.client("cli", class, svc, Workload::poisson(1.0));
        t.connect(cli, svc, DelayDist::constant_millis(1));
        assert!(matches!(
            t.build().unwrap_err(),
            TopologyError::MissingRoute { .. }
        ));
    }

    #[test]
    fn service_config_builder_chains() {
        use e2eprof_timeseries::Nanos;
        let cfg = ServiceConfig::new(DelayDist::constant_millis(3))
            .with_response_time(DelayDist::constant_millis(1))
            .with_fanout(4)
            .with_perturbation(DelaySchedule::Constant(Nanos::from_millis(2)))
            .with_clock(NodeClock::with_skew_millis(1))
            .with_packets_per_message(2);
        assert_eq!(cfg.fanout(), 4);
        assert_eq!(cfg.packets_per_message(), 2);
        assert_eq!(cfg.clock().skew_ns(), 1_000_000);
    }

    #[test]
    fn error_messages_render() {
        let e = TopologyError::MissingRoute {
            node: "a".into(),
            class: "c".into(),
        };
        assert!(e.to_string().contains("no route"));
    }
}
