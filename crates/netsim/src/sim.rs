//! The discrete-event simulation engine.
//!
//! Nodes are FIFO stations with one or more parallel servers (M/G/k —
//! multi-threaded middleware processes requests concurrently). A request
//! visits service nodes
//! along its class's route, is (optionally) fanned out into several
//! downstream queries, and its response retraces the path in reverse —
//! exactly the bidirectional request-response conduits of multi-tier web
//! services that the paper assumes. Every link crossing is recorded by the
//! passive capture taps at the sending and receiving service nodes.

use crate::capture::CaptureStore;
use crate::events::{Event, EventQueue};
use crate::ids::{ClassId, NodeId, RequestId};
use crate::message::{Message, MsgKind};
use crate::topology::{NodeKind, Topology};
use crate::truth::TruthRecorder;
use crate::workload::ArrivalGen;
use e2eprof_timeseries::hashing::FxHashMap;
use e2eprof_timeseries::Nanos;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Join bookkeeping at a node that forwarded (copies of) a request
/// downstream and owes responses upstream.
#[derive(Debug, Default, Clone, Copy)]
struct Join {
    /// Downstream responses still outstanding.
    remaining: u32,
    /// Upstream responses to send once `remaining` reaches zero.
    owed: u32,
}

/// Per-node runtime state.
#[derive(Debug, Default)]
struct NodeState {
    queue: VecDeque<Message>,
    /// Number of busy parallel servers.
    busy: u32,
    rr_counters: FxHashMap<ClassId, usize>,
    joins: FxHashMap<RequestId, Join>,
    /// High-water mark of the work queue (the Delta analysis reports
    /// queue lengths up to 4000).
    max_queue: usize,
    /// Arrival generator (client nodes only).
    arrivals: Option<ArrivalGen>,
}

/// A running simulation.
///
/// Construct with a validated [`Topology`] and a seed; advance with
/// [`run_until`](Simulation::run_until) (repeatedly, if external logic —
/// like the E2EProf-driven scheduler — needs to observe state between
/// steps). All behaviour is deterministic in `(topology, seed)`.
#[derive(Debug)]
pub struct Simulation {
    topo: Topology,
    rng: StdRng,
    queue: EventQueue,
    now: Nanos,
    nodes: Vec<NodeState>,
    captures: CaptureStore,
    truth: TruthRecorder,
    next_req: u64,
}

impl Simulation {
    /// Creates a simulation over `topo`, seeding every stochastic choice
    /// from `seed`.
    pub fn new(topo: Topology, seed: u64) -> Self {
        let mut nodes: Vec<NodeState> = (0..topo.num_nodes())
            .map(|_| NodeState::default())
            .collect();
        let mut queue = EventQueue::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for client in topo.clients() {
            let (_, _, workload) = topo.client_spec(client).expect("client node");
            let mut gen = ArrivalGen::new(workload.clone());
            if let Some(first) = gen.next_arrival(Nanos::ZERO, &mut rng) {
                queue.schedule(first, Event::Emit(client));
            }
            nodes[client.index()].arrivals = Some(gen);
        }
        Simulation {
            topo,
            rng,
            queue,
            now: Nanos::ZERO,
            nodes,
            captures: CaptureStore::new(),
            truth: TruthRecorder::default(),
            next_req: 0,
        }
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current simulation time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// The capture store (what pathmap is allowed to see).
    pub fn captures(&self) -> &CaptureStore {
        &self.captures
    }

    /// The ground-truth recorder (for validation only).
    pub fn truth(&self) -> &TruthRecorder {
        &self.truth
    }

    /// Replaces the ground-truth recorder (e.g. to bound detail memory on
    /// very long runs).
    pub fn set_truth_recorder(&mut self, truth: TruthRecorder) {
        self.truth = truth;
    }

    /// High-water mark of `node`'s work queue.
    pub fn max_queue_len(&self, node: NodeId) -> usize {
        self.nodes[node.index()].max_queue
    }

    /// Processes all events up to and including time `t`, then sets the
    /// clock to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time.
    pub fn run_until(&mut self, t: Nanos) {
        assert!(t >= self.now, "cannot run backwards");
        while let Some(at) = self.queue.peek_time() {
            if at > t {
                break;
            }
            let (at, event) = self.queue.pop().expect("peeked");
            debug_assert!(at >= self.now, "event from the past");
            self.now = at;
            match event {
                Event::Emit(client) => self.handle_emit(client),
                Event::Deliver(msg) => self.handle_deliver(msg),
                Event::WorkDone(node, msg) => self.handle_work_done(node, msg),
            }
        }
        self.now = t;
    }

    /// Advances by `d` (convenience wrapper over
    /// [`run_until`](Simulation::run_until)).
    pub fn run_for(&mut self, d: Nanos) {
        self.run_until(self.now + d);
    }

    fn handle_emit(&mut self, client: NodeId) {
        let (class, target, _) = self.topo.client_spec(client).expect("client node");
        let req = RequestId::new(self.next_req);
        self.next_req += 1;
        self.truth.start(req, class, self.now);
        let msg = Message::initial_request(req, class, client, target);
        self.send(msg);
        // Schedule the next arrival.
        let gen = self.nodes[client.index()]
            .arrivals
            .as_mut()
            .expect("client arrival generator");
        if let Some(next) = gen.next_arrival(self.now, &mut self.rng) {
            self.queue.schedule(next, Event::Emit(client));
        }
    }

    /// Captures (at the sender), samples link latency, and schedules
    /// delivery of `msg`.
    fn send(&mut self, msg: Message) {
        if let Some(cfg) = self.topo.service_config(msg.src) {
            let local = cfg.clock().local(self.now);
            self.captures
                .record(msg.src, msg.src, msg.dst, local, cfg.packets_per_message());
        }
        let link = self.topo.link(msg.src, msg.dst).unwrap_or_else(|| {
            panic!(
                "no link {} -> {} (dynamic route to unlinked node?)",
                self.topo.node_name(msg.src),
                self.topo.node_name(msg.dst)
            )
        });
        let latency = link.sample(&mut self.rng);
        self.queue.schedule(self.now + latency, Event::Deliver(msg));
    }

    fn handle_deliver(&mut self, msg: Message) {
        let dst = msg.dst;
        match &self.topo.node(dst).kind {
            NodeKind::Client { .. } => {
                // Clients are untraced; a delivered message completes the
                // request.
                debug_assert_eq!(msg.kind, MsgKind::Response);
                self.truth.complete(msg.req, self.now);
            }
            NodeKind::Service(cfg) => {
                let local = cfg.clock().local(self.now);
                let packets = cfg.packets_per_message();
                self.captures.record(dst, msg.src, dst, local, packets);
                match msg.kind {
                    MsgKind::Request => {
                        self.truth.arrive(msg.req, dst, self.now);
                        self.enqueue_work(dst, msg);
                    }
                    MsgKind::Response => {
                        let state = &mut self.nodes[dst.index()];
                        // Responses without a pending join are discarded: a
                        // fire-and-forget (multicast) forwarder owes nothing
                        // upstream, so late replies from subscribers that
                        // respond anyway have nowhere to go.
                        let Some(join) = state.joins.get_mut(&msg.req) else {
                            return;
                        };
                        join.remaining -= 1;
                        if join.remaining == 0 {
                            let owed = join.owed;
                            state.joins.remove(&msg.req);
                            for _ in 0..owed {
                                self.enqueue_work(dst, msg.clone());
                            }
                        }
                    }
                }
            }
        }
    }

    fn enqueue_work(&mut self, node: NodeId, msg: Message) {
        let state = &mut self.nodes[node.index()];
        state.queue.push_back(msg);
        state.max_queue = state.max_queue.max(state.queue.len());
        self.try_start(node);
    }

    /// Starts idle servers at `node` while work is queued.
    fn try_start(&mut self, node: NodeId) {
        let cfg = self
            .topo
            .service_config(node)
            .expect("work at a client node");
        let servers = cfg.servers();
        loop {
            let state = &mut self.nodes[node.index()];
            if state.busy >= servers {
                return;
            }
            let Some(msg) = state.queue.pop_front() else {
                return;
            };
            state.busy += 1;
            let duration = match msg.kind {
                MsgKind::Request => {
                    cfg.service_time().sample(&mut self.rng) + cfg.perturb().extra_delay(self.now)
                }
                MsgKind::Response => cfg.response_time().sample(&mut self.rng),
            };
            self.queue
                .schedule(self.now + duration, Event::WorkDone(node, msg));
        }
    }

    fn handle_work_done(&mut self, node: NodeId, msg: Message) {
        let state = &mut self.nodes[node.index()];
        debug_assert!(state.busy > 0, "work done with no busy server");
        state.busy -= 1;
        match msg.kind {
            MsgKind::Request => {
                self.truth.depart(msg.req, node, self.now);
                let route = self.topo.route(node, msg.class).unwrap_or_else(|| {
                    panic!(
                        "service {} has no route for class {}",
                        self.topo.node_name(node),
                        self.topo.class_name(msg.class)
                    )
                });
                let counter = self.nodes[node.index()]
                    .rr_counters
                    .entry(msg.class)
                    .or_insert(0);
                let sink = route.is_sink();
                if let Some(hops) = route.multicast_hops() {
                    // Fire-and-forget dissemination: a copy per subscriber,
                    // no joins, no upstream response.
                    let hops = hops.to_vec();
                    for hop in hops {
                        self.send(msg.forwarded(node, hop));
                    }
                    self.try_start(node);
                    return;
                }
                match route.next_hop(msg.class, self.now, counter) {
                    Some(next) => {
                        let fanout = self
                            .topo
                            .service_config(node)
                            .expect("service node")
                            .fanout();
                        let join = self.nodes[node.index()].joins.entry(msg.req).or_default();
                        join.remaining += fanout;
                        join.owed += 1;
                        for _ in 0..fanout {
                            self.send(msg.forwarded(node, next));
                        }
                    }
                    None if sink => {
                        // Unidirectional path: the request ends here.
                    }
                    None => {
                        self.send(msg.into_response(node));
                    }
                }
            }
            MsgKind::Response => {
                self.send(msg.response_hop());
            }
        }
        self.try_start(node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::TraceKey;
    use crate::dist::DelayDist;
    use crate::routing::Route;
    use crate::topology::{ServiceConfig, TopologyBuilder};
    use crate::workload::Workload;

    /// client -> ws -> app -> db chain with constant delays.
    fn chain(seed: u64) -> Simulation {
        let mut t = TopologyBuilder::new();
        let class = t.service_class("bid");
        let ws = t.service("ws", ServiceConfig::new(DelayDist::constant_millis(2)));
        let app = t.service("app", ServiceConfig::new(DelayDist::constant_millis(10)));
        let db = t.service("db", ServiceConfig::new(DelayDist::constant_millis(5)));
        let cli = t.client("cli", class, ws, Workload::poisson(20.0));
        t.connect(cli, ws, DelayDist::constant_millis(1));
        t.connect(ws, app, DelayDist::constant_millis(1));
        t.connect(app, db, DelayDist::constant_millis(1));
        t.route(ws, class, Route::fixed(app));
        t.route(app, class, Route::fixed(db));
        t.route(db, class, Route::terminal());
        Simulation::new(t.build().unwrap(), seed)
    }

    #[test]
    fn requests_complete_with_expected_latency() {
        let mut sim = chain(1);
        sim.run_until(Nanos::from_secs(20));
        let class = ClassId::new(0);
        let stats = sim.truth().class_latency(class);
        assert!(stats.count() > 200, "only {} completions", stats.count());
        // Deterministic service path: 1+2+1+10+1+5 request direction,
        // response hops: 0.1ms each at app and ws + 3 link crossings
        // = 23.2ms plus queueing.
        let mean_ms = stats.mean() / 1e6;
        assert!((23.0..30.0).contains(&mean_ms), "mean latency {mean_ms} ms");
    }

    #[test]
    fn no_requests_lost() {
        let mut sim = chain(2);
        sim.run_until(Nanos::from_secs(10));
        // Drain: stop emitting by running past the horizon; all in-flight
        // requests should complete eventually.
        let started = sim.truth().started_count();
        sim.run_until(Nanos::from_secs(11));
        let completed = sim.truth().completed_count();
        assert!(started > 0);
        // Allow the handful still in flight at the horizon.
        assert!(
            completed + 20 >= sim.truth().started_count(),
            "started {started}, completed {completed}"
        );
    }

    #[test]
    fn capture_sees_both_directions() {
        let mut sim = chain(3);
        sim.run_until(Nanos::from_secs(5));
        let (ws, app) = (NodeId::new(0), NodeId::new(1));
        let fwd = sim.captures().timestamps(TraceKey::at_receiver(ws, app));
        let back = sim.captures().timestamps(TraceKey::at_receiver(app, ws));
        assert!(!fwd.is_empty());
        assert!(!back.is_empty());
        // Roughly one response per request.
        assert!((fwd.len() as i64 - back.len() as i64).abs() < 20);
    }

    #[test]
    fn clients_are_never_observers() {
        let mut sim = chain(4);
        sim.run_until(Nanos::from_secs(2));
        let cli = NodeId::new(3);
        for (src, dst) in sim.captures().edges().collect::<Vec<_>>() {
            assert!(sim
                .captures()
                .timestamps(TraceKey {
                    observer: cli,
                    src,
                    dst
                })
                .is_empty());
        }
        // But the client edge is visible from the ws side.
        let ws = NodeId::new(0);
        assert!(!sim
            .captures()
            .timestamps(TraceKey::at_receiver(cli, ws))
            .is_empty());
        assert!(!sim
            .captures()
            .timestamps(TraceKey::at_sender(ws, cli))
            .is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = chain(7);
        let mut b = chain(7);
        a.run_until(Nanos::from_secs(3));
        b.run_until(Nanos::from_secs(3));
        assert_eq!(a.truth().completed_count(), b.truth().completed_count());
        assert_eq!(a.captures().total_packets(), b.captures().total_packets());
        let key = TraceKey::at_receiver(NodeId::new(1), NodeId::new(2));
        assert_eq!(a.captures().timestamps(key), b.captures().timestamps(key));
    }

    #[test]
    fn seed_changes_change_timing() {
        let mut a = chain(1);
        let mut b = chain(2);
        a.run_until(Nanos::from_secs(3));
        b.run_until(Nanos::from_secs(3));
        let key = TraceKey::at_receiver(NodeId::new(3), NodeId::new(0));
        assert_ne!(a.captures().timestamps(key), b.captures().timestamps(key));
    }

    #[test]
    fn fanout_multiplies_downstream_queries() {
        let mut t = TopologyBuilder::new();
        let class = t.service_class("c");
        let app = t.service(
            "app",
            ServiceConfig::new(DelayDist::constant_millis(1)).with_fanout(3),
        );
        let db = t.service("db", ServiceConfig::new(DelayDist::constant_millis(1)));
        let cli = t.client("cli", class, app, Workload::poisson(10.0));
        t.connect(cli, app, DelayDist::constant_millis(1));
        t.connect(app, db, DelayDist::constant_millis(1));
        t.route(app, class, Route::fixed(db));
        t.route(db, class, Route::terminal());
        let mut sim = Simulation::new(t.build().unwrap(), 5);
        sim.run_until(Nanos::from_secs(10));
        let (app, db, cli) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let down = sim
            .captures()
            .timestamps(TraceKey::at_receiver(app, db))
            .len();
        let up = sim
            .captures()
            .timestamps(TraceKey::at_receiver(cli, app))
            .len();
        assert!(down >= 3 * (up - 5), "down {down}, up {up}");
        // Each client request still completes exactly once.
        assert!(sim.truth().completed_count() > 50);
        assert!(sim.truth().completed_count() <= sim.truth().started_count());
    }

    #[test]
    fn round_robin_splits_traffic() {
        let mut t = TopologyBuilder::new();
        let class = t.service_class("c");
        let ws = t.service("ws", ServiceConfig::new(DelayDist::constant_millis(1)));
        let a = t.service("a", ServiceConfig::new(DelayDist::constant_millis(1)));
        let b = t.service("b", ServiceConfig::new(DelayDist::constant_millis(1)));
        let cli = t.client("cli", class, ws, Workload::poisson(50.0));
        t.connect(cli, ws, DelayDist::constant_millis(1));
        t.connect(ws, a, DelayDist::constant_millis(1));
        t.connect(ws, b, DelayDist::constant_millis(1));
        t.route(ws, class, Route::round_robin(vec![a, b]));
        t.route(a, class, Route::terminal());
        t.route(b, class, Route::terminal());
        let mut sim = Simulation::new(t.build().unwrap(), 6);
        sim.run_until(Nanos::from_secs(10));
        let (ws, a, b) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let to_a = sim
            .captures()
            .timestamps(TraceKey::at_receiver(ws, a))
            .len();
        let to_b = sim
            .captures()
            .timestamps(TraceKey::at_receiver(ws, b))
            .len();
        assert!((to_a as i64 - to_b as i64).abs() <= 1, "{to_a} vs {to_b}");
    }

    #[test]
    fn queue_high_water_mark_tracked() {
        // Overloaded server: arrival rate 100/s, service 20ms (capacity 50/s).
        let mut t = TopologyBuilder::new();
        let class = t.service_class("c");
        let svc = t.service("svc", ServiceConfig::new(DelayDist::constant_millis(20)));
        let cli = t.client("cli", class, svc, Workload::poisson(100.0));
        t.connect(cli, svc, DelayDist::constant_millis(1));
        t.route(svc, class, Route::terminal());
        let mut sim = Simulation::new(t.build().unwrap(), 8);
        sim.run_until(Nanos::from_secs(10));
        assert!(sim.max_queue_len(NodeId::new(0)) > 100);
    }

    #[test]
    fn multi_server_reduces_queueing() {
        // Arrival 100/s, service 20 ms: a single server saturates (rho=2)
        // while four servers leave headroom (rho=0.5).
        let build = |servers: u32| {
            let mut t = TopologyBuilder::new();
            let class = t.service_class("c");
            let svc = t.service(
                "svc",
                ServiceConfig::new(DelayDist::constant_millis(20)).with_servers(servers),
            );
            let cli = t.client("cli", class, svc, Workload::poisson(100.0));
            t.connect(cli, svc, DelayDist::constant_millis(1));
            t.route(svc, class, Route::terminal());
            Simulation::new(t.build().unwrap(), 17)
        };
        let mut single = build(1);
        let mut quad = build(4);
        single.run_until(Nanos::from_secs(10));
        quad.run_until(Nanos::from_secs(10));
        let class = ClassId::new(0);
        let s = single.truth().class_latency(class).mean();
        let q = quad.truth().class_latency(class).mean();
        assert!(s > 10.0 * q, "single {s} vs quad {q}");
        // Quad stays near the no-queueing latency: 20ms + 2ms links + eps.
        assert!(q < 35e6, "quad {q}");
    }

    #[test]
    #[should_panic(expected = "cannot run backwards")]
    fn running_backwards_panics() {
        let mut sim = chain(1);
        sim.run_until(Nanos::from_secs(1));
        sim.run_until(Nanos::from_millis(1));
    }
}
