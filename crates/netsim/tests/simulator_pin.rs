//! Pins the simulator's output bit for bit: every capture timestamp, every
//! class's retained paths, the request counts and the bits of every
//! ground-truth aggregate, digested for two topologies at fixed seeds.
//!
//! The simulator is the test bed of every experiment and the benchmark's
//! load generator, so a change to its internals (maps, hashers, indexes)
//! must leave these digests exactly as they are. A changed digest means an
//! event moved, an RNG draw was added or dropped, or an aggregate summed in
//! a different order.

use e2eprof_netsim::capture::TraceKey;
use e2eprof_netsim::prelude::*;

/// [`digest`] of [`rubis_shaped`] at seed 11.
const RUBIS_SHAPED_SEED_11: u64 = 0xf0f1_66c3_0ba3_1803;
/// [`digest`] of [`idle_mesh`] at seed 5.
const IDLE_MESH_SEED_5: u64 = 0xdc9d_d70c_8148_7c28;

/// FNV-1a over 64-bit words: a fixed, dependency-free digest that shares
/// nothing with the hashers under test.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn node(&mut self, n: NodeId) {
        self.word(n.index() as u64);
    }

    fn welford(&mut self, w: e2eprof_timeseries::stats::Welford) {
        self.word(w.count());
        self.word(w.mean().to_bits());
        self.word(w.variance().to_bits());
    }
}

/// Digests everything observable of a finished simulation.
fn digest(sim: &Simulation) -> u64 {
    let mut d = Digest::new();
    let topo = sim.topology();
    // Capture: every key, sorted, with its timestamps.
    let captures = sim.captures();
    let mut keys: Vec<TraceKey> = captures
        .edges()
        .flat_map(|(src, dst)| {
            [
                TraceKey::at_sender(src, dst),
                TraceKey::at_receiver(src, dst),
            ]
        })
        .collect();
    keys.sort_unstable();
    for key in keys {
        let stamps = captures.timestamps(key);
        d.node(key.observer);
        d.node(key.src);
        d.node(key.dst);
        d.word(stamps.len() as u64);
        for ts in stamps {
            d.word(ts.as_nanos());
        }
    }
    d.word(captures.total_packets() as u64);
    // Truth: counts, each class's sorted paths and latency, and the
    // processing delay of every (class, node).
    let truth = sim.truth();
    d.word(truth.started_count());
    d.word(truth.completed_count());
    for c in 0..topo.classes().len() {
        let class = ClassId::new(c as u16);
        let mut paths: Vec<(Vec<NodeId>, usize)> = truth.class_paths(class).into_iter().collect();
        paths.sort_unstable();
        d.word(paths.len() as u64);
        for (path, count) in paths {
            d.word(count as u64);
            d.word(path.len() as u64);
            path.into_iter().for_each(|n| d.node(n));
        }
        d.welford(truth.class_latency(class));
        for node in topo.services() {
            d.welford(truth.node_processing(class, node));
        }
    }
    d.0
}

/// A RUBiS-shaped deployment: a web tier dispatching round-robin to two
/// application servers that fan out to a database (a join of two
/// responses per request), a second class with affinity to one of them, a
/// third class multicast fire-and-forget to two subscribers, a skewed
/// clock, two-packet messages and a delay staircase.
fn rubis_shaped(seed: u64) -> Simulation {
    let mut t = TopologyBuilder::new();
    let bid = t.service_class("bid");
    let browse = t.service_class("browse");
    let feed = t.service_class("feed");
    let ws = t.service(
        "ws",
        ServiceConfig::new(DelayDist::constant_millis(2)).with_servers(4),
    );
    let app1 = t.service(
        "app1",
        ServiceConfig::new(DelayDist::exponential_millis(6))
            .with_fanout(2)
            .with_clock(NodeClock::with_skew_millis(3)),
    );
    let app2 = t.service(
        "app2",
        ServiceConfig::new(DelayDist::normal_millis(7, 2))
            .with_fanout(2)
            .with_packets_per_message(2)
            .with_perturbation(DelaySchedule::staircase(
                Nanos::from_secs(5),
                Nanos::from_secs(5),
                Nanos::from_millis(4),
            )),
    );
    let db = t.service(
        "db",
        ServiceConfig::new(DelayDist::uniform_millis(1, 4)).with_servers(2),
    );
    let sub1 = t.service("sub1", ServiceConfig::new(DelayDist::constant_millis(1)));
    let sub2 = t.service("sub2", ServiceConfig::new(DelayDist::exponential_millis(2)));
    for (name, class, rate) in [("cli_bid", bid, 40.0), ("cli_browse", browse, 25.0)] {
        let cli = t.client(name, class, ws, Workload::poisson(rate));
        t.connect(cli, ws, DelayDist::uniform_millis(1, 3));
    }
    let cli_feed = t.client("cli_feed", feed, ws, Workload::poisson(10.0));
    t.connect(cli_feed, ws, DelayDist::constant_millis(1));
    for app in [app1, app2] {
        t.connect(ws, app, DelayDist::constant_millis(1));
        t.connect(app, db, DelayDist::exponential_millis(1));
    }
    for sub in [sub1, sub2] {
        t.connect(ws, sub, DelayDist::constant_millis(2));
        t.route(sub, feed, Route::sink());
    }
    t.route(ws, bid, Route::round_robin(vec![app1, app2]));
    t.route(ws, browse, Route::fixed(app2));
    t.route(ws, feed, Route::multicast(vec![sub1, sub2]));
    for class in [bid, browse] {
        t.route(app1, class, Route::fixed(db));
        t.route(app2, class, Route::fixed(db));
        t.route(db, class, Route::terminal());
    }
    let mut sim = Simulation::new(t.build().expect("valid topology"), seed);
    sim.run_until(Nanos::from_secs(20));
    sim
}

/// A mesh of 200 independent client → web → db stacks: all busy for the
/// first 4 s, then only the first eight, to 12 s.
fn idle_mesh(seed: u64) -> Simulation {
    let mut t = TopologyBuilder::new();
    for i in 0..200u64 {
        let class = t.service_class(&format!("class_{i}"));
        let web = t.service(
            &format!("web_{i}"),
            ServiceConfig::new(DelayDist::constant_millis(2)),
        );
        let db = t.service(
            &format!("db_{i}"),
            ServiceConfig::new(DelayDist::exponential_millis(8)),
        );
        t.connect(web, db, DelayDist::constant_millis(1));
        t.route(web, class, Route::fixed(db));
        t.route(db, class, Route::terminal());
        let workload = if i < 8 {
            Workload::poisson(20.0)
        } else {
            // Idle after warm-up: arrivals every 150 ms plus a per-stack
            // offset, until 4 s.
            Workload::trace(
                (0..26)
                    .map(|k| Nanos::from_millis(k * 150 + i % 150))
                    .collect(),
            )
        };
        let cli = t.client(&format!("cli_{i}"), class, web, workload);
        t.connect(cli, web, DelayDist::constant_millis(1));
    }
    let mut sim = Simulation::new(t.build().expect("valid mesh"), seed);
    sim.run_until(Nanos::from_secs(12));
    sim
}

#[test]
fn rubis_shaped_run_matches_recorded_bits() {
    let sim = rubis_shaped(11);
    assert!(sim.truth().completed_count() > 1_000);
    assert_eq!(digest(&sim), RUBIS_SHAPED_SEED_11);
}

#[test]
fn idle_mesh_run_matches_recorded_bits() {
    let sim = idle_mesh(5);
    assert!(sim.truth().completed_count() > 5_000);
    assert_eq!(digest(&sim), IDLE_MESH_SEED_5);
}

/// Windowed class latency (Table 1's input) is a pure function of the
/// simulation: two same-seed runs agree to the last bit of the mean and
/// the variance.
#[test]
fn windowed_latency_is_bit_identical_across_runs() {
    let (a, b) = (rubis_shaped(3), rubis_shaped(3));
    for class in 0..2 {
        let class = ClassId::new(class);
        let between = |sim: &Simulation| {
            let w =
                sim.truth()
                    .class_latency_between(class, Nanos::from_secs(2), Nanos::from_secs(18));
            (w.count(), w.mean().to_bits(), w.variance().to_bits())
        };
        assert!(between(&a).0 > 100);
        assert_eq!(between(&a), between(&b));
    }
}
