//! The four replayed deployments: what is simulated, with which of the
//! paper's parameters, over which transport — and why.
//!
//! A workload is a *finished capture*: set-up builds the topology and
//! runs the simulation to its end, and the program under test only ever
//! sees the resulting [`CaptureStore`](e2eprof_netsim::CaptureStore).
//! `--seed` seeds the simulator's service/link delay draws and, for the
//! bench-owned generators below, every client's arrival stream.

use e2eprof_apps::rubis::{Dispatch, Rubis, RubisConfig};
use e2eprof_core::config::{PathmapConfig, Transport};
use e2eprof_netsim::prelude::*;
use e2eprof_netsim::{ClassId, NodeId};
use e2eprof_timeseries::Quanta;
use std::collections::{BTreeMap, BTreeSet};

/// How tracer frames reach the analyzer tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// One unbounded channel straight into a single analyzer.
    InProcess,
    /// Loopback TCP through a broker to `shards` analyzer shards.
    Tcp {
        /// Analyzer shards subscribed to the broker.
        shards: usize,
    },
}

/// The simulated deployment behind a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Deployment {
    /// The paper's RUBiS auction site with round-robin dispatch (Fig. 6):
    /// two always-on Poisson classes at 10 req/s each.
    Rubis,
    /// `stacks` independent client → web → db chains at `rate` req/s;
    /// all of them live for `warm_secs`, after which only the first
    /// `active` keep receiving traffic.
    Mesh {
        /// Number of independent stacks (two services each).
        stacks: usize,
        /// Stacks that stay active after the warm phase.
        active: usize,
        /// Per-stack Poisson arrival rate.
        rate: f64,
        /// Length of the all-active warm phase, seconds.
        warm_secs: u64,
    },
    /// One front end serving `classes` client classes, each round-robined
    /// over `backends` private backends. Class `c` is on for `on_secs` of
    /// every `period_secs`, starting at phase `c · period / classes`, at
    /// `rate` req/s (Poisson within the on phase).
    Fanout {
        /// Client classes (one root each).
        classes: usize,
        /// Private backends per class.
        backends: usize,
        /// Arrival rate while a class is on.
        rate: f64,
        /// On-phase length, seconds.
        on_secs: u64,
        /// Cycle length, seconds.
        period_secs: u64,
    },
}

/// One benchmark workload: a deployment, the paper's five analysis
/// parameters, and the deployment shape. Nothing else is configurable —
/// every other `PathmapConfig` field stays at its default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, in one line (`BENCHMARK.json`'s `why`).
    pub why: &'static str,
    /// What is simulated.
    pub deployment: Deployment,
    /// Sliding window `W`, seconds.
    pub window_secs: u64,
    /// Lag bound `T_u`, seconds.
    pub max_delay_secs: u64,
    /// Refresh interval `ΔW`, milliseconds.
    pub refresh_ms: u64,
    /// Tracer flushes per refresh step (`F`): every agent is polled to
    /// `F` successive drain ticks before the analyzers refresh.
    pub flushes_per_step: u64,
    /// Simulated seconds captured (one replay pass covers all of them).
    pub sim_secs: u64,
    /// Transport and analyzer shard count.
    pub link: Link,
}

/// Time quantum `τ` of every workload: 1 ms (the paper's RUBiS setting).
pub const QUANTA_MS: u64 = 1;
/// Sampling window `ω` of every workload, in ticks.
pub const OMEGA_TICKS: u64 = 50;
/// How far behind a step's wall-clock label agents drain: `2ω`, the
/// margin a live deployment needs for capture completeness.
pub const DRAIN_LAG_MS: u64 = 2 * OMEGA_TICKS * QUANTA_MS;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Spec; 4] = [
    // The paper's headline setting. Long window and lag bound make the
    // correlation engine nearly all of a step and the data plane a
    // rounding error; both classes are always on, so every
    // (client, edge) pair is alive and pruning or skipping mechanisms
    // predict no change here.
    Spec {
        name: "rubis_paper",
        why: "Paper's headline setting (W=3min, T_u=1min, TCP x1 shard): correlation is nearly all of a step and every pair is alive, so data-plane and pruning/skipping work predict no change here.",
        deployment: Deployment::Rubis,
        window_secs: 180,
        max_delay_secs: 60,
        refresh_ms: 15_000,
        flushes_per_step: 1,
        sim_secs: 1_500,
        link: Link::Tcp { shards: 1 },
    },
    // The same deployment used the other way round: windows are appended
    // to far more often than they are correlated (a flush every 50 ms
    // against a refresh every 5 s), so tracer + wire + link + broker
    // fan-out + ingest outweigh refresh. Wire, CRC, coalescing and
    // fan-out work must show here; analyzer work predicts no change.
    Spec {
        name: "rubis_stream",
        why: "Same deployment, a flush every 50 ms against a refresh every 5 s over TCP x2 shards: tracer+wire+link+broker+ingest outweigh refresh, so wire, CRC, coalescing and fan-out work must show here.",
        deployment: Deployment::Rubis,
        window_secs: 20,
        max_delay_secs: 2,
        refresh_ms: 5_000,
        flushes_per_step: 100,
        sim_secs: 600,
        link: Link::Tcp { shards: 2 },
    },
    // Wide topology, ~96% of pairs idle once the warm phase leaves
    // retention: per-agent and per-pair bookkeeping dominates and the
    // network tier is bypassed. Activity gating and the O(agents × edges)
    // poll show here and nowhere else.
    Spec {
        name: "mesh_idle",
        why: "560 client-web-db stacks, 96% idle after warm-up, in process: per-agent and per-pair bookkeeping dominates; activity gating and the O(agents x edges) poll show here and nowhere else.",
        deployment: Deployment::Mesh {
            stacks: 560,
            active: 24,
            rate: 10.0,
            warm_secs: 12,
        },
        window_secs: 10,
        max_delay_secs: 1,
        refresh_ms: 2_000,
        flushes_per_step: 1,
        sim_secs: 300,
        link: Link::InProcess,
    },
    // Many candidate pairs per root, three quarters provably dead (their
    // classes' on-phases never overlap within the lag bound) yet every
    // stream busy: the target of screening and reduction. `rubis_paper`
    // is its bypass twin (always-on traffic, nothing to prune).
    Spec {
        name: "fanout_phased",
        why: "6 classes x 4 backends with staggered on-phases, in process: ~200 candidate pairs, 3/4 provably dead yet all streams busy - screening/reduction's target; rubis_paper is its bypass twin.",
        deployment: Deployment::Fanout {
            classes: 6,
            backends: 4,
            rate: 100.0,
            on_secs: 10,
            period_secs: 72,
        },
        window_secs: 72,
        max_delay_secs: 1,
        refresh_ms: 3_000,
        flushes_per_step: 1,
        sim_secs: 720,
        link: Link::InProcess,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    ALL.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The analysis configuration: the paper's parameters and the
    /// transport, nothing else. `env_overrides()` is deliberately never
    /// called, and no acceleration knob is set — promoting a proven path
    /// to the default shows up here as a gain, and deleting a knob cannot
    /// break the harness.
    pub fn config(&self) -> PathmapConfig {
        PathmapConfig::builder()
            .quanta(Quanta::from_millis(QUANTA_MS))
            .omega_ticks(OMEGA_TICKS)
            .window(Nanos::from_secs(self.window_secs))
            .refresh(Nanos::from_millis(self.refresh_ms))
            .max_delay(Nanos::from_secs(self.max_delay_secs))
            .transport(match self.link {
                Link::InProcess => Transport::InProcess,
                Link::Tcp { .. } => Transport::Tcp,
            })
            .build()
    }

    /// Refresh steps one replay pass covers.
    pub fn steps(&self) -> u64 {
        self.sim_secs * 1_000 / self.refresh_ms
    }

    /// Steps at the head of every pass that are run but not measured:
    /// until the window and lag bound are full — and, for the mesh, until
    /// the warm phase has left window retention — plus two steady-state
    /// refreshes so first-time allocations are behind us.
    pub fn warmup_steps(&self) -> u64 {
        let fill_ms = (self.window_secs + self.max_delay_secs) * 1_000 + DRAIN_LAG_MS;
        let retention_ms = fill_ms + 2 * self.refresh_ms;
        let ready_ms = match self.deployment {
            Deployment::Mesh { warm_secs, .. } => warm_secs * 1_000 + retention_ms + 1_000,
            _ => fill_ms,
        };
        ready_ms.div_ceil(self.refresh_ms) + 2
    }

    /// A copy covering a tenth of the simulated time — but never less
    /// than warm-up plus forty measured steps, or a pass would be nearly
    /// all warm-up — for the `--quick` smoke mode.
    pub fn quick(mut self) -> Spec {
        let floor_ms = (self.warmup_steps() + 40) * self.refresh_ms;
        self.sim_secs = (self.sim_secs / 10).max(floor_ms.div_ceil(1_000));
        self
    }
}

/// A finished simulation plus what the harness needs to judge the
/// published graphs against it.
#[derive(Debug)]
pub struct Capture {
    source: Source,
    /// Per client node: the edge set a perfect pathmap would publish for
    /// that client's class, from the simulator's recorded request paths.
    pub true_edges: BTreeMap<NodeId, BTreeSet<(NodeId, NodeId)>>,
}

/// Who owns the finished simulation (`Rubis` does not give its own up).
#[derive(Debug)]
enum Source {
    Rubis(Box<Rubis>),
    Sim(Box<Simulation>),
}

impl Capture {
    /// The finished simulation; the program under test is handed only
    /// `sim().captures()` (and the topology, for roots and labels).
    pub fn sim(&self) -> &Simulation {
        match &self.source {
            Source::Rubis(rubis) => rubis.sim(),
            Source::Sim(sim) => sim,
        }
    }
}

/// xorshift64* — the bench-owned arrival generator, so a workload's
/// inputs depend on `--seed` alone and never on the simulator's RNG
/// consumption order.
#[derive(Debug, Clone)]
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64, stream: u64) -> Self {
        // splitmix64 of (seed, stream): decorrelates neighbouring streams
        // and never yields the all-zero state xorshift cannot leave.
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(0x2545_F491_4F6C_DD1D);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        let x = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One exponential inter-arrival gap at `rate` per second, in
    /// seconds.
    fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

/// Poisson arrivals at `rate` inside each `[on, off)` interval (seconds),
/// as a sorted trace. The process restarts at every interval start, so
/// on/off phases stay Poisson rather than inheriting a regular cadence.
fn poisson_trace(rng: &mut XorShift, rate: f64, intervals: &[(f64, f64)]) -> Workload {
    let mut arrivals = Vec::new();
    for &(on, off) in intervals {
        let mut t = on + rng.exp_gap(rate);
        while t < off {
            arrivals.push(Nanos::from_nanos((t * 1e9) as u64));
            t += rng.exp_gap(rate);
        }
    }
    Workload::trace(arrivals)
}

fn mesh_sim(
    stacks: usize,
    active: usize,
    rate: f64,
    warm_secs: u64,
    total_secs: u64,
    seed: u64,
) -> Simulation {
    let mut t = TopologyBuilder::new();
    for i in 0..stacks {
        let until = if i < active { total_secs } else { warm_secs };
        let trace = poisson_trace(
            &mut XorShift::new(seed, i as u64),
            rate,
            &[(0.0, until as f64)],
        );
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
        let cli = t.client(&format!("cli_{i}"), class, web, trace);
        t.connect(cli, web, DelayDist::constant_millis(1));
    }
    Simulation::new(t.build().expect("mesh topology is valid"), seed)
}

fn fanout_sim(
    classes: usize,
    backends: usize,
    rate: f64,
    on_secs: u64,
    period_secs: u64,
    total_secs: u64,
    seed: u64,
) -> Simulation {
    let mut t = TopologyBuilder::new();
    let web = t.service("web", ServiceConfig::new(DelayDist::constant_millis(2)));
    for c in 0..classes {
        let class = t.service_class(&format!("class_{c}"));
        let mut cluster = Vec::new();
        for b in 0..backends {
            let s = t.service(
                &format!("s{c}_{b}"),
                ServiceConfig::new(DelayDist::normal_millis(10, 2)),
            );
            t.connect(web, s, DelayDist::constant_millis(1));
            t.route(s, class, Route::terminal());
            cluster.push(s);
        }
        t.route(web, class, Route::round_robin(cluster));
        let phase = (c as u64 * period_secs) as f64 / classes as f64;
        let mut intervals = Vec::new();
        let mut cycle = 0.0;
        while cycle + phase < total_secs as f64 {
            let on = cycle + phase;
            intervals.push((on, (on + on_secs as f64).min(total_secs as f64)));
            cycle += period_secs as f64;
        }
        let trace = poisson_trace(&mut XorShift::new(seed, c as u64), rate, &intervals);
        let cli = t.client(&format!("cli_{c}"), class, web, trace);
        t.connect(cli, web, DelayDist::constant_millis(1));
    }
    Simulation::new(t.build().expect("fanout topology is valid"), seed)
}

/// The edge set a perfect pathmap publishes for one recorded request
/// path: the anchoring client edge, every forward hop with its reversed
/// response hop, and the response edge back to the client (the same
/// definition `tests/ground_truth_conformance.rs` uses).
fn path_edges(client: NodeId, path: &[NodeId], out: &mut BTreeSet<(NodeId, NodeId)>) {
    let Some(&front) = path.first() else { return };
    out.insert((client, front));
    out.insert((front, client));
    for hop in path.windows(2) {
        out.insert((hop[0], hop[1]));
        out.insert((hop[1], hop[0]));
    }
}

/// Set-up: builds the workload's topology and runs the simulation to its
/// end. This is load generation, not the program under test; its wall
/// time is reported as `setup_s` and excluded from every other metric.
pub fn build(spec: &Spec, seed: u64) -> Capture {
    let total = spec.sim_secs;
    let end = Nanos::from_secs(total);
    let source = match spec.deployment {
        Deployment::Rubis => {
            let mut rubis = Rubis::build(RubisConfig {
                dispatch: Dispatch::RoundRobin,
                seed,
                ..RubisConfig::default()
            });
            rubis.sim_mut().run_until(end);
            Source::Rubis(Box::new(rubis))
        }
        Deployment::Mesh {
            stacks,
            active,
            rate,
            warm_secs,
        } => {
            let mut sim = mesh_sim(stacks, active, rate, warm_secs, total, seed);
            sim.run_until(end);
            Source::Sim(Box::new(sim))
        }
        Deployment::Fanout {
            classes,
            backends,
            rate,
            on_secs,
            period_secs,
        } => {
            let mut sim = fanout_sim(classes, backends, rate, on_secs, period_secs, total, seed);
            sim.run_until(end);
            Source::Sim(Box::new(sim))
        }
    };
    let mut capture = Capture {
        source,
        true_edges: BTreeMap::new(),
    };
    let sim = capture.sim();
    let mut true_edges = BTreeMap::new();
    for client in sim.topology().clients() {
        let (class, _, _): (ClassId, _, _) = sim
            .topology()
            .client_spec(client)
            .expect("clients() yields client nodes");
        let mut edges = BTreeSet::new();
        for path in sim.truth().class_paths(class).keys() {
            path_edges(client, path, &mut edges);
        }
        true_edges.insert(client, edges);
    }
    capture.true_edges = true_edges;
    capture
}
