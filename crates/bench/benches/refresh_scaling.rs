//! Scaling of the online analyzer's parallel correlation refresh.
//!
//! Replays one captured trace through a fresh analyzer per worker count
//! (five interleaved rounds, keeping each count's fastest), timing only
//! the `refresh` calls. Every analyzer sees byte-identical
//! tracer frames, and the outputs are asserted equal across worker counts
//! — the speedup must come purely from spreading the per-(client, edge)
//! incremental-correlation work and the per-root discovery.
//!
//! Two scenarios. *Delta*: every pair is alive and costs about the same,
//! so any split of the pairs balances. *Phased fan-out*: six classes
//! share one front end and take turns being on, so at any moment a few
//! pairs — adjacent in key order, they belong to one client — carry all
//! the work and the rest cost microseconds; only workers that pull from
//! one queue share that load — when the analyzer forks at all: a phase
//! that cost a thread less than `analyzer::FORK_WORTH` at its last run
//! stays on the calling thread, and at this scenario's size (about a
//! millisecond of correlation a refresh) every phase after the first
//! refresh does. Its worker counts should therefore read alike; a count
//! that reads slower than 1 is paying for threads the gate should have
//! saved.
//!
//! *Idle mesh*: 200 client → web → db stacks, 8 of them busy, the rest
//! silent once a 12 s warm-up has left retention; only the refreshes after
//! that are timed. The activity gate's wake set is what this one measures:
//! a steady refresh costs the 8 busy stacks' work plus publishing 200
//! graphs, not the 200 stacks' windows, pairs and roots. Far below the
//! fork threshold, its worker counts should read alike too.

use crossbeam::channel::unbounded;
use e2eprof_apps::delta::{Delta, DeltaConfig};
use e2eprof_bench::{fanout_sim, idle_mesh_sim, write_bench_json, JsonValue};
use e2eprof_core::analyzer::OnlineAnalyzer;
use e2eprof_core::graph::{NodeLabels, ServiceGraph};
use e2eprof_core::pathmap::roots_from_topology;
use e2eprof_core::tracer::TracerAgent;
use e2eprof_core::PathmapConfig;
use e2eprof_netsim::prelude::Simulation;
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::{Nanos, Quanta, Tick};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// One replayed deployment: a finished simulation and the refresh
/// geometry its analyzers run at.
struct Scenario<'a> {
    name: &'static str,
    sim: &'a Simulation,
    config: fn(usize) -> PathmapConfig,
    tick_ms: u64,
    step_ms: u64,
    steps: u64,
    /// Leading refreshes replayed but not timed: the idle mesh's warm-up,
    /// while every stack is busy and then while its traffic leaves
    /// retention.
    untimed: u64,
}

impl Scenario<'_> {
    /// The refreshes whose time is summed.
    fn timed(&self) -> u64 {
        self.steps - self.untimed
    }
}

const DELTA_QUEUES: usize = 12;
const DELTA_STEP_MS: u64 = 60_000;
const DELTA_STEPS: u64 = 8;

fn delta_config(num_workers: usize) -> PathmapConfig {
    PathmapConfig::builder()
        .quanta(Quanta::from_millis(20))
        .omega_ticks(20)
        .window(Nanos::from_minutes(6))
        .refresh(Nanos::from_millis(DELTA_STEP_MS))
        .max_delay(Nanos::from_secs(30))
        .num_workers(num_workers)
        .build()
}

/// Six classes of four backends, each on for 5 s of a 36 s period,
/// phases 6 s apart; the window spans one period.
const FANOUT_STEP_MS: u64 = 3_000;
const FANOUT_STEPS: u64 = 36;

fn fanout_config(num_workers: usize) -> PathmapConfig {
    PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(Nanos::from_secs(36))
        .refresh(Nanos::from_millis(FANOUT_STEP_MS))
        .max_delay(Nanos::from_secs(1))
        .num_workers(num_workers)
        .build()
}

/// 200 stacks, 8 busy at 10 requests per second; the rest warm up for
/// 12 s. A window of 10 s and a lag bound of 1 s, refreshed every 2 s —
/// the benchmark's `mesh_idle` geometry at a third of its size.
const MESH_STEP_MS: u64 = 2_000;
const MESH_STEPS: u64 = 40;
/// The warm-up's last runs leave the 15 s retention by 28 s (step 14).
const MESH_UNTIMED: u64 = 15;

fn mesh_config(num_workers: usize) -> PathmapConfig {
    PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(Nanos::from_secs(10))
        .refresh(Nanos::from_millis(MESH_STEP_MS))
        .max_delay(Nanos::from_secs(1))
        .num_workers(num_workers)
        .build()
}

/// Replays the finished run's captures through a fresh analyzer, returning
/// the summed refresh time and the last non-empty graph set.
fn replay(scenario: &Scenario<'_>, num_workers: usize) -> (Duration, Vec<ServiceGraph>) {
    let config = (scenario.config)(num_workers);
    let topology = scenario.sim.topology();
    let (tx, rx) = unbounded();
    let clients: HashSet<NodeId> = topology.clients().into_iter().collect();
    let mut agents: Vec<TracerAgent> = topology
        .services()
        .into_iter()
        .map(|node| TracerAgent::new(node, clients.clone(), config.clone(), tx.clone()))
        .collect();
    let mut analyzer = OnlineAnalyzer::new(
        config,
        roots_from_topology(topology),
        NodeLabels::from_topology(topology),
        rx,
    );

    let mut in_refresh = Duration::ZERO;
    let mut last = Vec::new();
    for step in 1..=scenario.steps {
        // Drain one second behind the clock, safely past ω.
        let drain = Tick::new((step * scenario.step_ms - 1_000) / scenario.tick_ms);
        for a in &mut agents {
            a.poll(scenario.sim.captures(), drain);
        }
        analyzer.ingest();
        let t0 = Instant::now();
        let graphs = analyzer.refresh(Nanos::from_millis(step * scenario.step_ms));
        if step > scenario.untimed {
            in_refresh += t0.elapsed();
        }
        if !graphs.is_empty() {
            last = graphs;
        }
    }
    (in_refresh, last)
}

/// Times the scenario at every worker count, asserting identical output.
fn scale(scenario: &Scenario<'_>) -> JsonValue {
    println!(
        "  {}: {} refreshes ({} timed), {} packets captured",
        scenario.name,
        scenario.steps,
        scenario.timed(),
        scenario.sim.captures().total_packets(),
    );
    // Five rounds over all worker counts, keeping each count's fastest
    // replay: the host is shared and its speed drifts, so the counts are
    // interleaved rather than timed one after another.
    const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
    let mut fastest = [Duration::MAX; WORKER_COUNTS.len()];
    let mut reference: Option<Vec<ServiceGraph>> = None;
    for _round in 0..5 {
        for (slot, &workers) in fastest.iter_mut().zip(&WORKER_COUNTS) {
            let (elapsed, graphs) = replay(scenario, workers);
            assert!(!graphs.is_empty(), "{}: nothing published", scenario.name);
            match &reference {
                None => reference = Some(graphs),
                Some(r) => assert_eq!(
                    r, &graphs,
                    "{}: num_workers={workers} diverged from serial output",
                    scenario.name
                ),
            }
            *slot = elapsed.min(*slot);
        }
    }
    let mut baseline = None;
    let mut rows = Vec::new();
    for (elapsed, workers) in fastest.into_iter().zip(WORKER_COUNTS) {
        let total = elapsed.as_secs_f64();
        let speedup = *baseline.get_or_insert(total) / total;
        println!(
            "    num_workers={workers:>2}  refresh total {:>8.1} ms  \
             ({:>7.2} ms/refresh, speedup {speedup:.2}x)",
            total * 1e3,
            total * 1e3 / scenario.timed() as f64,
        );
        rows.push(JsonValue::Obj(vec![
            ("num_workers".into(), JsonValue::Int(workers as u64)),
            ("refresh_total_ms".into(), JsonValue::Num(total * 1e3)),
            (
                "ms_per_refresh".into(),
                JsonValue::Num(total * 1e3 / scenario.timed() as f64),
            ),
            ("speedup".into(), JsonValue::Num(speedup)),
        ]));
    }
    JsonValue::Obj(vec![
        ("scenario".into(), JsonValue::Str(scenario.name.into())),
        ("refreshes".into(), JsonValue::Int(scenario.steps)),
        ("timed".into(), JsonValue::Int(scenario.timed())),
        ("rows".into(), JsonValue::Arr(rows)),
    ])
}

fn main() {
    let host_parallelism = e2eprof_core::parallel::available_workers();
    println!("refresh_scaling: host parallelism {host_parallelism}");

    let mut delta = Delta::build(DeltaConfig {
        queues: DELTA_QUEUES,
        events_per_hour: 240_000.0,
        ..DeltaConfig::default()
    });
    delta
        .sim_mut()
        .run_until(Nanos::from_millis(DELTA_STEPS * DELTA_STEP_MS));
    let mut fanout = fanout_sim(6, 4, 36.0, 5.0, 110.0, 29);
    fanout.run_until(Nanos::from_millis(FANOUT_STEPS * FANOUT_STEP_MS));
    let mut mesh = idle_mesh_sim(200, 8, 10.0, 12, 31);
    mesh.run_until(Nanos::from_millis(MESH_STEPS * MESH_STEP_MS));

    let scenarios = [
        Scenario {
            name: "delta",
            sim: delta.sim(),
            config: delta_config,
            tick_ms: 20,
            step_ms: DELTA_STEP_MS,
            steps: DELTA_STEPS,
            untimed: 0,
        },
        Scenario {
            name: "phased_fanout",
            sim: &fanout,
            config: fanout_config,
            tick_ms: 1,
            step_ms: FANOUT_STEP_MS,
            steps: FANOUT_STEPS,
            untimed: 0,
        },
        Scenario {
            name: "idle_mesh",
            sim: &mesh,
            config: mesh_config,
            tick_ms: 1,
            step_ms: MESH_STEP_MS,
            steps: MESH_STEPS,
            untimed: MESH_UNTIMED,
        },
    ];
    let report = JsonValue::Obj(vec![
        ("bench".into(), JsonValue::Str("refresh_scaling".into())),
        (
            "host_parallelism".into(),
            JsonValue::Int(host_parallelism as u64),
        ),
        (
            "scenarios".into(),
            JsonValue::Arr(scenarios.iter().map(scale).collect()),
        ),
    ]);
    let path = write_bench_json("refresh_scaling", &report).expect("write bench artifact");
    println!("  wrote {}", path.display());
}
