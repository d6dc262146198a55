//! The three finished runs the online analyzer's parallel refresh is
//! timed and checked on, and the replay that feeds them to it: a
//! [`LocalPipeline`] polled over the finished capture one refresh interval
//! at a time, its refreshes alone timed. A finished capture already names
//! every edge it will ever carry, so a replay's tracers own a stream from
//! their first poll, before its first record — a live run's own it from
//! the first poll after (`tests/online_pipeline.rs` pins where the two
//! publish differently).
//! `benches/refresh_scaling.rs` times [`replay`] at each worker count;
//! `tests/refresh_exactness.rs` holds that every count publishes the
//! serial run's graphs.
//!
//! *Delta*: every pair is alive and costs about the same, so any split
//! of the pairs balances. *Phased fan-out*: six classes share one front
//! end and take turns being on, so at any moment a few pairs — adjacent
//! in key order, they belong to one client — carry all the work and the
//! rest cost microseconds; only workers that pull from one queue share
//! that load. At this scenario's size (about a millisecond of
//! correlation a refresh) that is what the analyzer's standing pool is
//! for: no phase is too short for it, since the caller never waits for a
//! helper that has not woken.
//! *Idle mesh*: 200 client → web → db stacks, 8 of them busy, the rest
//! silent once a 12 s warm-up has left retention. The activity gate's
//! wake set is what this one exercises: a steady refresh costs the 8 busy
//! stacks' work plus publishing 200 graphs, not the 200 stacks' windows,
//! pairs and roots.

use e2eprof_apps::delta::{Delta, DeltaConfig};
use e2eprof_core::graph::ServiceGraph;
use e2eprof_core::pipeline::LocalPipeline;
use e2eprof_core::PathmapConfig;
use e2eprof_netsim::prelude::*;
use e2eprof_netsim::Route;
use e2eprof_timeseries::{Nanos, Quanta};
use std::time::{Duration, Instant};

/// The worker counts every scenario is replayed at.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The finished deployment a scenario replays.
#[derive(Debug)]
enum Run {
    Delta(Box<Delta>),
    Sim(Box<Simulation>),
}

/// One replayed deployment: a finished simulation and the refresh
/// geometry its analyzers run at.
#[derive(Debug)]
pub struct Scenario {
    /// The name reports print.
    pub name: &'static str,
    run: Run,
    config: fn(usize) -> PathmapConfig,
    /// Refreshes replayed.
    pub steps: u64,
    /// Leading refreshes replayed but not timed: the idle mesh's warm-up,
    /// while every stack is busy and then while its traffic leaves
    /// retention.
    untimed: u64,
}

impl Scenario {
    /// The finished simulation.
    pub fn sim(&self) -> &Simulation {
        match &self.run {
            Run::Delta(delta) => delta.sim(),
            Run::Sim(sim) => sim,
        }
    }

    /// The refreshes whose time is summed.
    pub fn timed(&self) -> u64 {
        self.steps - self.untimed
    }
}

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

/// Delta with 12 queues at 240 000 events an hour, run for eight
/// one-minute refreshes.
pub fn delta() -> Scenario {
    let mut delta = Delta::build(DeltaConfig {
        queues: 12,
        events_per_hour: 240_000.0,
        ..DeltaConfig::default()
    });
    delta
        .sim_mut()
        .run_until(Nanos::from_millis(DELTA_STEPS * DELTA_STEP_MS));
    Scenario {
        name: "delta",
        run: Run::Delta(Box::new(delta)),
        config: delta_config,
        steps: DELTA_STEPS,
        untimed: 0,
    }
}

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

/// Six classes of four backends, each on for 5 s of a 36 s period,
/// phases 6 s apart; the window spans one period.
pub fn phased_fanout() -> Scenario {
    let mut sim = fanout_sim(6, 4, 36.0, 5.0, 110.0, 29);
    sim.run_until(Nanos::from_millis(FANOUT_STEPS * FANOUT_STEP_MS));
    Scenario {
        name: "phased_fanout",
        run: Run::Sim(Box::new(sim)),
        config: fanout_config,
        steps: FANOUT_STEPS,
        untimed: 0,
    }
}

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

/// 200 stacks, 8 busy at 10 requests per second; the rest warm up for
/// 12 s. A window of 10 s and a lag bound of 1 s, refreshed every 2 s —
/// the benchmark's `mesh_idle` geometry at a third of its size.
pub fn idle_mesh() -> Scenario {
    let mut sim = idle_mesh_sim(200, 8, 10.0, 12, 31);
    sim.run_until(Nanos::from_millis(MESH_STEPS * MESH_STEP_MS));
    Scenario {
        name: "idle_mesh",
        run: Run::Sim(Box::new(sim)),
        config: mesh_config,
        steps: MESH_STEPS,
        untimed: MESH_UNTIMED,
    }
}

/// Replays the finished run's captures through a fresh [`LocalPipeline`]
/// whose analyzer has `num_workers` workers, draining one second behind
/// each refresh, and returns the summed time of the timed
/// refreshes and the last non-empty graph set.
pub fn replay(scenario: &Scenario, num_workers: usize) -> (Duration, Vec<ServiceGraph>) {
    let sim = scenario.sim();
    let config = (scenario.config)(num_workers);
    let (quanta, interval) = (config.quanta(), config.refresh());
    let mut pipeline = LocalPipeline::new(sim.topology(), config);
    let mut in_refresh = Duration::ZERO;
    let mut last = Vec::new();
    for step in 1..=scenario.steps {
        let now = Nanos::from_nanos(interval.as_nanos() * step);
        // Drain one second behind the clock, safely past ω.
        pipeline.poll(sim.captures(), quanta.tick_of(now - Nanos::from_secs(1)));
        let t0 = Instant::now();
        let graphs = pipeline.analyzer_mut().refresh(now);
        if step > scenario.untimed {
            in_refresh += t0.elapsed();
        }
        if !graphs.is_empty() {
            last = graphs;
        }
    }
    (in_refresh, last)
}

/// Builds the wide-fanout deployment: one front end fans out to
/// `clients` clusters of `cluster` backends each, and client `c`'s traffic
/// bursts for `burst` seconds at phase `c·(period/clients)` of every
/// `period`-second cycle (one request per 5 ms while on), for
/// `total_secs`.
///
/// With `period/clients − burst` comfortably above the lag bound `T_u`
/// plus the ω smear, the bursts are pairwise time-disjoint within the lag
/// horizon, so each client's causal evidence only ever touches its own
/// cluster — the other clusters' `(client, edge)` pairs have disjoint
/// supports. The caller still has to
/// `run_until` the returned simulation.
fn fanout_sim(
    clients: usize,
    cluster: usize,
    period: f64,
    burst: f64,
    total_secs: f64,
    seed: u64,
) -> Simulation {
    let burst_trace = |on_start: f64| {
        let mut arrivals = Vec::new();
        let mut cycle = 0.0;
        while cycle < total_secs {
            let mut t = cycle + on_start;
            while t < cycle + on_start + burst && t < total_secs {
                arrivals.push(Nanos::from_nanos((t * 1e9) as u64));
                t += 5e-3;
            }
            cycle += period;
        }
        Workload::trace(arrivals)
    };
    let mut t = TopologyBuilder::new();
    let web = t.service("web", ServiceConfig::new(DelayDist::constant_millis(2)));
    for c in 0..clients {
        let class = t.service_class(&format!("class_{c}"));
        let mut backends = Vec::new();
        for b in 0..cluster {
            let s = t.service(
                &format!("s{c}_{b}"),
                ServiceConfig::new(DelayDist::exponential_millis(10)),
            );
            t.connect(web, s, DelayDist::constant_millis(1));
            t.route(s, class, Route::terminal());
            backends.push(s);
        }
        t.route(web, class, Route::round_robin(backends));
        let phase = c as f64 * (period / clients as f64);
        let cli = t.client(&format!("cli_{c}"), class, web, burst_trace(phase));
        t.connect(cli, web, DelayDist::constant_millis(1));
    }
    Simulation::new(t.build().unwrap(), seed)
}

/// Builds a mostly idle mesh: `stacks` disjoint client → web → db stacks,
/// the first `active` under Poisson load of `rate` requests per second
/// for good, every other one sending a request every `1/rate` s for its
/// first `warm_secs` and nothing after. Once the warm-up has left the
/// analyzer's retention, a refresh has only the active stacks' pairs to
/// advance and roots to explore — the shape the activity gate's wake set
/// is for. The caller still has to `run_until` the returned simulation.
fn idle_mesh_sim(stacks: usize, active: usize, rate: f64, warm_secs: u64, seed: u64) -> Simulation {
    let warm_up = || {
        let step = 1e9 / rate;
        let count = (warm_secs as f64 * rate) as u64;
        Workload::trace(
            (0..count)
                .map(|i| Nanos::from_nanos((i as f64 * step) as u64))
                .collect(),
        )
    };
    let mut t = TopologyBuilder::new();
    for i in 0..stacks {
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
        let workload = if i < active {
            Workload::poisson(rate)
        } else {
            warm_up()
        };
        let cli = t.client(&format!("cli_{i}"), class, web, workload);
        t.connect(cli, web, DelayDist::constant_millis(1));
    }
    Simulation::new(t.build().unwrap(), seed)
}
