//! Shared test fixtures: deterministic bursty workloads, the wide-fanout
//! topologies used to exercise edge-side reduction, and a mesh of
//! disjoint stacks.

use e2eprof_netsim::prelude::*;
use e2eprof_netsim::Route;
use e2eprof_timeseries::Nanos;

/// Deterministic arrival trace: one request every `step_ms` during the
/// window `[on_start, on_end)` of each `period`, for `total` seconds.
pub(crate) fn burst_trace(
    on_start: f64,
    on_end: f64,
    period: f64,
    step_ms: u64,
    total: f64,
) -> Workload {
    Workload::trace(burst_arrivals(
        on_start, on_end, period, step_ms, 0.0, total,
    ))
}

/// Arrival timestamps of a periodic burst pattern over `[from, total)`
/// seconds: one request every `step_ms` during `[on_start, on_end)` of
/// each `period`, with cycles anchored at `from` (pass a multiple of
/// `period` to keep phases comparable across segments).
pub(crate) fn burst_arrivals(
    on_start: f64,
    on_end: f64,
    period: f64,
    step_ms: u64,
    from: f64,
    total: f64,
) -> Vec<Nanos> {
    let mut arrivals = Vec::new();
    let mut cycle = from;
    while cycle < total {
        let mut t = cycle + on_start;
        while t < cycle + on_end && t < total {
            arrivals.push(Nanos::from_nanos((t * 1e9) as u64));
            t += step_ms as f64 / 1e3;
        }
        cycle += period;
    }
    arrivals
}

/// One front end fanning out to a hot backend plus many dead ones. The
/// traced client bursts in `[0, 1)` of each 4 s period while the noise
/// class (feeding the dead backends) bursts in `[2.2, 3.2)`: with
/// `T_u = 500 ms` the supports never overlap at any admissible lag.
pub(crate) fn wide_fanout_sim(backends: usize, seed: u64) -> Simulation {
    let mut t = TopologyBuilder::new();
    let bid = t.service_class("bid");
    let other = t.service_class("other");
    let web = t.service("web", ServiceConfig::new(DelayDist::constant_millis(2)));
    let hot = t.service("hot", ServiceConfig::new(DelayDist::exponential_millis(10)));
    t.connect(web, hot, DelayDist::constant_millis(1));
    t.route(web, bid, Route::fixed(hot));
    t.route(hot, bid, Route::terminal());
    let mut dead = Vec::new();
    for i in 0..backends {
        let s = t.service(
            &format!("s{i}"),
            ServiceConfig::new(DelayDist::exponential_millis(10)),
        );
        t.connect(web, s, DelayDist::constant_millis(1));
        t.route(s, other, Route::terminal());
        dead.push(s);
    }
    t.route(web, other, Route::round_robin(dead));
    let cli = t.client("cli", bid, web, burst_trace(0.0, 1.0, 4.0, 5, 40.0));
    t.connect(cli, web, DelayDist::constant_millis(1));
    let noise = t.client("noise", other, web, burst_trace(2.2, 3.2, 4.0, 5, 40.0));
    t.connect(noise, web, DelayDist::constant_millis(1));
    Simulation::new(t.build().unwrap(), seed)
}

/// The wide-fanout topology with a *phase-shifting* noise tier, for
/// exercising the edge-reduction promote path: for the first 32 s the
/// noise class bursts in `[2.2, 3.2)` — time-disjoint from the traced
/// client's `[0, 1)` bursts, so an analyzer owning only `cli` demotes the
/// dead-backend edges — then shifts into the overlapping `[0.2, 1.2)`
/// window for the rest of the run, which must promote them back to full
/// resolution (overlap is the only event that can revive a demoted edge).
pub(crate) fn shifting_fanout_sim(backends: usize, seed: u64, total: f64) -> Simulation {
    let mut t = TopologyBuilder::new();
    let bid = t.service_class("bid");
    let other = t.service_class("other");
    let web = t.service("web", ServiceConfig::new(DelayDist::constant_millis(2)));
    let hot = t.service("hot", ServiceConfig::new(DelayDist::exponential_millis(10)));
    t.connect(web, hot, DelayDist::constant_millis(1));
    t.route(web, bid, Route::fixed(hot));
    t.route(hot, bid, Route::terminal());
    let mut dead = Vec::new();
    for i in 0..backends {
        let s = t.service(
            &format!("s{i}"),
            ServiceConfig::new(DelayDist::exponential_millis(10)),
        );
        t.connect(web, s, DelayDist::constant_millis(1));
        t.route(s, other, Route::terminal());
        dead.push(s);
    }
    t.route(web, other, Route::round_robin(dead));
    let cli = t.client("cli", bid, web, burst_trace(0.0, 1.0, 4.0, 5, total));
    t.connect(cli, web, DelayDist::constant_millis(1));
    let mut noise_arrivals = burst_arrivals(2.2, 3.2, 4.0, 5, 0.0, 32.0);
    noise_arrivals.extend(burst_arrivals(0.2, 1.2, 4.0, 5, 32.0, total));
    let noise = t.client("noise", other, web, Workload::trace(noise_arrivals));
    t.connect(noise, web, DelayDist::constant_millis(1));
    Simulation::new(t.build().unwrap(), seed)
}

/// Disjoint client→web→db stacks, one per workload.
pub(crate) fn idle_mesh(seed: u64, workloads: &[Workload]) -> Simulation {
    let mut t = TopologyBuilder::new();
    let class = t.service_class("c");
    for (i, workload) in workloads.iter().enumerate() {
        let web = t.service(
            &format!("web{i}"),
            ServiceConfig::new(DelayDist::constant_millis(2)),
        );
        let db = t.service(
            &format!("db{i}"),
            ServiceConfig::new(DelayDist::exponential_millis(8)),
        );
        let cli = t.client(&format!("cli{i}"), class, web, workload.clone());
        t.connect(cli, web, DelayDist::constant_millis(1));
        t.connect(web, db, DelayDist::constant_millis(1));
        t.route(web, class, Route::fixed(db));
        t.route(db, class, Route::terminal());
    }
    Simulation::new(t.build().unwrap(), seed)
}
