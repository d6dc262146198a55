//! The network transport is a delivery mechanism, not a semantic change:
//! running the online pipeline over loopback sockets — with the analyzer
//! tier sharded 1, 2, or 4 ways and the per-shard graphs merged in shard
//! order — must publish graphs **identical** to the in-process channel
//! run at every refresh, on both evaluation applications.
//!
//! The in-memory transport (deterministic pipes, same framing and broker
//! code) runs unconditionally. The kernel transports run when selected:
//! `E2EPROF_TRANSPORT=tcp` or `E2EPROF_TRANSPORT=unix` — the CI matrix
//! sets one per job, so every transport gets the full seed × shard grid
//! without tripling the default suite's wall time.

use crossbeam::channel::unbounded;
use e2eprof::apps::delta::{Delta, DeltaConfig};
use e2eprof::apps::rubis::{Dispatch, Rubis, RubisConfig};
use e2eprof::core::prelude::*;
use e2eprof::net::pipeline::{run_distributed, Endpoint, PipelineBuilder};
use e2eprof::netsim::{NodeId, Simulation};
use e2eprof::timeseries::{Nanos, Quanta};
use std::collections::HashSet;

/// The in-process anchor: tracer agents on every service feeding one
/// analyzer over a channel.
fn run_inproc(
    sim: &mut Simulation,
    config: &PathmapConfig,
    steps: u64,
    step: Nanos,
    drain_lag: Nanos,
) -> Vec<Vec<ServiceGraph>> {
    let (tx, rx) = unbounded();
    let clients: HashSet<NodeId> = sim.topology().clients().into_iter().collect();
    let mut agents: Vec<TracerAgent> = sim
        .topology()
        .services()
        .into_iter()
        .map(|node| TracerAgent::new(node, clients.clone(), config.clone(), tx.clone()))
        .collect();
    let mut analyzer = OnlineAnalyzer::new(
        config.clone(),
        roots_from_topology(sim.topology()),
        NodeLabels::from_topology(sim.topology()),
        rx,
    );
    let mut out = Vec::new();
    for i in 1..=steps {
        let now = Nanos::from_nanos(step.as_nanos() * i);
        sim.run_until(now);
        let drain = config.quanta().tick_of(now.saturating_sub(drain_lag));
        for a in &mut agents {
            a.poll(sim.captures(), drain);
        }
        analyzer.ingest();
        out.push(analyzer.refresh(now));
    }
    out
}

/// Structural equality: edge sets, spike lags, hop delays, and bottleneck
/// flags exact; spike strengths within 1e-9.
fn assert_graphs_equivalent(a: &[ServiceGraph], b: &[ServiceGraph], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: graph count differs");
    for (ga, gb) in a.iter().zip(b) {
        assert_eq!(ga.client_label, gb.client_label, "{ctx}");
        let key = |g: &ServiceGraph| {
            let mut edges: Vec<_> = g
                .edges()
                .iter()
                .map(|e| {
                    (
                        (e.from, e.to),
                        e.spikes.iter().map(|s| s.delay).collect::<Vec<_>>(),
                        e.hop_delay,
                    )
                })
                .collect();
            edges.sort();
            edges
        };
        assert_eq!(
            key(ga),
            key(gb),
            "{ctx}, {}: transport changed the graph\n{ga}\nvs\n{gb}",
            ga.client_label
        );
        let flags = |g: &ServiceGraph| {
            let mut v: Vec<_> = g
                .vertices()
                .iter()
                .map(|v| (v.label.clone(), v.bottleneck))
                .collect();
            v.sort();
            v
        };
        assert_eq!(flags(ga), flags(gb), "{ctx}: bottleneck flags differ");
        for ea in ga.edges() {
            let eb = gb.edge(ea.from, ea.to).expect("edge sets already equal");
            for (sa, sb) in ea.spikes.iter().zip(&eb.spikes) {
                assert!(
                    (sa.strength - sb.strength).abs() < 1e-9,
                    "{ctx}: strength drift {} vs {}",
                    sa.strength,
                    sb.strength
                );
            }
        }
    }
}

/// The transports this process should exercise. In-memory pipes always;
/// a kernel transport when `E2EPROF_TRANSPORT` selects it.
fn transports_under_test() -> Vec<Endpoint> {
    match std::env::var("E2EPROF_TRANSPORT").as_deref() {
        Ok("tcp") => vec![Endpoint::Tcp],
        Ok("unix") => vec![Endpoint::Unix],
        _ => vec![Endpoint::Mem],
    }
}

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn rubis_cfg() -> PathmapConfig {
    PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(Nanos::from_secs(20))
        .refresh(Nanos::from_secs(5))
        .max_delay(Nanos::from_secs(2))
        .build()
}

#[test]
fn rubis_distributed_matches_in_process_at_every_shard_count() {
    let step = Nanos::from_secs(5);
    let lag = Nanos::from_secs(1);
    for seed in [1, 2, 3] {
        let build = || {
            Rubis::build(RubisConfig {
                dispatch: Dispatch::Affinity,
                seed,
                ..RubisConfig::default()
            })
        };
        let mut anchor_app = build();
        let anchor = run_inproc(anchor_app.sim_mut(), &rubis_cfg(), 12, step, lag);
        let productive = anchor.iter().filter(|g| !g.is_empty()).count();
        assert!(
            productive >= 5,
            "rubis seed {seed}: only {productive} productive refreshes"
        );
        for transport in transports_under_test() {
            for shards in SHARD_COUNTS {
                let mut app = build();
                let endpoint = transport.bind().expect("bind endpoint");
                let dist = run_distributed(
                    app.sim_mut(),
                    PipelineBuilder::new(rubis_cfg(), shards),
                    &endpoint,
                    12,
                    step,
                    lag,
                );
                for (i, (a, b)) in anchor.iter().zip(&dist).enumerate() {
                    assert_graphs_equivalent(
                        a,
                        b,
                        &format!(
                            "rubis seed {seed}, {transport:?} x{shards}, refresh {}",
                            i + 1
                        ),
                    );
                }
            }
        }
    }
}

fn delta_cfg() -> PathmapConfig {
    PathmapConfig::builder()
        .quanta(Quanta::from_secs(1))
        .omega_ticks(20)
        .window(Nanos::from_minutes(30))
        .refresh(Nanos::from_minutes(5))
        .max_delay(Nanos::from_minutes(10))
        .build()
}

#[test]
fn delta_distributed_matches_in_process_at_every_shard_count() {
    let step = Nanos::from_minutes(5);
    let lag = Nanos::from_secs(60);
    for seed in [7, 8, 9] {
        let build = || {
            Delta::build(DeltaConfig {
                queues: 6,
                seed,
                ..DeltaConfig::default()
            })
        };
        let mut anchor_app = build();
        let anchor = run_inproc(anchor_app.sim_mut(), &delta_cfg(), 12, step, lag);
        let productive = anchor.iter().filter(|g| !g.is_empty()).count();
        assert!(
            productive >= 2,
            "delta seed {seed}: only {productive} productive refreshes"
        );
        for transport in transports_under_test() {
            for shards in SHARD_COUNTS {
                let mut app = build();
                let endpoint = transport.bind().expect("bind endpoint");
                let dist = run_distributed(
                    app.sim_mut(),
                    PipelineBuilder::new(delta_cfg(), shards),
                    &endpoint,
                    12,
                    step,
                    lag,
                );
                for (i, (a, b)) in anchor.iter().zip(&dist).enumerate() {
                    assert_graphs_equivalent(
                        a,
                        b,
                        &format!(
                            "delta seed {seed}, {transport:?} x{shards}, refresh {}",
                            i + 1
                        ),
                    );
                }
            }
        }
    }
}
