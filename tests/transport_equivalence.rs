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

use e2eprof::apps::delta::{Delta, DeltaConfig};
use e2eprof::apps::rubis::{Dispatch, Rubis, RubisConfig};
use e2eprof::core::prelude::*;
use e2eprof::net::pipeline::{run_distributed, Endpoint, PipelineBuilder};
use e2eprof::netsim::Simulation;
use e2eprof::timeseries::{Nanos, Quanta};

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

/// Runs one app per seed through the in-process anchor, demanding
/// `min_productive` non-empty refreshes, and again through every
/// transport under test at every shard count, holding each refresh to the
/// anchor's.
fn assert_matches_in_process<A>(
    what: &str,
    seeds: [u64; 3],
    min_productive: usize,
    config: fn() -> PathmapConfig,
    (step, lag): (Nanos, Nanos),
    build: impl Fn(u64) -> A,
    sim: fn(&mut A) -> &mut Simulation,
) {
    for seed in seeds {
        // The in-process anchor.
        let mut app = build(seed);
        let mut local = LocalPipeline::new(sim(&mut app).topology(), config());
        let anchor: Vec<_> = (1..=12u64)
            .map(|i| local.step(sim(&mut app), Nanos::from_nanos(step.as_nanos() * i), lag))
            .collect();
        let productive = anchor.iter().filter(|g| !g.is_empty()).count();
        assert!(
            productive >= min_productive,
            "{what} seed {seed}: only {productive} productive refreshes"
        );
        for transport in transports_under_test() {
            for shards in SHARD_COUNTS {
                let endpoint = transport.bind().expect("bind endpoint");
                let dist = run_distributed(
                    sim(&mut build(seed)),
                    PipelineBuilder::new(config(), shards),
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
                            "{what} seed {seed}, {transport:?} x{shards}, refresh {}",
                            i + 1
                        ),
                    );
                }
            }
        }
    }
}

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
    assert_matches_in_process(
        "rubis",
        [1, 2, 3],
        5,
        rubis_cfg,
        (Nanos::from_secs(5), Nanos::from_secs(1)),
        |seed| {
            Rubis::build(RubisConfig {
                dispatch: Dispatch::Affinity,
                seed,
                ..RubisConfig::default()
            })
        },
        Rubis::sim_mut,
    );
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
    assert_matches_in_process(
        "delta",
        [7, 8, 9],
        2,
        delta_cfg,
        (Nanos::from_minutes(5), Nanos::from_secs(60)),
        |seed| {
            Delta::build(DeltaConfig {
                queues: 6,
                seed,
                ..DeltaConfig::default()
            })
        },
        Delta::sim_mut,
    );
}
