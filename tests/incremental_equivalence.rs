//! The activity-gated incremental tier's hard requirement: with
//! `incremental` enabled, the online analyzer's published graphs are
//! **bit-for-bit identical** to the eager run — spike strengths compared
//! via `f64::to_bits`, not a tolerance — at every refresh, on both
//! evaluation applications.
//!
//! The skip paths are proven no-ops (DESIGN.md §6.7): a pair is only
//! skipped when its change epochs and boundary-run checks certify that
//! every append/evict correction term is a sum of zero products, and a
//! root graph is only reused when every pair its exploration touched
//! carried bitwise. Anything short of exact equality here means the
//! proof does not hold and the gate is silently corrupting results.

use crossbeam::channel::unbounded;
use e2eprof::apps::delta::{Delta, DeltaConfig};
use e2eprof::apps::rubis::{Dispatch, Rubis, RubisConfig};
use e2eprof::core::prelude::*;
use e2eprof::net::pipeline::{run_distributed, Endpoint, PipelineBuilder};
use e2eprof::netsim::{NodeId, Simulation};
use e2eprof::timeseries::{Nanos, Quanta};
use std::collections::HashSet;

/// Drives a full online pipeline (tracer agents on every service + one
/// analyzer) over `steps` refresh intervals, returning each refresh's
/// published graphs and the analyzer for counter inspection.
fn run_pipeline(
    sim: &mut Simulation,
    config: &PathmapConfig,
    steps: u64,
    step: Nanos,
    drain_lag: Nanos,
) -> (Vec<Vec<ServiceGraph>>, OnlineAnalyzer) {
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
        if let Some(hint) = analyzer.take_hints() {
            for a in &mut agents {
                a.apply_hint_state(&hint);
            }
        }
    }
    (out, analyzer)
}

/// Bitwise equality: everything exact, spike strengths via `to_bits`.
fn assert_graphs_identical(eager: &[ServiceGraph], gated: &[ServiceGraph], ctx: &str) {
    assert_eq!(eager.len(), gated.len(), "{ctx}: graph count differs");
    for (ga, gb) in eager.iter().zip(gated) {
        assert_eq!(ga.client_label, gb.client_label, "{ctx}");
        let vertices = |g: &ServiceGraph| {
            let mut v: Vec<_> = g
                .vertices()
                .iter()
                .map(|v| (v.label.clone(), v.bottleneck))
                .collect();
            v.sort();
            v
        };
        assert_eq!(vertices(ga), vertices(gb), "{ctx}: vertex sets differ");
        let edges = |g: &ServiceGraph| {
            let mut e: Vec<_> = g
                .edges()
                .iter()
                .map(|e| {
                    (
                        (e.from, e.to),
                        e.hop_delay,
                        e.spikes
                            .iter()
                            .map(|s| (s.delay, s.strength.to_bits()))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            e.sort();
            e
        };
        assert_eq!(
            edges(ga),
            edges(gb),
            "{ctx}, {}: incremental run diverged bitwise\n{ga}\nvs\n{gb}",
            ga.client_label
        );
    }
}

const SCREENING: ScreeningConfig = ScreeningConfig {
    decimation: 8,
    hysteresis: 0.5,
};

fn rubis_cfg(incremental: bool, screened: bool, reduced: bool) -> PathmapConfig {
    let mut b = PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(Nanos::from_secs(20))
        .refresh(Nanos::from_secs(5))
        .max_delay(Nanos::from_secs(2))
        .incremental(incremental);
    if screened {
        b = b.screening(SCREENING);
    }
    if reduced {
        b = b.reduction(ReductionConfig::default());
    }
    b.build()
}

fn delta_cfg(incremental: bool, screened: bool, reduced: bool) -> PathmapConfig {
    let mut b = PathmapConfig::builder()
        .quanta(Quanta::from_secs(1))
        .omega_ticks(20)
        .window(Nanos::from_minutes(30))
        .refresh(Nanos::from_minutes(5))
        .max_delay(Nanos::from_minutes(10))
        .incremental(incremental);
    if screened {
        b = b.screening(SCREENING);
    }
    if reduced {
        b = b.reduction(ReductionConfig::default());
    }
    b.build()
}

fn rubis_app(seed: u64) -> Rubis {
    Rubis::build(RubisConfig {
        dispatch: Dispatch::Affinity,
        seed,
        ..RubisConfig::default()
    })
}

fn delta_app(seed: u64) -> Delta {
    Delta::build(DeltaConfig {
        queues: 6,
        seed,
        ..DeltaConfig::default()
    })
}

#[test]
fn rubis_incremental_matches_eager_bitwise_across_seeds() {
    let step = Nanos::from_secs(5);
    let lag = Nanos::from_secs(1);
    for seed in [1, 2, 3] {
        let (eager, _) = run_pipeline(
            rubis_app(seed).sim_mut(),
            &rubis_cfg(false, false, false),
            12,
            step,
            lag,
        );
        let (gated, analyzer) = run_pipeline(
            rubis_app(seed).sim_mut(),
            &rubis_cfg(true, false, false),
            12,
            step,
            lag,
        );
        let mut productive = 0;
        for (i, (a, b)) in eager.iter().zip(&gated).enumerate() {
            assert_graphs_identical(a, b, &format!("rubis seed {seed}, refresh {}", i + 1));
            if !a.is_empty() {
                productive += 1;
            }
        }
        assert!(
            productive >= 5,
            "rubis seed {seed}: only {productive} productive refreshes"
        );
        let stats = analyzer
            .incremental_stats()
            .expect("incremental tier is on");
        assert!(stats.fine_pairs > 0, "rubis seed {seed}: tier never ran");
    }
}

#[test]
fn delta_incremental_matches_eager_bitwise_across_seeds() {
    let step = Nanos::from_minutes(5);
    let lag = Nanos::from_secs(60);
    for seed in [7, 8, 9] {
        let (eager, _) = run_pipeline(
            delta_app(seed).sim_mut(),
            &delta_cfg(false, false, false),
            12,
            step,
            lag,
        );
        let (gated, _) = run_pipeline(
            delta_app(seed).sim_mut(),
            &delta_cfg(true, false, false),
            12,
            step,
            lag,
        );
        let mut productive = 0;
        for (i, (a, b)) in eager.iter().zip(&gated).enumerate() {
            assert_graphs_identical(a, b, &format!("delta seed {seed}, refresh {}", i + 1));
            if !a.is_empty() {
                productive += 1;
            }
        }
        assert!(
            productive >= 2,
            "delta seed {seed}: only {productive} productive refreshes"
        );
    }
}

/// The gate must also hold when composed with the coarse screening tier
/// (Phase-0 bound caching) and the edge-side reduction loop (demotions
/// rewrite the signal fingerprint and must dirty every root).
#[test]
fn rubis_incremental_matches_eager_under_screening_and_reduction() {
    let step = Nanos::from_secs(5);
    let lag = Nanos::from_secs(1);
    for seed in [1, 2, 3] {
        let (eager, _) = run_pipeline(
            rubis_app(seed).sim_mut(),
            &rubis_cfg(false, true, true),
            12,
            step,
            lag,
        );
        let (gated, _) = run_pipeline(
            rubis_app(seed).sim_mut(),
            &rubis_cfg(true, true, true),
            12,
            step,
            lag,
        );
        for (i, (a, b)) in eager.iter().zip(&gated).enumerate() {
            assert_graphs_identical(
                a,
                b,
                &format!("rubis seed {seed} screened+reduced, refresh {}", i + 1),
            );
        }
    }
}

#[test]
fn delta_incremental_matches_eager_under_screening_and_reduction() {
    let step = Nanos::from_minutes(5);
    let lag = Nanos::from_secs(60);
    for seed in [7, 8, 9] {
        let (eager, _) = run_pipeline(
            delta_app(seed).sim_mut(),
            &delta_cfg(false, true, true),
            12,
            step,
            lag,
        );
        let (gated, _) = run_pipeline(
            delta_app(seed).sim_mut(),
            &delta_cfg(true, true, true),
            12,
            step,
            lag,
        );
        for (i, (a, b)) in eager.iter().zip(&gated).enumerate() {
            assert_graphs_identical(
                a,
                b,
                &format!("delta seed {seed} screened+reduced, refresh {}", i + 1),
            );
        }
    }
}

/// The gate is per-shard state; a 2-shard socket deployment must publish
/// the same bits as the eager 2-shard run. TCP exercises the kernel
/// transport path end to end (falls back to in-memory pipes if loopback
/// sockets are unavailable in the sandbox).
#[test]
fn rubis_incremental_matches_eager_over_two_shard_tcp() {
    let step = Nanos::from_secs(5);
    let lag = Nanos::from_secs(1);
    let endpoint_kind = match Endpoint::Tcp.bind() {
        Ok(_) => Endpoint::Tcp,
        Err(_) => Endpoint::Mem,
    };
    for seed in [1, 2] {
        let run = |incremental: bool| {
            let mut app = rubis_app(seed);
            let endpoint = endpoint_kind.bind().expect("bind endpoint");
            run_distributed(
                app.sim_mut(),
                PipelineBuilder::new(rubis_cfg(incremental, true, true), 2),
                &endpoint,
                12,
                step,
                lag,
            )
        };
        let eager = run(false);
        let gated = run(true);
        for (i, (a, b)) in eager.iter().zip(&gated).enumerate() {
            assert_graphs_identical(
                a,
                b,
                &format!(
                    "rubis seed {seed}, {endpoint_kind:?} x2 screened+reduced, refresh {}",
                    i + 1
                ),
            );
        }
    }
}
