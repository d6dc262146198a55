//! The reduction tier's two safety contracts.
//!
//! 1. **Off means off, bitwise.** A reduction tier that is absent,
//!    switched off, or configured but inert publishes the same graphs:
//!    same edges, same spike lags, same strengths to the last bit, same
//!    hop delays. On RUBiS the `E2EPROF_REDUCTION=off` environment
//!    override must land on the default path even when a builder
//!    explicitly enabled reduction first; on Delta a tier whose patience
//!    never runs out (level-tagged frames, every entry at level 0) must
//!    match the untagged default.
//!
//! 2. **On preserves the strong-edge set.** With reduction enabled, the
//!    published graphs carry the identical strong edges and spike lags;
//!    strengths may drift only by recompute order (≤ 1e-9) and hop delays
//!    stay within the
//!    ground-truth conformance tolerance (35%, 6 ms floor). A fanout
//!    workload with a causally dead noise tier additionally proves the
//!    loop *does* demote — the equivalence is not vacuous.

use crossbeam::channel::unbounded;
use e2eprof::apps::delta::{Delta, DeltaConfig};
use e2eprof::apps::rubis::{Dispatch, Rubis, RubisConfig};
use e2eprof::core::prelude::*;
use e2eprof::netsim::{NodeId, Simulation};
use e2eprof::timeseries::{Nanos, Quanta};
use e2eprof_bench::noise_fanout_sim;
use std::collections::HashSet;

/// Drives the full in-process pipeline (tracer agents on every service +
/// one analyzer owning `roots`, exploring against `universe`), returning
/// each refresh's published graphs and the analyzer for counter access.
#[allow(clippy::too_many_arguments)]
fn run_pipeline(
    sim: &mut Simulation,
    config: &PathmapConfig,
    roots: Vec<(NodeId, NodeId)>,
    universe: HashSet<NodeId>,
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
    let mut analyzer = OnlineAnalyzer::with_universe(
        config.clone(),
        roots,
        universe,
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

/// `run_pipeline` with every topology root owned by the one analyzer —
/// the single-shard shape the RUBiS/Delta suites use.
fn run_all_roots(
    sim: &mut Simulation,
    config: &PathmapConfig,
    steps: u64,
    step: Nanos,
    drain_lag: Nanos,
) -> Vec<Vec<ServiceGraph>> {
    let roots = roots_from_topology(sim.topology());
    let universe: HashSet<NodeId> = roots.iter().map(|&(c, _)| c).collect();
    run_pipeline(sim, config, roots, universe, steps, step, drain_lag).0
}

/// Bitwise structural key: edge set, spike `(delay, strength bits)`, hop
/// delay.
fn bit_key(graphs: &[ServiceGraph]) -> impl PartialEq + std::fmt::Debug {
    let mut v: Vec<_> = graphs
        .iter()
        .map(|g| {
            let mut edges: Vec<_> = g
                .edges()
                .iter()
                .map(|e| {
                    (
                        (e.from, e.to),
                        e.spikes
                            .iter()
                            .map(|s| (s.delay, s.strength.to_bits()))
                            .collect::<Vec<_>>(),
                        e.hop_delay,
                    )
                })
                .collect();
            edges.sort();
            (g.client_label.clone(), edges)
        })
        .collect();
    v.sort();
    v
}

fn assert_bit_identical(a: &[Vec<ServiceGraph>], b: &[Vec<ServiceGraph>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: refresh count differs");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            bit_key(ra),
            bit_key(rb),
            "{ctx}: refresh {} not bit-identical",
            i + 1
        );
    }
}

/// Strong-edge equivalence under reduction: identical edge sets and spike
/// lags; strengths within 1e-9 (promote recompute order); hop delays
/// within the ground-truth conformance tolerance (35% with a 6 ms floor).
fn assert_strong_edges_equivalent(plain: &[ServiceGraph], reduced: &[ServiceGraph], ctx: &str) {
    assert_eq!(plain.len(), reduced.len(), "{ctx}: graph count differs");
    let mut pa: Vec<_> = plain.iter().collect();
    let mut pb: Vec<_> = reduced.iter().collect();
    pa.sort_by_key(|g| g.client_label.clone());
    pb.sort_by_key(|g| g.client_label.clone());
    for (ga, gb) in pa.iter().zip(&pb) {
        assert_eq!(ga.client_label, gb.client_label, "{ctx}");
        let key = |g: &ServiceGraph| {
            let mut edges: Vec<_> = g
                .edges()
                .iter()
                .map(|e| {
                    (
                        (e.from, e.to),
                        e.spikes.iter().map(|s| s.delay).collect::<Vec<_>>(),
                    )
                })
                .collect();
            edges.sort();
            edges
        };
        assert_eq!(
            key(ga),
            key(gb),
            "{ctx}, {}: reduction changed the strong-edge set\n{ga}\nvs\n{gb}",
            ga.client_label
        );
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
            let (da, db) = (ea.hop_delay, eb.hop_delay);
            let tol = (da.as_nanos() as f64 * 0.35).max(6e6);
            let diff = (da.as_nanos() as f64 - db.as_nanos() as f64).abs();
            assert!(
                diff <= tol,
                "{ctx}: hop delay {da:?} vs {db:?} beyond tolerance"
            );
        }
    }
}

fn rubis_cfg(reduction: Option<ReductionConfig>) -> PathmapConfig {
    let mut b = PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(Nanos::from_secs(20))
        .refresh(Nanos::from_secs(5))
        .max_delay(Nanos::from_secs(2));
    if let Some(red) = reduction {
        b = b.reduction(red);
    }
    b.build()
}

fn delta_cfg(reduction: Option<ReductionConfig>) -> PathmapConfig {
    // The paper's Delta analysis at a reduced horizon: τ = 1 s, ω = 20·τ,
    // W = 30 min, refresh = 5 min, T_u = 10 min.
    let mut b = PathmapConfig::builder()
        .quanta(Quanta::from_secs(1))
        .omega_ticks(20)
        .window(Nanos::from_minutes(30))
        .refresh(Nanos::from_minutes(5))
        .max_delay(Nanos::from_minutes(10));
    if let Some(red) = reduction {
        b = b.reduction(red);
    }
    b.build()
}

fn build_rubis(seed: u64) -> Rubis {
    Rubis::build(RubisConfig {
        dispatch: Dispatch::Affinity,
        seed,
        ..RubisConfig::default()
    })
}

fn build_delta(seed: u64) -> Delta {
    Delta::build(DeltaConfig {
        queues: 6,
        seed,
        ..DeltaConfig::default()
    })
}

/// The `E2EPROF_REDUCTION=off` override must erase an explicitly enabled
/// reduction config and land on the exact default path — proven bitwise
/// through the full pipeline, not just on the config struct.
#[test]
fn rubis_reduction_off_is_bit_identical_to_default() {
    // Build the env-overridden config once, up front: no other test in
    // this binary touches process environment, and clearing the variable
    // immediately keeps the window to a single config construction.
    std::env::set_var("E2EPROF_REDUCTION", "off");
    let mut b = PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(Nanos::from_secs(20))
        .refresh(Nanos::from_secs(5))
        .max_delay(Nanos::from_secs(2));
    b = b.reduction(ReductionConfig::default()).env_overrides();
    let env_off = b.build();
    std::env::remove_var("E2EPROF_REDUCTION");
    assert!(
        env_off.reduction().is_none(),
        "E2EPROF_REDUCTION=off must clear an explicitly enabled config"
    );

    let step = Nanos::from_secs(5);
    let lag = Nanos::from_secs(1);
    for seed in [1, 2, 3] {
        let mut a = build_rubis(seed);
        let mut b = build_rubis(seed);
        let plain = run_all_roots(a.sim_mut(), &rubis_cfg(None), 12, step, lag);
        let off = run_all_roots(b.sim_mut(), &env_off, 12, step, lag);
        assert_bit_identical(&plain, &off, &format!("rubis seed {seed}"));
        assert!(
            plain.iter().filter(|r| !r.is_empty()).count() >= 5,
            "rubis seed {seed}: equivalence exercised on too few graphs"
        );
    }
}

/// Reduction grew the batch frame a per-series decimation-level tag, set
/// on every frame once a reduction config is present. A tier that is
/// configured but can never fire (its patience never runs out) ships
/// every edge at level 0 in tagged frames — and must publish the exact
/// graphs of the untagged default, bit for bit: the tag is the same
/// writer's header field, not a second pipeline.
#[test]
fn delta_reduction_off_is_bit_identical_to_default() {
    let step = Nanos::from_minutes(5);
    let lag = Nanos::from_secs(60);
    let inert = delta_cfg(Some(ReductionConfig {
        patience: u32::MAX,
        ..ReductionConfig::default()
    }));
    for seed in [7, 8, 9] {
        let mut a = build_delta(seed);
        let mut b = build_delta(seed);
        let plain = run_all_roots(a.sim_mut(), &delta_cfg(None), 12, step, lag);
        let off = run_all_roots(b.sim_mut(), &inert, 12, step, lag);
        assert_bit_identical(&plain, &off, &format!("delta seed {seed}"));
        assert!(
            plain.iter().filter(|r| !r.is_empty()).count() >= 2,
            "delta seed {seed}: equivalence exercised on too few graphs"
        );
    }
}

#[test]
fn rubis_reduction_on_preserves_strong_edges() {
    let step = Nanos::from_secs(5);
    let lag = Nanos::from_secs(1);
    for seed in [1, 2, 3] {
        let mut a = build_rubis(seed);
        let mut b = build_rubis(seed);
        let plain = run_all_roots(a.sim_mut(), &rubis_cfg(None), 12, step, lag);
        let reduced = run_all_roots(
            b.sim_mut(),
            &rubis_cfg(Some(ReductionConfig::default())),
            12,
            step,
            lag,
        );
        for (i, (pa, pb)) in plain.iter().zip(&reduced).enumerate() {
            assert_strong_edges_equivalent(
                pa,
                pb,
                &format!("rubis seed {seed}, refresh {}", i + 1),
            );
        }
    }
}

#[test]
fn delta_reduction_on_preserves_strong_edges() {
    let step = Nanos::from_minutes(5);
    let lag = Nanos::from_secs(60);
    for seed in [7, 8, 9] {
        let mut a = build_delta(seed);
        let mut b = build_delta(seed);
        let plain = run_all_roots(a.sim_mut(), &delta_cfg(None), 12, step, lag);
        let reduced = run_all_roots(
            b.sim_mut(),
            &delta_cfg(Some(ReductionConfig::default())),
            12,
            step,
            lag,
        );
        for (i, (pa, pb)) in plain.iter().zip(&reduced).enumerate() {
            assert_strong_edges_equivalent(
                pa,
                pb,
                &format!("delta seed {seed}, refresh {}", i + 1),
            );
        }
    }
}

/// On the noise-tier fanout workload (analyzer owning only `cli`), the
/// loop demotes the dead backends — the strong-edge equivalence above is
/// exercised on a run where reduction actually changed the wire.
#[test]
fn fanout_reduction_demotes_with_identical_strong_edges() {
    let cfg = |reduction: Option<ReductionConfig>| {
        let mut b = PathmapConfig::builder()
            .window(Nanos::from_secs(20))
            .refresh(Nanos::from_secs(5))
            .max_delay(Nanos::from_millis(500));
        if let Some(red) = reduction {
            b = b.reduction(red);
        }
        b.build()
    };
    let run = |reduction: Option<ReductionConfig>| {
        let mut sim = noise_fanout_sim(4, 20, 5, 5, 60.0);
        let mut roots = roots_from_topology(sim.topology());
        roots.sort_unstable();
        let universe: HashSet<NodeId> = roots.iter().map(|&(c, _)| c).collect();
        roots.truncate(1);
        let config = cfg(reduction);
        run_pipeline(
            &mut sim,
            &config,
            roots,
            universe,
            30,
            Nanos::from_secs(2),
            Nanos::from_secs(1),
        )
    };
    let (plain, _) = run(None);
    let (reduced, analyzer) = run(Some(ReductionConfig::default()));
    let mut productive = 0;
    for (i, (pa, pb)) in plain.iter().zip(&reduced).enumerate() {
        assert_strong_edges_equivalent(pa, pb, &format!("fanout refresh {}", i + 1));
        if !pa.is_empty() {
            productive += 1;
        }
    }
    assert!(productive >= 5, "only {productive} productive refreshes");
    let stats = analyzer.reduction_stats().expect("reduction enabled");
    assert!(
        stats.demotions >= 4,
        "the dead backend tier never demoted: {stats:?}"
    );
    assert!(stats.reduced_now > 0, "stats: {stats:?}");
}
