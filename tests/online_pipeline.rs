//! Integration: the full online pipeline on RUBiS — tracer agents on
//! every server streaming wire-encoded RLE chunks, the central analyzer
//! maintaining sliding windows and incrementally-updated correlations,
//! service graphs republished every refresh.

use crossbeam::channel::unbounded;
use e2eprof::apps::rubis::{Dispatch, Rubis, RubisConfig};
use e2eprof::core::prelude::*;
use e2eprof::netsim::NodeId;
use e2eprof::timeseries::{Nanos, Quanta, Tick};
use std::collections::HashSet;

#[test]
fn online_analyzer_tracks_rubis_live() {
    let mut rubis = Rubis::build(RubisConfig {
        dispatch: Dispatch::Affinity,
        seed: 11,
        ..RubisConfig::default()
    });
    let config = PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(Nanos::from_secs(20))
        .refresh(Nanos::from_secs(5))
        .max_delay(Nanos::from_secs(2))
        .build();

    let (tx, rx) = unbounded();
    let clients: HashSet<NodeId> = rubis.sim().topology().clients().into_iter().collect();
    let mut agents: Vec<TracerAgent> = rubis
        .sim()
        .topology()
        .services()
        .into_iter()
        .map(|node| TracerAgent::new(node, clients.clone(), config.clone(), tx.clone()))
        .collect();
    let mut analyzer = OnlineAnalyzer::new(
        config.clone(),
        roots_from_topology(rubis.sim().topology()),
        NodeLabels::from_topology(rubis.sim().topology()),
        rx,
    );

    let updates = analyzer.subscribe();

    let mut refreshes_with_graphs = 0;
    let mut last = Vec::new();
    for step in 1..=12u64 {
        let now = Nanos::from_secs(step * 5);
        rubis.sim_mut().run_until(now);
        // Tracers drain 1 s behind the wall clock (≫ ω = 50 ms).
        let drain = Tick::new(step * 5_000 - 1_000);
        for a in &mut agents {
            a.poll(rubis.sim().captures(), drain);
        }
        let ingested = analyzer.ingest();
        assert!(ingested > 0, "no frames at step {step}");
        let graphs = analyzer.refresh(now);
        if !graphs.is_empty() {
            refreshes_with_graphs += 1;
            last = graphs;
        }
    }
    assert!(
        refreshes_with_graphs >= 5,
        "only {refreshes_with_graphs} productive refreshes"
    );
    assert_eq!(last.len(), 2);
    let bid = last
        .iter()
        .find(|g| g.client_label == "C1")
        .expect("bid graph");
    for (a, b) in [("WS", "TS1"), ("TS1", "EJB1"), ("EJB1", "DB"), ("WS", "C1")] {
        assert!(bid.has_edge_between(a, b), "missing {a}->{b}:\n{bid}");
    }
    // Delay histories accumulate across the published refreshes for
    // change detection.
    let mut tracker = ChangeTracker::new();
    for update in updates.try_iter() {
        tracker.record(update.at, &update.graphs);
    }
    assert!(tracker.keys().count() >= 6);
    let (c, f, t) = tracker.keys().next().unwrap();
    assert!(tracker.history(c, f, t).len() >= 2);
}

#[test]
fn analyzer_heals_tracer_gaps() {
    // One tracer misses several polls (e.g. restarted); the analyzer's
    // windows heal and discovery resumes producing the full path.
    let mut rubis = Rubis::build(RubisConfig {
        dispatch: Dispatch::Affinity,
        seed: 19,
        ..RubisConfig::default()
    });
    let config = PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(Nanos::from_secs(15))
        .refresh(Nanos::from_secs(5))
        .max_delay(Nanos::from_secs(2))
        .build();
    let (tx, rx) = unbounded();
    let clients: HashSet<NodeId> = rubis.sim().topology().clients().into_iter().collect();
    let services = rubis.sim().topology().services();
    let flaky_node = services[3]; // one EJB's tracer is flaky
    let mut agents: Vec<TracerAgent> = services
        .into_iter()
        .map(|node| TracerAgent::new(node, clients.clone(), config.clone(), tx.clone()))
        .collect();
    let mut analyzer = OnlineAnalyzer::new(
        config.clone(),
        roots_from_topology(rubis.sim().topology()),
        NodeLabels::from_topology(rubis.sim().topology()),
        rx,
    );

    let mut flaky_agent: Option<TracerAgent> = None;
    let mut last = Vec::new();
    for step in 1..=20u64 {
        let now = Nanos::from_secs(step * 5);
        rubis.sim_mut().run_until(now);
        let drain = Tick::new(step * 5_000 - 1_000);
        // Steps 6-9: the flaky node's tracer is down (restart simulated by
        // replacing the agent, which restarts its streams from scratch).
        if step == 6 {
            let idx = agents
                .iter()
                .position(|a| a.node() == flaky_node)
                .expect("flaky agent present");
            flaky_agent = Some(agents.swap_remove(idx));
        }
        if step == 10 {
            drop(flaky_agent.take());
            agents.push(TracerAgent::new(
                flaky_node,
                clients.clone(),
                config.clone(),
                tx.clone(),
            ));
        }
        for a in &mut agents {
            a.poll(rubis.sim().captures(), drain);
        }
        analyzer.ingest();
        let graphs = analyzer.refresh(now);
        if !graphs.is_empty() {
            last = graphs;
        }
    }
    // After healing, the full bidding path (through the flaky EJB) is back.
    let bid = last
        .iter()
        .find(|g| g.client_label == "C1")
        .expect("bidding graph after healing");
    for (a, b) in [("WS", "TS1"), ("TS1", "EJB1"), ("EJB1", "DB"), ("WS", "C1")] {
        assert!(
            bid.has_edge_between(a, b),
            "missing {a}->{b} after gap:\n{bid}"
        );
    }
}
