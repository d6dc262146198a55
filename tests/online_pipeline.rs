//! Integration: the full online pipeline on RUBiS — tracer agents on
//! every server streaming wire-encoded RLE chunks, the central analyzer
//! maintaining sliding windows and incrementally-updated correlations,
//! service graphs republished every refresh — and where replaying a
//! finished capture publishes what the live run does, and where not.

use crossbeam::channel::unbounded;
use e2eprof::apps::rubis::{Dispatch, Rubis, RubisConfig};
use e2eprof::core::prelude::*;
use e2eprof::netsim::prelude::*;
use e2eprof::netsim::{NodeId, Route};
use e2eprof::timeseries::{Nanos, Quanta, Tick};
use std::collections::HashSet;

fn affinity_rubis(seed: u64) -> Rubis {
    Rubis::build(RubisConfig {
        dispatch: Dispatch::Affinity,
        seed,
        ..RubisConfig::default()
    })
}

#[test]
fn online_analyzer_tracks_rubis_live() {
    let mut rubis = affinity_rubis(11);
    let config = PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(Nanos::from_secs(20))
        .refresh(Nanos::from_secs(5))
        .max_delay(Nanos::from_secs(2))
        .build();

    let mut pipeline = LocalPipeline::new(rubis.sim().topology(), config);
    let updates = pipeline.analyzer_mut().subscribe();

    let mut refreshes_with_graphs = 0;
    let mut last = Vec::new();
    for step in 1..=12u64 {
        let now = Nanos::from_secs(step * 5);
        rubis.sim_mut().run_until(now);
        // Tracers drain 1 s behind the wall clock (≫ ω = 50 ms).
        let drain = Tick::new(step * 5_000 - 1_000);
        let ingested = pipeline.poll(rubis.sim().captures(), drain);
        assert!(ingested > 0, "no frames at step {step}");
        let graphs = pipeline.analyzer_mut().refresh(now);
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
    let mut rubis = affinity_rubis(19);
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

/// Four client → web → db stacks under Poisson load, but the fourth's
/// client sends nothing before 50 s.
fn late_stack_mesh() -> Simulation {
    let mut t = TopologyBuilder::new();
    let class = t.service_class("c");
    for i in 0..4 {
        let web = t.service(
            &format!("web{i}"),
            ServiceConfig::new(DelayDist::constant_millis(2)),
        );
        let db = t.service(
            &format!("db{i}"),
            ServiceConfig::new(DelayDist::exponential_millis(8)),
        );
        let workload = if i == 3 {
            Workload::trace(
                (50 * 40..100 * 40)
                    .map(|k| Nanos::from_millis(k * 25))
                    .collect(),
            )
        } else {
            Workload::poisson(40.0)
        };
        let cli = t.client(&format!("cli{i}"), class, web, workload);
        t.connect(cli, web, DelayDist::constant_millis(1));
        t.connect(web, db, DelayDist::constant_millis(1));
        t.route(web, class, Route::fixed(db));
        t.route(db, class, Route::terminal());
    }
    Simulation::new(t.build().unwrap(), 3)
}

/// Every refresh of two copies of one simulation at W 10 s, ΔW 2 s,
/// T_u 1 s on one worker, drained 1 s behind the clock: `live` is run up
/// to each refresh as it goes, `finished` to the last one first and its
/// capture then replayed.
fn live_and_replayed(
    live: &mut Simulation,
    finished: &mut Simulation,
    steps: u64,
) -> (Vec<Vec<ServiceGraph>>, Vec<Vec<ServiceGraph>>) {
    let config = PathmapConfig::builder()
        .window(Nanos::from_secs(10))
        .refresh(Nanos::from_secs(2))
        .max_delay(Nanos::from_secs(1))
        .num_workers(1)
        .build();
    let lag = Nanos::from_secs(1);
    let at = |i: u64| Nanos::from_secs(2 * i);

    let mut pipeline = LocalPipeline::new(live.topology(), config.clone());
    let live = (1..=steps)
        .map(|i| pipeline.step(live, at(i), lag))
        .collect();

    finished.run_until(at(steps));
    let mut pipeline = LocalPipeline::new(finished.topology(), config.clone());
    let replayed = (1..=steps)
        .map(|i| {
            pipeline.poll(finished.captures(), config.quanta().tick_of(at(i) - lag));
            pipeline.analyzer_mut().refresh(at(i))
        })
        .collect();
    (live, replayed)
}

/// A finished RUBiS capture replays to the live run's graphs, refresh
/// by refresh: every edge carries traffic from the first seconds, so the
/// tracers own the same streams either way.
#[test]
fn a_replayed_rubis_capture_publishes_the_live_graphs() {
    let (mut live, mut finished) = (affinity_rubis(11), affinity_rubis(11));
    let (live, replayed) = live_and_replayed(live.sim_mut(), finished.sim_mut(), 30);
    let productive = live.iter().filter(|graphs| !graphs.is_empty()).count();
    assert!(productive >= 20, "only {productive} productive refreshes");
    for (step, (live, replayed)) in (1..).zip(live.iter().zip(&replayed)) {
        assert_eq!(replayed, live, "refresh {step}");
    }
}

/// Where replay and live part: a finished capture already names the edges
/// of `cli3`, whose first request lies at 50 s, so the replay's tracers
/// own its streams from their first poll and its analyzer publishes an
/// anchor-only graph for `cli3` — one edge, one vertex — at every refresh
/// from the first productive one (step 6) to the last before the live
/// run's tracers see the client's first traffic (step 25, at 50 s); the
/// live run publishes none.
/// Every other graph of every refresh agrees. Pinned as measured: making
/// a replay own a stream only once its first record is drained would
/// change when every stream is first owned.
#[test]
fn a_replay_publishes_a_late_client_before_its_first_request() {
    let (live, replayed) = live_and_replayed(&mut late_stack_mesh(), &mut late_stack_mesh(), 50);
    for (step, (live, replayed)) in (1..).zip(live.iter().zip(&replayed)) {
        let (early, rest): (Vec<_>, Vec<_>) = replayed
            .iter()
            .cloned()
            .partition(|g| (6..=25).contains(&step) && g.client_label == "cli3");
        assert_eq!(&rest, live, "refresh {step}");
        let shape: Vec<_> = early
            .iter()
            .map(|g| (g.edges().len(), g.vertices().len()))
            .collect();
        let want = if (6..=25).contains(&step) {
            vec![(1, 1)]
        } else {
            vec![]
        };
        assert_eq!(shape, want, "refresh {step}: replay-only graphs");
    }
    let last = live.last().expect("refreshes ran");
    assert_eq!(last.len(), 4, "live publishes cli3 once it sends");
}
