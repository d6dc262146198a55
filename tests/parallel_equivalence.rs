//! The sharded refresh's hard requirement: for every worker count, the
//! online analyzer's output is **tick-for-tick identical** to the serial
//! (`num_workers = 1`) run — same graphs, same edges, same delays, bitwise
//! equal floats. Parallelism here is an implementation detail that must be
//! observationally invisible.

use crossbeam::channel::unbounded;
use e2eprof::apps::rubis::{Dispatch, Rubis, RubisConfig};
use e2eprof::core::prelude::*;
use e2eprof::netsim::NodeId;
use e2eprof::timeseries::{Nanos, Quanta, Tick};
use std::collections::HashSet;

fn analyzer_config(num_workers: usize) -> PathmapConfig {
    PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(Nanos::from_secs(20))
        .refresh(Nanos::from_secs(5))
        .max_delay(Nanos::from_secs(2))
        .num_workers(num_workers)
        .build()
}

/// One full online pipeline (simulator + tracers + analyzer), identical to
/// every other instance except for the analyzer's worker count.
struct Pipeline {
    rubis: Rubis,
    agents: Vec<TracerAgent>,
    analyzer: OnlineAnalyzer,
}

impl Pipeline {
    fn build(seed: u64, num_workers: usize) -> Self {
        let rubis = Rubis::build(RubisConfig {
            dispatch: Dispatch::Affinity,
            seed,
            ..RubisConfig::default()
        });
        let config = analyzer_config(num_workers);
        let (tx, rx) = unbounded();
        let clients: HashSet<NodeId> = rubis.sim().topology().clients().into_iter().collect();
        let agents: Vec<TracerAgent> = rubis
            .sim()
            .topology()
            .services()
            .into_iter()
            .map(|node| TracerAgent::new(node, clients.clone(), config.clone(), tx.clone()))
            .collect();
        let analyzer = OnlineAnalyzer::new(
            config.clone(),
            roots_from_topology(rubis.sim().topology()),
            NodeLabels::from_topology(rubis.sim().topology()),
            rx,
        );
        Pipeline {
            rubis,
            agents,
            analyzer,
        }
    }

    fn step(&mut self, step: u64) -> Vec<ServiceGraph> {
        let now = Nanos::from_secs(step * 5);
        self.rubis.sim_mut().run_until(now);
        let drain = Tick::new(step * 5_000 - 1_000);
        for a in &mut self.agents {
            a.poll(self.rubis.sim().captures(), drain);
        }
        self.analyzer.ingest();
        self.analyzer.refresh(now)
    }
}

#[test]
fn online_refresh_is_identical_for_every_worker_count() {
    let seed = 11;
    let mut serial = Pipeline::build(seed, 1);
    let mut two = Pipeline::build(seed, 2);
    let mut four = Pipeline::build(seed, 4);
    let mut many = Pipeline::build(seed, 32); // more workers than pairs

    let mut productive = 0;
    for step in 1..=12u64 {
        let reference = serial.step(step);
        assert_eq!(
            two.step(step),
            reference,
            "num_workers=2 diverged at refresh {step}"
        );
        assert_eq!(
            four.step(step),
            reference,
            "num_workers=4 diverged at refresh {step}"
        );
        assert_eq!(
            many.step(step),
            reference,
            "num_workers=32 diverged at refresh {step}"
        );
        if !reference.is_empty() {
            productive += 1;
        }
    }
    // The equivalence must be exercised on real graphs, not vacuous ones.
    assert!(productive >= 5, "only {productive} productive refreshes");
}

#[test]
fn offline_parallel_discovery_matches_serial() {
    let mut rubis = Rubis::build(RubisConfig {
        dispatch: Dispatch::Affinity,
        seed: 23,
        ..RubisConfig::default()
    });
    rubis.sim_mut().run_until(Nanos::from_secs(30));
    let cfg = analyzer_config(1);
    let signals = EdgeSignals::from_capture(rubis.sim().captures(), &cfg, rubis.sim().now());
    let roots = roots_from_topology(rubis.sim().topology());
    let labels = NodeLabels::from_topology(rubis.sim().topology());
    let pathmap = Pathmap::new(cfg);
    let serial = pathmap.discover(&signals, &roots, &labels);
    let parallel = pathmap.discover_parallel(&signals, &roots, &labels);
    assert_eq!(serial, parallel, "discover_parallel diverged from discover");
    assert!(!serial.is_empty(), "equivalence exercised on empty output");
}
