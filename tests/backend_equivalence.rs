//! The Fig. 9 engines are interchangeable: offline discovery with each
//! stateless engine plugged in through [`Pathmap::with_correlator`] finds
//! the same edge sets as [`Pathmap::new`]'s RLE engine on a real
//! application topology. (The pipeline always uses the RLE engine; the
//! others stay as library code for the Fig. 9 comparison.)

use e2eprof::apps::rubis::{Dispatch, Rubis, RubisConfig};
use e2eprof::core::prelude::*;
use e2eprof::netsim::NodeId;
use e2eprof::timeseries::{Nanos, Quanta};
use e2eprof::xcorr::engine::all_engines;

#[test]
fn rubis_offline_all_backends_agree() {
    let mut app = Rubis::build(RubisConfig {
        dispatch: Dispatch::Affinity,
        seed: 1,
        ..RubisConfig::default()
    });
    let sim = app.sim_mut();
    sim.run_until(Nanos::from_secs(30));
    let cfg = PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(Nanos::from_secs(20))
        .refresh(Nanos::from_secs(5))
        .max_delay(Nanos::from_secs(2))
        .build();
    let signals = EdgeSignals::from_capture(sim.captures(), &cfg, sim.now());
    let labels = NodeLabels::from_topology(sim.topology());
    let roots = roots_from_topology(sim.topology());
    let edge_sets = |graphs: &[ServiceGraph]| {
        let mut v: Vec<Vec<(NodeId, NodeId)>> = graphs
            .iter()
            .map(|g| {
                let mut e: Vec<_> = g.edges().iter().map(|e| (e.from, e.to)).collect();
                e.sort_unstable();
                e
            })
            .collect();
        v.sort();
        v
    };
    let reference = edge_sets(&Pathmap::new(cfg.clone()).discover(&signals, &roots, &labels));
    assert!(
        reference.iter().any(|edges| edges.len() > 1),
        "nothing found"
    );
    for engine in all_engines() {
        let name = engine.name();
        let graphs =
            Pathmap::with_correlator(cfg.clone(), engine).discover(&signals, &roots, &labels);
        assert_eq!(
            reference,
            edge_sets(&graphs),
            "engine {name} disagrees with the default"
        );
    }
}
