//! Shared test fixtures: a mesh of disjoint stacks.

use e2eprof_netsim::prelude::*;
use e2eprof_netsim::Route;

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
