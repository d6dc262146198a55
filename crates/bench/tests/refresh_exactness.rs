//! Worker-count exactness of the online analyzer's refresh: on each of
//! [`e2eprof_bench::refresh`]'s three finished runs, every worker count
//! publishes graphs identical to the serial run's, and the run publishes
//! something. These are the runs the `refresh_scaling` bench times; this
//! test holds their output.

use e2eprof_bench::refresh::{self, replay, Scenario, WORKER_COUNTS};

fn every_count_matches_serial(scenario: &Scenario) {
    let (_, serial) = replay(scenario, 1);
    assert!(!serial.is_empty(), "{}: nothing published", scenario.name);
    for workers in WORKER_COUNTS.into_iter().filter(|&w| w != 1) {
        let (_, graphs) = replay(scenario, workers);
        assert_eq!(
            serial, graphs,
            "{}: num_workers={workers} diverged from serial output",
            scenario.name
        );
    }
}

#[test]
fn delta_graphs_are_identical_at_every_worker_count() {
    every_count_matches_serial(&refresh::delta());
}

#[test]
fn phased_fanout_graphs_are_identical_at_every_worker_count() {
    every_count_matches_serial(&refresh::phased_fanout());
}

#[test]
fn idle_mesh_graphs_are_identical_at_every_worker_count() {
    every_count_matches_serial(&refresh::idle_mesh());
}
