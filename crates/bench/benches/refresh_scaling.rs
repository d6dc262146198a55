//! Scaling of the online analyzer's parallel correlation refresh.
//!
//! Replays each of [`e2eprof_bench::refresh`]'s three finished runs
//! (Delta, phased fan-out, idle mesh) through a fresh analyzer per worker
//! count — five interleaved rounds, keeping each count's fastest — and
//! times only the `refresh` calls. That every count publishes the serial
//! run's graphs is held by `tests/refresh_exactness.rs`; this bench only
//! times and reports.
//!
//! Delta's pairs are all alive and cost about the same, so its counts
//! should scale. The phased fan-out's refreshes are about a millisecond,
//! its live pairs few and costly: the pool's queue is what shares them,
//! and a count that reads slower than 1 is waiting on helpers. The idle
//! mesh times only the refreshes after its warm-up has left retention,
//! a few busy stacks' work a refresh.

use e2eprof_bench::refresh::{self, replay, Scenario, WORKER_COUNTS};
use std::time::Duration;

/// Times the scenario at every worker count.
fn scale(scenario: &Scenario) {
    println!(
        "  {}: {} refreshes ({} timed), {} packets captured",
        scenario.name,
        scenario.steps,
        scenario.timed(),
        scenario.sim().captures().total_packets(),
    );
    // Five rounds over all worker counts, keeping each count's fastest
    // replay: the host is shared and its speed drifts, so the counts are
    // interleaved rather than timed one after another.
    let mut fastest = [Duration::MAX; WORKER_COUNTS.len()];
    for _round in 0..5 {
        for (slot, &workers) in fastest.iter_mut().zip(&WORKER_COUNTS) {
            *slot = replay(scenario, workers).0.min(*slot);
        }
    }
    let mut baseline = None;
    for (elapsed, workers) in fastest.into_iter().zip(WORKER_COUNTS) {
        let total = elapsed.as_secs_f64();
        let speedup = *baseline.get_or_insert(total) / total;
        println!(
            "    num_workers={workers:>2}  refresh total {:>8.1} ms  \
             ({:>7.2} ms/refresh, speedup {speedup:.2}x)",
            total * 1e3,
            total * 1e3 / scenario.timed() as f64,
        );
    }
}

fn main() {
    let host_parallelism = e2eprof_core::parallel::available_workers();
    println!("refresh_scaling: host parallelism {host_parallelism}");
    let scenarios = [
        refresh::delta(),
        refresh::phased_fanout(),
        refresh::idle_mesh(),
    ];
    for scenario in &scenarios {
        scale(scenario);
    }
}
