//! The sharded refresh's hard requirement: for every worker count, the
//! online analyzer's output is **tick-for-tick identical** to the serial
//! (`num_workers = 1`) run — same graphs, same edges, same delays, bitwise
//! equal floats. Parallelism here is an implementation detail that must be
//! observationally invisible.

use e2eprof::apps::rubis::{Dispatch, Rubis, RubisConfig};
use e2eprof::core::prelude::*;
use e2eprof::timeseries::{Nanos, Quanta};

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
fn pipeline(seed: u64, num_workers: usize) -> (Rubis, LocalPipeline) {
    let rubis = Rubis::build(RubisConfig {
        dispatch: Dispatch::Affinity,
        seed,
        ..RubisConfig::default()
    });
    let pipeline = LocalPipeline::new(rubis.sim().topology(), analyzer_config(num_workers));
    (rubis, pipeline)
}

fn step((rubis, pipeline): &mut (Rubis, LocalPipeline), step: u64) -> Vec<ServiceGraph> {
    pipeline.step(
        rubis.sim_mut(),
        Nanos::from_secs(step * 5),
        Nanos::from_secs(1),
    )
}

#[test]
fn online_refresh_is_identical_for_every_worker_count() {
    let seed = 11;
    let mut serial = pipeline(seed, 1);
    // 32: more workers than pairs.
    let mut others = [2, 4, 32].map(|n| (n, pipeline(seed, n)));

    let mut productive = 0;
    for i in 1..=12u64 {
        let reference = step(&mut serial, i);
        for (n, other) in &mut others {
            assert_eq!(
                step(other, i),
                reference,
                "num_workers={n} diverged at refresh {i}"
            );
        }
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
