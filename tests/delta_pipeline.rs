//! Integration: Section 4.3 — the Delta Revenue Pipeline. Paths are
//! recovered at τ = 1 s despite unreliable per-hop delays; the 4 AM batch
//! floods the hub; the slow-database connection is diagnosed by
//! service-path delay decomposition.

use e2eprof::apps::delta::{Delta, DeltaConfig};
use e2eprof::apps::experiments::{delta_analysis, delta_paper_config, diagnose_delta};
use e2eprof::timeseries::Nanos;

/// Scaled configuration: 6 queues, same total event rate, so the test
/// stays fast while every mechanism is exercised.
fn cfg() -> DeltaConfig {
    DeltaConfig {
        queues: 6,
        ..DeltaConfig::default()
    }
}

#[test]
fn pipeline_paths_recovered_from_bursty_feeds() {
    let (_, graphs) = delta_analysis(cfg(), &delta_paper_config(), Nanos::from_minutes(135));
    // Every bursty feed (queue 0 is the smooth Poisson batch queue) must
    // recover the full forward pipeline.
    let mut recovered = 0;
    for g in &graphs {
        if g.client_label == "feed_00" {
            continue;
        }
        let full = g.has_edge_between("hub", "parser")
            && g.has_edge_between("parser", "validator")
            && g.has_edge_between("validator", "revenue_db");
        if full {
            recovered += 1;
        }
    }
    assert!(
        recovered >= 4,
        "only {recovered}/5 bursty feeds recovered the pipeline"
    );
}

#[test]
fn batch_surge_floods_the_hub_queue() {
    let mut d = Delta::build(DeltaConfig {
        batch_at: Some(Nanos::from_minutes(5)),
        batch_size: 4_000,
        ..cfg()
    });
    d.sim_mut().run_until(Nanos::from_minutes(10));
    let peak = d.sim().max_queue_len(d.nodes().hub);
    // Paper: queue length goes as high as 4000.
    assert!(peak > 3_000, "hub queue peaked at {peak}");
}

#[test]
fn slow_database_is_diagnosed_by_tail_gap() {
    let (_, normal_graphs) = delta_analysis(cfg(), &delta_paper_config(), Nanos::from_minutes(135));
    let normal = diagnose_delta(&normal_graphs, delta_paper_config().quanta());

    let (_, slow_graphs) = delta_analysis(
        DeltaConfig {
            slow_db: true,
            ..cfg()
        },
        &delta_paper_config(),
        Nanos::from_minutes(135),
    );
    let slow = diagnose_delta(&slow_graphs, delta_paper_config().quanta());

    // The slow connection shows up as a multi-second end-to-end estimate
    // whose mass sits beyond the deepest forward hop — the database.
    assert!(
        slow.e2e.as_secs_f64() > normal.e2e.as_secs_f64() + 2.0,
        "slow e2e {:?} vs normal {:?}",
        slow.e2e,
        normal.e2e
    );
    assert!(
        slow.tail_gap.as_secs_f64() > 2.0,
        "tail gap {:?}",
        slow.tail_gap
    );
    assert_eq!(slow.suspect.as_deref(), Some("revenue_db"));
}

/// The diagnosis names a suspect only for a tail gap the delays can
/// resolve: at τ = 1 s, the healthy pipeline's sub-second gap names none,
/// and the slow database's multi-second one names the database.
#[test]
fn a_suspect_is_named_only_for_a_gap_of_a_quantum_or_more() {
    let quanta = delta_paper_config().quanta();
    let diagnose = |slow_db| {
        let config = DeltaConfig { slow_db, ..cfg() };
        let (_, graphs) = delta_analysis(config, &delta_paper_config(), Nanos::from_minutes(135));
        diagnose_delta(&graphs, quanta)
    };
    let healthy = diagnose(false);
    assert!(healthy.tail_gap < quanta.duration(), "{healthy:?}");
    assert_eq!(healthy.suspect, None, "{healthy:?}");
    let slow = diagnose(true);
    assert!(slow.tail_gap >= quanta.duration(), "{slow:?}");
    assert_eq!(slow.suspect.as_deref(), Some("revenue_db"), "{slow:?}");
}
