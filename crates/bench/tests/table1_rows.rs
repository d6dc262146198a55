//! Pins EXPERIMENTS.md's Table 1: the rows `experiments table1` prints
//! are deterministic (seed 42, ten measured minutes), so the recorded
//! mean latencies must be exactly what the tree computes, to the
//! millisecond the table shows.

use e2eprof_apps::experiments::{table1, Table1Policy};
use e2eprof_timeseries::Nanos;

#[test]
fn table1_rows_match_experiments_md() {
    let recorded = [
        (Table1Policy::RoundRobinBaseline, (48.0, 48.0)),
        (Table1Policy::RoundRobinPerturbed, (109.0, 109.0)),
        (Table1Policy::E2EProfPerturbed, (100.0, 119.0)),
    ];
    for (policy, expected) in recorded {
        let row = table1(policy, 42, Nanos::from_minutes(10));
        let measured = (
            row.bidding.as_millis_f64().round(),
            row.comment.as_millis_f64().round(),
        );
        assert_eq!(measured, expected, "{policy:?}");
    }
}
