//! Pins EXPERIMENTS.md's Fig. 10 table: the rows `experiments fig10`
//! prints are deterministic, so the recorded numbers must be exactly what
//! the tree computes.

use e2eprof_bench::{fig10_row, Fig10Row};

#[test]
fn fig10_rows_match_experiments_md() {
    let row = |window_secs, packets, dense_len, burst_len, rle_runs| Fig10Row {
        window_secs,
        packets,
        dense_len,
        burst_len,
        rle_runs,
    };
    let recorded = [
        row(30, 431, 34_897, 15_809, 481),
        row(60, 739, 64_969, 28_917, 882),
        row(120, 1_335, 124_930, 54_453, 1_660),
        row(240, 2_561, 245_000, 105_829, 3_268),
    ];
    for expected in recorded {
        assert_eq!(fig10_row(expected.window_secs), expected);
    }
}
