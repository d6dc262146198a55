//! The benchmark's contract: which metrics exist, their units, which
//! direction is better and how much each end-to-end metric may worsen.
//! `BENCHMARK.json` at the repository root is this table printed by
//! `--manifest`; `--self-test` fails when the two drift apart.

use crate::json::Json;
use crate::workloads;

/// How long one run measures, seconds.
pub const RUN_SECONDS: u64 = 15;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// `b` is better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        let delta = match self {
            Better::Lower => b - a,
            Better::Higher => a - b,
        };
        if a == 0.0 {
            if delta == 0.0 {
                0.0
            } else {
                delta.signum() * f64::INFINITY
            }
        } else {
            delta / a.abs()
        }
    }
}

/// One end-to-end metric: what an operator of E2EProf pays or gets.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
    /// Share of the baseline's value by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// A count or a ratio of counts: the same inputs give the same value
    /// to the last digit, so for equal seeds any difference is a change
    /// in behaviour, not noise.
    pub exact: bool,
}

/// Bound of every wall-clock metric: the widest the contract allows. On
/// the shared 2-core host the first baseline was taken on, ten runs of
/// one workload spread (interquartile, as a share of the median) by 2-5 %
/// in quiet phases and by 8-16 % on `mesh_idle` while a neighbour was
/// busy; a tenth could not be held. The tail percentile could not be
/// held at all (up to 18 %) and is reported per layer instead
/// (`bench.step_ms_p90`). The three counts below spread only as far as
/// seeds differ (at most 1.6 %, `edge_recall` on `fanout_phased`).
pub const TIMING_BOUND: f64 = 0.25;

/// The end-to-end metrics, in the order they are printed.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
        exact: false,
    },
    EndToEnd {
        name: "records_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: TIMING_BOUND,
        exact: false,
    },
    EndToEnd {
        name: "step_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: TIMING_BOUND,
        exact: false,
    },
    EndToEnd {
        name: "tracer_ns_per_record",
        unit: "ns",
        better: Better::Lower,
        bound: TIMING_BOUND,
        exact: false,
    },
    EndToEnd {
        name: "wire_bytes_per_record",
        unit: "B",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
    },
    EndToEnd {
        name: "edge_recall",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.06,
        exact: true,
    },
    EndToEnd {
        name: "edge_precision",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.02,
        exact: true,
    },
];

/// The per-layer metrics of a traced run: `(name, unit, better)`. Layer =
/// module. None has a bound; each names (in `bench/README.md`) the
/// end-to-end metric it should move and on which workload.
pub const PER_LAYER: [(&str, &str, Better); 46] = [
    ("core.tracer.poll_ns_per_record", "ns", Better::Lower),
    ("core.tracer.poll_us_per_flush", "us", Better::Lower),
    ("core.tracer.frames_per_flush", "count", Better::Lower),
    ("core.tracer.frames_dropped", "count", Better::Lower),
    ("core.tracer.self_share", "ratio", Better::Lower),
    ("timeseries.density.ns_per_record", "ns", Better::Lower),
    ("timeseries.rle.runs_per_record", "count", Better::Lower),
    ("timeseries.wire.encode_ns_per_run", "ns", Better::Lower),
    ("timeseries.wire.decode_ns_per_run", "ns", Better::Lower),
    ("timeseries.wire.bytes_per_run", "B", Better::Lower),
    ("timeseries.window.append_ns_per_run", "ns", Better::Lower),
    ("timeseries.window.retained_runs", "count", Better::Lower),
    ("net.link.send_us_per_frame", "us", Better::Lower),
    ("net.link.envelope_bytes_per_frame", "B", Better::Lower),
    ("net.link.redials", "count", Better::Lower),
    ("net.frame.crc_ns_per_byte", "ns", Better::Lower),
    ("net.broker.relay_us_p50", "us", Better::Lower),
    ("net.broker.relay_us_p90", "us", Better::Lower),
    ("net.broker.write_calls_per_frame", "count", Better::Lower),
    ("net.broker.fanout_skew_us_p50", "us", Better::Lower),
    ("net.broker.duplicates_rejected", "count", Better::Lower),
    ("net.broker.ring_dropped", "count", Better::Lower),
    ("net.self_share", "ratio", Better::Lower),
    ("core.analyzer.ingest_us_per_frame", "us", Better::Lower),
    ("core.analyzer.ingest_ns_per_record", "ns", Better::Lower),
    ("core.analyzer.refresh_ms_p50", "ms", Better::Lower),
    ("core.analyzer.refresh_ms_p90", "ms", Better::Lower),
    ("core.analyzer.refresh_share", "ratio", Better::Lower),
    ("core.analyzer.self_share", "ratio", Better::Lower),
    ("core.analyzer.pairs", "count", Better::Lower),
    ("core.analyzer.pairs_pruned_share", "ratio", Better::Higher),
    ("core.analyzer.pairs_skipped_share", "ratio", Better::Higher),
    ("core.analyzer.roots_reused_share", "ratio", Better::Higher),
    (
        "core.analyzer.series_allocs_per_refresh",
        "count",
        Better::Lower,
    ),
    ("xcorr.correlate_us_per_pair", "us", Better::Lower),
    ("xcorr.spike_us_per_pair", "us", Better::Lower),
    ("core.pathmap.discover_ms", "ms", Better::Lower),
    ("mem.rss_setup_mb", "MiB", Better::Lower),
    ("mem.rss_peak_delta_mb", "MiB", Better::Lower),
    ("trace.overhead_share", "ratio", Better::Lower),
    ("trace.step_ms_mean", "ms", Better::Lower),
    ("trace.untraced_step_ms_mean", "ms", Better::Lower),
    ("trace.samples", "count", Better::Higher),
    ("bench.driver.self_share", "ratio", Better::Lower),
    ("bench.step_ms_p50", "ms", Better::Lower),
    ("bench.step_ms_p90", "ms", Better::Lower),
];

/// `BENCHMARK.json`, from the tables above and the workload list.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "bench/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("bench")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workloads::ALL
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, better)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
