//! Shared harness for the benchmark suite and the `experiments` binary.
//!
//! Everything here prepares *inputs* (simulated traces, edge signals,
//! prepared correlation pairs) so that benches measure only the analysis
//! work, exactly like the paper's Fig. 9 measures service-graph
//! computation time for already-collected traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use e2eprof_apps::rubis::{Dispatch, Rubis, RubisConfig};
use e2eprof_core::graph::NodeLabels;
use e2eprof_core::pathmap::roots_from_topology;
use e2eprof_core::signals::EdgeSignals;
use e2eprof_core::PathmapConfig;
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::{Nanos, Quanta, RleSeries};

pub mod refresh;
pub mod transport;

/// A prepared analysis scenario: a finished RUBiS round-robin run plus the
/// extracted edge signals for one analysis window.
#[derive(Debug)]
pub struct Scenario {
    /// The deployment (kept for truth/labels).
    pub rubis: Rubis,
    /// The analysis configuration.
    pub config: PathmapConfig,
    /// Extracted per-edge signals.
    pub signals: EdgeSignals,
    /// Pathmap roots.
    pub roots: Vec<(NodeId, NodeId)>,
    /// Node labels.
    pub labels: NodeLabels,
}

/// Builds the Fig. 6 (round-robin) deployment, runs it long enough to fill
/// a `window`-sized analysis window, and extracts signals.
///
/// `max_delay` is the correlation lag bound `T_u` (the paper uses 1 min;
/// scaled-down sweeps use less to keep the quadratic engines affordable).
pub fn rubis_scenario(window: Nanos, max_delay: Nanos, seed: u64) -> Scenario {
    let config = PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(window)
        .refresh(Nanos::from_nanos(
            (window.as_nanos() / 4).max(1_000_000_000),
        ))
        .max_delay(max_delay)
        .build();
    let mut rubis = Rubis::build(RubisConfig {
        dispatch: Dispatch::RoundRobin,
        seed,
        ..RubisConfig::default()
    });
    // Fill the window plus the unmaterialized tail plus slack.
    let run_for = window + max_delay + Nanos::from_secs(5);
    rubis.sim_mut().run_until(run_for);
    let signals = EdgeSignals::from_capture(rubis.sim().captures(), &config, rubis.sim().now());
    let roots = roots_from_topology(rubis.sim().topology());
    let labels = NodeLabels::from_topology(rubis.sim().topology());
    Scenario {
        rubis,
        config,
        signals,
        roots,
        labels,
    }
}

/// Extracts one prepared correlation pair from a scenario: the bidding
/// client's source signal and the `WS → TS1` edge signal.
pub fn corr_pair(s: &Scenario) -> (RleSeries, RleSeries) {
    let n = s.rubis.nodes();
    let x = s
        .signals
        .source_signal(n.c1, n.ws)
        .expect("bidding source signal");
    let y = s
        .signals
        .target_signal(n.ws, n.ts1)
        .expect("WS->TS1 signal")
        .clone();
    (x, y)
}

/// A minimal JSON value for machine-readable benchmark artifacts (the
/// build has no JSON dependency; the subset here — objects, arrays,
/// numbers, strings, booleans — is all the bench reports need).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A float, rendered with enough digits to round-trip.
    Num(f64),
    /// An unsigned integer.
    Int(u64),
    /// A string (escaped minimally: quotes and backslashes).
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    fn render(&self, out: &mut String) {
        match self {
            JsonValue::Num(v) if v.is_finite() => out.push_str(&format!("{v}")),
            JsonValue::Num(_) => out.push_str("null"),
            JsonValue::Int(v) => out.push_str(&format!("{v}")),
            JsonValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    JsonValue::Str(k.clone()).render(out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }

    /// Renders the value as a JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out
    }
}

/// Writes `BENCH_<name>.json` into the current directory and returns the
/// path, so result-scraping tooling has a machine-readable artifact next
/// to the human-readable stdout table.
pub fn write_bench_json(name: &str, value: &JsonValue) -> std::io::Result<std::path::PathBuf> {
    let path = std::path::PathBuf::from(format!("BENCH_{name}.json"));
    std::fs::write(&path, value.to_json() + "\n")?;
    Ok(path)
}

/// Formats a nanosecond duration for result tables.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_produces_usable_signals() {
        let s = rubis_scenario(Nanos::from_secs(10), Nanos::from_secs(2), 1);
        let (x, y) = corr_pair(&s);
        assert!(x.len() >= 9_000);
        assert!(x.support() > 0);
        assert!(y.support() > 0);
        assert_eq!(s.roots.len(), 2);
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let v = JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str("a \"b\"\\c".into())),
            ("n".into(), JsonValue::Int(3)),
            ("x".into(), JsonValue::Num(1.5)),
            ("nan".into(), JsonValue::Num(f64::NAN)),
            ("ok".into(), JsonValue::Bool(true)),
            (
                "xs".into(),
                JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Int(2)]),
            ),
        ]);
        assert_eq!(
            v.to_json(),
            r#"{"name":"a \"b\"\\c","n":3,"x":1.5,"nan":null,"ok":true,"xs":[1,2]}"#
        );
    }

    #[test]
    fn duration_formatting() {
        use std::time::Duration;
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7µs");
    }
}
