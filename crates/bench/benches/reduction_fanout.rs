//! Bytes-on-wire saved by the analyzer→tracer reduction feedback loop on
//! the noise-tier fanout workload.
//!
//! One front end serves the traced `cli` root through a hot backend while
//! a time-disjoint `noise` client keeps `BACKENDS` cold backends busy:
//! live traffic, zero causal evidence for the owned root. The same run is
//! driven twice through in-process tracer agents whose frame sink counts
//! what each frame would cost on the socket transport (envelope header +
//! payload) — once with reduction off, once with the feedback loop on,
//! routing each refresh's hint snapshot back to every agent exactly like
//! the distributed pipeline does.
//!
//! Asserts the reduced run ships at least 3× fewer bytes while
//! discovering the identical strong-edge set, and writes
//! `BENCH_reduction_fanout.json`.

use crossbeam::channel::unbounded;
use e2eprof_bench::{noise_fanout_sim, write_bench_json, JsonValue};
use e2eprof_core::analyzer::{OnlineAnalyzer, ReductionStats};
use e2eprof_core::config::ReductionConfig;
use e2eprof_core::graph::{NodeLabels, ServiceGraph};
use e2eprof_core::pathmap::roots_from_topology;
use e2eprof_core::tracer::{FrameSink, TracerAgent, TracerFrame};
use e2eprof_core::PathmapConfig;
use e2eprof_net::frame::HEADER_LEN;
use e2eprof_netsim::prelude::*;
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::Tick;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BACKENDS: usize = 8;
const CLI_STEP_MS: u64 = 40;
const NOISE_STEP_MS: u64 = 2;
const SEED: u64 = 17;
const TOTAL_SECS: u64 = 300;
const STEP_SECS: u64 = 2;

fn config(reduction: bool) -> PathmapConfig {
    let mut b = PathmapConfig::builder()
        .window(Nanos::from_secs(20))
        .refresh(Nanos::from_secs(5))
        .max_delay(Nanos::from_millis(500));
    if reduction {
        b = b.reduction(ReductionConfig {
            base_level: 64,
            patience: 2,
        });
    }
    b.build()
}

/// Counts what each frame would cost on the socket transport — the
/// envelope header plus the wire payload — while forwarding it to the
/// analyzer channel unchanged.
struct CountingSink {
    tx: crossbeam::channel::Sender<TracerFrame>,
    bytes: Arc<AtomicU64>,
    frames: Arc<AtomicU64>,
}

impl FrameSink for CountingSink {
    fn send_frame(&mut self, frame: TracerFrame) -> u64 {
        let payload = match &frame {
            TracerFrame::Series { payload, .. }
            | TracerFrame::Batch { payload }
            | TracerFrame::Backfill { payload } => payload.len(),
        };
        self.bytes
            .fetch_add((HEADER_LEN + payload) as u64, Ordering::Relaxed);
        self.frames.fetch_add(1, Ordering::Relaxed);
        let _ = self.tx.send(frame);
        0
    }
}

struct RunResult {
    graphs: Vec<ServiceGraph>,
    bytes: u64,
    frames: u64,
    stats: Option<ReductionStats>,
}

/// Replays the finished run through counting-sink agents and an analyzer
/// owning only the `cli` root, feeding hint snapshots back after every
/// refresh (the in-process mirror of the distributed feedback loop).
fn replay(sim: &Simulation, reduction: bool) -> RunResult {
    let config = config(reduction);
    let (tx, rx) = unbounded();
    let bytes = Arc::new(AtomicU64::new(0));
    let frames = Arc::new(AtomicU64::new(0));
    let clients: HashSet<NodeId> = sim.topology().clients().into_iter().collect();
    let mut agents: Vec<TracerAgent> = sim
        .topology()
        .services()
        .into_iter()
        .map(|node| {
            let sink = CountingSink {
                tx: tx.clone(),
                bytes: bytes.clone(),
                frames: frames.clone(),
            };
            TracerAgent::with_sink(node, clients.clone(), config.clone(), Box::new(sink))
        })
        .collect();
    let mut roots = roots_from_topology(sim.topology());
    roots.sort_unstable();
    let universe: HashSet<NodeId> = roots.iter().map(|&(c, _)| c).collect();
    roots.truncate(1);
    let mut analyzer = OnlineAnalyzer::with_universe(
        config,
        roots,
        universe,
        NodeLabels::from_topology(sim.topology()),
        rx,
    );
    let mut last = Vec::new();
    for step in 1..=(TOTAL_SECS / STEP_SECS) {
        let now = Nanos::from_secs(step * STEP_SECS);
        let drain = Tick::new(step * STEP_SECS * 1_000 - 1_000);
        for a in &mut agents {
            a.poll(sim.captures(), drain);
        }
        analyzer.ingest();
        let graphs = analyzer.refresh(now);
        if let Some(hint) = analyzer.take_hints() {
            for a in &mut agents {
                a.apply_hint_state(&hint);
            }
        }
        if !graphs.is_empty() {
            last = graphs;
        }
    }
    RunResult {
        graphs: last,
        bytes: bytes.load(Ordering::Relaxed),
        frames: frames.load(Ordering::Relaxed),
        stats: analyzer.reduction_stats(),
    }
}

/// Sorted (client, strong-edge set) for cross-run comparison.
fn edge_sets(graphs: &[ServiceGraph]) -> Vec<(String, Vec<(NodeId, NodeId)>)> {
    let mut v: Vec<_> = graphs
        .iter()
        .map(|g| {
            let mut edges: Vec<_> = g.edges().iter().map(|e| (e.from, e.to)).collect();
            edges.sort_unstable();
            (g.client_label.clone(), edges)
        })
        .collect();
    v.sort();
    v
}

fn main() {
    let mut sim = noise_fanout_sim(
        BACKENDS,
        CLI_STEP_MS,
        NOISE_STEP_MS,
        SEED,
        TOTAL_SECS as f64,
    );
    sim.run_until(Nanos::from_secs(TOTAL_SECS));
    println!(
        "reduction_fanout: 1 hot + {BACKENDS} cold backends, {TOTAL_SECS} s run, \
         {} packets captured",
        sim.captures().total_packets(),
    );

    let plain = replay(&sim, false);
    let reduced = replay(&sim, true);

    assert_eq!(
        edge_sets(&plain.graphs),
        edge_sets(&reduced.graphs),
        "reduction changed the discovered strong-edge set"
    );
    assert!(!plain.graphs.is_empty(), "no graphs discovered");
    let stats = reduced.stats.expect("reduction stats present when enabled");
    assert!(
        stats.demotions >= BACKENDS as u64,
        "cold backends never demoted: {stats:?}"
    );
    let ratio = plain.bytes as f64 / reduced.bytes as f64;
    println!(
        "  reduction off  {:>9} B on wire  ({} frames)",
        plain.bytes, plain.frames
    );
    println!(
        "  reduction on   {:>9} B on wire  ({} frames)  {ratio:.2}x fewer bytes",
        reduced.bytes, reduced.frames
    );
    println!(
        "  {} demotions, {} promotions, {} edges reduced at end of run",
        stats.demotions, stats.promotions, stats.reduced_now
    );
    assert!(
        ratio >= 3.0,
        "reduction must ship >= 3x fewer bytes on the fanout workload, got {ratio:.2}x"
    );

    let report = JsonValue::Obj(vec![
        ("bench".into(), JsonValue::Str("reduction_fanout".into())),
        ("cold_backends".into(), JsonValue::Int(BACKENDS as u64)),
        ("run_secs".into(), JsonValue::Int(TOTAL_SECS)),
        ("bytes_on_wire_off".into(), JsonValue::Int(plain.bytes)),
        ("bytes_on_wire_on".into(), JsonValue::Int(reduced.bytes)),
        ("frames_off".into(), JsonValue::Int(plain.frames)),
        ("frames_on".into(), JsonValue::Int(reduced.frames)),
        ("bytes_ratio".into(), JsonValue::Num(ratio)),
        ("demotions".into(), JsonValue::Int(stats.demotions)),
        ("promotions".into(), JsonValue::Int(stats.promotions)),
        (
            "reduced_now".into(),
            JsonValue::Int(stats.reduced_now as u64),
        ),
        ("strong_edges_identical".into(), JsonValue::Bool(true)),
    ]);
    let path = write_bench_json("reduction_fanout", &report).expect("write bench artifact");
    println!("  wrote {}", path.display());
}
