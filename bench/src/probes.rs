//! Offline probes of a traced run: after the replay, each layer's public
//! functions are timed on their own over the frames the tracers really
//! emit and the windows the analyzers really hold, so a per-layer number
//! exists even for layers the replay only ever sees from the outside.
//!
//! Every probe is one pass — a single timing, not a distribution. The
//! numbers say where a layer's cost sits, not whether it moved by a few
//! percent; the end-to-end metrics decide that.

use crate::driver::{emitted_frames, payload, Plan};
use crate::workloads::{Capture, DRAIN_LAG_MS};
use e2eprof_core::graph::NodeLabels;
use e2eprof_core::pathmap::Pathmap;
use e2eprof_core::signals::EdgeSignals;
use e2eprof_core::tracer::TracerFrame;
use e2eprof_net::frame;
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::density::DensityEstimator;
use e2eprof_timeseries::window::SlidingWindow;
use e2eprof_timeseries::{wire, Nanos, RleSeries};
use e2eprof_xcorr::normalize::normalize;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Steps past warm-up the probes replay to collect frames.
const PROBE_STEPS: u64 = 8;
/// Roots the correlation probe samples (evenly spaced over the root
/// list), so a 560-root mesh costs what a 6-root fan-out does.
const PROBE_ROOTS: usize = 16;

/// One probe result: metric name, value, unit.
pub type Probe = (&'static str, f64, &'static str);

fn per(total_ns: u128, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_ns as f64 / count as f64
    }
}

/// Runs every probe over `capture` under `plan`'s configuration.
pub fn run(plan: &Plan, capture: &Capture) -> Vec<Probe> {
    let mut out = Vec::new();
    let spec = &plan.spec;
    let config = &plan.config;
    let sim = capture.sim();
    let store = sim.captures();
    let topo = sim.topology();
    let last_step = (spec.warmup_steps() + PROBE_STEPS).min(spec.steps());

    // timeseries.density / timeseries.rle: timestamps → density chunk →
    // RLE, flush by flush, exactly the calls `TracerAgent::poll` makes.
    {
        let mut records = 0u64;
        let mut runs = 0u64;
        let mut spent = 0u128;
        for &key in &plan.owned {
            let stamps = store.timestamps(key);
            let mut est = DensityEstimator::new(config.quanta(), config.omega_ticks());
            let mut cursor = 0usize;
            for step in 1..=last_step {
                for drain in plan.drains(step) {
                    let horizon = Plan::horizon(drain);
                    let upto = cursor + stamps[cursor..].partition_point(|&ts| ts < horizon);
                    let t0 = Instant::now();
                    for &ts in &stamps[cursor..upto] {
                        est.push(ts);
                    }
                    let rle = est.drain_chunk(drain).to_rle();
                    spent += t0.elapsed().as_nanos();
                    records += (upto - cursor) as u64;
                    runs += black_box(&rle).num_runs() as u64;
                    cursor = upto;
                }
            }
        }
        out.push((
            "timeseries.density.ns_per_record",
            per(spent, records),
            "ns",
        ));
        out.push((
            "timeseries.rle.runs_per_record",
            per(runs as u128, records),
            "count",
        ));
    }

    let frames = emitted_frames(plan, capture, last_step);

    // timeseries.wire: decode and re-encode every frame in the format it
    // arrived in (per-edge v1 series or v2 batches — whichever the
    // default configuration ships).
    let mut chunks: Vec<((u32, u32), RleSeries)> = Vec::new();
    {
        let mut decode_ns = 0u128;
        let mut encode_ns = 0u128;
        let mut runs = 0u64;
        let mut bytes = 0u64;
        let mut buf = Vec::new();
        for f in &frames {
            match f {
                TracerFrame::Series { edge, payload } => {
                    let t0 = Instant::now();
                    let series = wire::decode(payload).expect("tracer frames decode");
                    decode_ns += t0.elapsed().as_nanos();
                    let t0 = Instant::now();
                    wire::encode_into(&series, &mut buf);
                    encode_ns += t0.elapsed().as_nanos();
                    black_box(&buf);
                    runs += series.num_runs() as u64;
                    bytes += payload.len() as u64;
                    chunks.push(((edge.0.index() as u32, edge.1.index() as u32), series));
                }
                TracerFrame::Batch { payload } | TracerFrame::Backfill { payload } => {
                    let t0 = Instant::now();
                    let batch = wire::decode_batch(payload).expect("tracer frames decode");
                    decode_ns += t0.elapsed().as_nanos();
                    let t0 = Instant::now();
                    wire::encode_batch_into(&batch, true, &mut buf);
                    encode_ns += t0.elapsed().as_nanos();
                    black_box(&buf);
                    runs += batch.iter().map(|(_, s)| s.num_runs() as u64).sum::<u64>();
                    bytes += payload.len() as u64;
                    chunks.extend(batch);
                }
            }
        }
        out.push((
            "timeseries.wire.encode_ns_per_run",
            per(encode_ns, runs),
            "ns",
        ));
        out.push((
            "timeseries.wire.decode_ns_per_run",
            per(decode_ns, runs),
            "ns",
        ));
        out.push((
            "timeseries.wire.bytes_per_run",
            per(bytes as u128, runs),
            "B",
        ));
    }

    // timeseries.window: append the decoded chunks into per-edge sliding
    // windows of the analyzer's retention (W + T_u + 2ΔW).
    {
        let capacity = config.window_ticks() + config.max_lag() + 2 * config.refresh_ticks();
        let mut windows: BTreeMap<(u32, u32), SlidingWindow> = BTreeMap::new();
        let mut spent = 0u128;
        let mut runs = 0u64;
        for (edge, chunk) in &chunks {
            let window = windows
                .entry(*edge)
                .or_insert_with(|| SlidingWindow::new(capacity));
            let t0 = Instant::now();
            window.append_chunk(chunk);
            spent += t0.elapsed().as_nanos();
            runs += chunk.num_runs() as u64;
        }
        let retained: u64 = windows.values().map(|w| w.series().num_runs() as u64).sum();
        out.push((
            "timeseries.window.append_ns_per_run",
            per(spent, runs),
            "ns",
        ));
        out.push(("timeseries.window.retained_runs", retained as f64, "count"));
    }

    // net.frame: the envelope checksum over the same payloads.
    {
        let mut spent = 0u128;
        let mut bytes = 0u64;
        for f in &frames {
            let bytes_in = payload(f);
            let t0 = Instant::now();
            black_box(frame::crc32(0, bytes_in));
            spent += t0.elapsed().as_nanos();
            bytes += bytes_in.len() as u64;
        }
        out.push(("net.frame.crc_ns_per_byte", per(spent, bytes), "ns"));
    }

    // xcorr / core.pathmap: the last probed step's analysis window, from
    // scratch — one correlation per (sampled root, edge leaving its front
    // end), spike detection on each, then whole-graph discovery for the
    // sampled roots.
    {
        let now = Nanos::from_millis(last_step * spec.refresh_ms - DRAIN_LAG_MS);
        let signals = EdgeSignals::from_capture(store, config, now);
        let engine = config.build_engine();
        let detector = config.spike_detector();
        let stride = plan.roots.len().div_ceil(PROBE_ROOTS).max(1);
        let sampled: Vec<(NodeId, NodeId)> = plan.roots.iter().copied().step_by(stride).collect();
        let mut correlate_ns = 0u128;
        let mut spike_ns = 0u128;
        let mut pairs = 0u64;
        for &(client, front) in &sampled {
            let Some(x) = signals.source_signal(client, front) else {
                continue;
            };
            for &next in signals.edges_from(front) {
                let Some(y) = signals.target_signal(front, next) else {
                    continue;
                };
                let t0 = Instant::now();
                let raw = engine.correlate(&x, y, signals.max_lag());
                correlate_ns += t0.elapsed().as_nanos();
                let rho = normalize(&raw, &x, y);
                let t0 = Instant::now();
                black_box(detector.detect(rho.values()));
                spike_ns += t0.elapsed().as_nanos();
                pairs += 1;
            }
        }
        out.push((
            "xcorr.correlate_us_per_pair",
            per(correlate_ns, pairs) / 1e3,
            "us",
        ));
        out.push(("xcorr.spike_us_per_pair", per(spike_ns, pairs) / 1e3, "us"));

        let pathmap = Pathmap::new(config.clone());
        let labels = NodeLabels::from_topology(topo);
        let t0 = Instant::now();
        black_box(pathmap.discover(&signals, &sampled, &labels));
        out.push((
            "core.pathmap.discover_ms",
            t0.elapsed().as_secs_f64() * 1e3,
            "ms",
        ));
    }
    out
}
