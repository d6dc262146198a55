//! The synthetic tracer stream the transport is timed and checked on:
//! bursty density-shaped RLE chunks over [`EDGES`] edges, one batch frame
//! per flush. `benches/transport_throughput.rs` times it through the
//! broker; `tests/fanout_exactness.rs` holds what every shard ingests.

use e2eprof_core::graph::NodeLabels;
use e2eprof_core::PathmapConfig;
use e2eprof_timeseries::{wire, Nanos, Quanta, RleSeries, Run, Tick};

/// Edges in every flush; edge `e` runs from node `e` to node `e + EDGES`.
pub const EDGES: usize = 64;
/// Flushes in the stream, one batch frame each.
pub const FLUSHES: u64 = 300;
/// Ticks each flush covers; flushes are contiguous.
pub const CHUNK_TICKS: u64 = 16;

/// One flush: every edge's chunk for the flush's ticks.
pub type Flush = Vec<((u32, u32), RleSeries)>;

/// The analyzer configuration the stream is ingested under.
pub fn config() -> PathmapConfig {
    PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(Nanos::from_secs(10))
        .refresh(Nanos::from_secs(2))
        .max_delay(Nanos::from_secs(1))
        .build()
}

/// Labels for the stream's `2 · EDGES` nodes.
pub fn labels() -> NodeLabels {
    NodeLabels::new((0..2 * EDGES).map(|i| format!("n{i}")).collect())
}

/// Bursty, deterministic chunks (xorshift), contiguous across flushes.
pub fn workload() -> Vec<Flush> {
    let mut state = 0x1234_5678_9abc_def1u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..FLUSHES)
        .map(|flush| {
            let start = flush * CHUNK_TICKS;
            (0..EDGES)
                .map(|e| {
                    let mut runs = Vec::new();
                    let mut t = start;
                    let end = start + CHUNK_TICKS;
                    while t < end {
                        t += next() % 96;
                        if t >= end {
                            break;
                        }
                        let len = (1 + next() % 4).min(end - t);
                        let count = 1 + next() % 24;
                        runs.push(Run::new(Tick::new(t), len, (count as f64).sqrt()));
                        t += len;
                    }
                    let key = (e as u32, (e + EDGES) as u32);
                    (
                        key,
                        RleSeries::from_parts(Tick::new(start), CHUNK_TICKS, runs),
                    )
                })
                .collect()
        })
        .collect()
}

/// Underlying message count a density series represents: Σ len·value².
pub fn records(flushes: &[Flush]) -> u64 {
    flushes
        .iter()
        .flatten()
        .flat_map(|(_, s)| s.runs())
        .map(|r| r.len() * (r.value() * r.value()).round() as u64)
        .sum()
}

/// Pre-encoded batch frames, one per flush (encode cost excluded: the
/// bench times the transport, not the codec).
pub fn frames(flushes: &[Flush]) -> Vec<bytes::Bytes> {
    let mut buf = Vec::new();
    flushes
        .iter()
        .map(|flush| {
            wire::encode_batch_into(flush, true, &mut buf);
            bytes::Bytes::copy_from_slice(&buf)
        })
        .collect()
}
