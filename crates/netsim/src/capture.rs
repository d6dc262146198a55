//! Passive per-node packet capture — the simulated `tracer` module.
//!
//! Every message crossing a link is recorded at both the sending and the
//! receiving *service* node (client machines are beyond the enterprise's
//! reach and are never traced, exactly as in the paper). A record is just a
//! timestamp in the observing node's local clock; the store groups records
//! by `(observer, src, dst)` so the analysis layer can ask for, e.g., "the
//! signal of messages `WS → TS1` as seen at `TS1`".

use crate::ids::NodeId;
use e2eprof_timeseries::hashing::FxHashMap;
use e2eprof_timeseries::Nanos;
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;

/// Identifies one captured signal: messages `src → dst` observed at
/// `observer` (which is `src` or `dst`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceKey {
    /// The node whose tracer recorded the packets.
    pub observer: NodeId,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
}

impl TraceKey {
    /// The signal of `src → dst` as observed at the receiver.
    pub fn at_receiver(src: NodeId, dst: NodeId) -> Self {
        TraceKey {
            observer: dst,
            src,
            dst,
        }
    }

    /// The signal of `src → dst` as observed at the sender.
    pub fn at_sender(src: NodeId, dst: NodeId) -> Self {
        TraceKey {
            observer: src,
            src,
            dst,
        }
    }
}

/// All captured packet timestamps of a simulation run.
///
/// Timestamps within one key are non-decreasing (events are processed in
/// global time order and node clocks are monotone transforms of it).
///
/// A packet costs one Fx-hashed lookup of its key (node ids are the
/// topology's own); the ordered edge set is touched only when a key is
/// recorded for the first time.
#[derive(Debug, Clone, Default)]
pub struct CaptureStore {
    traces: FxHashMap<TraceKey, Vec<Nanos>>,
    edges: BTreeSet<(NodeId, NodeId)>,
}

impl CaptureStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `packets` packets of a `src → dst` message observed at
    /// `observer` with local timestamp `local_ts`.
    pub fn record(
        &mut self,
        observer: NodeId,
        src: NodeId,
        dst: NodeId,
        local_ts: Nanos,
        packets: u32,
    ) {
        let key = TraceKey { observer, src, dst };
        let stamps = match self.traces.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.edges.insert((src, dst));
                e.insert(Vec::new())
            }
        };
        stamps.extend(std::iter::repeat_n(local_ts, packets as usize));
    }

    /// All directed edges that carried at least one packet, in stable
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.edges.iter().copied()
    }

    /// How many directed edges have carried traffic so far. Edges are
    /// never forgotten, so between two looks at the same store an
    /// unchanged count means an unchanged edge set — the constant-time
    /// check tracer agents make before rescanning [`edges`](Self::edges).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The directed edges leaving `node` that carried traffic.
    pub fn edges_from(&self, node: NodeId) -> Vec<(NodeId, NodeId)> {
        self.edges
            .range((node, NodeId::new(0))..)
            .take_while(|&&(s, _)| s == node)
            .copied()
            .collect()
    }

    /// The timestamps recorded under `key` (empty if none).
    pub fn timestamps(&self, key: TraceKey) -> &[Nanos] {
        self.traces.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The records under `key` starting at index `from` — the incremental
    /// access tracer agents use while the simulation advances.
    pub fn timestamps_since(&self, key: TraceKey, from: usize) -> &[Nanos] {
        let all = self.timestamps(key);
        &all[from.min(all.len())..]
    }

    /// The `src → dst` signal preferring the receiver-side observation and
    /// falling back to the sender side (edges into untraced client nodes
    /// only exist at the sender).
    pub fn edge_signal(&self, src: NodeId, dst: NodeId) -> &[Nanos] {
        let recv = self.timestamps(TraceKey::at_receiver(src, dst));
        if recv.is_empty() {
            self.timestamps(TraceKey::at_sender(src, dst))
        } else {
            recv
        }
    }

    /// Total number of packet records across all keys.
    pub fn total_packets(&self) -> usize {
        self.traces.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn records_grouped_by_key() {
        let mut c = CaptureStore::new();
        c.record(n(1), n(0), n(1), Nanos::from_millis(5), 1);
        c.record(n(0), n(0), n(1), Nanos::from_millis(4), 1);
        c.record(n(1), n(0), n(1), Nanos::from_millis(9), 2);
        assert_eq!(c.timestamps(TraceKey::at_receiver(n(0), n(1))).len(), 3);
        assert_eq!(c.timestamps(TraceKey::at_sender(n(0), n(1))).len(), 1);
        assert_eq!(c.total_packets(), 4);
    }

    #[test]
    fn edges_enumerated_once() {
        let mut c = CaptureStore::new();
        c.record(n(1), n(0), n(1), Nanos::ZERO, 1);
        c.record(n(1), n(0), n(1), Nanos::ZERO, 1);
        c.record(n(2), n(1), n(2), Nanos::ZERO, 1);
        let edges: Vec<_> = c.edges().collect();
        assert_eq!(edges, vec![(n(0), n(1)), (n(1), n(2))]);
        assert_eq!(c.edges_from(n(1)), vec![(n(1), n(2))]);
        assert!(c.edges_from(n(5)).is_empty());
        assert_eq!(c.num_edges(), 2);
    }

    #[test]
    fn incremental_access() {
        let mut c = CaptureStore::new();
        let key = TraceKey::at_receiver(n(0), n(1));
        c.record(n(1), n(0), n(1), Nanos::from_millis(1), 1);
        c.record(n(1), n(0), n(1), Nanos::from_millis(2), 1);
        assert_eq!(c.timestamps_since(key, 1).len(), 1);
        assert_eq!(c.timestamps_since(key, 2).len(), 0);
        assert_eq!(c.timestamps_since(key, 99).len(), 0);
    }

    #[test]
    fn edge_signal_prefers_receiver() {
        let mut c = CaptureStore::new();
        c.record(n(0), n(0), n(1), Nanos::from_millis(1), 1);
        assert_eq!(c.edge_signal(n(0), n(1)).len(), 1); // sender fallback
        c.record(n(1), n(0), n(1), Nanos::from_millis(2), 1);
        c.record(n(1), n(0), n(1), Nanos::from_millis(3), 1);
        assert_eq!(c.edge_signal(n(0), n(1)).len(), 2); // receiver preferred
    }
}
