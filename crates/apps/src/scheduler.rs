//! The E2EProf-driven SLA scheduler (paper Section 4.2, Table 1).
//!
//! Bidding requests carry real-time deadlines; comments do not. Plain
//! round-robin dispatch cannot react when one application-server branch
//! degrades. This module closes the loop: pathmap's live service graphs
//! yield per-branch latencies, a shared [`PathLatencyMap`] publishes them,
//! and the [`SlaRouter`] routes bidding requests to the currently faster
//! branch while penalizing comment requests with the slower one.

use e2eprof_core::graph::ServiceGraph;
use e2eprof_netsim::routing::DynamicRouter;
use e2eprof_netsim::{ClassId, NodeId};
use e2eprof_timeseries::Nanos;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared, live per-branch latency estimates (keyed by the branch's first
/// hop, e.g. the Tomcat server).
#[derive(Debug, Clone, Default)]
pub struct PathLatencyMap {
    inner: Arc<RwLock<HashMap<NodeId, Nanos>>>,
}

impl PathLatencyMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a branch latency.
    pub fn set(&self, branch: NodeId, latency: Nanos) {
        self.inner.write().insert(branch, latency);
    }

    /// The current estimate for a branch.
    pub fn get(&self, branch: NodeId) -> Option<Nanos> {
        self.inner.read().get(&branch).copied()
    }

    /// Updates the map from freshly discovered service graphs: for each
    /// branch head in `branches`, the round-trip latency below the front
    /// end `ws` (averaged over the graphs that observed it).
    pub fn update_from_graphs(&self, graphs: &[ServiceGraph], ws: NodeId, branches: &[NodeId]) {
        for &branch in branches {
            let mut estimates = Vec::new();
            for g in graphs {
                if let Some(latency) = branch_latency(g, ws, branch) {
                    estimates.push(latency.as_nanos());
                }
            }
            if !estimates.is_empty() {
                let mean = estimates.iter().sum::<u64>() / estimates.len() as u64;
                self.set(branch, Nanos::from_nanos(mean));
            }
        }
    }
}

/// The round-trip latency of the branch starting at `branch`, measured
/// below the front end `ws`: the cumulative delay when the branch's
/// response re-enters `ws` minus the cumulative delay when the request
/// left `ws` toward the branch.
pub fn branch_latency(graph: &ServiceGraph, ws: NodeId, branch: NodeId) -> Option<Nanos> {
    let depart = graph.edge(ws, branch)?.min_delay()?;
    let back = graph.edge(branch, ws)?.min_delay()?;
    back.checked_sub(depart)
}

/// A [`DynamicRouter`] implementing the Table 1 policy: bidding requests
/// take the faster branch, comment requests the slower one; round-robin
/// until estimates exist.
#[derive(Debug)]
pub struct SlaRouter {
    bidding: ClassId,
    branch_a: NodeId,
    branch_b: NodeId,
    map: PathLatencyMap,
    fallback: AtomicUsize,
}

impl SlaRouter {
    /// Creates a router favouring `bidding`-class requests between the two
    /// branches.
    pub fn new(bidding: ClassId, branch_a: NodeId, branch_b: NodeId, map: PathLatencyMap) -> Self {
        SlaRouter {
            bidding,
            branch_a,
            branch_b,
            map,
            fallback: AtomicUsize::new(0),
        }
    }
}

impl DynamicRouter for SlaRouter {
    fn choose(&self, class: ClassId, _now: Nanos) -> NodeId {
        match (self.map.get(self.branch_a), self.map.get(self.branch_b)) {
            (Some(la), Some(lb)) => {
                let (fast, slow) = if la <= lb {
                    (self.branch_a, self.branch_b)
                } else {
                    (self.branch_b, self.branch_a)
                };
                if class == self.bidding {
                    fast
                } else {
                    slow
                }
            }
            // No estimates yet: behave like round-robin.
            _ => {
                if self
                    .fallback
                    .fetch_add(1, Ordering::Relaxed)
                    .is_multiple_of(2)
                {
                    self.branch_a
                } else {
                    self.branch_b
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2eprof_core::graph::GraphEdge;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn graph_with_branch(ws: NodeId, ts: NodeId, depart_ms: u64, back_ms: u64) -> ServiceGraph {
        let mut g = ServiceGraph::new(n(9), "c".into(), ws);
        g.add_vertex(ws, "ws".into());
        g.add_vertex(ts, "ts".into());
        g.add_edge(GraphEdge {
            from: ws,
            to: ts,
            spikes: vec![e2eprof_core::graph::DelaySpike {
                delay: Nanos::from_millis(depart_ms),
                strength: 0.9,
            }],
            hop_delay: Nanos::from_millis(depart_ms),
        });
        g.add_edge(GraphEdge {
            from: ts,
            to: ws,
            spikes: vec![e2eprof_core::graph::DelaySpike {
                delay: Nanos::from_millis(back_ms),
                strength: 0.9,
            }],
            hop_delay: Nanos::from_millis(back_ms - depart_ms),
        });
        g
    }

    #[test]
    fn branch_latency_is_round_trip_below_front_end() {
        let g = graph_with_branch(n(0), n(1), 5, 45);
        assert_eq!(branch_latency(&g, n(0), n(1)), Some(Nanos::from_millis(40)));
        assert_eq!(branch_latency(&g, n(0), n(2)), None);
    }

    #[test]
    fn map_updates_from_graphs() {
        let map = PathLatencyMap::new();
        let g1 = graph_with_branch(n(0), n(1), 5, 45);
        let g2 = graph_with_branch(n(0), n(2), 5, 105);
        map.update_from_graphs(&[g1, g2], n(0), &[n(1), n(2)]);
        assert_eq!(map.get(n(1)), Some(Nanos::from_millis(40)));
        assert_eq!(map.get(n(2)), Some(Nanos::from_millis(100)));
    }

    #[test]
    fn bidding_takes_fast_branch_comment_takes_slow() {
        let map = PathLatencyMap::new();
        map.set(n(1), Nanos::from_millis(30));
        map.set(n(2), Nanos::from_millis(90));
        let bidding = ClassId::new(0);
        let comment = ClassId::new(1);
        let r = SlaRouter::new(bidding, n(1), n(2), map.clone());
        assert_eq!(r.choose(bidding, Nanos::ZERO), n(1));
        assert_eq!(r.choose(comment, Nanos::ZERO), n(2));
        // Branch speeds flip → decisions flip.
        map.set(n(1), Nanos::from_millis(200));
        assert_eq!(r.choose(bidding, Nanos::ZERO), n(2));
        assert_eq!(r.choose(comment, Nanos::ZERO), n(1));
    }

    #[test]
    fn fallback_round_robins_without_estimates() {
        let r = SlaRouter::new(ClassId::new(0), n(1), n(2), PathLatencyMap::new());
        let picks: Vec<NodeId> = (0..4)
            .map(|_| r.choose(ClassId::new(0), Nanos::ZERO))
            .collect();
        assert_eq!(picks, vec![n(1), n(2), n(1), n(2)]);
    }
}
