//! Per-edge delay histories across refreshes — change detection (Fig. 7).
//!
//! One goal of online service-path analysis is detecting *changes* in path
//! performance: not just cumulative end-to-end delays but per-edge
//! fluctuations, for isolating bottlenecks, re-routing traffic, and
//! debugging anomalies. The tracker records each edge's hop delay at every
//! refresh and reports jumps exceeding a threshold.

use crate::graph::ServiceGraph;
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::Nanos;
use std::collections::BTreeMap;

/// One recorded observation of an edge's hop delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayPoint {
    /// When the refresh happened.
    pub at: Nanos,
    /// The edge's per-hop delay at that refresh.
    pub delay: Nanos,
}

/// A detected change: the hop delay jumped between consecutive refreshes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangePoint {
    /// When the new delay was first observed.
    pub at: Nanos,
    /// The delay before the jump.
    pub before: Nanos,
    /// The delay after the jump.
    pub after: Nanos,
}

/// Records per-`(client, edge)` hop-delay histories across refreshes.
#[derive(Debug, Clone, Default)]
pub struct ChangeTracker {
    history: BTreeMap<(NodeId, NodeId, NodeId), Vec<DelayPoint>>,
}

impl ChangeTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records every edge of every graph at refresh time `at`.
    pub fn record(&mut self, at: Nanos, graphs: &[ServiceGraph]) {
        for g in graphs {
            for e in g.edges() {
                if e.is_anchor() {
                    continue; // the anchoring client edge carries no delay
                }
                self.history
                    .entry((g.client, e.from, e.to))
                    .or_default()
                    .push(DelayPoint {
                        at,
                        delay: e.hop_delay,
                    });
            }
        }
    }

    /// The recorded history of `(client, from → to)`.
    pub fn history(&self, client: NodeId, from: NodeId, to: NodeId) -> &[DelayPoint] {
        self.history
            .get(&(client, from, to))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All tracked `(client, from, to)` keys.
    pub fn keys(&self) -> impl Iterator<Item = (NodeId, NodeId, NodeId)> + '_ {
        self.history.keys().copied()
    }

    /// Consecutive-refresh jumps of at least `threshold` on one edge.
    pub fn changes(
        &self,
        client: NodeId,
        from: NodeId,
        to: NodeId,
        threshold: Nanos,
    ) -> Vec<ChangePoint> {
        let h = self.history(client, from, to);
        h.windows(2)
            .filter_map(|w| {
                let delta = if w[1].delay >= w[0].delay {
                    w[1].delay - w[0].delay
                } else {
                    w[0].delay - w[1].delay
                };
                (delta >= threshold).then_some(ChangePoint {
                    at: w[1].at,
                    before: w[0].delay,
                    after: w[1].delay,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphEdge;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn graph_with_delay(ms: u64) -> ServiceGraph {
        let mut g = ServiceGraph::new(n(0), "c".into(), n(1));
        g.add_vertex(n(1), "a".into());
        g.add_vertex(n(2), "b".into());
        g.add_edge(GraphEdge {
            from: n(1),
            to: n(2),
            spikes: vec![crate::graph::DelaySpike {
                delay: Nanos::from_millis(ms),
                strength: 0.9,
            }],
            hop_delay: Nanos::from_millis(ms),
        });
        g
    }

    #[test]
    fn history_accumulates_in_order() {
        let mut t = ChangeTracker::new();
        for (i, ms) in [5u64, 5, 25, 25].iter().enumerate() {
            t.record(Nanos::from_secs(i as u64 * 60), &[graph_with_delay(*ms)]);
        }
        let h = t.history(n(0), n(1), n(2));
        assert_eq!(h.len(), 4);
        assert_eq!(h[2].delay, Nanos::from_millis(25));
        assert_eq!(h[2].at, Nanos::from_secs(120));
    }

    #[test]
    fn jump_detected_at_threshold() {
        let mut t = ChangeTracker::new();
        for (i, ms) in [5u64, 6, 26, 27].iter().enumerate() {
            t.record(Nanos::from_secs(i as u64), &[graph_with_delay(*ms)]);
        }
        let changes = t.changes(n(0), n(1), n(2), Nanos::from_millis(10));
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].at, Nanos::from_secs(2));
        assert_eq!(changes[0].before, Nanos::from_millis(6));
        assert_eq!(changes[0].after, Nanos::from_millis(26));
    }

    #[test]
    fn downward_jumps_also_detected() {
        let mut t = ChangeTracker::new();
        for (i, ms) in [30u64, 5].iter().enumerate() {
            t.record(Nanos::from_secs(i as u64), &[graph_with_delay(*ms)]);
        }
        let changes = t.changes(n(0), n(1), n(2), Nanos::from_millis(10));
        assert_eq!(changes.len(), 1);
    }

    #[test]
    fn untracked_edges_are_empty() {
        let t = ChangeTracker::new();
        assert!(t.history(n(0), n(1), n(2)).is_empty());
        assert!(t
            .changes(n(0), n(1), n(2), Nanos::from_millis(1))
            .is_empty());
    }

    #[test]
    fn anchor_edges_skipped() {
        let mut t = ChangeTracker::new();
        let mut g = ServiceGraph::new(n(0), "c".into(), n(1));
        g.add_edge(GraphEdge::anchor(n(0), n(1)));
        t.record(Nanos::ZERO, &[g]);
        assert_eq!(t.keys().count(), 0);
    }
}
