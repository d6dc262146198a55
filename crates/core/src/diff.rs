//! Structural and delay diffs between consecutive service graphs.
//!
//! Online analysis republishes a graph every `ΔW`; operators care about
//! what *changed*: edges appearing (a new path came into use — e.g. a
//! dispatcher decision), edges disappearing (a path fell silent or a
//! component stopped responding), and per-edge delay movement beyond a
//! threshold.

use crate::graph::ServiceGraph;
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::Nanos;
use std::collections::HashMap;

/// A delay movement on one edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayShift {
    /// Edge source.
    pub from: NodeId,
    /// Edge destination.
    pub to: NodeId,
    /// Hop delay in the older graph.
    pub before: Nanos,
    /// Hop delay in the newer graph.
    pub after: Nanos,
}

impl DelayShift {
    /// Absolute magnitude of the shift.
    pub fn magnitude(&self) -> Nanos {
        if self.after >= self.before {
            self.after - self.before
        } else {
            self.before - self.after
        }
    }
}

/// Differences between two refreshes of the same client's graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GraphDiff {
    /// Edges present only in the newer graph.
    pub added: Vec<(NodeId, NodeId)>,
    /// Edges present only in the older graph.
    pub removed: Vec<(NodeId, NodeId)>,
    /// Common edges whose hop delay moved at least the threshold.
    pub shifted: Vec<DelayShift>,
}

impl GraphDiff {
    /// Whether nothing changed (at the given threshold).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.shifted.is_empty()
    }
}

/// Diffs `new` against `old`, reporting delay shifts of at least
/// `threshold`.
///
/// # Example
///
/// ```
/// use e2eprof_core::diff::diff;
/// use e2eprof_core::graph::{GraphEdge, ServiceGraph};
/// use e2eprof_netsim::NodeId;
/// use e2eprof_timeseries::Nanos;
///
/// let edge = |ms| GraphEdge {
///     from: NodeId::new(0),
///     to: NodeId::new(1),
///     spikes: vec![e2eprof_core::graph::DelaySpike {
///         delay: Nanos::from_millis(ms),
///         strength: 0.9,
///     }],
///     hop_delay: Nanos::from_millis(ms),
/// };
/// let mut old = ServiceGraph::new(NodeId::new(9), "c".into(), NodeId::new(0));
/// old.add_edge(edge(10));
/// let mut new = ServiceGraph::new(NodeId::new(9), "c".into(), NodeId::new(0));
/// new.add_edge(edge(45));
/// let d = diff(&old, &new, Nanos::from_millis(20));
/// assert_eq!(d.shifted.len(), 1);
/// assert_eq!(d.shifted[0].magnitude(), Nanos::from_millis(35));
/// ```
pub fn diff(old: &ServiceGraph, new: &ServiceGraph, threshold: Nanos) -> GraphDiff {
    let index = |g: &ServiceGraph| -> HashMap<(NodeId, NodeId), Nanos> {
        g.edges()
            .iter()
            .map(|e| ((e.from, e.to), e.hop_delay))
            .collect()
    };
    let old_edges = index(old);
    let new_edges = index(new);

    let mut out = GraphDiff::default();
    for (&edge, &after) in &new_edges {
        match old_edges.get(&edge) {
            None => out.added.push(edge),
            Some(&before) => {
                let shift = DelayShift {
                    from: edge.0,
                    to: edge.1,
                    before,
                    after,
                };
                if shift.magnitude() >= threshold {
                    out.shifted.push(shift);
                }
            }
        }
    }
    for &edge in old_edges.keys() {
        if !new_edges.contains_key(&edge) {
            out.removed.push(edge);
        }
    }
    out.added.sort_unstable();
    out.removed.sort_unstable();
    out.shifted.sort_unstable_by_key(|s| (s.from, s.to));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphEdge;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn edge(from: u32, to: u32, ms: u64) -> GraphEdge {
        GraphEdge {
            from: n(from),
            to: n(to),
            spikes: vec![crate::graph::DelaySpike {
                delay: Nanos::from_millis(ms),
                strength: 0.9,
            }],
            hop_delay: Nanos::from_millis(ms),
        }
    }

    fn graph(edges: Vec<GraphEdge>) -> ServiceGraph {
        let mut g = ServiceGraph::new(n(9), "c".into(), n(0));
        for e in edges {
            g.add_edge(e);
        }
        g
    }

    #[test]
    fn identical_graphs_diff_empty() {
        let g = graph(vec![edge(0, 1, 5), edge(1, 2, 10)]);
        assert!(diff(&g, &g, Nanos::from_millis(1)).is_empty());
    }

    #[test]
    fn added_and_removed_edges() {
        let old = graph(vec![edge(0, 1, 5), edge(1, 2, 10)]);
        let new = graph(vec![edge(0, 1, 5), edge(1, 3, 7)]);
        let d = diff(&old, &new, Nanos::from_millis(1));
        assert_eq!(d.added, vec![(n(1), n(3))]);
        assert_eq!(d.removed, vec![(n(1), n(2))]);
        assert!(d.shifted.is_empty());
    }

    #[test]
    fn shifts_respect_threshold() {
        let old = graph(vec![edge(0, 1, 10), edge(1, 2, 10)]);
        let new = graph(vec![edge(0, 1, 14), edge(1, 2, 60)]);
        let d = diff(&old, &new, Nanos::from_millis(5));
        assert_eq!(d.shifted.len(), 1);
        assert_eq!(d.shifted[0].to, n(2));
        assert_eq!(d.shifted[0].magnitude(), Nanos::from_millis(50));
    }

    #[test]
    fn downward_shift_detected() {
        let old = graph(vec![edge(0, 1, 100)]);
        let new = graph(vec![edge(0, 1, 20)]);
        let d = diff(&old, &new, Nanos::from_millis(50));
        assert_eq!(d.shifted[0].before, Nanos::from_millis(100));
        assert_eq!(d.shifted[0].after, Nanos::from_millis(20));
    }
}
