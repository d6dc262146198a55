//! SLA monitoring on top of live service graphs.
//!
//! The paper's motivating scenario: requests carry service-level
//! agreements, and when one is violated administrators dig through logs
//! to isolate the faulty component. E2EProf automates both halves — this
//! module watches each refresh's graphs against per-client latency
//! targets, flags violations, and names the most likely culprit (the
//! bottleneck vertex of the violating graph).

use crate::graph::ServiceGraph;
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::Nanos;
use std::collections::HashMap;

/// A per-client latency target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaTarget {
    /// The client node the agreement covers.
    pub client: NodeId,
    /// Maximum acceptable end-to-end latency.
    pub max_latency: Nanos,
}

/// One detected violation.
#[derive(Debug, Clone, PartialEq)]
pub struct SlaViolation {
    /// When the violating refresh happened.
    pub at: Nanos,
    /// The client whose agreement is violated.
    pub client: NodeId,
    /// The client's label.
    pub client_label: String,
    /// E2EProf's end-to-end estimate at that refresh.
    pub estimate: Nanos,
    /// The agreed maximum.
    pub target: Nanos,
    /// The graph's dominant delay contributor, if any — where to look
    /// first.
    pub suspect: Option<String>,
}

/// Watches refreshed service graphs against SLA targets.
///
/// # Example
///
/// ```
/// use e2eprof_core::sla::{SlaMonitor, SlaTarget};
/// use e2eprof_core::graph::{GraphEdge, ServiceGraph};
/// use e2eprof_netsim::NodeId;
/// use e2eprof_timeseries::Nanos;
///
/// let client = NodeId::new(9);
/// let mut monitor = SlaMonitor::new(vec![SlaTarget {
///     client,
///     max_latency: Nanos::from_millis(100),
/// }]);
///
/// let mut g = ServiceGraph::new(client, "c1".into(), NodeId::new(0));
/// g.add_vertex(NodeId::new(0), "web".into());
/// g.add_edge(GraphEdge {
///     from: NodeId::new(0),
///     to: client,
///     spikes: vec![e2eprof_core::graph::DelaySpike {
///         delay: Nanos::from_millis(140),
///         strength: 0.9,
///     }],
///     hop_delay: Nanos::from_millis(140),
/// });
/// let violations = monitor.check(Nanos::from_secs(60), &[g]);
/// assert_eq!(violations.len(), 1);
/// assert_eq!(violations[0].estimate, Nanos::from_millis(140));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SlaMonitor {
    targets: HashMap<NodeId, Nanos>,
    history: Vec<SlaViolation>,
}

impl SlaMonitor {
    /// Creates a monitor for the given targets.
    pub fn new(targets: Vec<SlaTarget>) -> Self {
        SlaMonitor {
            targets: targets
                .into_iter()
                .map(|t| (t.client, t.max_latency))
                .collect(),
            history: Vec::new(),
        }
    }

    /// Adds or replaces one target.
    pub fn set_target(&mut self, target: SlaTarget) {
        self.targets.insert(target.client, target.max_latency);
    }

    /// Evaluates one refresh's graphs; returns (and records) the
    /// violations found.
    pub fn check(&mut self, at: Nanos, graphs: &[ServiceGraph]) -> Vec<SlaViolation> {
        let mut found = Vec::new();
        for g in graphs {
            let Some(&target) = self.targets.get(&g.client) else {
                continue;
            };
            let Some(estimate) = g.end_to_end_delay() else {
                continue;
            };
            if estimate <= target {
                continue;
            }
            let suspect = g
                .vertices()
                .iter()
                .filter(|v| v.bottleneck)
                .max_by_key(|v| v.contribution.unwrap_or(Nanos::ZERO))
                .map(|v| v.label.clone());
            found.push(SlaViolation {
                at,
                client: g.client,
                client_label: g.client_label.clone(),
                estimate,
                target,
                suspect,
            });
        }
        self.history.extend(found.iter().cloned());
        found
    }

    /// All violations recorded so far, in check order.
    pub fn history(&self) -> &[SlaViolation] {
        &self.history
    }

    /// Violations of one client.
    pub fn violations_of(&self, client: NodeId) -> Vec<&SlaViolation> {
        self.history.iter().filter(|v| v.client == client).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphEdge;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn graph(client: NodeId, e2e_ms: u64, bottleneck: &str) -> ServiceGraph {
        let mut g = ServiceGraph::new(client, format!("client{client}"), n(0));
        g.add_vertex(n(0), "web".into());
        g.add_vertex(n(1), bottleneck.into());
        g.add_edge(GraphEdge {
            from: n(0),
            to: n(1),
            spikes: vec![crate::graph::DelaySpike {
                delay: Nanos::from_millis(e2e_ms / 2),
                strength: 0.9,
            }],
            hop_delay: Nanos::from_millis(e2e_ms / 2),
        });
        g.add_edge(GraphEdge {
            from: n(1),
            to: client,
            spikes: vec![crate::graph::DelaySpike {
                delay: Nanos::from_millis(e2e_ms),
                strength: 0.9,
            }],
            hop_delay: Nanos::from_millis(e2e_ms / 2),
        });
        g.annotate_bottlenecks(0.5);
        g
    }

    #[test]
    fn violation_detected_and_attributed() {
        let client = n(9);
        let mut m = SlaMonitor::new(vec![SlaTarget {
            client,
            max_latency: Nanos::from_millis(80),
        }]);
        let v = m.check(Nanos::from_secs(1), &[graph(client, 120, "slow-db")]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].estimate, Nanos::from_millis(120));
        assert_eq!(v[0].target, Nanos::from_millis(80));
        assert_eq!(v[0].suspect.as_deref(), Some("slow-db"));
        assert_eq!(m.history().len(), 1);
    }

    #[test]
    fn within_target_is_quiet() {
        let client = n(9);
        let mut m = SlaMonitor::new(vec![SlaTarget {
            client,
            max_latency: Nanos::from_millis(200),
        }]);
        assert!(m.check(Nanos::ZERO, &[graph(client, 120, "db")]).is_empty());
        assert!(m.history().is_empty());
    }

    #[test]
    fn unmonitored_clients_are_ignored() {
        let mut m = SlaMonitor::new(vec![]);
        assert!(m.check(Nanos::ZERO, &[graph(n(9), 500, "db")]).is_empty());
        m.set_target(SlaTarget {
            client: n(9),
            max_latency: Nanos::from_millis(100),
        });
        assert_eq!(m.check(Nanos::ZERO, &[graph(n(9), 500, "db")]).len(), 1);
    }

    #[test]
    fn history_accumulates_per_client() {
        let mut m = SlaMonitor::new(vec![
            SlaTarget {
                client: n(8),
                max_latency: Nanos::from_millis(50),
            },
            SlaTarget {
                client: n(9),
                max_latency: Nanos::from_millis(50),
            },
        ]);
        m.check(Nanos::from_secs(1), &[graph(n(8), 100, "a")]);
        m.check(
            Nanos::from_secs(2),
            &[graph(n(8), 100, "a"), graph(n(9), 100, "b")],
        );
        assert_eq!(m.history().len(), 3);
        assert_eq!(m.violations_of(n(8)).len(), 2);
        assert_eq!(m.violations_of(n(9)).len(), 1);
    }
}
