//! The discovered service graph: pathmap's output.

use e2eprof_netsim::{NodeId, Topology};
use e2eprof_timeseries::Nanos;
use std::collections::HashMap;
use std::fmt;

/// Human-readable labels for node ids.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeLabels {
    labels: Vec<String>,
}

impl NodeLabels {
    /// Creates labels from a plain list indexed by [`NodeId`].
    pub fn new(labels: Vec<String>) -> Self {
        NodeLabels { labels }
    }

    /// Extracts labels from a simulator topology.
    pub fn from_topology(topo: &Topology) -> Self {
        NodeLabels {
            labels: topo.nodes().iter().map(|n| n.name.clone()).collect(),
        }
    }

    /// The label of `id` (falls back to the numeric id).
    pub fn label(&self, id: NodeId) -> String {
        self.labels
            .get(id.index())
            .cloned()
            .unwrap_or_else(|| id.to_string())
    }

    /// Looks a node up by label.
    pub fn id_of(&self, label: &str) -> Option<NodeId> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| NodeId::new(i as u32))
    }
}

/// One discovered vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphVertex {
    /// The node.
    pub node: NodeId,
    /// Human-readable label.
    pub label: String,
    /// Whether this vertex was marked a major source of delay.
    pub bottleneck: bool,
    /// Derived per-node delay contribution (see
    /// [`ServiceGraph::annotate_bottlenecks`]).
    pub contribution: Option<Nanos>,
}

/// One correlation spike supporting an edge: a cumulative delay from
/// front-end arrival, with the normalized correlation that evidences it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelaySpike {
    /// Cumulative delay from front-end arrival to traversal of the edge.
    pub delay: Nanos,
    /// Normalized correlation at the spike (evidence weight).
    pub strength: f64,
}

/// One discovered edge, annotated with its supporting spikes.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphEdge {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Supporting correlation spikes (multiple spikes = multiple paths).
    /// Empty for the anchoring client edge, whose delay is unmeasurable.
    pub spikes: Vec<DelaySpike>,
    /// Per-hop delay: source-node computation plus `from → to`
    /// communication (difference of this edge's and the parent edge's
    /// smallest cumulative delays).
    pub hop_delay: Nanos,
}

impl GraphEdge {
    /// The anchoring edge from an (untraced) client to its front end.
    pub fn anchor(from: NodeId, to: NodeId) -> Self {
        GraphEdge {
            from,
            to,
            spikes: Vec::new(),
            hop_delay: Nanos::ZERO,
        }
    }

    /// Whether this is an anchoring edge (no measured delays).
    pub fn is_anchor(&self) -> bool {
        self.spikes.is_empty()
    }

    /// All cumulative delays, in spike order.
    pub fn delays(&self) -> impl Iterator<Item = Nanos> + '_ {
        self.spikes.iter().map(|s| s.delay)
    }

    /// The earliest *significant* cumulative delay (spikes at ≥ half the
    /// edge's peak strength; weak stragglers from the noise floor are
    /// ignored).
    pub fn min_delay(&self) -> Option<Nanos> {
        self.significant_delays().min()
    }

    /// The latest significant cumulative delay (the slowest genuine path
    /// through this edge).
    pub fn max_delay(&self) -> Option<Nanos> {
        self.significant_delays().max()
    }

    /// The peak supporting correlation (1.0 for the trusted anchor edge).
    pub fn strength(&self) -> f64 {
        self.spikes
            .iter()
            .map(|s| s.strength)
            .fold(f64::NEG_INFINITY, f64::max)
            .max(if self.spikes.is_empty() {
                1.0
            } else {
                f64::NEG_INFINITY
            })
    }

    /// Cumulative delays of spikes with at least half the peak strength.
    pub fn significant_delays(&self) -> impl Iterator<Item = Nanos> + '_ {
        let peak = self
            .spikes
            .iter()
            .map(|s| s.strength)
            .fold(0.0f64, f64::max);
        self.spikes
            .iter()
            .filter(move |s| s.strength >= 0.5 * peak)
            .map(|s| s.delay)
    }
}

/// A per-client causal service graph with delay annotations.
///
/// Vertices are service nodes (plus the client); an edge `a → b` means
/// messages on `a → b` are causally driven by this client's requests. The
/// graph naturally contains both the forward (request) and return
/// (response) directions — the paper's "duplicate vertex labels".
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceGraph {
    /// The client node whose requests this graph describes.
    pub client: NodeId,
    /// The client's label.
    pub client_label: String,
    /// The front-end (root) service node.
    pub root: NodeId,
    vertices: Vec<GraphVertex>,
    edges: Vec<GraphEdge>,
}

impl ServiceGraph {
    /// Creates an empty graph rooted at `root` for `client`.
    pub fn new(client: NodeId, client_label: String, root: NodeId) -> Self {
        ServiceGraph {
            client,
            client_label,
            root,
            vertices: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// The vertices, in discovery order.
    pub fn vertices(&self) -> &[GraphVertex] {
        &self.vertices
    }

    /// The edges, in discovery order.
    pub fn edges(&self) -> &[GraphEdge] {
        &self.edges
    }

    /// Whether `node` is already a vertex.
    pub fn has_vertex(&self, node: NodeId) -> bool {
        self.vertices.iter().any(|v| v.node == node)
    }

    /// Adds a vertex if absent.
    pub fn add_vertex(&mut self, node: NodeId, label: String) {
        if !self.has_vertex(node) {
            self.vertices.push(GraphVertex {
                node,
                label,
                bottleneck: false,
                contribution: None,
            });
        }
    }

    /// Adds an edge.
    pub fn add_edge(&mut self, edge: GraphEdge) {
        self.edges.push(edge);
    }

    /// The edge `from → to`, if present.
    pub fn edge(&self, from: NodeId, to: NodeId) -> Option<&GraphEdge> {
        self.edges.iter().find(|e| e.from == from && e.to == to)
    }

    /// Whether an edge exists between the two labelled nodes.
    pub fn has_edge_between(&self, from_label: &str, to_label: &str) -> bool {
        self.edges
            .iter()
            .any(|e| self.label_of(e.from) == from_label && self.label_of(e.to) == to_label)
    }

    /// The label of a vertex (falls back to the numeric id).
    pub fn label_of(&self, node: NodeId) -> String {
        self.vertices
            .iter()
            .find(|v| v.node == node)
            .map(|v| v.label.clone())
            .unwrap_or_else(|| node.to_string())
    }

    /// The end-to-end delay estimate: the largest *significant* cumulative
    /// delay on any edge returning to the client (or, failing that, on any
    /// edge). Weak noise-floor spikes never inflate the estimate.
    pub fn end_to_end_delay(&self) -> Option<Nanos> {
        let to_client = self
            .strong_edges()
            .filter(|e| e.to == self.client)
            .filter_map(|e| e.max_delay())
            .max();
        to_client.or_else(|| self.strong_edges().filter_map(|e| e.max_delay()).max())
    }

    /// Edges whose peak strength is at least a third of the graph's
    /// strongest (non-anchor) edge — the edges delay derivations trust.
    /// Weak stragglers admitted near the detection threshold (most common
    /// with the unbounded-lag convolution baseline) are excluded from
    /// arrival-time and bottleneck computations, though they remain in
    /// the graph for inspection.
    pub fn strong_edges(&self) -> impl Iterator<Item = &GraphEdge> + '_ {
        let peak = self
            .edges
            .iter()
            .filter(|e| !e.is_anchor())
            .map(|e| e.strength())
            .fold(0.0f64, f64::max);
        self.edges
            .iter()
            .filter(move |e| e.is_anchor() || e.strength() >= peak / 3.0)
    }

    /// Recomputes every edge's per-hop delay from the graph structure:
    /// `hop(a → b) = min cum(a → b) − earliest arrival at a`, where the
    /// earliest arrival is the smallest cumulative delay over `a`'s
    /// incoming edges (zero for an anchoring edge without measured
    /// delays, i.e. the front end).
    ///
    /// Discovery order must not influence hop attribution: the DFS can
    /// reach a node through its *return* edge before its forward edge
    /// (e.g. via the database's response to the other branch), so
    /// traversal-time bases are unreliable. This pass is run after
    /// discovery.
    pub fn recompute_hop_delays(&mut self) {
        let mut earliest: HashMap<NodeId, Nanos> = HashMap::new();
        for e in self.strong_edges() {
            let arrival = e.min_delay().unwrap_or(Nanos::ZERO);
            earliest
                .entry(e.to)
                .and_modify(|a| *a = (*a).min(arrival))
                .or_insert(arrival);
        }
        for e in &mut self.edges {
            let Some(min_cum) = e.min_delay() else {
                e.hop_delay = Nanos::ZERO;
                continue;
            };
            let base = earliest.get(&e.from).copied().unwrap_or(Nanos::ZERO);
            e.hop_delay = min_cum.saturating_sub(base);
        }
    }

    /// Derives each service vertex's delay contribution and marks
    /// bottlenecks.
    ///
    /// A vertex's contribution is the difference between the smallest
    /// cumulative delay over its *outgoing* edges and over its *incoming*
    /// edges (the paper: "the computing delay at node S_i is the difference
    /// of the delays corresponding to its incoming and outgoing edges").
    /// Vertices whose contribution is at least `fraction` of the maximum
    /// are marked grey.
    pub fn annotate_bottlenecks(&mut self, fraction: f64) {
        let mut contributions: HashMap<NodeId, Nanos> = HashMap::new();
        for v in &self.vertices {
            if v.node == self.client {
                continue;
            }
            let incoming = self
                .strong_edges()
                .filter(|e| e.to == v.node)
                .filter_map(|e| e.min_delay())
                .min();
            let outgoing = self
                .strong_edges()
                .filter(|e| e.from == v.node)
                .filter_map(|e| e.min_delay())
                .min();
            let contribution = match (incoming, outgoing) {
                (Some(i), Some(o)) => o.saturating_sub(i),
                // Root vertex: its incoming edge is the client's own,
                // which carries no measured delay.
                (None, Some(o)) => o,
                _ => Nanos::ZERO,
            };
            contributions.insert(v.node, contribution);
        }
        let max = contributions.values().copied().max().unwrap_or(Nanos::ZERO);
        for v in &mut self.vertices {
            if let Some(&c) = contributions.get(&v.node) {
                v.contribution = Some(c);
                v.bottleneck =
                    max > Nanos::ZERO && c.as_nanos() as f64 >= fraction * max.as_nanos() as f64;
            }
        }
    }

    /// The forward request chain: edges ordered by smallest cumulative
    /// delay, greedily following vertices from the root (a linearized view
    /// matching the paper's unrolled figures).
    pub fn linearized(&self) -> Vec<&GraphEdge> {
        let mut out: Vec<&GraphEdge> = self.edges.iter().collect();
        out.sort_by_key(|e| e.min_delay().unwrap_or(Nanos::ZERO));
        out
    }

    /// Renders the request's progress as an ASCII waterfall: one bar per
    /// edge, positioned at its cumulative delay, widest window scaled to
    /// `width` columns.
    ///
    /// ```text
    /// WS   -> TS1    |####                       |   6.0ms
    /// TS1  -> EJB1   |    #####                  |  15.0ms
    /// ```
    pub fn to_waterfall(&self, width: usize) -> String {
        let width = width.max(10);
        let max_cum = self
            .edges
            .iter()
            .filter_map(|e| e.max_delay())
            .max()
            .unwrap_or(Nanos::ZERO)
            .as_nanos()
            .max(1);
        let name_width = self
            .edges
            .iter()
            .map(|e| self.label_of(e.from).len() + self.label_of(e.to).len())
            .max()
            .unwrap_or(8)
            + 4;
        let mut out = String::new();
        for e in self.linearized() {
            let Some(cum) = e.min_delay() else {
                continue;
            };
            let start_col = ((cum.saturating_sub(e.hop_delay).as_nanos() as u128 * width as u128)
                / max_cum as u128) as usize;
            let end_col = ((cum.as_nanos() as u128 * width as u128) / max_cum as u128) as usize;
            let end_col = end_col.min(width);
            let start_col = start_col.min(end_col);
            let bar_len = (end_col - start_col)
                .max(1)
                .min(width - start_col.min(width - 1));
            let label = format!("{} -> {}", self.label_of(e.from), self.label_of(e.to));
            out.push_str(&format!(
                "{label:<name_width$}|{:start_col$}{:#<bar_len$}{:pad$}| {:>7.1}ms\n",
                "",
                "",
                "",
                cum.as_millis_f64(),
                pad = width.saturating_sub(start_col + bar_len),
            ));
        }
        out
    }

    /// Renders the graph in Graphviz DOT format (bottlenecks in grey).
    pub fn to_dot(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "digraph \"{}\" {{\n  rankdir=LR;\n",
            self.client_label
        ));
        s.push_str(&format!("  \"{}\" [shape=ellipse];\n", self.client_label));
        for v in &self.vertices {
            let style = if v.bottleneck {
                " style=filled fillcolor=grey"
            } else {
                ""
            };
            s.push_str(&format!("  \"{}\" [shape=box{}];\n", v.label, style));
        }
        for e in &self.edges {
            let delays: Vec<String> = e
                .delays()
                .map(|d| format!("{:.1}", d.as_millis_f64()))
                .collect();
            s.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"+{:.1}ms (cum {})\"];\n",
                self.label_of(e.from),
                self.label_of(e.to),
                e.hop_delay.as_millis_f64(),
                delays.join("/"),
            ));
        }
        s.push_str("}\n");
        s
    }
}

impl fmt::Display for ServiceGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "service graph for client {} (root {})",
            self.client_label,
            self.label_of(self.root)
        )?;
        for e in self.linearized() {
            let cum: Vec<String> = e
                .delays()
                .map(|d| format!("{:.1}ms", d.as_millis_f64()))
                .collect();
            writeln!(
                f,
                "  {} -> {}  hop +{:.1}ms  cum [{}]  corr {:.2}",
                self.label_of(e.from),
                self.label_of(e.to),
                e.hop_delay.as_millis_f64(),
                cum.join(", "),
                e.strength(),
            )?;
        }
        for v in &self.vertices {
            if v.bottleneck {
                writeln!(
                    f,
                    "  bottleneck: {} (+{:.1}ms)",
                    v.label,
                    v.contribution.unwrap_or(Nanos::ZERO).as_millis_f64()
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn edge(from: u32, to: u32, cum_ms: u64, hop_ms: u64) -> GraphEdge {
        GraphEdge {
            from: n(from),
            to: n(to),
            spikes: vec![DelaySpike {
                delay: Nanos::from_millis(cum_ms),
                strength: 0.9,
            }],
            hop_delay: Nanos::from_millis(hop_ms),
        }
    }

    /// client 0 -> ws 1 -> db 2 -> ws 1 -> client 0.
    fn sample() -> ServiceGraph {
        let mut g = ServiceGraph::new(n(0), "client".into(), n(1));
        g.add_vertex(n(1), "ws".into());
        g.add_vertex(n(2), "db".into());
        g.add_vertex(n(0), "client".into());
        g.add_edge(edge(1, 2, 5, 5));
        g.add_edge(edge(2, 1, 25, 20));
        g.add_edge(edge(1, 0, 27, 2));
        g
    }

    #[test]
    fn vertex_dedup() {
        let mut g = sample();
        g.add_vertex(n(1), "ws".into());
        assert_eq!(g.vertices().len(), 3);
    }

    #[test]
    fn edge_lookup_by_label() {
        let g = sample();
        assert!(g.has_edge_between("ws", "db"));
        assert!(g.has_edge_between("db", "ws"));
        assert!(!g.has_edge_between("db", "client"));
        assert!(g.edge(n(1), n(2)).is_some());
        assert!(g.edge(n(2), n(0)).is_none());
    }

    #[test]
    fn end_to_end_prefers_client_edges() {
        let g = sample();
        assert_eq!(g.end_to_end_delay(), Some(Nanos::from_millis(27)));
    }

    #[test]
    fn bottleneck_annotation() {
        let mut g = sample();
        g.annotate_bottlenecks(0.5);
        // db: incoming cum 5, outgoing cum 25 -> contribution 20ms (max).
        // ws: incoming min(25) (db->ws), outgoing min(5) -> 0 (saturating).
        let db = g.vertices().iter().find(|v| v.label == "db").unwrap();
        assert!(db.bottleneck);
        assert_eq!(db.contribution, Some(Nanos::from_millis(20)));
        let ws = g.vertices().iter().find(|v| v.label == "ws").unwrap();
        assert!(!ws.bottleneck);
    }

    #[test]
    fn linearized_is_cumulative_order() {
        let g = sample();
        let order: Vec<(NodeId, NodeId)> = g.linearized().iter().map(|e| (e.from, e.to)).collect();
        assert_eq!(order, vec![(n(1), n(2)), (n(2), n(1)), (n(1), n(0))]);
    }

    #[test]
    fn waterfall_renders_bars_in_order() {
        let g = sample();
        let w = g.to_waterfall(40);
        let lines: Vec<&str> = w.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("ws -> db"));
        assert!(lines[0].contains("5.0ms"));
        assert!(lines[2].contains("ws -> client"));
        assert!(lines[2].contains("27.0ms"));
        // Every line has a bar.
        assert!(lines.iter().all(|l| l.contains('#')));
    }

    #[test]
    fn waterfall_of_empty_graph_is_empty() {
        let g = ServiceGraph::new(n(0), "c".into(), n(1));
        assert!(g.to_waterfall(40).is_empty());
    }

    #[test]
    fn dot_renders_all_elements() {
        let mut g = sample();
        g.annotate_bottlenecks(0.5);
        let dot = g.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("\"ws\" -> \"db\""));
        assert!(dot.contains("fillcolor=grey"));
    }

    #[test]
    fn display_mentions_bottleneck() {
        let mut g = sample();
        g.annotate_bottlenecks(0.5);
        let text = g.to_string();
        assert!(text.contains("bottleneck: db"));
        assert!(text.contains("ws -> db"));
    }

    #[test]
    fn weak_spikes_do_not_inflate_delays() {
        // An edge with a strong spike at 20ms and a noise-floor spike at
        // 900ms: summaries must ignore the weak one.
        let e = GraphEdge {
            from: n(1),
            to: n(0),
            spikes: vec![
                DelaySpike {
                    delay: Nanos::from_millis(20),
                    strength: 0.9,
                },
                DelaySpike {
                    delay: Nanos::from_millis(900),
                    strength: 0.12,
                },
            ],
            hop_delay: Nanos::from_millis(20),
        };
        assert_eq!(e.min_delay(), Some(Nanos::from_millis(20)));
        assert_eq!(e.max_delay(), Some(Nanos::from_millis(20)));
        assert_eq!(e.delays().count(), 2); // raw spikes still visible
        assert_eq!(e.strength(), 0.9);
    }

    #[test]
    fn comparable_spikes_both_count() {
        // Round-robin: two genuine paths with comparable strengths.
        let e = GraphEdge {
            from: n(1),
            to: n(0),
            spikes: vec![
                DelaySpike {
                    delay: Nanos::from_millis(40),
                    strength: 0.5,
                },
                DelaySpike {
                    delay: Nanos::from_millis(90),
                    strength: 0.4,
                },
            ],
            hop_delay: Nanos::from_millis(40),
        };
        assert_eq!(e.min_delay(), Some(Nanos::from_millis(40)));
        assert_eq!(e.max_delay(), Some(Nanos::from_millis(90)));
    }

    #[test]
    fn anchor_edge_properties() {
        let e = GraphEdge::anchor(n(0), n(1));
        assert!(e.is_anchor());
        assert_eq!(e.min_delay(), None);
        assert_eq!(e.strength(), 1.0);
    }

    #[test]
    fn weak_edges_excluded_from_derivations() {
        // A weak spurious edge into the client must not define the e2e
        // estimate or pollute bottleneck bases.
        let mut g = ServiceGraph::new(n(0), "client".into(), n(1));
        g.add_vertex(n(1), "ws".into());
        g.add_edge(GraphEdge::anchor(n(0), n(1)));
        g.add_edge(GraphEdge {
            from: n(1),
            to: n(0),
            spikes: vec![DelaySpike {
                delay: Nanos::from_millis(30),
                strength: 0.9,
            }],
            hop_delay: Nanos::from_millis(30),
        });
        // Spurious weak edge claiming a 5-second response.
        g.add_edge(GraphEdge {
            from: n(1),
            to: n(0),
            spikes: vec![DelaySpike {
                delay: Nanos::from_millis(5_000),
                strength: 0.11,
            }],
            hop_delay: Nanos::from_millis(5_000),
        });
        assert_eq!(g.strong_edges().count(), 2); // anchor + genuine
        assert_eq!(g.end_to_end_delay(), Some(Nanos::from_millis(30)));
    }

    #[test]
    fn labels_from_list() {
        let labels = NodeLabels::new(vec!["a".into(), "b".into()]);
        assert_eq!(labels.label(n(1)), "b");
        assert_eq!(labels.label(n(9)), "n9");
        assert_eq!(labels.id_of("a"), Some(n(0)));
        assert_eq!(labels.id_of("zzz"), None);
    }
}
