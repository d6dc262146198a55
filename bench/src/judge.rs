//! Output checks: a bit-exact digest of every published graph, and edge
//! precision/recall against the simulator's recorded request paths.

use crate::driver::Plan;
use crate::workloads::Capture;
use e2eprof_core::graph::ServiceGraph;
use e2eprof_netsim::NodeId;
use std::collections::BTreeSet;

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Digest of one refresh's graphs, in published order: per graph the
/// client and root, then every edge (sorted by endpoints) with its
/// `hop_delay` and each spike's `delay` and `strength.to_bits()`. Equal
/// digests mean bit-identical graphs.
pub fn digest(graphs: &[ServiceGraph]) -> u64 {
    let mut h = Fnv::new();
    h.word(graphs.len() as u64);
    for g in graphs {
        h.word(g.client.index() as u64);
        h.word(g.root.index() as u64);
        let mut edges: Vec<_> = g.edges().iter().collect();
        edges.sort_by_key(|e| (e.from, e.to));
        h.word(edges.len() as u64);
        for e in edges {
            h.word(e.from.index() as u64);
            h.word(e.to.index() as u64);
            h.word(e.hop_delay.as_nanos());
            h.word(e.spikes.len() as u64);
            for s in &e.spikes {
                h.word(s.delay.as_nanos());
                h.word(s.strength.to_bits());
            }
        }
    }
    h.0
}

/// Folds per-step digests into one digest for a whole pass.
pub fn fold(digests: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for &d in digests {
        h.word(d);
    }
    h.0
}

/// How one step's graphs compare with ground truth.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verdict {
    /// Mean recall over the classes with traffic in the window: true
    /// edges discovered / true edges (a class without a graph scores 0).
    pub recall: f64,
    /// Mean precision over the same classes that did get a graph:
    /// discovered edges that are true / discovered edges.
    pub precision: f64,
    /// Graphs the step had to publish (roots with traffic in the window).
    pub expected: u64,
    /// Of those, graphs that were not published.
    pub missing: u64,
    /// Edges published for the expected roots.
    pub edges: u64,
}

/// Judges the graphs step `step` (1-based) published.
pub fn judge(plan: &Plan, capture: &Capture, step: u64, graphs: &[ServiceGraph]) -> Verdict {
    let active = &plan.active[(step - 1) as usize];
    let mut verdict = Verdict {
        expected: active.len() as u64,
        ..Verdict::default()
    };
    let mut graded = 0u64;
    for &root in active {
        let (client, _) = plan.roots[root];
        let truth = &capture.true_edges[&client];
        let Some(graph) = graphs.iter().find(|g| g.client == client) else {
            verdict.missing += 1;
            continue;
        };
        let found: BTreeSet<(NodeId, NodeId)> =
            graph.edges().iter().map(|e| (e.from, e.to)).collect();
        let hits = found.intersection(truth).count() as f64;
        verdict.recall += hits / truth.len().max(1) as f64;
        verdict.precision += hits / found.len().max(1) as f64;
        verdict.edges += found.len() as u64;
        graded += 1;
    }
    if !active.is_empty() {
        verdict.recall /= active.len() as f64;
    }
    if graded > 0 {
        verdict.precision /= graded as f64;
    }
    verdict
}
