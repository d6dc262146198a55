//! Accuracy validation against simulator ground truth (Section 4.1.1).
//!
//! The paper verifies pathmap by instrumenting RUBiS to piggyback
//! per-server latencies, then comparing: per-server processing delays
//! matched within ~10 %, and the latency observed at the client was ~16 %
//! above pathmap's end-to-end estimate (the client's own link is invisible
//! to server-side tracing). This module computes the same comparison from
//! the simulator's [`TruthRecorder`].

use crate::graph::ServiceGraph;
use e2eprof_netsim::truth::TruthRecorder;
use e2eprof_netsim::{ClassId, NodeId, Topology};
use e2eprof_timeseries::Nanos;

/// Accuracy of one forward hop.
#[derive(Debug, Clone, PartialEq)]
pub struct HopAccuracy {
    /// Source node label.
    pub from: String,
    /// Destination node label.
    pub to: String,
    /// Pathmap's inferred hop delay (processing at `from` + link).
    pub inferred: Nanos,
    /// Ground truth: mean processing delay at `from` + mean link latency.
    pub actual: Nanos,
    /// `|inferred − actual| / actual`.
    pub rel_error: f64,
}

/// The full accuracy comparison for one client's graph.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyReport {
    /// Per-forward-hop comparison.
    pub hops: Vec<HopAccuracy>,
    /// Pathmap's end-to-end estimate (front-end arrival to response
    /// leaving the front end).
    pub e2e_inferred: Option<Nanos>,
    /// Mean client-observed end-to-end latency.
    pub e2e_actual: Nanos,
    /// `(actual − inferred) / inferred` — positive when clients observe
    /// more than pathmap can see (expected: the untraced client link).
    pub e2e_gap: Option<f64>,
}

impl AccuracyReport {
    /// The worst per-hop relative error.
    pub fn max_hop_error(&self) -> f64 {
        self.hops.iter().map(|h| h.rel_error).fold(0.0, f64::max)
    }
}

/// Compares a discovered graph against ground truth for `class`.
///
/// The comparison walks the most frequent true path and, for each
/// consecutive hop `(a → b)` present in the graph, checks the inferred hop
/// delay against `mean processing at a + mean link latency a→b`.
pub fn compare(
    graph: &ServiceGraph,
    truth: &TruthRecorder,
    topo: &Topology,
    class: ClassId,
) -> AccuracyReport {
    // Most frequent true path (None if no details retained).
    let true_path: Option<Vec<NodeId>> = truth
        .class_paths(class)
        .into_iter()
        .max_by_key(|(_, count)| *count)
        .map(|(path, _)| path);

    let mut hops = Vec::new();
    if let Some(path) = &true_path {
        for pair in path.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let Some(edge) = graph.edge(a, b) else {
                continue;
            };
            let processing = truth.node_processing(class, a).mean();
            let link = topo
                .link(a, b)
                .map(|d| d.mean().as_nanos() as f64)
                .unwrap_or(0.0);
            let actual = processing + link;
            if actual <= 0.0 {
                continue;
            }
            let inferred = edge.hop_delay.as_nanos() as f64;
            hops.push(HopAccuracy {
                from: graph.label_of(a),
                to: graph.label_of(b),
                inferred: edge.hop_delay,
                actual: Nanos::from_nanos(actual.round() as u64),
                rel_error: (inferred - actual).abs() / actual,
            });
        }
    }

    let e2e_inferred = graph.end_to_end_delay();
    let e2e_actual = Nanos::from_nanos(truth.class_latency(class).mean().round() as u64);
    let e2e_gap = e2e_inferred.and_then(|inf| {
        (inf > Nanos::ZERO)
            .then(|| (e2e_actual.as_nanos() as f64 - inf.as_nanos() as f64) / inf.as_nanos() as f64)
    });
    AccuracyReport {
        hops,
        e2e_inferred,
        e2e_actual,
        e2e_gap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PathmapConfig;
    use crate::graph::NodeLabels;
    use crate::pathmap::{roots_from_topology, Pathmap};
    use crate::signals::EdgeSignals;
    use e2eprof_netsim::prelude::*;
    use e2eprof_netsim::Route;

    #[test]
    fn inferred_hops_match_truth_within_tolerance() {
        let mut t = TopologyBuilder::new();
        let class = t.service_class("bid");
        let web = t.service("web", ServiceConfig::new(DelayDist::constant_millis(3)));
        let db = t.service("db", ServiceConfig::new(DelayDist::exponential_millis(10)));
        let cli = t.client("cli", class, web, Workload::poisson(50.0));
        t.connect(cli, web, DelayDist::constant_millis(1));
        t.connect(web, db, DelayDist::constant_millis(1));
        t.route(web, class, Route::fixed(db));
        t.route(db, class, Route::terminal());
        let mut sim = Simulation::new(t.build().unwrap(), 13);
        sim.run_until(Nanos::from_secs(40));

        let cfg = PathmapConfig::builder()
            .window(Nanos::from_secs(30))
            .refresh(Nanos::from_secs(10))
            .max_delay(Nanos::from_secs(2))
            .build();
        let pm = Pathmap::new(cfg.clone());
        let signals = EdgeSignals::from_capture(sim.captures(), &cfg, sim.now());
        let labels = NodeLabels::from_topology(sim.topology());
        let graphs = pm.discover(&signals, &roots_from_topology(sim.topology()), &labels);
        let report = compare(&graphs[0], sim.truth(), sim.topology(), class);

        assert!(!report.hops.is_empty(), "no comparable hops found");
        // The paper reports ~10% per-hop accuracy; allow a little slack for
        // the short window.
        assert!(
            report.max_hop_error() < 0.35,
            "hop errors too large: {:#?}",
            report.hops
        );
        // The client observes more latency than server-side tracing can
        // see (its own access link), as in the paper's 16% observation.
        let gap = report.e2e_gap.expect("e2e estimate available");
        assert!(
            gap > 0.0,
            "client-observed latency should exceed estimate, gap={gap}"
        );
        assert!(gap < 1.0, "gap implausibly large: {gap}");
    }
}
