//! E2EProf core: black-box causal service-path inference (pathmap).
//!
//! This crate implements the primary contribution of *E2EProf: Automated
//! End-to-End Performance Management for Enterprise Systems* (Agarwala,
//! Alegre, Schwan, Mehalingham — DSN 2007): the **pathmap** algorithm,
//! which discovers the causal paths client requests take through a
//! distributed system — and the delays incurred along them — purely from
//! passively captured, timestamped message traces. No source access, no
//! instrumentation, no request IDs: just cross-correlation of per-edge
//! density time series.
//!
//! # Architecture
//!
//! * [`config::PathmapConfig`] — the analysis parameters: time quantum `τ`,
//!   sampling window `ω`, sliding window `W`, refresh interval `ΔW`, and
//!   transaction-delay bound `T_u`.
//! * [`signals::EdgeSignals`] — per-edge density series for one analysis
//!   window, built from a [`CaptureStore`](e2eprof_netsim::CaptureStore)
//!   (offline) or from streamed tracer chunks (online).
//! * [`pathmap::Pathmap`] — Algorithm 1: `ServiceRoot` iterates front-end
//!   nodes and their clients; `ComputePath` recursively cross-correlates
//!   the client's arrival signal with every adjacent edge signal, adding an
//!   edge wherever the correlation has a distinguishable spike.
//! * [`graph::ServiceGraph`] — the discovered per-client graph, annotated
//!   with cumulative and per-hop delays and bottleneck marks.
//! * [`tracer::TracerAgent`] / [`analyzer::OnlineAnalyzer`] — the online
//!   pipeline: agents on service nodes convert captures to RLE density
//!   chunks and stream them (wire-encoded) over channels; the analyzer
//!   maintains sliding windows, incrementally updates correlations, and
//!   republishes service graphs every `ΔW`.
//! * [`pipeline::LocalPipeline`] — that pipeline wired in one process:
//!   an agent on every service of a topology, one analyzer owning every
//!   root.
//! * [`change::ChangeTracker`] — per-edge delay histories across refreshes
//!   (the Fig. 7 change-detection capability).
//! * [`skew::estimate_skew`] — clock-skew estimation between the two ends
//!   of an edge (Section 3.8).
//! * [`convolution`] — the Aguilera et al. convolution baseline: offline,
//!   FFT-based, full lag range.
//! * [`validate`] — compares inferred delays against simulator ground
//!   truth (the paper's Section 4.1.1 accuracy methodology).
//!
//! # Example
//!
//! ```
//! use e2eprof_core::prelude::*;
//! use e2eprof_netsim::prelude::*;
//!
//! // A three-tier system: client -> web -> db.
//! let mut t = TopologyBuilder::new();
//! let class = t.service_class("browse");
//! let web = t.service("web", ServiceConfig::new(DelayDist::constant_millis(2)));
//! let db = t.service("db", ServiceConfig::new(DelayDist::constant_millis(8)));
//! let client = t.client("client", class, web, Workload::poisson(60.0));
//! t.connect(client, web, DelayDist::constant_millis(1));
//! t.connect(web, db, DelayDist::constant_millis(1));
//! t.route(web, class, Route::fixed(db));
//! t.route(db, class, Route::terminal());
//! let mut sim = Simulation::new(t.build()?, 7);
//! sim.run_until(Nanos::from_minutes(2));
//!
//! // Infer the service path from the packet captures alone.
//! let cfg = PathmapConfig::builder().window(Nanos::from_minutes(1)).build();
//! let pm = Pathmap::new(cfg.clone());
//! let signals = EdgeSignals::from_capture(sim.captures(), &cfg, sim.now());
//! let labels = NodeLabels::from_topology(sim.topology());
//! let graphs = pm.discover(&signals, &roots_from_topology(sim.topology()), &labels);
//!
//! let g = &graphs[0];
//! assert!(g.has_edge_between("web", "db"), "web->db hop discovered");
//! assert!(g.has_edge_between("db", "web"), "return path discovered");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod change;
pub mod config;
pub mod convolution;
pub mod diff;
pub mod graph;
pub use e2eprof_timeseries::hashing;
pub mod ingest;
pub mod nesting;
pub mod parallel;
pub mod pathmap;
pub mod pipeline;
pub mod signals;
pub mod skew;
pub mod sla;
#[cfg(test)]
pub(crate) mod testutil;
pub mod tracer;
pub mod validate;

/// Convenient glob-import of the analysis layer's main types.
pub mod prelude {
    pub use crate::analyzer::OnlineAnalyzer;
    pub use crate::analyzer::ScratchCounters;
    pub use crate::change::ChangeTracker;
    pub use crate::config::{PathmapConfig, Transport};
    pub use crate::graph::{NodeLabels, ServiceGraph};
    pub use crate::pathmap::{roots_from_topology, IncrementalStats, Pathmap};
    pub use crate::pipeline::LocalPipeline;
    pub use crate::signals::EdgeSignals;
    pub use crate::tracer::{ChannelSink, FrameSink, PollOutcome, TracerAgent};
}

pub use analyzer::{OnlineAnalyzer, ScratchCounters};
pub use config::{PathmapConfig, Transport};
pub use graph::{NodeLabels, ServiceGraph};
pub use pathmap::{roots_from_topology, IncrementalStats, Pathmap};
pub use pipeline::LocalPipeline;
pub use signals::EdgeSignals;
pub use tracer::{ChannelSink, FrameSink, PollOutcome, TracerAgent};
