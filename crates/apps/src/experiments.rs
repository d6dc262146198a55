//! Reusable drivers for every experiment in the paper's evaluation
//! (Section 4). The examples, integration tests, and the bench harness's
//! `experiments` binary all run these, so "the figure" is a single piece
//! of code everywhere.

use crate::rubis::{Dispatch, Rubis, RubisConfig};
use crate::scheduler::{PathLatencyMap, SlaRouter};
use e2eprof_core::change::ChangeTracker;
use e2eprof_core::graph::{NodeLabels, ServiceGraph};
use e2eprof_core::pathmap::{roots_from_topology, Pathmap};
use e2eprof_core::signals::EdgeSignals;
use e2eprof_core::validate::{self, AccuracyReport};
use e2eprof_core::PathmapConfig;
use e2eprof_netsim::perturb::DelaySchedule;
use e2eprof_netsim::prelude::*;
use e2eprof_timeseries::Quanta;
use std::sync::Arc;

/// The analysis configuration used by the RUBiS experiments.
///
/// The paper uses `τ` = 1 ms, `ω` = 50·τ, `T_u` = 1 min. Transactions in
/// both the paper's and our deployment finish within a few hundred
/// milliseconds, so we bound `T_u` at 2 s — the same information at a
/// fraction of the cost (the full 1-minute bound is exercised by the
/// Fig. 9 cost benchmarks, where the cost *is* the measurement).
pub fn rubis_config(window: Nanos, refresh: Nanos) -> PathmapConfig {
    PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(window)
        .refresh(refresh)
        .max_delay(Nanos::from_secs(2))
        .env_overrides()
        .build()
}

/// Discovers the current service graphs of a RUBiS deployment from its
/// packet captures (offline analysis of the trailing window).
pub fn discover(rubis: &Rubis, cfg: &PathmapConfig) -> Vec<ServiceGraph> {
    let sim = rubis.sim();
    let pm = Pathmap::new(cfg.clone());
    let signals = EdgeSignals::from_capture(sim.captures(), cfg, sim.now());
    pm.discover(
        &signals,
        &roots_from_topology(sim.topology()),
        &NodeLabels::from_topology(sim.topology()),
    )
}

/// **Fig. 5** — service-path detection under affinity-based dispatch.
/// Runs RUBiS for `run_for`, then returns the deployment and its two
/// discovered graphs (bidding, comment).
pub fn fig5_affinity(seed: u64, run_for: Nanos) -> (Rubis, Vec<ServiceGraph>) {
    let mut rubis = Rubis::build(RubisConfig {
        dispatch: Dispatch::Affinity,
        seed,
        ..RubisConfig::default()
    });
    rubis.sim_mut().run_until(run_for);
    let cfg = rubis_config(Nanos::from_minutes(1), Nanos::from_secs(30));
    let graphs = discover(&rubis, &cfg);
    (rubis, graphs)
}

/// **Fig. 6** — service-path detection under round-robin dispatch.
pub fn fig6_round_robin(seed: u64, run_for: Nanos) -> (Rubis, Vec<ServiceGraph>) {
    let mut rubis = Rubis::build(RubisConfig {
        dispatch: Dispatch::RoundRobin,
        seed,
        ..RubisConfig::default()
    });
    rubis.sim_mut().run_until(run_for);
    let cfg = rubis_config(Nanos::from_minutes(1), Nanos::from_secs(30));
    let graphs = discover(&rubis, &cfg);
    (rubis, graphs)
}

/// **Section 4.1.1** — accuracy of inferred delays vs. ground truth, for
/// both classes of an affinity run.
pub fn accuracy(seed: u64, run_for: Nanos) -> Vec<AccuracyReport> {
    let (rubis, graphs) = fig5_affinity(seed, run_for);
    let classes = [rubis.bidding(), rubis.comment()];
    graphs
        .iter()
        .zip(classes)
        .map(|(g, class)| validate::compare(g, rubis.sim().truth(), rubis.sim().topology(), class))
        .collect()
}

/// One sample of the Fig. 7 change-detection time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Point {
    /// Refresh time.
    pub at: Nanos,
    /// Extra delay injected at EJB2 at that time.
    pub injected: Nanos,
    /// E2EProf's inferred processing delay at EJB2 (hop of EJB2 → DB in
    /// the bidding graph), if that edge was discovered this refresh.
    pub detected: Option<Nanos>,
    /// Average bidding latency observed at the front end over the same
    /// window (ground truth): moves far less than the per-edge signal
    /// because more than half the requests take the low-latency path —
    /// the paper's point about per-node tracking diagnosing faster.
    pub frontend_avg: Option<Nanos>,
}

/// **Fig. 7** — change detection. Round-robin dispatch; a staircase delay
/// (one step per `step_every`) is injected at EJB2; the analysis (window
/// `W` = 1 min as in the paper) refreshes every minute and tracks the
/// per-edge delay.
pub fn fig7_change_detection(seed: u64, minutes: u64) -> (Vec<Fig7Point>, ChangeTracker) {
    let step_every = Nanos::from_minutes(3);
    let staircase =
        DelaySchedule::staircase(Nanos::from_minutes(2), step_every, Nanos::from_millis(20));
    let mut rubis = Rubis::build(RubisConfig {
        dispatch: Dispatch::RoundRobin,
        seed,
        ejb2_perturb: staircase.clone(),
        ..RubisConfig::default()
    });
    let cfg = rubis_config(Nanos::from_minutes(1), Nanos::from_minutes(1));
    let n = rubis.nodes();
    let mut points = Vec::new();
    let mut tracker = ChangeTracker::new();
    for minute in 1..=minutes {
        let now = Nanos::from_minutes(minute);
        rubis.sim_mut().run_until(now);
        let graphs = discover(&rubis, &cfg);
        tracker.record(now, &graphs);
        let bid_graph = graphs.iter().find(|g| g.client == n.c1);
        let detected = bid_graph
            .and_then(|g| g.edge(n.ejb2, n.db))
            .map(|e| e.hop_delay);
        let window_start = now.saturating_sub(cfg.window());
        let frontend =
            rubis
                .sim()
                .truth()
                .class_latency_between(rubis.bidding(), window_start, now);
        let frontend_avg =
            (frontend.count() > 0).then(|| Nanos::from_nanos(frontend.mean().round() as u64));
        // The analysis window trails `now` by T_u + W; report the
        // injection level in force at the window's midpoint.
        let observed_at = now.saturating_sub(cfg.max_delay() + Nanos::from_secs(30));
        points.push(Fig7Point {
            at: now,
            injected: staircase.extra_delay(observed_at),
            detected,
            frontend_avg,
        });
    }
    (points, tracker)
}

/// The three rows of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table1Policy {
    /// Round-robin, no perturbation.
    RoundRobinBaseline,
    /// Round-robin with random 0–100 ms EJB delays changing each minute.
    RoundRobinPerturbed,
    /// E2EProf-driven path selection under the same perturbation.
    E2EProfPerturbed,
}

/// One measured row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Which policy the row measures.
    pub policy: Table1Policy,
    /// Mean bidding latency over the measurement interval.
    pub bidding: Nanos,
    /// Mean comment latency over the measurement interval.
    pub comment: Nanos,
}

/// **Table 1** — average latency under the three path-selection policies,
/// measured over `duration` (paper: 10 minutes) after a 1-minute warm-up.
///
/// The perturbation schedules are pure functions of `(seed, time)`, so the
/// perturbed policies face *identical* delay sequences.
pub fn table1(policy: Table1Policy, seed: u64, duration: Nanos) -> Table1Row {
    let perturb = |salt: u64| {
        DelaySchedule::random_piecewise(
            Nanos::from_minutes(1),
            Nanos::from_millis(100),
            seed ^ salt,
        )
    };
    let perturbed = !matches!(policy, Table1Policy::RoundRobinBaseline);
    let (ejb1_perturb, ejb2_perturb) = if perturbed {
        (perturb(0xA11CE), perturb(0xB0B))
    } else {
        (DelaySchedule::None, DelaySchedule::None)
    };

    let map = PathLatencyMap::new();
    let dispatch = match policy {
        Table1Policy::E2EProfPerturbed => {
            // Branch heads are TS1/TS2; their ids are assigned by the
            // builder in declaration order (see RubisNodes).
            let rubis_probe = Rubis::build(RubisConfig::default());
            let n = rubis_probe.nodes();
            Dispatch::Dynamic(Arc::new(SlaRouter::new(
                rubis_probe.bidding(),
                n.ts1,
                n.ts2,
                map.clone(),
            )))
        }
        _ => Dispatch::RoundRobin,
    };
    let mut rubis = Rubis::build(RubisConfig {
        dispatch,
        seed,
        ejb1_perturb,
        ejb2_perturb,
        ..RubisConfig::default()
    });

    let warmup = Nanos::from_minutes(1);
    let end = warmup + duration;
    if matches!(policy, Table1Policy::E2EProfPerturbed) {
        // Closed loop: refresh pathmap every 5 s and republish branch
        // latencies for the router.
        let cfg = PathmapConfig::builder()
            .quanta(Quanta::from_millis(1))
            .omega_ticks(50)
            .window(Nanos::from_secs(15))
            .refresh(Nanos::from_secs(3))
            .max_delay(Nanos::from_secs(1))
            .build();
        let n = rubis.nodes();
        let mut now = Nanos::ZERO;
        while now < end {
            now += Nanos::from_secs(3);
            rubis.sim_mut().run_until(now);
            let graphs = discover(&rubis, &cfg);
            map.update_from_graphs(&graphs, n.ws, &[n.ts1, n.ts2]);
        }
    } else {
        rubis.sim_mut().run_until(end);
    }

    let truth = rubis.sim().truth();
    let mean = |class| {
        Nanos::from_nanos(
            truth
                .class_latency_between(class, warmup, end)
                .mean()
                .round() as u64,
        )
    };
    Table1Row {
        policy,
        bidding: mean(rubis.bidding()),
        comment: mean(rubis.comment()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_discovers_both_affinity_paths() {
        let (rubis, graphs) = fig5_affinity(21, Nanos::from_minutes(2));
        assert_eq!(graphs.len(), 2);
        let n = rubis.nodes();
        let bid = graphs.iter().find(|g| g.client == n.c1).expect("bid graph");
        for (a, b) in [("WS", "TS1"), ("TS1", "EJB1"), ("EJB1", "DB")] {
            assert!(bid.has_edge_between(a, b), "missing {a}->{b}:\n{bid}");
        }
        assert!(!bid.has_edge_between("WS", "TS2"), "leak:\n{bid}");
        let cmt = graphs.iter().find(|g| g.client == n.c2).expect("cmt graph");
        for (a, b) in [("WS", "TS2"), ("TS2", "EJB2"), ("EJB2", "DB")] {
            assert!(cmt.has_edge_between(a, b), "missing {a}->{b}:\n{cmt}");
        }
        assert!(!cmt.has_edge_between("WS", "TS1"), "leak:\n{cmt}");
    }

    #[test]
    fn fig6_discovers_both_paths_per_class() {
        let (rubis, graphs) = fig6_round_robin(22, Nanos::from_minutes(2));
        let n = rubis.nodes();
        let bid = graphs.iter().find(|g| g.client == n.c1).expect("bid graph");
        for (a, b) in [
            ("WS", "TS1"),
            ("WS", "TS2"),
            ("TS1", "EJB1"),
            ("TS2", "EJB2"),
            ("EJB1", "DB"),
            ("EJB2", "DB"),
        ] {
            assert!(bid.has_edge_between(a, b), "missing {a}->{b}:\n{bid}");
        }
    }

    #[test]
    fn accuracy_within_paper_band() {
        let reports = accuracy(23, Nanos::from_minutes(2));
        for r in &reports {
            assert!(!r.hops.is_empty());
            assert!(r.max_hop_error() < 0.35, "hops: {:#?}", r.hops);
            let gap = r.e2e_gap.expect("estimate");
            assert!(gap > 0.0 && gap < 1.0, "gap {gap}");
        }
    }
}

/// The Delta Revenue Pipeline analysis parameters (Section 4.3): `τ` =
/// 1 s and `ω` = 50·τ as in the paper; the window is stretched to 2 hours
/// (the paper analyzed a week-long trace and reports "carefully setting"
/// the window to eliminate traffic-variation error — bursty feeds need a
/// long window to average out burst-echo correlations), `ω` = 20·τ (tuned
/// like the paper tuned theirs: wide enough to suppress noise, narrow
/// enough that burst-echo structure does not swallow the causal spike),
/// and `T_u` = 10 min.
///
/// At this resolution sub-second processing delays are invisible — exactly
/// the delay-inaccuracy limitation the paper reports — but causal paths
/// are still recovered.
pub fn delta_paper_config() -> PathmapConfig {
    PathmapConfig::builder()
        .quanta(Quanta::from_secs(1))
        .omega_ticks(20)
        .window(Nanos::from_minutes(120))
        .refresh(Nanos::from_minutes(10))
        .max_delay(Nanos::from_minutes(10))
        .env_overrides()
        .build()
}

/// **Section 4.3** — runs the Revenue Pipeline for `run_for` and analyzes
/// it offline with `analysis`, returning the deployment and the per-queue
/// service graphs.
pub fn delta_analysis(
    config: crate::delta::DeltaConfig,
    analysis: &PathmapConfig,
    run_for: Nanos,
) -> (crate::delta::Delta, Vec<ServiceGraph>) {
    let mut delta = crate::delta::Delta::build(config);
    delta.sim_mut().run_until(run_for);
    let sim = delta.sim();
    let pm = Pathmap::new(analysis.clone());
    let signals = EdgeSignals::from_capture(sim.captures(), analysis, sim.now());
    let graphs = pm.discover(
        &signals,
        &roots_from_topology(sim.topology()),
        &NodeLabels::from_topology(sim.topology()),
    );
    (delta, graphs)
}

/// The service node most often marked a bottleneck across graphs — the
/// automated version of "E2EProf successfully diagnosed a slow database
/// server connection".
pub fn dominant_bottleneck(graphs: &[ServiceGraph]) -> Option<String> {
    let mut votes: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for g in graphs {
        for v in g.vertices() {
            if v.bottleneck {
                *votes.entry(v.label.clone()).or_insert(0) += 1;
            }
        }
    }
    votes.into_iter().max_by_key(|&(_, c)| c).map(|(l, _)| l)
}

/// Result of the clock-skew estimation experiment (Section 3.8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewResult {
    /// The skew configured at the receiving node (ns, signed).
    pub configured_ns: i64,
    /// The estimated receiver−sender offset (ns; includes the 1 ms link).
    pub estimated_offset_ns: i64,
    /// Peak correlation supporting the estimate.
    pub strength: f64,
}

/// **Section 3.8** — injects a clock skew at the receiving end of one edge
/// and recovers it by cross-correlating the two ends' observations of the
/// same messages.
pub fn skew_estimation(seed: u64, skew_ms: i64, run_for: Nanos) -> SkewResult {
    use e2eprof_netsim::capture::TraceKey;
    use e2eprof_netsim::clock::NodeClock;
    use e2eprof_netsim::Route;

    let mut t = e2eprof_netsim::TopologyBuilder::new();
    let class = t.service_class("c");
    let a = t.service(
        "a",
        e2eprof_netsim::ServiceConfig::new(DelayDist::normal_millis(4, 1)),
    );
    let b = t.service(
        "b",
        e2eprof_netsim::ServiceConfig::new(DelayDist::normal_millis(6, 1))
            .with_clock(NodeClock::with_skew_millis(skew_ms)),
    );
    let cli = t.client("cli", class, a, Workload::poisson(30.0));
    t.connect(cli, a, DelayDist::constant_millis(1));
    t.connect(a, b, DelayDist::constant_millis(1));
    t.route(a, class, Route::fixed(b));
    t.route(b, class, Route::terminal());
    let mut sim = e2eprof_netsim::Simulation::new(t.build().expect("valid"), seed);
    sim.run_until(run_for);

    let sender = sim.captures().timestamps(TraceKey::at_sender(a, b));
    let receiver = sim.captures().timestamps(TraceKey::at_receiver(a, b));
    let est = e2eprof_core::skew::estimate_skew(sender, receiver, Quanta::from_millis(1), 3, 200)
        .expect("skew estimate");
    SkewResult {
        configured_ns: skew_ms * 1_000_000,
        estimated_offset_ns: est.offset_ns,
        strength: est.strength,
    }
}

/// Result of the Section 4.3 slow-database diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaDiagnosis {
    /// Inferred end-to-end delay (largest cumulative spike back at a
    /// client edge), averaged over the graphs that measured one.
    pub e2e: Nanos,
    /// The deepest *forward*-path cumulative delay (arrival at the last
    /// stage), averaged the same way.
    pub last_forward: Nanos,
    /// `e2e − last_forward`: time spent at/below the deepest stage plus
    /// the return trip.
    pub tail_gap: Nanos,
    /// The deepest forward vertex — the suspect when `tail_gap`
    /// dominates; `None` when the gap is below one time quantum, which
    /// the delays cannot resolve.
    pub suspect: Option<String>,
}

/// Diagnoses where a pipeline's latency lives by decomposing the service
/// paths: if the end-to-end delay far exceeds every forward-hop arrival
/// time, the slowdown sits at (or beyond) the deepest stage — the way
/// E2EProf pinned Delta's slow database connection despite inaccurate
/// per-hop delays under deep queueing.
///
/// Every delay is measured in whole time quanta (`quanta`, the analysis
/// resolution): a tail gap below one quantum is no gap at all, and no
/// suspect is named for it.
pub fn diagnose_delta(graphs: &[ServiceGraph], quanta: Quanta) -> DeltaDiagnosis {
    let mut e2e_sum = 0u64;
    let mut fwd_sum = 0u64;
    let mut count = 0u64;
    let mut best_gap = None;
    let mut suspect = None;
    for g in graphs {
        // A graph with no measured return to the client carries no
        // end-to-end estimate to decompose.
        let Some(e2e) = g
            .strong_edges()
            .filter(|e| e.to == g.client)
            .filter_map(|e| e.max_delay())
            .max()
        else {
            continue;
        };
        // Deepest forward hop: the largest cumulative delay on a strong
        // edge that is not headed back to the client. Forward arrivals
        // are bounded by the round trip, so spikes beyond `e2e` are
        // noise-floor correlations at implausible lags (e.g. another
        // client's traffic), not hops on this request's service path.
        let forward = g
            .strong_edges()
            .filter(|e| e.to != g.client)
            .filter_map(|e| e.min_delay().map(|c| (c, e.to)))
            .filter(|&(c, _)| c <= e2e)
            .max_by_key(|&(c, _)| c);
        let Some((fwd, deepest)) = forward else {
            continue;
        };
        e2e_sum += e2e.as_nanos();
        fwd_sum += fwd.as_nanos();
        count += 1;
        let gap = e2e.saturating_sub(fwd);
        if best_gap.map(|b| gap > b).unwrap_or(true) {
            best_gap = Some(gap);
            suspect = Some(g.label_of(deepest));
        }
    }
    if count == 0 {
        return DeltaDiagnosis {
            e2e: Nanos::ZERO,
            last_forward: Nanos::ZERO,
            tail_gap: Nanos::ZERO,
            suspect: None,
        };
    }
    let e2e = Nanos::from_nanos(e2e_sum / count);
    let last_forward = Nanos::from_nanos(fwd_sum / count);
    let tail_gap = e2e.saturating_sub(last_forward);
    DeltaDiagnosis {
        e2e,
        last_forward,
        tail_gap,
        suspect: suspect.filter(|_| tail_gap >= quanta.duration()),
    }
}
