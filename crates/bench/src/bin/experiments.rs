//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```sh
//! cargo run --release -p e2eprof-bench --bin experiments -- all
//! cargo run --release -p e2eprof-bench --bin experiments -- fig9 --full
//! ```
//!
//! Subcommands: `fig5`, `fig6`, `accuracy`, `fig7`, `table1`, `fig9`,
//! `fig10`, `delta`, `skew`, `ablations`, `baselines`, `all`. `--full`
//! enlarges the cost sweeps (fig9/fig10: `T_u` = 30 s, windows to 4 min)
//! and the Delta run (25 queues) — substantially slower.

use e2eprof_apps::delta::DeltaConfig;
use e2eprof_apps::experiments::{
    accuracy, delta_analysis, delta_paper_config, diagnose_delta, fig5_affinity, fig6_round_robin,
    fig7_change_detection, skew_estimation, table1, Table1Policy,
};
use e2eprof_bench::{corr_pair, fig10_row, fmt_duration, rubis_scenario};
use e2eprof_core::pathmap::Pathmap;
use e2eprof_core::signals::EdgeSignals;
use e2eprof_timeseries::density::DensityEstimator;
use e2eprof_timeseries::{wire, Nanos, Quanta, RleSeries, Tick};
use e2eprof_xcorr::engine::all_engines;
use e2eprof_xcorr::incremental::{IncrementalCorrelator, SlideScratch};
use e2eprof_xcorr::{normalize, rle, SpikeDetector};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let cmd = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    match cmd {
        "fig5" => fig5(),
        "fig6" => fig6(),
        "accuracy" => run_accuracy(),
        "fig7" => fig7(),
        "table1" => run_table1(),
        "fig9" => fig9(full),
        "fig10" => fig10(full),
        "delta" => delta(full),
        "skew" => skew(),
        "ablations" => ablations(),
        "baselines" => baselines(),
        "all" => {
            fig5();
            fig6();
            run_accuracy();
            fig7();
            run_table1();
            fig9(full);
            fig10(full);
            delta(full);
            skew();
            ablations();
            baselines();
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            eprintln!("usage: experiments [fig5|fig6|accuracy|fig7|table1|fig9|fig10|delta|skew|ablations|baselines|all] [--full]");
            std::process::exit(2);
        }
    }
}

fn header(title: &str) {
    println!("\n============================================================");
    println!("{title}");
    println!("============================================================\n");
}

fn fig5() {
    header("Fig. 5 — service graph, affinity-based server selection");
    let (_, graphs) = fig5_affinity(42, Nanos::from_minutes(2));
    for g in &graphs {
        println!("{g}");
    }
}

fn fig6() {
    header("Fig. 6 — service graph, round-robin server selection");
    let (_, graphs) = fig6_round_robin(42, Nanos::from_minutes(2));
    for g in &graphs {
        println!("{g}");
    }
}

fn run_accuracy() {
    header("Sec. 4.1.1 — inferred delays vs. ground truth");
    let reports = accuracy(42, Nanos::from_minutes(2));
    for (name, r) in ["bidding", "comment"].iter().zip(&reports) {
        println!("class {name}:");
        for h in &r.hops {
            println!(
                "  {:>5} -> {:<5} inferred {:>6.1}ms  actual {:>6.1}ms  error {:>4.1}%",
                h.from,
                h.to,
                h.inferred.as_millis_f64(),
                h.actual.as_millis_f64(),
                h.rel_error * 100.0
            );
        }
        println!(
            "  end-to-end: inferred {:?}, client-observed {:.1}ms, gap {:+.1}%",
            r.e2e_inferred.map(|d| d.as_millis_f64()),
            r.e2e_actual.as_millis_f64(),
            r.e2e_gap.unwrap_or(f64::NAN) * 100.0
        );
        println!();
    }
    println!("(paper: per-server delays within ~10%; client observes ~16% more)");
}

fn fig7() {
    header("Fig. 7 — performance change detection (delay staircase at EJB2)");
    let (points, _) = fig7_change_detection(42, 15);
    println!(
        "{:>6}  {:>10}  {:>16}  {:>14}",
        "time", "injected", "E2EProf @ EJB2", "frontend avg"
    );
    for p in &points {
        println!(
            "{:>5.0}s  {:>8.1}ms  {:>14.1}ms  {:>12.1}ms",
            p.at.as_secs_f64(),
            p.injected.as_millis_f64(),
            p.detected.map(|d| d.as_millis_f64()).unwrap_or(f64::NAN),
            p.frontend_avg
                .map(|d| d.as_millis_f64())
                .unwrap_or(f64::NAN),
        );
    }
    println!("\n(detected = injected + EJB2's actual processing time; the");
    println!(" front-end average moves by about half — most requests take");
    println!(" the unperturbed path)");
}

fn run_table1() {
    header("Table 1 — average latency with different path-selection methods");
    println!("{:<36} {:>9} {:>9}", "", "Bidding", "Comment");
    for (policy, label) in [
        (
            Table1Policy::RoundRobinBaseline,
            "Round-Robin (no perturbation)",
        ),
        (
            Table1Policy::RoundRobinPerturbed,
            "Round-Robin (with perturbation)",
        ),
        (
            Table1Policy::E2EProfPerturbed,
            "E2EProf (with perturbation)",
        ),
    ] {
        let row = table1(policy, 42, Nanos::from_minutes(10));
        println!(
            "{:<36} {:>7.0}ms {:>7.0}ms",
            label,
            row.bidding.as_millis_f64(),
            row.comment.as_millis_f64()
        );
    }
    println!("\n(paper: 72/64, 121/109, 97/139)");
}

/// The window slide of Fig. 9's `incremental` column, the same at every
/// `W` (`rubis_paper`'s refresh interval), so that the column shows how a
/// refresh's cost moves with `W` alone.
const FIG9_SLIDE: Nanos = Nanos::from_secs(15);

fn fig9(full: bool) {
    header("Fig. 9 — execution time of service path analysis");
    // The paper sweeps W to 32 min at T_u = 1 min; the quadratic engines
    // make that hours of compute, so --full covers the same shape at
    // W ≤ 4 min / T_u = 30 s (still ~10 min of wall clock on one core).
    let (windows, max_delay) = if full {
        (vec![60u64, 120, 240], Nanos::from_secs(30))
    } else {
        (vec![30u64, 60, 120], Nanos::from_secs(5))
    };
    println!(
        "(τ = 1ms, ω = 50ms, T_u = {}s; engines recompute the full window,",
        max_delay.as_secs_f64()
    );
    println!(
        " 'incremental' slides every correlator by ΔW = {}s at every W)\n",
        FIG9_SLIDE.as_secs_f64()
    );
    println!(
        "{:>8}  {:>16} {:>16} {:>16} {:>16} {:>16}",
        "W", "no-compression", "burst", "rle", "fft", "incremental"
    );
    for w in windows {
        let scenario = rubis_scenario(Nanos::from_secs(w), max_delay, 42);
        let mut cells = Vec::new();
        for engine in all_engines() {
            let pm = Pathmap::with_correlator(scenario.config.clone(), engine);
            let t0 = Instant::now();
            let graphs = pm.discover(&scenario.signals, &scenario.roots, &scenario.labels);
            let dt = t0.elapsed();
            assert!(!graphs.is_empty());
            cells.push(fmt_duration(dt));
        }
        // Incremental: advance every (client, edge) correlator by ΔW.
        let dt = time_incremental_refresh(&scenario);
        cells.push(fmt_duration(dt));
        println!(
            "{:>7}s  {:>16} {:>16} {:>16} {:>16} {:>16}",
            w, cells[0], cells[1], cells[2], cells[3], cells[4]
        );
    }
    println!("\n(paper's ordering: RLE ≪ burst ≈ no-compression, FFT superlinear");
    println!(" and non-incremental; incremental per-refresh cost ~flat in W)");
    unit_costs();
}

/// Times one ΔW sliding-window advance of the incremental correlators for
/// every (client, edge) pair the analysis correlates.
fn time_incremental_refresh(s: &e2eprof_bench::Scenario) -> Duration {
    let max_lag = s.config.max_lag();
    let delta = s.config.quanta().ticks_in(FIG9_SLIDE);
    let (start, end) = s.signals.window();
    let mid = Tick::new(start.index() + (end.index() - start.index()) / 2);
    let mut total = Duration::ZERO;
    let mut scratch = SlideScratch::new();
    for &(client, front) in &s.roots {
        let Some(x) = s.signals.source_signal(client, front) else {
            continue;
        };
        let edges: Vec<_> = s.signals.edges().collect();
        for (from, to) in edges {
            let Some(y) = s.signals.target_signal(from, to) else {
                continue;
            };
            total += slide_time(&x, y, max_lag, mid, delta, &mut scratch);
        }
    }
    total
}

/// Primes a correlator of `x` against `y` on `x` up to `cut` (untimed),
/// then times one refresh's slide by `delta` ticks: `x` from `cut` enters
/// (up to its end), the window's first `delta` ticks leave.
fn slide_time(
    x: &RleSeries,
    y: &RleSeries,
    max_lag: u64,
    cut: Tick,
    delta: u64,
    scratch: &mut SlideScratch,
) -> Duration {
    let start = x.start();
    let mut inc = IncrementalCorrelator::new(max_lag);
    inc.append(&x.slice(start, cut), y);
    timed(|| {
        let new_end = Tick::new((cut.index() + delta).min(x.end().index()));
        let new_start = Tick::new(start.index() + delta);
        let (entering, leaving) = (x.slice(cut, new_end), x.slice(start, new_start));
        inc.advance(&entering, y, new_start, &leaving, y, scratch);
    })
}

/// How long `f` takes; dropping its output is not timed.
fn timed<O>(f: impl FnOnce() -> O) -> Duration {
    let t0 = Instant::now();
    let output = black_box(f());
    let dt = t0.elapsed();
    drop(output);
    dt
}

/// Timings behind each cell of the unit-cost block.
const UNIT_REPS: usize = 31;

/// The median of [`UNIT_REPS`] timings.
fn median(mut timing: impl FnMut() -> Duration) -> Duration {
    let mut times: Vec<Duration> = (0..UNIT_REPS).map(|_| timing()).collect();
    times.sort_unstable();
    times[UNIT_REPS / 2]
}

/// The unit costs under one Fig. 9 refresh, on one prepared pair (the
/// bidding client C1's source signal against the WS → TS1 edge): Eq. 1
/// normalization with the coefficients' moments, spike detection from
/// them and one window slide, at a 30 s window and at the paper's scale
/// (L = 60 000 lags); then extracting every edge signal of a 15 s window
/// from the capture.
fn unit_costs() {
    println!("\nUnit costs, C1 × WS→TS1 (median of {UNIT_REPS} timings each):\n");
    println!(
        "{:<26} {:>14} {:>16} {:>20}",
        "", "normalize_eq1", "spike_detection", "incremental_refresh"
    );
    let detector = SpikeDetector::new(3.0, 50);
    for (label, window_ms, max_delay_ms, step_ms) in [
        ("W 30s, T_u 2s, ΔW 7.5s", 30_000, 2_000, 7_500),
        ("W 3min, T_u 1min, ΔW 15s", 180_000, 60_000, 15_000),
    ] {
        let scenario = rubis_scenario(
            Nanos::from_millis(window_ms),
            Nanos::from_millis(max_delay_ms),
            42,
        );
        let (x, y) = corr_pair(&scenario);
        let max_lag = scenario.config.max_lag();
        let raw = rle::correlate(&x, &y, max_lag);
        let mut rho = Vec::new();
        let moments = normalize::normalize_into(&raw, &x, &y, &mut rho);
        let eq1 = median(|| timed(|| normalize::normalize_into(&raw, &x, &y, &mut rho)));
        let spikes = median(|| timed(|| detector.detect_with(&rho, moments)));
        let delta = scenario
            .config
            .quanta()
            .ticks_in(Nanos::from_millis(step_ms));
        let cut = Tick::new(x.end().index() - delta);
        let mut scratch = SlideScratch::new();
        let refresh = median(|| slide_time(&x, &y, max_lag, cut, delta, &mut scratch));
        println!(
            "{label:<26} {:>14} {:>16} {:>20}",
            fmt_duration(eq1),
            fmt_duration(spikes),
            fmt_duration(refresh)
        );
    }
    let s = rubis_scenario(Nanos::from_secs(15), Nanos::from_secs(2), 42);
    let sim = s.rubis.sim();
    let extraction =
        median(|| timed(|| EdgeSignals::from_capture(sim.captures(), &s.config, sim.now())));
    println!(
        "\nsignal_extraction, every edge of a 15s window: {}",
        fmt_duration(extraction)
    );
}

fn fig10(full: bool) {
    header("Fig. 10 — length of the time-series trace under each representation");
    let windows = if full {
        vec![60u64, 120, 240, 480]
    } else {
        vec![30u64, 60, 120, 240]
    };
    println!("(TS1 <-> WS connection, τ = 1ms, ω = 50ms)\n");
    println!(
        "{:>8}  {:>14} {:>16} {:>14} {:>12} {:>8}",
        "W", "total packets", "no compression", "burst", "RLE runs", "ratio"
    );
    for w in windows {
        let row = fig10_row(w);
        println!(
            "{:>7}s  {:>14} {:>16} {:>14} {:>12} {:>7.1}x",
            row.window_secs,
            row.packets,
            row.dense_len,
            row.burst_len,
            row.rle_runs,
            row.dense_len as f64 / row.rle_runs.max(1) as f64,
        );
    }
    println!("\n(paper: RLE an order of magnitude shorter than the alternatives,");
    println!(" and far below the raw packet count)");
    wire_sizes();
}

/// Bytes on the wire to ship one full window of every captured edge's
/// density series, per underlying message record: one v1 frame per edge
/// against the batch frame tracers ship, with raw and integer-count
/// amplitudes. `tests/golden_frames.rs` holds the same run to its bounds.
fn wire_sizes() {
    let scenario = rubis_scenario(Nanos::from_secs(60), Nanos::from_secs(2), 42);
    let captures = scenario.rubis.sim().captures();
    let mut entries: Vec<((u32, u32), RleSeries)> = Vec::new();
    let mut records = 0usize;
    for (src, dst) in captures.edges() {
        let ts = captures.edge_signal(src, dst);
        records += ts.len();
        let rle = DensityEstimator::from_timestamps(Quanta::from_millis(1), 50, ts).to_rle();
        entries.push(((src.index() as u32, dst.index() as u32), rle));
    }
    let v1_bytes: usize = entries.iter().map(|(_, s)| wire::encode(s).len()).sum();
    let raw_bytes = wire::encode_batch(&entries, false).len();
    let int_bytes = wire::encode_batch(&entries, true).len();
    let per = |bytes: usize| bytes as f64 / records as f64;
    println!(
        "\nwire sizes: {} edges, {records} records in one 60 s window",
        entries.len()
    );
    println!(
        "  v1 per-edge frames   {v1_bytes:>8} B  {:>6.3} B/record",
        per(v1_bytes)
    );
    println!(
        "  v2 batch (raw f64)   {raw_bytes:>8} B  {:>6.3} B/record",
        per(raw_bytes)
    );
    println!(
        "  v2 batch (int amp)   {int_bytes:>8} B  {:>6.3} B/record  ({:.2}x fewer than v1)",
        per(int_bytes),
        v1_bytes as f64 / int_bytes as f64
    );
}

fn delta(full: bool) {
    header("Sec. 4.3 — Delta Air Lines Revenue Pipeline");
    let queues = if full { 25 } else { 8 };
    let run_for = Nanos::from_minutes(135);
    println!(
        "({queues} queues, {} minutes simulated, τ = 1s, W = 2h)\n",
        135
    );

    let (delta, graphs) = delta_analysis(
        DeltaConfig {
            queues,
            ..DeltaConfig::default()
        },
        &delta_paper_config(),
        run_for,
    );
    let complete = graphs
        .iter()
        .filter(|g| {
            g.has_edge_between("hub", "parser")
                && g.has_edge_between("parser", "validator")
                && g.has_edge_between("validator", "revenue_db")
        })
        .count();
    println!(
        "full pipeline recovered for {complete}/{} bursty feeds",
        queues - 1
    );
    if let Some(g) = graphs.iter().find(|g| g.client_label == "feed_01") {
        println!("\n{g}");
    }
    println!("(sub-second delays quantize to 0 at τ = 1s — the paper's");
    println!(" reported delay inaccuracy; paths are still correct)\n");
    drop(delta);

    let mut surged = e2eprof_apps::delta::Delta::build(DeltaConfig {
        queues,
        batch_at: Some(Nanos::from_minutes(10)),
        batch_size: 4_000,
        ..DeltaConfig::default()
    });
    surged.sim_mut().run_until(Nanos::from_minutes(20));
    println!(
        "4 AM batch: hub queue high-water mark {} (paper: ~4000)\n",
        surged.sim().max_queue_len(surged.nodes().hub)
    );

    for slow in [false, true] {
        let (_, graphs) = delta_analysis(
            DeltaConfig {
                queues,
                slow_db: slow,
                ..DeltaConfig::default()
            },
            &delta_paper_config(),
            run_for,
        );
        let d = diagnose_delta(&graphs, delta_paper_config().quanta());
        println!(
            "slow_db={slow}: e2e {:.1}s, deepest forward {:.1}s, tail gap {:.1}s -> suspect {:?}",
            d.e2e.as_secs_f64(),
            d.last_forward.as_secs_f64(),
            d.tail_gap.as_secs_f64(),
            d.suspect
        );
    }
}

fn skew() {
    header("Sec. 3.8 — clock-skew estimation");
    println!(
        "{:>12} {:>14} {:>12} {:>8}",
        "configured", "estimated", "minus link", "corr"
    );
    for skew_ms in [-8i64, -3, 0, 2, 5, 12] {
        let r = skew_estimation(9, skew_ms, Nanos::from_secs(60));
        println!(
            "{:>10}ms {:>12.1}ms {:>10.1}ms {:>8.2}",
            skew_ms,
            r.estimated_offset_ns as f64 / 1e6,
            (r.estimated_offset_ns - 1_000_000) as f64 / 1e6,
            r.strength
        );
    }
}

fn ablations() {
    use e2eprof_apps::ablations::*;
    header("Ablations — pathmap design-parameter sweeps (Fig. 5 scenario)");
    let rubis = subject(42);
    let row = |q: &EdgeQuality| {
        format!(
            "found {:>2}/14  missing {:>2}  spurious {:>2}  {:>10}",
            q.found,
            q.missing,
            q.spurious,
            fmt_duration(q.elapsed)
        )
    };

    println!("sampling window ω (ticks of τ = 1ms; paper default 50):");
    for (omega, q) in sweep_omega(&rubis, &[1, 10, 50, 200, 1000, 2000]) {
        println!("  ω = {omega:>5}   {}", row(&q));
    }

    println!("\nspike threshold (σ above mean; paper default 3):");
    for (sigma, q) in sweep_sigma(&rubis, &[1.0, 2.0, 3.0, 4.0, 6.0]) {
        println!("  σ = {sigma:>4.1}   {}", row(&q));
    }

    println!("\ntime quantum τ (µs; ω and spike resolution scaled to 50ms):");
    for (tau, q) in sweep_tau(&rubis, &[250, 500, 1_000, 4_000, 16_000]) {
        println!("  τ = {tau:>6}µs {}", row(&q));
    }

    println!("\ntransaction-delay bound T_u (ms; RUBiS e2e ≈ 50ms):");
    for (ms, q) in sweep_max_delay(&rubis, &[10, 30, 60, 200, 1_000, 5_000]) {
        println!("  T_u = {ms:>5}ms {}", row(&q));
    }

    println!("\n  (note: T_u must exceed the correlation bump width — transaction");
    println!("   spread + ω — by enough margin for the mean+3σ threshold to have a");
    println!("   noise floor; bounds at 1-4x the e2e delay detect nothing. Same for");
    println!("   oversized ω: the bump swallows the whole lag range.)");

    println!("\nper-client parallel discovery (Section 3.7):");
    let (seq, par) = parallel_speedup(&rubis);
    println!(
        "  sequential {}   parallel {}   speedup {:.2}x",
        fmt_duration(seq),
        fmt_duration(par),
        seq.as_secs_f64() / par.as_secs_f64().max(1e-9)
    );
}

fn baselines() {
    use e2eprof_core::convolution;
    use e2eprof_core::nesting::Nesting;
    use e2eprof_core::prelude::*;

    header("Baseline comparison — pathmap vs. nesting vs. convolution");
    println!("(RUBiS affinity, 90 s trace; paper Sec. 2: nesting assumes");
    println!(" RPC-style traffic, convolution is offline full-lag FFT)\n");

    let rubis = e2eprof_apps::ablations::subject(42);
    let sim = rubis.sim();
    let labels = NodeLabels::from_topology(sim.topology());
    let roots = roots_from_topology(sim.topology());
    let cfg = e2eprof_apps::experiments::rubis_config(Nanos::from_secs(60), Nanos::from_secs(15));

    let timed = |name: &str, graphs: Vec<e2eprof_core::ServiceGraph>, dt: Duration| {
        let bid = graphs.iter().find(|g| g.client_label == "C1");
        let (edges, e2e, bottleneck) = bid
            .map(|g| {
                (
                    g.edges().iter().filter(|e| !e.is_anchor()).count(),
                    g.end_to_end_delay()
                        .map(|d| format!("{:.0}ms", d.as_millis_f64()))
                        .unwrap_or_else(|| "-".into()),
                    g.vertices()
                        .iter()
                        .find(|v| v.bottleneck)
                        .map(|v| v.label.clone())
                        .unwrap_or_else(|| "-".into()),
                )
            })
            .unwrap_or((0, "-".into(), "-".into()));
        println!(
            "{name:<24} {:>2} edges  e2e {:>6}  bottleneck {:<6} {:>10}",
            edges,
            e2e,
            bottleneck,
            fmt_duration(dt)
        );
    };

    let t0 = Instant::now();
    let signals = EdgeSignals::from_capture(sim.captures(), &cfg, sim.now());
    let g = Pathmap::new(cfg.clone()).discover(&signals, &roots, &labels);
    timed("pathmap (RLE, T_u)", g, t0.elapsed());

    let t0 = Instant::now();
    let g = Nesting::default().discover(sim.captures(), &roots, &labels);
    timed("nesting (RPC pairing)", g, t0.elapsed());

    let base = convolution::baseline(&cfg);
    let t0 = Instant::now();
    let signals = EdgeSignals::from_capture(sim.captures(), base.config(), sim.now());
    let g = base.discover(&signals, &roots, &labels);
    timed("convolution (FFT full)", g, t0.elapsed());

    println!("\n(nesting reports forward call edges only; convolution may add");
    println!(" weak spurious edges over the unbounded lag range; all three");
    println!(" agree on the forward path and the bottleneck)");
}
