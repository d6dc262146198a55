//! The `e2eprof` command-line tool: black-box service-path analysis of
//! application-level transaction logs.
//!
//! ```sh
//! e2eprof analyze trace.csv --window 60s --tau 1ms --format text
//! e2eprof demo
//! e2eprof distributed --transport tcp --shards 4
//! e2eprof broker --listen 127.0.0.1:7070
//! ```
//!
//! The log format is one message per line: `timestamp_ns,src,dst`
//! (`#` comments and blank lines ignored). Output formats: `text`
//! (annotated graphs), `dot` (Graphviz), `waterfall` (ASCII timeline).

use e2eprof::core::config::PathmapConfigBuilder;
use e2eprof::core::ingest::TraceIngest;
use e2eprof::core::prelude::*;
use e2eprof::timeseries::{Nanos, Quanta};
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("demo") => demo(),
        Some("distributed") => distributed(&args[1..]),
        Some("broker") => broker(&args[1..]),
        _ => {
            eprintln!("usage: e2eprof <analyze|demo|distributed|broker> [options]");
            eprintln!();
            eprintln!("  analyze <log.csv> [options]   discover service paths from a log");
            eprintln!("      --window <dur>      sliding window W       (default 60s)");
            eprintln!("      --tau <dur>         time quantum τ         (default 1ms)");
            eprintln!("      --omega <ticks>     sampling window ω in τ (default 50)");
            eprintln!("      --max-delay <dur>   lag bound T_u          (default 2s)");
            eprintln!("      --format <f>        text | dot | waterfall (default text)");
            eprintln!("      durations: 500us, 250ms, 30s, 5m");
            eprintln!();
            eprintln!("  demo                          simulate a system and analyze it");
            eprintln!();
            eprintln!("  distributed [options]         demo over the network transport");
            eprintln!("      --transport <t>     inproc | tcp | unix (default from");
            eprintln!("                          E2EPROF_TRANSPORT, else inproc pipes)");
            eprintln!("      --shards <n>        analyzer shards        (default 2)");
            eprintln!();
            eprintln!("  broker [options]              run a standalone broker");
            eprintln!("      --listen <addr>     TCP listen address (default 127.0.0.1:7070)");
            eprintln!("      --unix <path>       listen on a Unix socket path instead");
            ExitCode::from(2)
        }
    }
}

/// Finishes a configuration under the `E2EPROF_*` overrides. The
/// variables are operator input: a bad value is reported like a bad flag
/// (exit code 2), never panicked on.
fn build_config(builder: PathmapConfigBuilder) -> Result<PathmapConfig, ExitCode> {
    match builder.try_env_overrides() {
        Ok(builder) => Ok(builder.build()),
        Err(e) => {
            eprintln!("e2eprof: {e}");
            Err(ExitCode::from(2))
        }
    }
}

/// The analysis parameters of the `demo` and `distributed` subcommands.
fn demo_config() -> PathmapConfigBuilder {
    PathmapConfig::builder()
        .window(Nanos::from_secs(60))
        .refresh(Nanos::from_secs(15))
        .max_delay(Nanos::from_secs(2))
}

/// Parses `500us` / `250ms` / `30s` / `5m` into nanoseconds.
fn parse_duration(s: &str) -> Result<Nanos, String> {
    let (digits, unit): (String, String) = s.chars().partition(|c| c.is_ascii_digit());
    let value: u64 = digits
        .parse()
        .map_err(|_| format!("bad duration {s:?} (expected e.g. 250ms, 30s, 5m)"))?;
    let scale = match unit.as_str() {
        "us" | "µs" => 1_000,
        "ms" => 1_000_000,
        "s" => 1_000_000_000,
        "m" | "min" => 60_000_000_000,
        other => return Err(format!("unknown duration unit {other:?} in {s:?}")),
    };
    Ok(Nanos::from_nanos(value * scale))
}

struct Options {
    path: String,
    window: Nanos,
    tau: Nanos,
    omega: u64,
    max_delay: Nanos,
    format: String,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        path: String::new(),
        window: Nanos::from_secs(60),
        tau: Nanos::from_millis(1),
        omega: 50,
        max_delay: Nanos::from_secs(2),
        format: "text".into(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--window" => opts.window = parse_duration(&value("--window")?)?,
            "--tau" => opts.tau = parse_duration(&value("--tau")?)?,
            "--max-delay" => opts.max_delay = parse_duration(&value("--max-delay")?)?,
            "--omega" => {
                opts.omega = value("--omega")?
                    .parse()
                    .map_err(|_| "bad --omega (expected ticks)".to_string())?
            }
            "--format" => {
                let f = value("--format")?;
                if !["text", "dot", "waterfall"].contains(&f.as_str()) {
                    return Err(format!("unknown format {f:?}"));
                }
                opts.format = f;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag:?}")),
            path if opts.path.is_empty() => opts.path = path.to_owned(),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    if opts.path.is_empty() {
        return Err("missing log file (usage: e2eprof analyze <log.csv>)".into());
    }
    Ok(opts)
}

fn analyze(args: &[String]) -> ExitCode {
    let opts = match parse_options(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2eprof: {e}");
            return ExitCode::from(2);
        }
    };
    let file = match File::open(&opts.path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("e2eprof: cannot open {}: {e}", opts.path);
            return ExitCode::from(1);
        }
    };
    let mut ingest = TraceIngest::new();
    let records = match ingest.read_csv(BufReader::new(file)) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("e2eprof: {}: {e}", opts.path);
            return ExitCode::from(1);
        }
    };
    if records == 0 {
        eprintln!("e2eprof: {} contains no records", opts.path);
        return ExitCode::from(1);
    }
    eprintln!(
        "{} records, {} components, horizon {:.1}s",
        records,
        ingest.num_components(),
        ingest.horizon().as_secs_f64()
    );
    let roots = ingest.infer_roots();
    if roots.is_empty() {
        eprintln!(
            "e2eprof: no clients inferred (every component both sends and receives); \
             strip client-bound responses from the log or use the library API with explicit roots"
        );
        return ExitCode::from(1);
    }
    let cfg = match build_config(
        PathmapConfig::builder()
            .quanta(Quanta::from_nanos(opts.tau.as_nanos()))
            .omega_ticks(opts.omega)
            .window(opts.window)
            .refresh(opts.window)
            .max_delay(opts.max_delay),
    ) {
        Ok(cfg) => cfg,
        Err(code) => return code,
    };
    let labels = ingest.labels();
    let signals = ingest.build_signals(&cfg, ingest.horizon());
    let graphs = Pathmap::new(cfg).discover(&signals, &roots, &labels);
    if graphs.is_empty() {
        eprintln!("e2eprof: no service graphs discovered (not enough traffic in the window?)");
        return ExitCode::from(1);
    }
    for g in &graphs {
        match opts.format.as_str() {
            "dot" => print!("{}", g.to_dot()),
            "waterfall" => {
                println!("client {}:", g.client_label);
                print!("{}", g.to_waterfall(48));
                println!();
            }
            _ => println!("{g}"),
        }
    }
    ExitCode::SUCCESS
}

/// Builds the three-tier demo topology shared by `demo` and
/// `distributed`.
fn demo_topology() -> e2eprof::netsim::Topology {
    use e2eprof::netsim::prelude::*;
    use e2eprof::netsim::Route;
    let mut t = TopologyBuilder::new();
    let class = t.service_class("browse");
    let web = t.service(
        "web",
        ServiceConfig::new(DelayDist::normal_millis(3, 1)).with_servers(4),
    );
    let app = t.service(
        "app",
        ServiceConfig::new(DelayDist::normal_millis(15, 3)).with_servers(4),
    );
    let db = t.service(
        "db",
        ServiceConfig::new(DelayDist::normal_millis(6, 1)).with_servers(4),
    );
    let client = t.client("client", class, web, Workload::poisson(25.0));
    t.connect(client, web, DelayDist::constant_millis(1));
    t.connect(web, app, DelayDist::constant_millis(1));
    t.connect(app, db, DelayDist::constant_millis(1));
    t.route(web, class, Route::fixed(app));
    t.route(app, class, Route::fixed(db));
    t.route(db, class, Route::terminal());
    t.build().expect("demo topology")
}

/// Runs the demo system through the real network transport: broker +
/// socket-backed tracer links + a sharded analyzer tier, all in this
/// process, on the selected transport.
fn distributed(args: &[String]) -> ExitCode {
    use e2eprof::net::pipeline::{Endpoint, PipelineBuilder};
    use e2eprof::netsim::Simulation;

    let mut transport: Option<String> = None;
    let mut shards = 2usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let result = match arg.as_str() {
            "--transport" => value("--transport").map(|v| transport = Some(v)),
            "--shards" => value("--shards").and_then(|v| {
                v.parse()
                    .map(|n: usize| shards = n.max(1))
                    .map_err(|_| "bad --shards (expected a count)".into())
            }),
            flag => Err(format!("unknown option {flag:?}")),
        };
        if let Err(e) = result {
            eprintln!("e2eprof: {e}");
            return ExitCode::from(2);
        }
    }

    let cfg = match build_config(demo_config()) {
        Ok(cfg) => cfg,
        Err(code) => return code,
    };
    let selected = match transport.as_deref() {
        Some("tcp") => Transport::Tcp,
        Some("unix") => Transport::Unix,
        Some("inproc") => Transport::InProcess,
        Some(other) => {
            eprintln!("e2eprof: unknown transport {other:?} (inproc | tcp | unix)");
            return ExitCode::from(2);
        }
        None => cfg.transport(),
    };
    let endpoint = match selected {
        Transport::Tcp => Endpoint::Tcp,
        Transport::Unix => Endpoint::Unix,
        // The in-process demo still exercises the full broker/framing
        // stack — just over deterministic in-memory pipes.
        Transport::InProcess => Endpoint::Mem,
    };
    let bound = match endpoint.bind() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("e2eprof: cannot bind {endpoint:?} endpoint: {e}");
            return ExitCode::from(1);
        }
    };
    println!("transport: {bound:?}, {shards} analyzer shard(s)\n");

    let mut sim = Simulation::new(demo_topology(), 7);
    let mut pipeline = PipelineBuilder::new(cfg, shards).build(sim.topology(), &bound);
    let mut graphs = Vec::new();
    for step in 1..=6u64 {
        let now = Nanos::from_secs(15 * step);
        graphs = pipeline.step(&mut sim, now, Nanos::from_secs(1));
    }
    for g in &graphs {
        println!("{g}");
    }
    println!(
        "frames: {} emitted, {} dropped; broker delivered {}, rejected {} duplicates",
        pipeline.frames_emitted(),
        pipeline.frames_dropped(),
        pipeline.broker().delivered(),
        pipeline.broker().duplicates_rejected(),
    );
    let mut gate = IncrementalStats::default();
    for stats in pipeline
        .shards()
        .iter()
        .filter_map(|s| s.analyzer.incremental_stats())
    {
        gate.absorb(stats);
    }
    println!(
        "incremental: {}/{} fine pair(s) skipped ({:.0}%), {}/{} root graph(s) reused; \
         discovery visited {} pair(s): {} evidence-free, {} verdict(s) carried",
        gate.fine_skipped,
        gate.fine_pairs,
        gate.fine_skipped_fraction() * 100.0,
        gate.reused_roots,
        gate.roots,
        gate.visited_pairs,
        gate.evidence_free_pairs,
        gate.carried_verdicts,
    );
    if pipeline.backfills_emitted() > 0 {
        println!(
            "reduction: {} backfill frame(s) emitted",
            pipeline.backfills_emitted()
        );
    }
    for (node, redials) in pipeline.link_redials() {
        if redials > 0 {
            println!("link node {node}: {redials} reconnect(s)");
        }
    }
    for (node, reconnects) in pipeline.hint_reconnects() {
        if reconnects > 0 {
            println!("hint link node {node}: {reconnects} reconnect(s)");
        }
    }
    let total_redials: u64 = pipeline.link_redials().iter().map(|&(_, r)| r).sum();
    println!(
        "links: {} total reconnect(s) across {} tracer link(s)",
        total_redials,
        pipeline.link_redials().len()
    );
    pipeline.shutdown();
    ExitCode::SUCCESS
}

/// Runs a standalone broker until killed: tracers connect and publish,
/// analyzers subscribe — the process is the deployment's rendezvous
/// point.
fn broker(args: &[String]) -> ExitCode {
    use e2eprof::net::{Acceptor, BrokerConfig, BrokerHandle};
    use std::sync::Arc;

    let mut listen = "127.0.0.1:7070".to_string();
    let mut unix: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let result = match arg.as_str() {
            "--listen" => value("--listen").map(|v| listen = v),
            "--unix" => value("--unix").map(|v| unix = Some(v)),
            flag => Err(format!("unknown option {flag:?}")),
        };
        if let Err(e) = result {
            eprintln!("e2eprof: {e}");
            return ExitCode::from(2);
        }
    }
    let acceptor: Arc<dyn Acceptor> = if let Some(path) = unix {
        let _ = std::fs::remove_file(&path);
        match std::os::unix::net::UnixListener::bind(&path) {
            Ok(l) => {
                println!("broker listening on unix socket {path}");
                Arc::new(l)
            }
            Err(e) => {
                eprintln!("e2eprof: cannot bind {path}: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        match std::net::TcpListener::bind(&listen) {
            Ok(l) => {
                println!(
                    "broker listening on {}",
                    l.local_addr().map_or(listen.clone(), |a| a.to_string())
                );
                Arc::new(l)
            }
            Err(e) => {
                eprintln!("e2eprof: cannot bind {listen}: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let _broker = BrokerHandle::spawn(acceptor, BrokerConfig::default());
    loop {
        std::thread::park();
    }
}

fn demo() -> ExitCode {
    use e2eprof::netsim::Simulation;
    let cfg = match build_config(demo_config()) {
        Ok(cfg) => cfg,
        Err(code) => return code,
    };
    println!("simulating a three-tier system for 90 seconds...\n");
    let mut sim = Simulation::new(demo_topology(), 7);
    sim.run_until(Nanos::from_secs(90));

    let graphs = Pathmap::new(cfg.clone()).discover(
        &EdgeSignals::from_capture(sim.captures(), &cfg, sim.now()),
        &roots_from_topology(sim.topology()),
        &NodeLabels::from_topology(sim.topology()),
    );
    for g in &graphs {
        println!("{g}");
        println!("waterfall:\n{}", g.to_waterfall(48));
    }
    ExitCode::SUCCESS
}
