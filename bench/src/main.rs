//! `e2e-bench`: the tap-to-graph benchmark of the E2EProf pipeline.
//!
//! Replays a finished `netsim` capture, closed-loop and single-threaded,
//! through every layer — `core::tracer` → `timeseries` → `net` →
//! `core::analyzer` ingest → refresh (`xcorr` + `core::pathmap`) — and
//! prints what one captured record costs from tap to published graph.
//! See `bench/README.md` and `BENCHMARK.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod driver;
mod json;
mod judge;
mod manifest;
mod probes;
mod run;
mod trace;
mod workloads;

use json::Json;
use run::{median, Report};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  e2e-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
            [--repeats R] [--quick] [--out FILE] [--trace-dir DIR]
  e2e-bench --compare A.json B.json
  e2e-bench --self-test
  e2e-bench --manifest | --list";

/// Options of a measuring run.
struct Options {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    repeats: usize,
    quick: bool,
    out: Option<PathBuf>,
    trace_dir: PathBuf,
}

enum Command {
    Run(Options),
    Compare(PathBuf, PathBuf),
    SelfTest,
    Manifest,
    List,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: None,
        traced: false,
        repeats: 1,
        quick: false,
        out: None,
        trace_dir: PathBuf::from("bench/results"),
    };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    fn num<T: std::str::FromStr>(text: String, flag: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: cannot read '{text}'"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => opts.workload = value(&mut it, flag)?,
            "--seed" => opts.seed = num(value(&mut it, flag)?, flag)?,
            "--seconds" => opts.seconds = Some(num(value(&mut it, flag)?, flag)?),
            "--trace" => {
                opts.traced = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--repeats" => opts.repeats = num(value(&mut it, flag)?, flag)?,
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--trace-dir" => opts.trace_dir = PathBuf::from(value(&mut it, flag)?),
            "--compare" => {
                let a = PathBuf::from(value(&mut it, flag)?);
                let b = PathBuf::from(value(&mut it, flag)?);
                return Ok(Command::Compare(a, b));
            }
            "--self-test" => return Ok(Command::SelfTest),
            "--manifest" => return Ok(Command::Manifest),
            "--list" => return Ok(Command::List),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.workload.is_empty() {
        return Err("no --workload given".into());
    }
    if opts.repeats == 0 {
        return Err("--repeats must be at least 1".into());
    }
    if opts.seconds.is_some_and(|s| !(s > 0.0 && s.is_finite())) {
        return Err("--seconds must be positive".into());
    }
    Ok(Command::Run(opts))
}

/// One metric over the repeats of a workload: the median, with the
/// per-repeat range beside it.
struct Summary {
    name: &'static str,
    unit: &'static str,
    value: f64,
    min: f64,
    max: f64,
}

fn summarize(reports: &[Report]) -> Vec<Summary> {
    reports[0]
        .metrics
        .iter()
        .map(|m| {
            let values: Vec<f64> = reports
                .iter()
                .filter_map(|r| r.metrics.iter().find(|x| x.name == m.name))
                .map(|x| x.value)
                .collect();
            Summary {
                name: m.name,
                unit: m.unit,
                value: median(&values),
                min: values.iter().copied().fold(f64::INFINITY, f64::min),
                max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            }
        })
        .collect()
}

/// A result as a JSON object: what `--out` writes and `--compare` reads.
fn result_json(reports: &[Report], metrics: &[Summary], seconds: f64, traced: bool) -> Json {
    let first = &reports[0];
    Json::obj([
        ("workload", Json::str(first.workload)),
        ("seed", Json::Num(first.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("repeats", Json::Num(reports.len() as f64)),
        ("trace", Json::Bool(traced)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("correct", Json::Bool(all_correct(reports))),
        ("attempted", Json::Num(attempted(reports) as f64)),
        ("failed", Json::Num(failed(reports) as f64)),
        ("digest", Json::str(format!("{:016x}", first.digest))),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("min", Json::Num(m.min)),
                        ("max", Json::Num(m.max)),
                    ]),
                )
            })),
        ),
    ])
}

fn attempted(reports: &[Report]) -> u64 {
    reports.iter().map(|r| r.attempted).sum()
}

fn failed(reports: &[Report]) -> u64 {
    reports.iter().map(|r| r.failed).sum()
}

/// Every repeat passed its checks and all published the same graphs.
fn all_correct(reports: &[Report]) -> bool {
    reports
        .iter()
        .all(|r| r.correct && r.digest == reports[0].digest)
}

fn measure(opts: &Options) -> Result<ExitCode, String> {
    let spec = workloads::by_name(&opts.workload)
        .ok_or_else(|| format!("unknown workload '{}' (try --list)", opts.workload))?;
    let (spec, default_seconds) = if opts.quick {
        (spec.quick(), 1.0)
    } else {
        (spec, manifest::RUN_SECONDS as f64)
    };
    let seconds = opts.seconds.unwrap_or(default_seconds);

    let mut reports = Vec::new();
    for repeat in 1..=opts.repeats {
        let report = run::run(spec, opts.seed, seconds, opts.traced, &opts.trace_dir);
        println!(
            "{} seed {} repeat {repeat}/{}: {}",
            report.workload,
            report.seed,
            opts.repeats,
            if report.correct {
                "outputs correct"
            } else {
                "OUTPUTS INCORRECT"
            }
        );
        for note in &report.notes {
            println!("  {note}");
        }
        reports.push(report);
    }
    let metrics = summarize(&reports);
    println!(
        "{:<44} {:>16} {:<6} per-repeat min..max",
        "metric", "value", "unit"
    );
    for m in &metrics {
        println!(
            "{:<44} {:>16.6} {:<6} {:.6}..{:.6}",
            m.name, m.value, m.unit, m.min, m.max
        );
    }
    if let Some(path) = &opts.out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let result = result_json(&reports, &metrics, seconds, opts.traced);
        std::fs::write(path, result.to_line() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // The driver's result line: last on standard output.
    let correct = all_correct(&reports);
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted(&reports) as f64)),
        ("failed", Json::Num(failed(&reports) as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ]);
    println!("{}", line.to_line());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_json(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The harness's own checks: the committed manifest matches the tables,
/// and every workload — at seeds 1 and 2 — publishes graphs that recover
/// at least [`run::RECALL_FLOOR`] of the true edges with no failed
/// operation, identically on every pass. Uses the `--quick` captures.
fn self_test() -> Result<ExitCode, String> {
    let mut ok = true;
    let committed = PathBuf::from("BENCHMARK.json");
    if committed.exists() {
        let same = read_json(&committed)? == manifest::manifest();
        println!(
            "BENCHMARK.json {} the harness's tables",
            if same { "matches" } else { "DIFFERS FROM" }
        );
        ok &= same;
    } else {
        println!("BENCHMARK.json not in the working directory: manifest check skipped");
    }
    let scratch = std::env::temp_dir();
    for spec in workloads::ALL {
        for seed in [1, 2] {
            let report = run::run(spec.quick(), seed, 1.0, false, &scratch);
            let recall = report
                .metrics
                .iter()
                .find(|m| m.name == "edge_recall")
                .map_or(f64::NAN, |m| m.value);
            println!(
                "{:<14} seed {seed}: recall {recall:.4}, {} failed of {} — {}",
                spec.name,
                report.failed,
                report.attempted,
                if report.correct { "ok" } else { "FAILED" }
            );
            if !report.correct {
                for note in &report.notes {
                    println!("    {note}");
                }
            }
            ok &= report.correct;
        }
    }
    println!("self-test {}", if ok { "passed" } else { "FAILED" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|command| match command {
        Command::Run(opts) => measure(&opts),
        Command::Compare(a, b) => {
            let ok = compare::compare(&read_json(&a)?, &read_json(&b)?);
            Ok(if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Command::SelfTest => self_test(),
        Command::Manifest => {
            print!("{}", manifest::manifest().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Command::List => {
            for w in workloads::ALL {
                println!("{:<14} {}", w.name, w.why);
            }
            Ok(ExitCode::SUCCESS)
        }
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("e2e-bench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
