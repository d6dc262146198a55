//! Integration tests of the `e2eprof` command-line tool, driven through
//! the real binary.

use std::io::Write;
use std::process::Command;

fn e2eprof(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_e2eprof"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// A minimal two-tier log with a 5 ms hop and irregular arrivals,
/// written to a self-cleaning temp path.
fn sample_log() -> TempLog {
    let mut contents = String::from("# timestamp_ns,src,dst\n");
    let mut t: u64 = 0;
    let mut h: u64 = 5;
    for _ in 0..1500 {
        h = h.wrapping_mul(6364136223846793005).wrapping_add(1);
        t += 10_000_000 + h % 40_000_000;
        contents.push_str(&format!("{t},client,web\n"));
        contents.push_str(&format!("{},web,db\n", t + 5_000_000));
        contents.push_str(&format!("{},db,web\n", t + 11_000_000));
    }
    TempLog::new(&contents)
}

/// A temp file removed on drop (std-only stand-in for `tempfile`).
struct TempLog {
    path: std::path::PathBuf,
}

impl TempLog {
    fn new(contents: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "e2eprof-cli-test-{}-{:?}.csv",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut f = std::fs::File::create(&path).expect("create temp log");
        f.write_all(contents.as_bytes()).expect("write temp log");
        TempLog { path }
    }

    fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for TempLog {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[test]
fn no_arguments_prints_usage() {
    let out = e2eprof(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn analyze_discovers_paths_from_a_log() {
    let log = sample_log();
    let out = e2eprof(&[
        "analyze",
        log.path().to_str().unwrap(),
        "--window",
        "20s",
        "--max-delay",
        "1s",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("web -> db"), "{stdout}");
    assert!(stdout.contains("db -> web"), "{stdout}");
}

#[test]
fn analyze_dot_output_is_graphviz() {
    let log = sample_log();
    let out = e2eprof(&[
        "analyze",
        log.path().to_str().unwrap(),
        "--window",
        "20s",
        "--max-delay",
        "1s",
        "--format",
        "dot",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph"), "{stdout}");
    assert!(stdout.contains("\"web\" -> \"db\""), "{stdout}");
}

#[test]
fn analyze_waterfall_output_has_bars() {
    let log = sample_log();
    let out = e2eprof(&[
        "analyze",
        log.path().to_str().unwrap(),
        "--window",
        "20s",
        "--max-delay",
        "1s",
        "--format",
        "waterfall",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains('#'), "{stdout}");
    assert!(stdout.contains("client client:"), "{stdout}");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = e2eprof(&["analyze", "/nonexistent/trace.csv"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));
}

#[test]
fn malformed_duration_is_reported() {
    let out = e2eprof(&["analyze", "x.csv", "--window", "banana"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("duration"));
}

#[test]
fn unknown_flag_is_reported() {
    let out = e2eprof(&["analyze", "x.csv", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}

#[test]
fn demo_runs_end_to_end() {
    let out = e2eprof(&["demo"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("web -> app"), "{stdout}");
    assert!(stdout.contains("bottleneck: app"), "{stdout}");
}

#[test]
fn distributed_always_reports_the_activity_gate() {
    let out = e2eprof(&["distributed"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("web -> app"), "{stdout}");
    let gate = stdout
        .lines()
        .find(|line| line.starts_with("incremental: "))
        .unwrap_or_else(|| panic!("no activity-gate line in a default run:\n{stdout}"));
    assert!(gate.contains("fine pair(s) skipped"), "{gate}");
    assert!(gate.contains("root graph(s) reused"), "{gate}");
    // What discovery did with the pairs of the roots it explored.
    assert!(gate.contains("discovery visited"), "{gate}");
    assert!(gate.contains("evidence-free"), "{gate}");
    assert!(gate.contains("verdict(s) carried"), "{gate}");
}

#[test]
fn bad_environment_override_is_reported_not_panicked_on() {
    // `demo` checks the environment before it simulates anything, so this
    // returns at once. A removed knob's variable is an error of its own: a
    // script that still sets it must not believe it selected anything.
    for (variable, value, expect) in [
        ("E2EPROF_TRANSPORT", "udp", "inproc | tcp | unix"),
        ("E2EPROF_WIRE", "v1", "removed"),
        ("E2EPROF_INCREMENTAL", "on", "removed"),
        ("E2EPROF_SCREENING", "8", "removed"),
        ("E2EPROF_BACKEND", "auto", "removed"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2eprof"))
            .arg("demo")
            .env(variable, value)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{variable}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("e2eprof: "), "{stderr}");
        for part in [variable, value, expect] {
            assert!(stderr.contains(part), "{stderr:?} lacks {part:?}");
        }
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
