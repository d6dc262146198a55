//! Transport-layer throughput: the same synthetic tracer workload driven
//! through (a) the in-process channel and (b) loopback TCP — framed,
//! CRC-checked, brokered, and fanned out to 1, 4, and 8 analyzer shards.
//!
//! The workload is bursty density-shaped RLE chunks over 64 edges, one
//! batch frame per flush: on top of the codec + window cost the
//! in-process run pays, the TCP runs add the envelope, the socket hop, the
//! broker's dedup/replay ring, and the per-shard fan-out. Every shard
//! subscribes to the full stream, so the 4-shard case moves 4× the bytes
//! of the 1-shard case.
//!
//! The broker-side acceptor is wrapped in [`CountingAcceptor`], so every
//! `write`/`write_vectored` the broker issues (tracer acks aside, these
//! are the subscriber-fan-out flushes) is counted; the report includes
//! `syscalls_per_record` per TCP configuration. With write coalescing
//! the broker retires up to [`COALESCE_MAX_FRAMES`] frames per call, so
//! this ratio is the direct measure of the batching win.
//!
//! The stream is [`e2eprof_bench::transport`]'s; that
//! every shard ingests every frame exactly once is held by
//! `tests/fanout_exactness.rs`. This bench still fails, rather than
//! times, a run that drops a frame to backpressure or whose shards
//! ingest a different count. Two assertions gate regressions:
//! - every TCP path must clear a 100k records/s floor (keep-up with
//!   real tracer flush rates), and
//! - the 1-shard TCP path must be at least 2× the pre-zero-copy
//!   baseline ([`PR9_TCP1_RECORDS_PER_SEC`]), locking in the
//!   pass-through + coalescing gain.

use crossbeam::channel::unbounded;
use e2eprof_bench::fmt_duration;
use e2eprof_bench::transport::{config, frames, labels, records, workload, EDGES, FLUSHES};
use e2eprof_core::analyzer::OnlineAnalyzer;
use e2eprof_core::tracer::{FrameSink, TracerFrame};
use e2eprof_net::link::{AnalyzerConn, LinkConfig, TracerLink};
use e2eprof_net::pipeline::Endpoint;
use e2eprof_net::{BrokerHandle, CountingAcceptor, IoCounters};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const REPS: usize = 5;

/// Loopback TCP ×1 records/s measured immediately before the zero-copy
/// data plane landed (decode/re-encode broker, one `write` per frame).
/// The pass-through relay + vectored coalescing must at least double it.
const PR9_TCP1_RECORDS_PER_SEC: f64 = 23_163_499.15;

/// Baseline: frames over the in-process channel into one analyzer.
fn drive_inproc(frames: &[bytes::Bytes]) -> Duration {
    let (tx, rx) = unbounded();
    let mut analyzer = OnlineAnalyzer::new(config(), Vec::new(), labels(), rx);
    let expected = frames.len();
    let t0 = Instant::now();
    let ingester = std::thread::spawn(move || {
        assert_eq!(analyzer.ingest_expected(expected), expected);
    });
    for payload in frames {
        tx.send(TracerFrame::Batch {
            payload: payload.clone(),
        })
        .expect("analyzer alive");
    }
    drop(tx);
    ingester.join().expect("ingester");
    t0.elapsed()
}

/// One TCP run's measurements: wall time plus the broker-side write-call
/// count (each at most one kernel syscall on a real socket).
struct TcpRun {
    elapsed: Duration,
    broker_write_calls: u64,
}

/// Frames over loopback TCP: link → broker → `shards` subscribed
/// analyzers, each ingesting the full stream concurrently. The broker's
/// acceptor is wrapped so every write call it issues is counted.
fn drive_tcp(frames: &[bytes::Bytes], shards: usize) -> TcpRun {
    let endpoint = Endpoint::Tcp.bind().expect("bind loopback");
    let counters = IoCounters::shared();
    let counting = Arc::new(CountingAcceptor::new(
        endpoint.acceptor(),
        Arc::clone(&counters),
    ));
    let broker = BrokerHandle::spawn(
        counting,
        e2eprof_net::BrokerConfig {
            ring_capacity: frames.len().max(1024),
        },
    );
    let expected = frames.len();
    let mut conns = Vec::new();
    let (done_tx, done) = std::sync::mpsc::channel();
    for shard in 0..shards {
        let (conn, rx) = AnalyzerConn::spawn(
            endpoint.dialer(),
            shard as u32,
            shards as u32,
            LinkConfig::default(),
        );
        conns.push(conn);
        let mut analyzer = OnlineAnalyzer::new(config(), Vec::new(), labels(), rx);
        let done_tx = done_tx.clone();
        std::thread::spawn(move || {
            let _ = done_tx.send(analyzer.ingest_expected(expected));
        });
    }
    // A bursty sender: let up to 16 frames ride one coalesced vectored
    // write instead of paying a syscall per frame, with an explicit
    // drain at the end of the burst.
    let link_config = LinkConfig {
        coalesce_depth: 16,
        ..LinkConfig::default()
    };
    let mut link = TracerLink::new(0, endpoint.dialer(), link_config);
    let t0 = Instant::now();
    for payload in frames {
        let dropped = link.send_frame(TracerFrame::Batch {
            payload: payload.clone(),
        });
        assert_eq!(dropped, 0, "bench must not hit backpressure drops");
    }
    link.drain();
    for _ in 0..shards {
        // A lost frame would block its ingester for ever: fail instead.
        let ingested = done
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("x{shards}: a shard never ingested the whole stream"));
        assert_eq!(
            ingested, expected,
            "x{shards}: a shard ingested a different count"
        );
    }
    let elapsed = t0.elapsed();
    broker.shutdown();
    for conn in &mut conns {
        conn.stop();
    }
    TcpRun {
        elapsed,
        broker_write_calls: counters.write_calls.load(Ordering::Relaxed),
    }
}

fn best_of(reps: usize, f: impl Fn() -> Duration) -> Duration {
    (0..reps).map(|_| f()).min().expect("at least one rep")
}

/// Fastest rep by wall time; syscall counts come from that same rep so
/// the ratio is internally consistent.
fn best_tcp(reps: usize, f: impl Fn() -> TcpRun) -> TcpRun {
    (0..reps)
        .map(|_| f())
        .min_by_key(|r| r.elapsed)
        .expect("at least one rep")
}

fn main() {
    let flushes = workload();
    let total_records = records(&flushes);
    let encoded = frames(&flushes);
    let payload_bytes: usize = encoded.iter().map(bytes::Bytes::len).sum();
    // What the stream costs on the socket: every batch payload travels in
    // one transport envelope of HEADER_LEN framing bytes.
    let bytes_on_wire = payload_bytes + encoded.len() * e2eprof_net::frame::HEADER_LEN;
    println!(
        "transport_throughput: {EDGES} edges x {FLUSHES} flushes = {total_records} records, \
         {} KiB of wire-v2 batches ({} KiB framed)",
        payload_bytes / 1024,
        bytes_on_wire / 1024
    );

    let inproc = best_of(REPS, || drive_inproc(&encoded));
    let tcp1 = best_tcp(REPS, || drive_tcp(&encoded, 1));
    let tcp4 = best_tcp(REPS, || drive_tcp(&encoded, 4));
    let tcp8 = best_tcp(REPS, || drive_tcp(&encoded, 8));

    let rps = |d: Duration| total_records as f64 / d.as_secs_f64();
    let spr = |run: &TcpRun| run.broker_write_calls as f64 / total_records as f64;
    let report_inproc = |name: &str, d: Duration| {
        println!(
            "  {name:<22} {:>9}  {:>7.2} M records/s",
            fmt_duration(d),
            rps(d) / 1e6
        );
    };
    let report_tcp = |name: &str, run: &TcpRun| {
        println!(
            "  {name:<22} {:>9}  {:>7.2} M records/s  {:>6} broker writes  {:.2e} syscalls/record",
            fmt_duration(run.elapsed),
            rps(run.elapsed) / 1e6,
            run.broker_write_calls,
            spr(run)
        );
    };
    report_inproc("in-process channel", inproc);
    report_tcp("tcp loopback x1", &tcp1);
    report_tcp("tcp loopback x4", &tcp4);
    report_tcp("tcp loopback x8", &tcp8);

    // Floor: a tracer flushes every ΔW (seconds); the transport must
    // clear this synthetic 300-flush stream at >= 100k records/s even
    // with 8 subscribed shards, or it could not keep up with real
    // deployments.
    for (name, run) in [("tcp x1", &tcp1), ("tcp x4", &tcp4), ("tcp x8", &tcp8)] {
        assert!(
            rps(run.elapsed) >= 1e5,
            "{name}: {:.0} records/s is below the 100k floor",
            rps(run.elapsed)
        );
    }
    // Regression gate for the zero-copy data plane: pass-through relay +
    // coalesced vectored writes must at least double the decode/re-encode
    // broker's single-shard throughput.
    assert!(
        rps(tcp1.elapsed) >= 2.0 * PR9_TCP1_RECORDS_PER_SEC,
        "tcp x1: {:.0} records/s is below 2x the pre-zero-copy baseline ({:.0})",
        rps(tcp1.elapsed),
        PR9_TCP1_RECORDS_PER_SEC
    );
}
