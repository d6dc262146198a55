//! Fan-out exactness over loopback TCP: a bursty tracer stream, sent with
//! coalesced flushes, reaches every subscribed analyzer shard whole —
//! every frame once, no backpressure drop, no replayed duplicate — at 1,
//! 4 and 8 shards. The stream is [`e2eprof_bench::transport`]'s, which
//! the `transport_throughput` bench times; this test holds its output.

use e2eprof_bench::transport::{config, frames, labels, workload};
use e2eprof_core::analyzer::OnlineAnalyzer;
use e2eprof_core::tracer::{FrameSink, TracerFrame};
use e2eprof_net::link::{AnalyzerConn, LinkConfig, TracerLink};
use e2eprof_net::pipeline::Endpoint;
use e2eprof_net::{BrokerConfig, BrokerHandle};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::Duration;

/// Sends `frames` through a broker to `shards` subscribed analyzers and
/// checks each ingests every frame exactly once.
fn fan_out(frames: &[bytes::Bytes], shards: usize) {
    let endpoint = Endpoint::Tcp.bind().expect("bind loopback");
    let broker = BrokerHandle::spawn(
        endpoint.acceptor(),
        BrokerConfig {
            ring_capacity: frames.len().max(1024),
        },
    );
    let expected = frames.len();
    let (done_tx, done_rx) = mpsc::channel();
    let mut conns = Vec::new();
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
            let _ = done_tx.send((shard, analyzer.ingest_expected(expected)));
        });
    }
    // A bursty sender: up to 16 frames ride one coalesced write, and the
    // tail goes out with an explicit drain.
    let mut link = TracerLink::new(
        0,
        endpoint.dialer(),
        LinkConfig {
            coalesce_depth: 16,
            ..LinkConfig::default()
        },
    );
    for payload in frames {
        let dropped = link.send_frame(TracerFrame::Batch {
            payload: payload.clone(),
        });
        assert_eq!(dropped, 0, "x{shards}: a backpressure drop");
    }
    link.drain();
    assert_eq!(link.backlog(), 0, "x{shards}: frames left unsent");
    for _ in 0..shards {
        // A lost frame would block its ingester for ever: fail instead.
        let (shard, ingested) = done_rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("x{shards}: a shard never ingested all {expected} frames"));
        assert_eq!(ingested, expected, "x{shards}: shard {shard}");
    }
    broker.shutdown();
    for (shard, conn) in conns.iter_mut().enumerate() {
        conn.stop();
        let stats = conn.stats();
        assert_eq!(
            stats.delivered.load(Ordering::Relaxed),
            expected as u64,
            "x{shards}: shard {shard} delivered"
        );
        assert_eq!(
            stats.duplicates.load(Ordering::Relaxed),
            0,
            "x{shards}: shard {shard} saw a replayed duplicate"
        );
    }
    assert_eq!(broker.duplicates_rejected(), 0);
}

#[test]
fn every_shard_ingests_every_frame_once() {
    let frames = frames(&workload());
    for shards in [1, 4, 8] {
        fan_out(&frames, shards);
    }
}
