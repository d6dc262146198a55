//! An analyzer fed through a real broker connection survives tracer
//! payloads it cannot decode. The broker relays any envelope whose CRC
//! holds, so a tracer speaking a newer wire version — or a buggy one —
//! reaches every analyzer shard: each must reject the frame whole, count
//! it, and go on ingesting.

use bytes::Bytes;
use e2eprof_core::analyzer::OnlineAnalyzer;
use e2eprof_core::graph::NodeLabels;
use e2eprof_core::tracer::{FrameSink, TracerFrame};
use e2eprof_core::PathmapConfig;
use e2eprof_net::mem::MemListener;
use e2eprof_net::{AnalyzerConn, BrokerConfig, BrokerHandle, LinkConfig, TracerLink};
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::{wire, RleSeries, Run, Tick};
use std::sync::Arc;

#[test]
fn undecodable_payloads_are_rejected_whole_and_counted() {
    let listener = Arc::new(MemListener::new());
    let broker = BrokerHandle::spawn(listener.clone(), BrokerConfig::default());
    let (mut conn, rx) =
        AnalyzerConn::spawn(Box::new(listener.dialer()), 0, 1, LinkConfig::immediate());
    let root = (NodeId::new(0), NodeId::new(1));
    let mut analyzer = OnlineAnalyzer::new(
        PathmapConfig::default(),
        vec![root],
        NodeLabels::default(),
        rx,
    );

    let series = |len| RleSeries::from_parts(Tick::ZERO, len, vec![Run::new(Tick::new(3), 2, 1.0)]);
    let good = wire::encode_batch(&[((0, 1), series(500))], true);
    // The same frame, stamped with a wire version this reader predates.
    let mut newer = good.to_vec();
    newer[4] = 3;
    assert_eq!(wire::frame_version(&newer), Ok(3));
    // Two entries, the second cut short: applying the whole first entry
    // before finding the cut would open a (1, 2) stream ending at tick 100.
    let two = wire::encode_batch(&[((1, 2), series(100)), ((0, 1), series(500))], true);
    let truncated = two[..two.len() - 2].to_vec();

    let mut link = TracerLink::new(1, Box::new(listener.dialer()), LinkConfig::immediate());
    for payload in [newer, truncated, good.to_vec()] {
        link.send_frame(TracerFrame::Batch {
            payload: Bytes::from(payload),
        });
    }
    assert_eq!(
        analyzer.ingest_expected(3),
        3,
        "a rejected frame is consumed like any other"
    );
    assert_eq!(analyzer.rejected_frames(), 2);
    assert_eq!(
        analyzer.common_end(),
        Some(Tick::new(500)),
        "only the good frame reached a window"
    );
    broker.shutdown();
    conn.stop();
}
