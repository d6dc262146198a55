//! The wire formats, pinned byte for byte, so neither can drift silently:
//! the batch frame tracer agents emit (for a fixed tiny capture), and the
//! v1 series frame the reader side still accepts. A third case holds what
//! the batch frame is for: on a real RUBiS window it spends far fewer
//! bytes per captured record than v1 frames.

use crossbeam::channel::unbounded;
use e2eprof::apps::rubis::{Dispatch, Rubis, RubisConfig};
use e2eprof::core::prelude::*;
use e2eprof::core::tracer::TracerFrame;
use e2eprof::netsim::{CaptureStore, NodeId};
use e2eprof::timeseries::density::DensityEstimator;
use e2eprof::timeseries::{wire, Nanos, Quanta, RleSeries, Run, Tick};
use std::collections::HashSet;

/// The emitted layout: magic `E2EP`, version 2, flags (integer
/// amplitudes), entry count, then per entry `src dst start len runs` and
/// per run `gap len count`, all LEB128 varints. ω = 50 ticks, so the
/// message at 100 ms covers ticks 75..=125 and the two at 300 ms cover
/// 275..=325, a gap of 275 − 126 = 149 = `0x95 0x01` after the first run.
#[test]
fn pinned_v2_golden_frame_is_what_a_poll_emits() {
    let (web, db, cli) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
    let mut capture = CaptureStore::new();
    capture.record(web, cli, web, Nanos::from_millis(100), 1);
    capture.record(web, cli, web, Nanos::from_millis(300), 2);
    capture.record(web, db, web, Nanos::from_millis(990), 1);
    let (tx, rx) = unbounded();
    let mut agent = TracerAgent::new(web, HashSet::from([cli]), PathmapConfig::default(), tx);
    agent.poll(&capture, Tick::new(1_000));
    let frames: Vec<TracerFrame> = rx.try_iter().collect();
    let [TracerFrame::Batch { payload }] = &frames[..] else {
        panic!("expected one batch frame, got {frames:?}");
    };
    #[rustfmt::skip]
    let golden: &[u8] = &[
        b'E', b'2', b'E', b'P', 2, 0x01, // v2, integer amplitudes
        2,                               // two entries
        1, 0, 0, 0xe8, 0x07, 1,          // db→web over [0, 1000): one run
        0xc5, 0x07, 35, 1,               //   gap 965, len 35 (cut at the drain tick), count 1
        2, 0, 0, 0xe8, 0x07, 2,          // cli→web over [0, 1000): two runs
        75, 51, 1,                       //   gap 75, len 51, count 1
        0x95, 0x01, 51, 2,               //   gap 149, len 51, count 2
    ];
    assert_eq!(&payload[..], golden);
    // And it reads back as the series it describes.
    let decoded = wire::decode_batch(payload).expect("golden v2 frame decodes");
    assert_eq!(
        decoded,
        vec![
            (
                (1, 0),
                RleSeries::from_parts(Tick::ZERO, 1_000, vec![Run::new(Tick::new(965), 35, 1.0)])
            ),
            (
                (2, 0),
                RleSeries::from_parts(
                    Tick::ZERO,
                    1_000,
                    vec![
                        Run::new(Tick::new(75), 51, 1.0),
                        Run::new(Tick::new(275), 51, 2f64.sqrt()),
                    ]
                )
            ),
        ]
    );
}

/// The v1 layout, pinned byte for byte: magic `E2EP`, version 1, BE u64
/// start and length, BE u32 run count, then 20-byte runs of (BE u64
/// start, BE u32 length, BE f64 value). A frame captured under the v1-only
/// build must decode to the same series under the v2-capable decoder, and
/// re-encode to the identical bytes.
#[test]
fn pinned_v1_golden_frame_still_decodes() {
    const SQRT_2_BITS: u64 = 0x3FF6_A09E_667F_3BCD;
    let mut golden: Vec<u8> = Vec::new();
    golden.extend_from_slice(b"E2EP");
    golden.push(1);
    golden.extend_from_slice(&100u64.to_be_bytes()); // series start
    golden.extend_from_slice(&50u64.to_be_bytes()); // series length
    golden.extend_from_slice(&2u32.to_be_bytes()); // two runs
    golden.extend_from_slice(&104u64.to_be_bytes());
    golden.extend_from_slice(&3u32.to_be_bytes());
    golden.extend_from_slice(&SQRT_2_BITS.to_be_bytes());
    golden.extend_from_slice(&120u64.to_be_bytes());
    golden.extend_from_slice(&5u32.to_be_bytes());
    golden.extend_from_slice(&1.0f64.to_be_bytes());

    assert_eq!(wire::frame_version(&golden), Ok(1));
    let decoded = wire::decode(&golden).expect("golden v1 frame decodes");
    let expect = RleSeries::from_parts(
        Tick::new(100),
        50,
        vec![
            Run::new(Tick::new(104), 3, f64::from_bits(SQRT_2_BITS)),
            Run::new(Tick::new(120), 5, 1.0),
        ],
    );
    assert_eq!(decoded, expect);
    assert_eq!(
        decoded.runs()[0].value().to_bits(),
        SQRT_2_BITS,
        "amplitude must survive bit-for-bit"
    );
    assert_eq!(
        wire::encode(&decoded).as_ref(),
        golden.as_slice(),
        "the v1 encoder still emits the pinned layout"
    );
}

/// Fig. 10's size comparison, extended to the wire: every captured edge
/// of a 67 s RUBiS round-robin run (a 60 s window, a 2 s lag bound and
/// 5 s of slack; seed 42) as density series at τ = 1 ms, ω = 50 ms,
/// shipped as one v1 frame per edge or as one batch frame. The batch
/// frame with integer amplitudes — the one tracers emit — must spend at
/// least 1.5× fewer bytes per record than v1 (6.45× when this was
/// written: 26.207 against 4.066 B/record over 16 edges and 11 432
/// records), and integer amplitudes must never cost more than raw f64.
/// `experiments fig10` prints the same three sizes.
#[test]
fn batch_frames_beat_v1_frames_on_a_rubis_window() {
    let mut rubis = Rubis::build(RubisConfig {
        dispatch: Dispatch::RoundRobin,
        seed: 42,
        ..RubisConfig::default()
    });
    rubis.sim_mut().run_until(Nanos::from_secs(67));
    let captures = rubis.sim().captures();
    let mut entries: Vec<((u32, u32), RleSeries)> = Vec::new();
    let mut records = 0u64;
    for (src, dst) in captures.edges() {
        let ts = captures.edge_signal(src, dst);
        records += ts.len() as u64;
        let rle = DensityEstimator::from_timestamps(Quanta::from_millis(1), 50, ts).to_rle();
        entries.push(((src.index() as u32, dst.index() as u32), rle));
    }
    assert!(records > 10_000, "window too quiet: {records} records");

    let v1_bytes: usize = entries.iter().map(|(_, s)| wire::encode(s).len()).sum();
    let raw_bytes = wire::encode_batch(&entries, false).len();
    let int_bytes = wire::encode_batch(&entries, true).len();
    let ratio = v1_bytes as f64 / int_bytes as f64;
    assert!(
        ratio >= 1.5,
        "batch frames must spend >= 1.5x fewer bytes/record than v1, got {ratio:.2}x \
         ({v1_bytes} against {int_bytes} B for {records} records)"
    );
    assert!(
        int_bytes <= raw_bytes,
        "integer amplitudes cost {int_bytes} B, more than raw f64's {raw_bytes} B"
    );
}
