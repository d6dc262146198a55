//! Adversarial decoder hardening: every mangled frame must come back as a
//! typed [`DecodeError`] — never a panic, never an allocation sized by
//! attacker-controlled length claims.
//!
//! The corpus covers both wire versions: truncation at *every* byte
//! offset, flipped magic/version/flag bytes, overlapping runs (expressible
//! only in v1 — v2 gap-encodes run starts, so overlap is structurally
//! impossible), and absurd declared entry/run counts. Run in release mode
//! by CI as well, since `debug_assert` guards are compiled out there.

use e2eprof_timeseries::wire::{self, DecodeError};
use e2eprof_timeseries::{RleSeries, Run, Tick};

fn sample_series() -> RleSeries {
    RleSeries::from_parts(
        Tick::new(1_000),
        600,
        vec![
            Run::new(Tick::new(1_004), 7, 2f64.sqrt()),
            Run::new(Tick::new(1_050), 1, 1.0),
            Run::new(Tick::new(1_300), 40, 5f64.sqrt()),
        ],
    )
}

fn sample_batch() -> Vec<((u32, u32), RleSeries)> {
    vec![
        ((3, 0), sample_series()),
        ((0, 4), RleSeries::empty(Tick::new(1_600), 100)),
        (
            (9, 9),
            RleSeries::from_parts(Tick::new(0), 64, vec![Run::new(Tick::new(63), 1, 0.25)]),
        ),
    ]
}

/// Both decoders over both formats: the result type is the whole contract
/// — reaching it at all proves no panic, and the length caps inside the
/// decoders prove no claim-sized allocation happened on the way.
fn decode_any(frame: &[u8]) -> Result<(), DecodeError> {
    match wire::frame_version(frame)? {
        1 => wire::decode(frame).map(|_| ()),
        2 => wire::decode_batch(frame).map(|_| ()),
        v => Err(DecodeError::UnsupportedVersion(v)),
    }
}

#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    let frames = [
        wire::encode(&sample_series()).to_vec(),
        wire::encode_batch(&sample_batch(), true).to_vec(),
        wire::encode_batch(&sample_batch(), false).to_vec(),
    ];
    for frame in &frames {
        assert!(decode_any(frame).is_ok(), "uncut frame must decode");
        for cut in 0..frame.len() {
            assert!(
                decode_any(&frame[..cut]).is_err(),
                "cut at {cut}/{} decoded silently",
                frame.len()
            );
        }
    }
}

#[test]
fn every_single_byte_flip_is_handled() {
    // Flipping any one byte must yield Ok (semantically harmless bits,
    // e.g. an amplitude's low mantissa) or a typed error — never a panic.
    // Run equality checks stay out of it; this is a no-crash fuzz sweep.
    let frames = [
        wire::encode(&sample_series()).to_vec(),
        wire::encode_batch(&sample_batch(), true).to_vec(),
    ];
    for frame in &frames {
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut f = frame.clone();
                f[i] ^= 1 << bit;
                let _ = decode_any(&f);
            }
        }
    }
}

#[test]
fn flipped_magic_and_version_are_typed_errors() {
    for frame in [
        wire::encode(&sample_series()).to_vec(),
        wire::encode_batch(&sample_batch(), true).to_vec(),
    ] {
        let mut bad_magic = frame.clone();
        bad_magic[0] = b'x';
        assert_eq!(decode_any(&bad_magic), Err(DecodeError::BadMagic));
        let mut bad_version = frame.clone();
        bad_version[4] = 77;
        assert_eq!(
            decode_any(&bad_version),
            Err(DecodeError::UnsupportedVersion(77))
        );
    }
    // Cross-version confusion: each decoder rejects the other's frames.
    assert_eq!(
        wire::decode(&wire::encode_batch(&sample_batch(), true)),
        Err(DecodeError::UnsupportedVersion(2))
    );
    assert_eq!(
        wire::decode_batch(&wire::encode(&sample_series())),
        Err(DecodeError::UnsupportedVersion(1))
    );
    // Flag bit 0b10 once tagged every entry with a decimation level; the
    // format no longer has it, so a v2 frame setting it is refused.
    let mut retired_flag = wire::encode_batch(&sample_batch(), true).to_vec();
    retired_flag[5] |= 0b10;
    assert_eq!(
        decode_any(&retired_flag),
        Err(DecodeError::Corrupt("unknown flag bits"))
    );
}

#[test]
fn v1_overlapping_runs_rejected() {
    // Rewrite the second run's start to land inside the first run.
    // v1 layout: 4 magic + 1 version + 8 start + 8 len + 4 num_runs = 25
    // byte header, then 20-byte runs (8 start + 4 len + 8 value).
    let mut f = wire::encode(&sample_series()).to_vec();
    let second_run_start = 25 + 20;
    f[second_run_start..second_run_start + 8].copy_from_slice(&1_005u64.to_be_bytes());
    assert_eq!(
        wire::decode(&f),
        Err(DecodeError::Corrupt("runs overlap or out of order"))
    );
}

#[test]
fn v1_absurd_run_count_is_truncation_not_allocation() {
    let mut f = wire::encode(&sample_series()).to_vec();
    // num_runs sits after magic/version/start/len.
    f[21..25].copy_from_slice(&u32::MAX.to_be_bytes());
    assert_eq!(wire::decode(&f), Err(DecodeError::Truncated));
}

#[test]
fn v2_absurd_declared_counts_are_capped() {
    // Headers claiming astronomically many entries/runs with almost no
    // bytes behind them must die on the length cap immediately.
    let mut huge_entries = b"E2EP\x02\x01".to_vec();
    huge_entries.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]); // u64::MAX-ish varint
    assert_eq!(
        wire::decode_batch(&huge_entries),
        Err(DecodeError::Truncated)
    );

    let mut huge_runs = b"E2EP\x02\x01".to_vec();
    huge_runs.push(1); // one entry
    huge_runs.extend_from_slice(&[0, 1, 0, 200, 1]); // src, dst, start, len, ...
    huge_runs.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x0f]); // num_runs ≈ 2^34
    assert_eq!(wire::decode_batch(&huge_runs), Err(DecodeError::Truncated));
}

#[test]
fn v2_runs_escaping_the_declared_span_rejected() {
    // One entry spanning [0, 4) with a run of length 200: gap=0, len=200.
    let mut f = b"E2EP\x02\x01".to_vec();
    f.push(1); // one entry
    f.extend_from_slice(&[2, 3, 0, 4, 1]); // src=2 dst=3 start=0 len=4 num_runs=1
    f.extend_from_slice(&[0, 200, 1]); // gap=0 len=200 amp=√1
    assert_eq!(
        wire::decode_batch(&f),
        Err(DecodeError::Corrupt("run outside declared span"))
    );
}

#[test]
fn v2_zero_length_and_zero_valued_runs_rejected() {
    let mut zero_len = b"E2EP\x02\x01".to_vec();
    zero_len.push(1);
    zero_len.extend_from_slice(&[2, 3, 0, 4, 1]);
    zero_len.extend_from_slice(&[0, 0, 1]); // len = 0
    assert_eq!(
        wire::decode_batch(&zero_len),
        Err(DecodeError::Corrupt("zero-length run"))
    );

    let mut zero_val = b"E2EP\x02\x01".to_vec();
    zero_val.push(1);
    zero_val.extend_from_slice(&[2, 3, 0, 4, 1]);
    zero_val.extend_from_slice(&[0, 2, 0]); // amp escape code 0 → raw f64
    zero_val.extend_from_slice(&0f64.to_be_bytes());
    assert_eq!(
        wire::decode_batch(&zero_val),
        Err(DecodeError::Corrupt("zero or non-finite run value"))
    );

    let mut nan_val = b"E2EP\x02\x01".to_vec();
    nan_val.push(1);
    nan_val.extend_from_slice(&[2, 3, 0, 4, 1]);
    nan_val.extend_from_slice(&[0, 2, 0]);
    nan_val.extend_from_slice(&f64::NAN.to_be_bytes());
    assert_eq!(
        wire::decode_batch(&nan_val),
        Err(DecodeError::Corrupt("zero or non-finite run value"))
    );
}

#[test]
fn random_garbage_never_panics() {
    // A cheap deterministic xorshift fuzz pass over both entry points.
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..2_000 {
        let len = (next() % 96) as usize;
        let mut frame: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        if round % 2 == 0 && frame.len() >= 5 {
            // Half the corpus gets a valid magic + version so the fuzz
            // reaches past the header checks.
            frame[..4].copy_from_slice(b"E2EP");
            frame[4] = if round % 4 == 0 { 1 } else { 2 };
        }
        let _ = decode_any(&frame);
    }
}
