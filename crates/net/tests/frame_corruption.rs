//! Adversarial hardening of the transport envelope, mirroring the
//! timeseries crate's `wire_corruption` corpus one layer down: every
//! mangled byte stream must surface as a typed [`FrameError`] (or an
//! honest "need more bytes") — never a panic, never an allocation sized
//! by an attacker-controlled length claim, and never a silently
//! *different* accepted frame.
//!
//! CI runs this in release mode too: `debug_assert` guards are compiled
//! out there, so the corpus must hold without them.

use e2eprof_core::reduction::HintState;
use e2eprof_net::frame::{
    crc32, encode_frame, encode_frame_to_vec, Frame, FrameDecoder, FrameError, FrameKind,
    HEADER_LEN, MAX_PAYLOAD_LEN,
};
use e2eprof_net::msg::{
    decode_announce, decode_hello, decode_hint, decode_subscribe, encode_announce, encode_hello,
    encode_hint, encode_subscribe, Role, Subscribe, SubscribeSpec,
};

/// A realistic multi-frame stream: handshake, announce, then data of both
/// kinds — the shapes a broker connection actually carries.
fn sample_stream() -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame(
        FrameKind::Hello,
        3,
        0,
        &encode_hello(Role::Tracer { node: 3 }),
        &mut out,
    );
    encode_frame(
        FrameKind::Announce,
        3,
        0,
        &encode_announce(&[(3, 0), (1, 3)]),
        &mut out,
    );
    encode_frame(FrameKind::DataBatch, 3, 1, b"batch payload bytes", &mut out);
    encode_frame(FrameKind::DataSeries, 3, 2, &[0u8; 8], &mut out);
    encode_frame(FrameKind::DataBatch, 3, 3, &[], &mut out);
    out
}

/// Decodes as much of `stream` as possible; returns the frames accepted
/// before the first error (if any).
fn drain(stream: &[u8]) -> (Vec<Frame>, Option<FrameError>) {
    let mut dec = FrameDecoder::new();
    dec.feed(stream);
    let mut frames = Vec::new();
    loop {
        match dec.next_frame() {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e)),
        }
    }
}

#[test]
fn clean_stream_decodes_fully() {
    let (frames, err) = drain(&sample_stream());
    assert_eq!(err, None);
    assert_eq!(frames.len(), 5);
    assert_eq!(frames[2].seq, 1);
    assert_eq!(frames[3].kind, FrameKind::DataSeries);
}

/// Truncation at *every* byte boundary: the decoder either waits for more
/// bytes (all complete frames so far delivered, nothing invented) or — if
/// the cut lands inside the magic of a later frame — reports nothing
/// worse than the frames already accepted. It must never yield a frame
/// whose bytes were incomplete.
#[test]
fn truncation_at_every_boundary_never_invents_frames() {
    let stream = sample_stream();
    let (all, _) = drain(&stream);
    // Frame start offsets, so we know how many complete frames a cut keeps.
    let mut starts = Vec::new();
    let mut off = 0;
    for f in &all {
        starts.push(off);
        off += HEADER_LEN + f.payload.len();
    }
    starts.push(off);
    for cut in 0..stream.len() {
        let (frames, err) = drain(&stream[..cut]);
        let complete = starts.iter().filter(|&&s| s > 0 && s <= cut).count();
        assert_eq!(
            frames.len(),
            complete,
            "cut at {cut}: decoder must deliver exactly the complete frames"
        );
        for (a, b) in frames.iter().zip(&all) {
            assert_eq!(a, b, "cut at {cut}: delivered frame differs");
        }
        assert_eq!(err, None, "cut at {cut}: truncation is not an error yet");
    }
}

/// Every single-bit flip anywhere in the stream is either detected as a
/// typed error or swallows trailing frames by inflating a length — it can
/// never smuggle a *modified* frame through, because the CRC covers every
/// header field and the payload.
#[test]
fn every_single_bit_flip_is_detected_or_starves() {
    let stream = sample_stream();
    let (all, _) = drain(&stream);
    for i in 0..stream.len() {
        for bit in 0..8 {
            let mut s = stream.clone();
            s[i] ^= 1 << bit;
            let (frames, err) = drain(&s);
            // Frames decoded before the damaged one must be untouched.
            for (a, b) in frames.iter().zip(&all) {
                if a != b {
                    panic!("flip {i}.{bit}: accepted an altered frame: {a:?} vs {b:?}");
                }
            }
            assert!(
                err.is_some() || frames.len() < all.len(),
                "flip {i}.{bit}: stream fully decoded despite damage"
            );
        }
    }
}

#[test]
fn oversized_length_claims_are_rejected_before_allocation() {
    // Claim just past the cap, far past the cap, and u32::MAX; the header
    // is all the decoder ever sees — it must reject without waiting for
    // (or reserving room for) the claimed payload.
    for claim in [MAX_PAYLOAD_LEN + 1, 1 << 30, u32::MAX] {
        let mut frame = encode_frame_to_vec(FrameKind::DataBatch, 1, 1, &[0; 4]);
        frame[18..22].copy_from_slice(&claim.to_be_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&frame[..HEADER_LEN]);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::Oversized(claim)),
            "claim {claim}"
        );
    }
    // At the cap exactly the decoder waits for the payload instead.
    let mut frame = encode_frame_to_vec(FrameKind::DataBatch, 1, 1, &[0; 4]);
    frame[18..22].copy_from_slice(&MAX_PAYLOAD_LEN.to_be_bytes());
    let mut dec = FrameDecoder::new();
    dec.feed(&frame);
    assert_eq!(dec.next_frame(), Ok(None));
}

#[test]
fn garbage_between_frames_is_bad_magic_and_sticky() {
    let mut stream = sample_stream();
    let first_len = {
        let (all, _) = drain(&stream);
        HEADER_LEN + all[0].payload.len()
    };
    stream.splice(first_len..first_len, b"NOISE".iter().copied());
    let (frames, err) = drain(&stream);
    assert_eq!(frames.len(), 1, "the frame before the garbage survives");
    assert_eq!(err, Some(FrameError::BadMagic));
    // Sticky: the decoder stays poisoned even if clean bytes follow.
    let mut dec = FrameDecoder::new();
    dec.feed(&stream);
    loop {
        match dec.next_frame() {
            Ok(Some(_)) => {}
            Ok(None) => unreachable!("garbage must poison"),
            Err(_) => break,
        }
    }
    dec.feed(&sample_stream());
    assert_eq!(dec.next_frame(), Err(FrameError::BadMagic));
}

#[test]
fn unknown_version_and_kind_are_typed_errors() {
    let mut bad_version = encode_frame_to_vec(FrameKind::Hello, 0, 0, &[]);
    bad_version[4] = 9;
    let (_, err) = drain(&bad_version);
    assert_eq!(err, Some(FrameError::UnsupportedVersion(9)));

    let mut bad_kind = encode_frame_to_vec(FrameKind::Hello, 0, 0, &[]);
    bad_kind[5] = 200;
    let (_, err) = drain(&bad_kind);
    assert_eq!(err, Some(FrameError::BadKind(200)));
}

/// Control-plane payload decoders take frame payloads that passed the CRC
/// but may still be structurally hostile (a buggy or malicious peer signs
/// its own garbage correctly). They must return typed errors, never
/// panic, and cap their own declared counts.
#[test]
fn control_payload_decoders_survive_hostile_payloads() {
    // Truncation at every offset of each control payload.
    let hello = encode_hello(Role::Analyzer { shard: 2, of: 4 });
    let announce = encode_announce(&[(0, 1), (7, 3), (9, 9)]);
    let subscribe = encode_subscribe(&Subscribe {
        spec: SubscribeSpec::Edges(vec![(0, 1), (2, 3)]),
        resume: vec![(3, 77), (9, 1)],
    });
    let hint = encode_hint(&HintState {
        shard: 1,
        of: 2,
        edges: vec![((0, 1), 16), ((7, 3), 64)],
    });
    assert_eq!(decode_hello(&hello), Ok(Role::Analyzer { shard: 2, of: 4 }));
    assert!(decode_announce(&announce).is_ok());
    assert!(decode_subscribe(&subscribe).is_ok());
    assert!(decode_hint(&hint).is_ok());
    for cut in 0..hello.len() {
        assert!(decode_hello(&hello[..cut]).is_err(), "hello cut {cut}");
    }
    for cut in 0..announce.len() {
        assert!(
            decode_announce(&announce[..cut]).is_err(),
            "announce cut {cut}"
        );
    }
    for cut in 0..subscribe.len() {
        assert!(
            decode_subscribe(&subscribe[..cut]).is_err(),
            "subscribe cut {cut}"
        );
    }
    for cut in 0..hint.len() {
        assert!(decode_hint(&hint[..cut]).is_err(), "hint cut {cut}");
    }
    // Absurd declared element counts with no bytes behind them.
    let mut huge = Vec::new();
    huge.extend_from_slice(&u32::MAX.to_be_bytes());
    assert!(decode_announce(&huge).is_err());
    assert!(decode_subscribe(&huge).is_err());
    let mut huge_hint = vec![0u8; 8];
    huge_hint.extend_from_slice(&u32::MAX.to_be_bytes());
    assert!(decode_hint(&huge_hint).is_err());
}

/// Deterministic xorshift fuzz over the streaming decoder: random
/// garbage, with and without a valid magic grafted on, across random
/// chunking. No panics, no runaway buffering.
#[test]
fn random_garbage_never_panics_or_hoards_memory() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..2_000 {
        let len = (next() % 160) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        if round % 2 == 0 && bytes.len() >= 6 {
            bytes[..4].copy_from_slice(b"E2EN");
            bytes[4] = 1;
            if round % 4 == 0 {
                bytes[5] = (next() % 6) as u8; // mostly-valid kinds
            }
        }
        let mut dec = FrameDecoder::new();
        // Feed in random chunks to exercise reassembly paths.
        let mut off = 0;
        while off < bytes.len() {
            let n = ((next() % 7) as usize + 1).min(bytes.len() - off);
            dec.feed(&bytes[off..off + n]);
            off += n;
            while let Ok(Some(_)) = dec.next_frame() {}
        }
        assert!(
            dec.pending() <= bytes.len(),
            "decoder buffered more than it was fed"
        );
    }
}

#[test]
fn crc_reference_vector_holds() {
    assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
}
