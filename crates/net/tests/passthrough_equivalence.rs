//! Property-based proof obligations for the broker's pass-through data
//! plane: relaying the validated receive bytes verbatim must be
//! indistinguishable — byte for byte — from the old decode/re-encode
//! relay, and the coalesced writer's output must be exactly the
//! concatenation of the frames it batched.
//!
//! Together with `frame_corruption`'s adversarial corpus, this is the
//! safety argument for skipping the payload parse on data frames: the
//! CRC covers every header field after the magic plus the payload, so a
//! frame that validates at the broker is the same sequence of bytes the
//! tracer emitted, and anything damaged after relay is caught by the
//! analyzer's own decoder.

use e2eprof_net::frame::{
    crc32, encode_frame_head, encode_frame_to_vec, FrameDecoder, FrameKind, HEADER_LEN,
};
use proptest::prelude::*;

fn data_kind_strategy() -> impl Strategy<Value = FrameKind> {
    prop_oneof![Just(FrameKind::DataBatch), Just(FrameKind::DataSeries),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pass-through relay bytes ≡ decode/re-encode bytes: for any valid
    /// data frame, the raw envelope `next_raw` validates is bitwise
    /// identical to re-encoding the decoded fields — so pushing the
    /// receive bytes straight to the replay ring can never alter what a
    /// subscriber sees.
    #[test]
    fn raw_relay_equals_decode_reencode(
        kind in data_kind_strategy(),
        origin in 0u32..=u32::MAX,
        seq in 0u64..=u64::MAX,
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let encoded = encode_frame_to_vec(kind, origin, seq, &payload);

        // The pass-through path: validate, take the receive bytes.
        let mut dec = FrameDecoder::new();
        dec.feed(&encoded);
        let raw = dec.next_raw().expect("valid frame").expect("complete");
        prop_assert_eq!(&raw.bytes[..], &encoded[..]);

        // The old path: decode fields + payload, re-encode from scratch.
        let mut dec = FrameDecoder::new();
        dec.feed(&encoded);
        let frame = dec.next_frame().expect("valid frame").expect("complete");
        let reencoded = encode_frame_to_vec(frame.kind, frame.origin, frame.seq, &frame.payload);
        prop_assert_eq!(&raw.bytes[..], &reencoded[..]);

        // And the raw header fields match the decoded ones.
        prop_assert_eq!(raw.kind, frame.kind);
        prop_assert_eq!(raw.origin, frame.origin);
        prop_assert_eq!(raw.seq, frame.seq);
        prop_assert_eq!(raw.payload(), &frame.payload[..]);
    }

    /// The split head/tail encoding the tracer queue uses (header+prefix
    /// materialized, payload shared) concatenates to exactly the
    /// contiguous encoding for any prefix split point.
    #[test]
    fn split_head_tail_encoding_is_contiguous_encoding(
        kind in data_kind_strategy(),
        origin in any::<u32>(),
        seq in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..256),
        split in 0usize..=256,
    ) {
        let split = split.min(payload.len());
        let (prefix, tail) = payload.split_at(split);
        let head = encode_frame_head(kind, origin, seq, prefix, tail);
        let mut joined = head.clone();
        joined.extend_from_slice(tail);
        let contiguous = encode_frame_to_vec(kind, origin, seq, &payload);
        prop_assert_eq!(joined, contiguous);
    }

    /// A coalesced batch is the plain concatenation of its frames: a
    /// decoder fed the batch yields every frame, bitwise intact, in
    /// order — regardless of how the bytes are re-chunked in transit.
    #[test]
    fn coalesced_batch_decodes_to_the_same_frames(
        seed_payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..8),
        chunk in 1usize..64,
    ) {
        let mut batch = Vec::new();
        let mut originals = Vec::new();
        for (i, payload) in seed_payloads.iter().enumerate() {
            let encoded = encode_frame_to_vec(FrameKind::DataBatch, 7, i as u64, payload);
            batch.extend_from_slice(&encoded);
            originals.push(encoded);
        }
        let mut dec = FrameDecoder::new();
        let mut decoded = Vec::new();
        for piece in batch.chunks(chunk) {
            dec.feed(piece);
            while let Some(raw) = dec.next_raw().expect("clean batch") {
                decoded.push(raw.bytes.to_vec());
            }
        }
        prop_assert_eq!(decoded, originals);
    }

    /// Any single bit flip in a relayed envelope is caught downstream:
    /// the analyzer-side decoder rejects the frame (or, for flips that
    /// inflate the length claim, starves without producing it). This is
    /// what lets the broker skip payload inspection entirely.
    #[test]
    fn bit_flipped_relay_is_rejected_downstream(
        payload in prop::collection::vec(any::<u8>(), 0..128),
        flip_at in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut encoded = encode_frame_to_vec(FrameKind::DataBatch, 3, 9, &payload);
        let i = (flip_at % encoded.len() as u64) as usize;
        encoded[i] ^= 1 << bit;
        let mut dec = FrameDecoder::new();
        dec.feed(&encoded);
        if let Ok(Some(_)) = dec.next_raw() {
            prop_assert!(false, "damaged envelope accepted");
        }
    }
}

/// The streaming CRC identity `crc32(crc32(0, a), b) == crc32(0, a ++ b)`
/// that `encode_frame_head` relies on to checksum a payload it never
/// copies — checked across chunk sizes that exercise the slice-by-8 fast
/// path and its scalar remainder.
#[test]
fn streaming_crc_identity_across_chunkings() {
    let data: Vec<u8> = (0u16..1021).map(|i| (i * 31 % 251) as u8).collect();
    let oneshot = crc32(0, &data);
    for split in [0, 1, 7, 8, 9, 63, 64, 65, 512, 1020, 1021] {
        let (a, b) = data.split_at(split);
        assert_eq!(crc32(crc32(0, a), b), oneshot, "split {split}");
    }
}

/// Truncating a coalesced batch mid-frame delivers exactly the complete
/// frames before the cut and never invents or alters one — the broker
/// writer can die mid-`write_vectored` without corrupting a subscriber.
#[test]
fn truncation_mid_coalesced_batch_poisons_cleanly() {
    let mut batch = Vec::new();
    let mut frames = Vec::new();
    for seq in 0..5u64 {
        let payload: Vec<u8> = (0..17 * (seq + 1)).map(|i| (i * 7) as u8).collect();
        let encoded = encode_frame_to_vec(FrameKind::DataBatch, 2, seq, &payload);
        frames.push(encoded.clone());
        batch.extend_from_slice(&encoded);
    }
    let mut starts = vec![0usize];
    for f in &frames {
        starts.push(starts.last().unwrap() + f.len());
    }
    for cut in 0..batch.len() {
        let mut dec = FrameDecoder::new();
        dec.feed(&batch[..cut]);
        let mut got = Vec::new();
        loop {
            match dec.next_raw() {
                Ok(Some(raw)) => got.push(raw.bytes.to_vec()),
                Ok(None) => break,
                Err(e) => panic!("cut {cut}: truncation must not be an error yet: {e:?}"),
            }
        }
        let complete = starts[1..].iter().filter(|&&s| s <= cut).count();
        assert_eq!(got.len(), complete, "cut {cut}");
        for (a, b) in got.iter().zip(&frames) {
            assert_eq!(a, b, "cut {cut}: relayed frame altered");
        }
    }
}

/// Sanity anchor for the envelope layout constants the pass-through path
/// depends on: header length and CRC position. If the layout drifts,
/// this fails before any subtle relay bug does.
#[test]
fn envelope_layout_anchors() {
    let encoded = encode_frame_to_vec(
        FrameKind::DataBatch,
        0xAABB_CCDD,
        0x0102_0304_0506_0708,
        b"xyz",
    );
    assert_eq!(encoded.len(), HEADER_LEN + 3);
    assert_eq!(&encoded[..4], b"E2EN");
    // CRC covers version..len plus payload and sits in the last 4 header
    // bytes.
    let expect = crc32(crc32(0, &encoded[4..HEADER_LEN - 4]), b"xyz");
    let stored = u32::from_be_bytes(encoded[HEADER_LEN - 4..HEADER_LEN].try_into().unwrap());
    assert_eq!(stored, expect);
}
