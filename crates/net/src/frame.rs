//! Transport framing: length-prefixed, checksummed envelopes around the
//! `E2EP` wire frames of [`e2eprof_timeseries::wire`].
//!
//! The socket layer never interprets series payloads — it moves opaque,
//! self-delimiting envelopes:
//!
//! ```text
//! magic  "E2EN"          4 bytes
//! version = 1            1 byte
//! kind                   1 byte   (control or data, see [`FrameKind`])
//! origin                 4 bytes  BE u32 — sending tracer's node index
//! seq                    8 bytes  BE u64 — per-origin sequence number
//! len                    4 bytes  BE u32 — payload length, capped
//! crc                    4 bytes  BE u32 — CRC-32 over version..len + payload
//! payload                len bytes
//! ```
//!
//! Every declared length is capped against [`MAX_PAYLOAD_LEN`] *before*
//! any allocation, and the CRC covers both the header fields and the
//! payload, so any single-bit flip anywhere in the envelope — including
//! the sequence number — surfaces as a typed [`FrameError`], never as a
//! silently different frame.
//!
//! Decoding is *sans-io*: [`FrameDecoder`] is fed raw bytes and yields
//! complete frames, so the same code path runs under blocking sockets,
//! in-memory pipes, and the deterministic fault-injection harness.

use bytes::Bytes;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Magic prefix of every transport envelope.
pub const NET_MAGIC: &[u8; 4] = b"E2EN";
/// Transport framing version.
pub const NET_VERSION: u8 = 1;
/// Fixed envelope header size in bytes.
pub const HEADER_LEN: usize = 26;
/// Upper bound on a payload's declared length (64 MiB). A tracer flush is
/// a few KiB; anything near this cap is corruption, not data.
pub const MAX_PAYLOAD_LEN: u32 = 64 << 20;

/// What an envelope carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Peer introduction (first frame on every connection).
    Hello = 1,
    /// A subscriber's resume positions; it then receives every stream.
    /// Byte 2 stays unassigned, so a peer still announcing edges under
    /// it is refused with `BadKind(2)` rather than misread.
    Subscribe = 3,
    /// An `E2EP` batch frame (all series of one tracer flush).
    DataBatch = 4,
    /// A wire-v1 `E2EP` series frame, prefixed by its 8-byte edge key. No
    /// producer in this repo; removal waits for a `benchmark` PR.
    DataSeries = 5,
    // Bytes 6 and 7 carried the retired edge-side reduction tier's hints
    // and backfills; they stay unassigned and decode as `BadKind`.
}

impl FrameKind {
    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Hello),
            3 => Some(FrameKind::Subscribe),
            4 => Some(FrameKind::DataBatch),
            5 => Some(FrameKind::DataSeries),
            _ => None,
        }
    }

    /// Whether this kind carries tracer series data (vs. control).
    pub fn is_data(self) -> bool {
        matches!(self, FrameKind::DataBatch | FrameKind::DataSeries)
    }
}

/// One decoded transport envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// Node index of the originating tracer (0 for analyzer control).
    pub origin: u32,
    /// Per-origin sequence number (data frames; 0 for control).
    pub seq: u64,
    /// The opaque payload.
    pub payload: Bytes,
}

/// Errors surfaced by the transport decoder. Every corruption mode the
/// fault corpus injects maps to one of these — the decoder never panics
/// and never allocates from an attacker-controlled length.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The stream does not begin with the `E2EN` magic (garbage between
    /// frames, or a desynchronized peer).
    BadMagic,
    /// Unknown transport framing version.
    UnsupportedVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD_LEN`].
    Oversized(u32),
    /// CRC mismatch: the envelope was damaged in transit.
    ChecksumMismatch,
    /// A control payload whose envelope verified but whose body does not
    /// parse: the wrong length for its counts, or an unknown role.
    Malformed,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "stream does not start with E2EN magic"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported transport version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Oversized(n) => write!(f, "declared payload of {n} bytes exceeds cap"),
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            FrameError::Malformed => write!(f, "malformed control payload"),
        }
    }
}

impl Error for FrameError {}

/// Byte-indexed CRC-32 lookup table for the reflected IEEE polynomial,
/// built at compile time. One table lookup per byte replaces the eight
/// conditional shifts of the bitwise form — the checksum is the only
/// per-byte work left on the broker's pass-through path, so it is worth
/// keeping cheap.
/// Slice-by-8 lookup tables: `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[n][i]` extends `TABLES[n-1][i]` by one more zero byte,
/// letting the hot loop fold eight input bytes per iteration with eight
/// independent loads instead of eight dependent shift-xor steps.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut n = 1;
    while n < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[n - 1][i];
            tables[n][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        n += 1;
    }
    tables
};

/// CRC-32 (IEEE, reflected polynomial 0xEDB88320) over `bytes`, continuing
/// from `crc` (start with `0`).
pub fn crc32(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = CRC32_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC32_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[4][(lo >> 24) as usize]
            ^ CRC32_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC32_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Encodes one envelope into `out`, appending (callers batch several
/// frames into one write).
pub fn encode_frame(kind: FrameKind, origin: u32, seq: u64, payload: &[u8], out: &mut Vec<u8>) {
    assert!(
        payload.len() as u64 <= u64::from(MAX_PAYLOAD_LEN),
        "payload exceeds transport cap"
    );
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(NET_MAGIC);
    let body_start = out.len();
    out.push(NET_VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&origin.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    let crc = crc32(crc32(0, &out[body_start..]), payload);
    out.extend_from_slice(&crc.to_be_bytes());
    out.extend_from_slice(payload);
}

/// Encodes one envelope into a fresh buffer.
pub fn encode_frame_to_vec(kind: FrameKind, origin: u32, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    encode_frame(kind, origin, seq, payload, &mut out);
    out
}

/// Encodes the envelope *head* — header plus an optional payload prefix —
/// for a frame whose logical payload is `prefix ++ tail`, without copying
/// `tail`. The returned buffer concatenated with `tail` is byte-identical
/// to `encode_frame_to_vec(kind, origin, seq, prefix ++ tail)`.
///
/// This is the zero-copy send-queue primitive: the tracer link keeps the
/// (small, owned) head and the (shared, refcounted) tail as separate
/// gather segments and hands both to a vectored write.
pub fn encode_frame_head(
    kind: FrameKind,
    origin: u32,
    seq: u64,
    prefix: &[u8],
    tail: &[u8],
) -> Vec<u8> {
    let len = prefix.len() as u64 + tail.len() as u64;
    assert!(
        len <= u64::from(MAX_PAYLOAD_LEN),
        "payload exceeds transport cap"
    );
    let mut out = Vec::with_capacity(HEADER_LEN + prefix.len());
    out.extend_from_slice(NET_MAGIC);
    let body_start = out.len();
    out.push(NET_VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&origin.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&(len as u32).to_be_bytes());
    let crc = crc32(crc32(crc32(0, &out[body_start..]), prefix), tail);
    out.extend_from_slice(&crc.to_be_bytes());
    out.extend_from_slice(prefix);
    out
}

/// One *validated but undecoded* transport envelope: the header fields the
/// relay needs for routing plus the complete envelope bytes (header and
/// payload) as a shared, refcounted slice.
///
/// This is the broker's pass-through currency. The CRC in the header
/// covers everything after the magic, so a frame that passed
/// [`FrameDecoder::next_raw`] validation can be forwarded byte-for-byte —
/// re-encoding it would reproduce exactly these bytes (see the
/// `passthrough` proptests) — and any damage introduced *after* relay is
/// still caught by the receiving decoder's own CRC check.
#[derive(Debug, Clone)]
pub struct RawFrame {
    /// What the payload is.
    pub kind: FrameKind,
    /// Node index of the originating tracer (0 for analyzer control).
    pub origin: u32,
    /// Per-origin sequence number (data frames; 0 for control).
    pub seq: u64,
    /// The complete envelope: header followed by payload.
    pub bytes: Arc<[u8]>,
}

impl RawFrame {
    /// The payload bytes (everything after the fixed header).
    pub fn payload(&self) -> &[u8] {
        &self.bytes[HEADER_LEN..]
    }
}

/// Incremental, sans-io transport decoder.
///
/// Feed it raw bytes as they arrive; [`next_frame`](Self::next_frame)
/// yields complete envelopes. A framing error poisons the decoder (the
/// stream position is no longer trustworthy) — the connection must be
/// dropped and re-established.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    pos: usize,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Attempts to decode the next complete envelope.
    ///
    /// Returns `Ok(None)` when more bytes are needed. Any framing error is
    /// sticky: once returned, every later call returns it again.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        match self.next_validated()? {
            None => Ok(None),
            Some(v) => {
                let avail = &self.buf[self.pos..];
                let frame = Frame {
                    kind: v.kind,
                    origin: v.origin,
                    seq: v.seq,
                    payload: Bytes::copy_from_slice(&avail[HEADER_LEN..v.total]),
                };
                self.pos += v.total;
                Ok(Some(frame))
            }
        }
    }

    /// Attempts to validate the next complete envelope *without decoding
    /// it*: header fields and CRC are checked exactly as in
    /// [`next_frame`](Self::next_frame), but the payload is never parsed or
    /// re-encoded — the whole envelope is copied once out of the stream
    /// buffer into a shared `Arc<[u8]>` ready for byte-for-byte relay.
    ///
    /// Same contract otherwise: `Ok(None)` means more bytes are needed,
    /// and any framing error is sticky.
    pub fn next_raw(&mut self) -> Result<Option<RawFrame>, FrameError> {
        match self.next_validated()? {
            None => Ok(None),
            Some(v) => {
                let avail = &self.buf[self.pos..];
                let frame = RawFrame {
                    kind: v.kind,
                    origin: v.origin,
                    seq: v.seq,
                    bytes: Arc::from(&avail[..v.total]),
                };
                self.pos += v.total;
                Ok(Some(frame))
            }
        }
    }

    /// Shared validation: header bounds, kind, length cap, and CRC over
    /// header-after-magic plus payload. Does not consume bytes — callers
    /// advance `pos` by `total` after materializing their frame view.
    fn next_validated(&mut self) -> Result<Option<Validated>, FrameError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        match self.validate() {
            Ok(v) => Ok(v),
            Err(err) => {
                self.poisoned = Some(err.clone());
                Err(err)
            }
        }
    }

    fn validate(&self) -> Result<Option<Validated>, FrameError> {
        let avail = &self.buf[self.pos..];
        let Some((header, _)) = avail.split_first_chunk::<HEADER_LEN>() else {
            // Header incomplete — but reject a provably bad magic early so
            // garbage shorter than a header still errors out.
            let n = avail.len().min(4);
            if avail[..n] != NET_MAGIC[..n] {
                return Err(FrameError::BadMagic);
            }
            return Ok(None);
        };
        let [m0, m1, m2, m3, version, kind, o0, o1, o2, o3, rest @ ..] = *header;
        let [s0, s1, s2, s3, s4, s5, s6, s7, l0, l1, l2, l3, c0, c1, c2, c3] = rest;
        if [m0, m1, m2, m3] != *NET_MAGIC {
            return Err(FrameError::BadMagic);
        }
        if version != NET_VERSION {
            return Err(FrameError::UnsupportedVersion(version));
        }
        let kind = FrameKind::from_byte(kind).ok_or(FrameError::BadKind(kind))?;
        let origin = u32::from_be_bytes([o0, o1, o2, o3]);
        let seq = u64::from_be_bytes([s0, s1, s2, s3, s4, s5, s6, s7]);
        let len = u32::from_be_bytes([l0, l1, l2, l3]);
        // The length cap guards the buffer growth below: a flipped length
        // bit cannot make us wait for (or allocate) gigabytes.
        if len > MAX_PAYLOAD_LEN {
            return Err(FrameError::Oversized(len));
        }
        let declared_crc = u32::from_be_bytes([c0, c1, c2, c3]);
        let total = HEADER_LEN + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = &avail[HEADER_LEN..total];
        let actual = crc32(crc32(0, &header[4..22]), payload);
        if actual != declared_crc {
            return Err(FrameError::ChecksumMismatch);
        }
        Ok(Some(Validated {
            kind,
            origin,
            seq,
            total,
        }))
    }
}

/// Routing fields of a validated-but-unconsumed envelope.
struct Validated {
    kind: FrameKind,
    origin: u32,
    seq: u64,
    total: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_frame() {
        let payload = b"hello world".as_slice();
        let bytes = encode_frame_to_vec(FrameKind::DataBatch, 7, 42, payload);
        assert_eq!(bytes.len(), HEADER_LEN + payload.len());
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        let frame = dec.next_frame().unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::DataBatch);
        assert_eq!(frame.origin, 7);
        assert_eq!(frame.seq, 42);
        assert_eq!(frame.payload.as_ref(), payload);
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn byte_at_a_time_reassembly() {
        let mut stream = Vec::new();
        for i in 0..5u64 {
            encode_frame(FrameKind::DataBatch, 1, i, &[i as u8; 3], &mut stream);
        }
        let mut dec = FrameDecoder::new();
        let mut seqs = Vec::new();
        for b in &stream {
            dec.feed(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().unwrap() {
                seqs.push(f.seq);
            }
        }
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn empty_payload_is_fine() {
        let bytes = encode_frame_to_vec(FrameKind::Hello, 0, 0, &[]);
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        let frame = dec.next_frame().unwrap().unwrap();
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn garbage_prefix_is_bad_magic_and_sticky() {
        let mut dec = FrameDecoder::new();
        dec.feed(b"zz");
        assert_eq!(dec.next_frame(), Err(FrameError::BadMagic));
        // Poisoned: even after valid bytes arrive the error persists.
        dec.feed(&encode_frame_to_vec(FrameKind::Hello, 0, 0, &[]));
        assert_eq!(dec.next_frame(), Err(FrameError::BadMagic));
    }

    #[test]
    fn oversized_length_is_rejected_before_buffering() {
        let mut bytes = encode_frame_to_vec(FrameKind::DataBatch, 1, 1, &[0; 8]);
        bytes[18..22].copy_from_slice(&u32::MAX.to_be_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert_eq!(dec.next_frame(), Err(FrameError::Oversized(u32::MAX)));
    }

    #[test]
    fn crc_detects_payload_and_header_damage() {
        let good = encode_frame_to_vec(FrameKind::DataBatch, 3, 9, b"payload");
        // Flip one payload bit.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0x10;
        let mut dec = FrameDecoder::new();
        dec.feed(&bad);
        assert_eq!(dec.next_frame(), Err(FrameError::ChecksumMismatch));
        // Flip one sequence-number bit (structurally still a valid frame).
        let mut bad = good;
        bad[12] ^= 0x01;
        let mut dec = FrameDecoder::new();
        dec.feed(&bad);
        assert_eq!(dec.next_frame(), Err(FrameError::ChecksumMismatch));
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_streaming_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let oneshot = crc32(0, data);
        for split in 0..data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32(crc32(0, a), b), oneshot);
        }
    }

    #[test]
    fn raw_frame_bytes_are_identical_to_encoded_input() {
        let payload = b"opaque relay payload".as_slice();
        let encoded = encode_frame_to_vec(FrameKind::DataBatch, 9, 77, payload);
        let mut dec = FrameDecoder::new();
        dec.feed(&encoded);
        let raw = dec.next_raw().unwrap().unwrap();
        assert_eq!(raw.kind, FrameKind::DataBatch);
        assert_eq!(raw.origin, 9);
        assert_eq!(raw.seq, 77);
        assert_eq!(raw.bytes.as_ref(), encoded.as_slice());
        assert_eq!(raw.payload(), payload);
        assert!(dec.next_raw().unwrap().is_none());
    }

    #[test]
    fn next_raw_is_sticky_on_corruption() {
        let mut encoded = encode_frame_to_vec(FrameKind::DataBatch, 1, 1, b"x");
        *encoded.last_mut().unwrap() ^= 0x01;
        let mut dec = FrameDecoder::new();
        dec.feed(&encoded);
        assert_eq!(dec.next_raw().unwrap_err(), FrameError::ChecksumMismatch);
        dec.feed(&encode_frame_to_vec(FrameKind::DataBatch, 1, 2, b"y"));
        assert_eq!(dec.next_raw().unwrap_err(), FrameError::ChecksumMismatch);
        assert_eq!(dec.next_frame().unwrap_err(), FrameError::ChecksumMismatch);
    }

    #[test]
    fn encode_frame_head_matches_contiguous_encoding() {
        let prefix = 0xDEAD_BEEF_0BAD_CAFE_u64.to_be_bytes();
        let tail = b"series bytes".as_slice();
        let mut whole = prefix.to_vec();
        whole.extend_from_slice(tail);
        let reference = encode_frame_to_vec(FrameKind::DataSeries, 3, 12, &whole);
        let head = encode_frame_head(FrameKind::DataSeries, 3, 12, &prefix, tail);
        let mut gathered = head.clone();
        gathered.extend_from_slice(tail);
        assert_eq!(gathered, reference);
        // Empty prefix (the batch shape).
        let head = encode_frame_head(FrameKind::DataBatch, 3, 13, &[], tail);
        let mut gathered = head;
        gathered.extend_from_slice(tail);
        assert_eq!(
            gathered,
            encode_frame_to_vec(FrameKind::DataBatch, 3, 13, tail)
        );
    }
}
