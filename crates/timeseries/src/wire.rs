//! Wire encoding for streaming RLE series from tracers to the analyzer.
//!
//! The paper's `tracer` kernel module streams RLE-encoded time series from
//! each service node to a central analysis node. This module provides the
//! equivalent byte format: one *batch* frame per tracer flush carrying
//! every series the agent owns, with LEB128 varint lengths, delta-encoded
//! run starts, and an optional lossless integer-count amplitude encoding
//! ([`BatchWriter`] / [`encode_batch`] / [`decode_batch`] /
//! [`FrameCursor`]). Density amplitudes are `√n` for an integer message
//! count `n`, so shipping the varint count and reconstructing
//! `(n as f64).sqrt()` reproduces the float bit-for-bit in a few bytes
//! instead of eight.
//!
//! The format is version 2 behind the `E2EP` magic. Version 1 — one series
//! per frame, a small header followed by fixed-width 20-byte run records
//! ([`encode`] / [`decode`]) — has no producer in this repository any more;
//! its codec stays for the readers that still match on it (the end-to-end
//! benchmark's probes) and its removal waits for a `benchmark` PR.
//!
//! Both formats are versioned and length-checked so a truncated or corrupt
//! stream is detected rather than misparsed.

use crate::density::CountRun;
use crate::rle::{RleSeries, Run};
use crate::time::Tick;
use bytes::{Buf, Bytes};
use std::error::Error;
use std::fmt;

/// Format version byte of the original one-series-per-frame format.
const WIRE_VERSION: u8 = 1;
/// Format version byte of the batched varint format.
const WIRE_VERSION_V2: u8 = 2;
/// Magic prefix identifying an E2EProf series frame.
const WIRE_MAGIC: &[u8; 4] = b"E2EP";
/// v2 flags-byte bit: run amplitudes use the integer-count encoding.
const FLAG_INT_AMP: u8 = 0b0000_0001;
/// Smallest possible encoded run: 1-byte gap + 1-byte length + 1-byte
/// amplitude code (integer-amplitude mode). Used to cap declared run
/// counts against the bytes actually present before any allocation.
const MIN_RUN_BYTES_INT_AMP: u64 = 3;
/// Smallest encoded run without integer amplitudes: 1 + 1 + 8 raw bytes.
const MIN_RUN_BYTES_RAW: u64 = 10;
/// Smallest encoded batch entry: five varints (src, dst, start, len,
/// num_runs), one byte each.
const MIN_ENTRY_BYTES: u64 = 5;

/// Errors produced when decoding a series frame.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The frame does not begin with the expected magic bytes.
    BadMagic,
    /// The frame uses an unsupported format version.
    UnsupportedVersion(u8),
    /// The frame ended before the declared content.
    Truncated,
    /// The decoded runs violate series invariants (overlap / out of span).
    Corrupt(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "frame does not start with E2EP magic"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::Truncated => write!(f, "frame truncated before declared content"),
            DecodeError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
        }
    }
}

impl Error for DecodeError {}

/// Encodes a series into a self-describing v1 byte frame.
///
/// No producer in this repository: tracers ship v2 batches
/// ([`BatchWriter`]). Kept with [`encode_into`] and [`decode`] for the
/// readers that still call them; removal waits for a `benchmark` PR.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::{wire, RleSeries, Run, Tick};
/// let series = RleSeries::from_parts(Tick::new(3), 10, vec![Run::new(Tick::new(4), 2, 1.5)]);
/// let frame = wire::encode(&series);
/// let back = wire::decode(&frame)?;
/// assert_eq!(back, series);
/// # Ok::<(), wire::DecodeError>(())
/// ```
pub fn encode(series: &RleSeries) -> Bytes {
    let mut buf = Vec::new();
    encode_into(series, &mut buf);
    Bytes::from(buf)
}

/// Encodes a series into `out`, clearing it first.
///
/// Byte-for-byte identical to [`encode`], into a reusable buffer.
pub fn encode_into(series: &RleSeries, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(4 + 1 + 8 + 8 + 4 + series.num_runs() * 20);
    out.extend_from_slice(WIRE_MAGIC);
    out.push(WIRE_VERSION);
    out.extend_from_slice(&series.start().index().to_be_bytes());
    out.extend_from_slice(&series.len().to_be_bytes());
    out.extend_from_slice(&(series.num_runs() as u32).to_be_bytes());
    for r in series.runs() {
        out.extend_from_slice(&r.start().index().to_be_bytes());
        out.extend_from_slice(
            &u32::try_from(r.len())
                .expect("run length exceeds u32")
                .to_be_bytes(),
        );
        out.extend_from_slice(&r.value().to_be_bytes());
    }
}

/// Decodes a byte frame produced by [`encode`].
///
/// # Errors
///
/// Returns a [`DecodeError`] if the frame is malformed, truncated, or
/// violates series invariants.
pub fn decode(mut frame: &[u8]) -> Result<RleSeries, DecodeError> {
    if frame.remaining() < 5 {
        return Err(DecodeError::Truncated);
    }
    let mut magic = [0u8; 4];
    frame.copy_to_slice(&mut magic);
    if &magic != WIRE_MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = frame.get_u8();
    if version != WIRE_VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    if frame.remaining() < 20 {
        return Err(DecodeError::Truncated);
    }
    let start = Tick::new(frame.get_u64());
    let len = frame.get_u64();
    let num_runs = frame.get_u32() as usize;
    if frame.remaining() < num_runs * 20 {
        return Err(DecodeError::Truncated);
    }
    let mut runs = Vec::with_capacity(num_runs);
    let mut prev_end: Option<u64> = None;
    for _ in 0..num_runs {
        let rs = frame.get_u64();
        let rl = frame.get_u32() as u64;
        let rv = frame.get_f64();
        if rl == 0 {
            return Err(DecodeError::Corrupt("zero-length run"));
        }
        if rv == 0.0 || !rv.is_finite() {
            return Err(DecodeError::Corrupt("zero or non-finite run value"));
        }
        if rs < start.index() || rs + rl > start.index() + len {
            return Err(DecodeError::Corrupt("run outside declared span"));
        }
        if let Some(pe) = prev_end {
            if rs < pe {
                return Err(DecodeError::Corrupt("runs overlap or out of order"));
            }
        }
        prev_end = Some(rs + rl);
        runs.push(Run::new(Tick::new(rs), rl, rv));
    }
    Ok(RleSeries::from_parts(start, len, runs))
}

/// Peeks the format version of a frame without decoding it.
///
/// # Errors
///
/// [`DecodeError::Truncated`] if the frame is shorter than the magic plus
/// version byte, [`DecodeError::BadMagic`] if the magic does not match.
/// Unknown versions are returned as-is — dispatchers decide what is
/// supported.
pub fn frame_version(frame: &[u8]) -> Result<u8, DecodeError> {
    if frame.len() < 5 {
        return Err(DecodeError::Truncated);
    }
    if &frame[..4] != WIRE_MAGIC {
        return Err(DecodeError::BadMagic);
    }
    Ok(frame[4])
}

/// Appends `v` to `out` as an LEB128 varint (7 data bits per byte, low
/// bits first, high bit marks continuation).
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Reads one LEB128 varint, advancing the slice.
fn get_varint(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    // Single-byte fast path: run gaps, lengths, and message counts are
    // almost always below 128, and decode sits on the ingest hot path.
    if let Some((&b, rest)) = buf.split_first() {
        if b & 0x80 == 0 {
            *buf = rest;
            return Ok(b as u64);
        }
    }
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some((&b, rest)) = buf.split_first() else {
            return Err(DecodeError::Truncated);
        };
        *buf = rest;
        let bits = (b & 0x7f) as u64;
        if shift == 63 && bits > 1 {
            return Err(DecodeError::Corrupt("varint overflows u64"));
        }
        v |= bits << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecodeError::Corrupt("varint longer than ten bytes"));
        }
    }
}

/// The integer-count amplitude code for `value`, if lossless: the `n ≥ 1`
/// with `(n as f64).sqrt()` bit-identical to `value`. Density amplitudes
/// are √(message count), so this hits for every value the estimator emits.
fn int_amp_code(value: f64) -> Option<u64> {
    if value.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return None; // zero, negative, or NaN
    }
    let n = (value * value).round();
    if !(1.0..=9.007_199_254_740_992e15).contains(&n) {
        return None; // zero, or beyond f64's exact-integer range (2^53)
    }
    let n = n as u64;
    if (n as f64).sqrt().to_bits() == value.to_bits() {
        Some(n)
    } else {
        None
    }
}

/// Encodes a batch of keyed series into one v2 frame.
///
/// `entries` carry an opaque `(u32, u32)` key per series (the analyzer
/// uses directed-edge node indices); with `int_amp`, amplitudes that are
/// exactly `√n` for integer `n` ship as the varint count.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::{wire, RleSeries, Run, Tick};
/// let s = RleSeries::from_parts(Tick::new(3), 10, vec![Run::new(Tick::new(4), 2, 2f64.sqrt())]);
/// let frame = wire::encode_batch(&[((0, 1), s.clone())], true);
/// let back = wire::decode_batch(&frame)?;
/// assert_eq!(back, vec![((0, 1), s)]);
/// # Ok::<(), wire::DecodeError>(())
/// ```
pub fn encode_batch<S: std::borrow::Borrow<RleSeries>>(
    entries: &[((u32, u32), S)],
    int_amp: bool,
) -> Bytes {
    let mut buf = Vec::new();
    encode_batch_into(entries, int_amp, &mut buf);
    Bytes::from(buf)
}

/// Encodes a batch into `out`, clearing it first (byte-for-byte identical
/// to [`encode_batch`]); exists so callers can reuse one frame buffer.
pub fn encode_batch_into<S: std::borrow::Borrow<RleSeries>>(
    entries: &[((u32, u32), S)],
    int_amp: bool,
    out: &mut Vec<u8>,
) {
    let mut writer = BatchWriter::new(out, int_amp);
    for (key, series) in entries {
        writer.series(*key, series.borrow());
    }
    writer.finish();
}

/// Byte offset of a batch frame's entry-count varint: magic, version,
/// flags.
const ENTRY_COUNT_AT: usize = 6;

/// Writes one v2 batch frame entry by entry, without the caller knowing
/// the entry count up front or holding the series it ships — the form the
/// tracer's flush uses to stream count runs straight from its density
/// estimators into a reused buffer. [`encode_batch_into`] is this writer
/// over a slice, so there is one definition of the format.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::density::CountRun;
/// use e2eprof_timeseries::{wire, RleSeries, Run, Tick};
/// let mut buf = Vec::new();
/// let mut writer = wire::BatchWriter::new(&mut buf, true);
/// let runs = [CountRun { start: Tick::new(4), len: 2, count: 2 }];
/// writer.count_runs((0, 1), Tick::new(3), 10, &runs);
/// assert_eq!(writer.finish(), 1);
/// let s = RleSeries::from_parts(Tick::new(3), 10, vec![Run::new(Tick::new(4), 2, 2f64.sqrt())]);
/// assert_eq!(&buf[..], &wire::encode_batch(&[((0, 1), s)], true)[..]);
/// ```
#[derive(Debug)]
pub struct BatchWriter<'a> {
    out: &'a mut Vec<u8>,
    int_amp: bool,
    entries: u64,
}

impl<'a> BatchWriter<'a> {
    /// Starts a frame in `out`, clearing it first. With `int_amp`,
    /// amplitudes that are exactly `√n` for an integer `n` ship as the
    /// varint count.
    pub fn new(out: &'a mut Vec<u8>, int_amp: bool) -> Self {
        out.clear();
        out.extend_from_slice(WIRE_MAGIC);
        out.push(WIRE_VERSION_V2);
        out.push(if int_amp { FLAG_INT_AMP } else { 0 });
        debug_assert_eq!(out.len(), ENTRY_COUNT_AT);
        out.push(0); // entry count: patched by `finish`
        BatchWriter {
            out,
            int_amp,
            entries: 0,
        }
    }

    fn entry_header(&mut self, key: (u32, u32), start: Tick, len: u64, runs: usize) {
        self.entries += 1;
        put_varint(self.out, u64::from(key.0));
        put_varint(self.out, u64::from(key.1));
        put_varint(self.out, start.index());
        put_varint(self.out, len);
        put_varint(self.out, runs as u64);
    }

    /// Appends one series under `key`.
    pub fn series(&mut self, key: (u32, u32), series: &RleSeries) {
        self.entry_header(key, series.start(), series.len(), series.num_runs());
        let mut prev_end = series.start().index();
        for r in series.runs() {
            put_varint(self.out, r.start().index() - prev_end);
            put_varint(self.out, r.len());
            prev_end = r.end().index();
            match int_amp_code(r.value()).filter(|_| self.int_amp) {
                Some(n) => put_varint(self.out, n),
                None => {
                    if self.int_amp {
                        put_varint(self.out, 0); // escape: raw f64 follows
                    }
                    self.out.extend_from_slice(&r.value().to_be_bytes());
                }
            }
        }
    }

    /// Appends the series spanning `[start, start + len)` whose runs are
    /// `runs`, amplitudes `√count` — the bytes [`series`](Self::series)
    /// writes for the same series, but the integer-amplitude code *is* the
    /// count, so no square root is taken only to be squared again.
    pub fn count_runs(&mut self, key: (u32, u32), start: Tick, len: u64, runs: &[CountRun]) {
        self.entry_header(key, start, len, runs.len());
        let mut prev_end = start.index();
        for r in runs {
            debug_assert!(r.len > 0 && r.count > 0, "empty count run");
            put_varint(self.out, r.start.index() - prev_end);
            put_varint(self.out, r.len);
            prev_end = r.start.index() + r.len;
            if self.int_amp {
                put_varint(self.out, r.count);
            } else {
                self.out.extend_from_slice(&r.value().to_be_bytes());
            }
        }
    }

    /// Completes the frame by filling in the entry count; returns it.
    pub fn finish(self) -> u64 {
        if self.entries < 0x80 {
            self.out[ENTRY_COUNT_AT] = self.entries as u8;
        } else {
            // A count past one varint byte shifts the entries up; 128
            // series in one flush is far off the common path.
            let mut count = Vec::with_capacity(10);
            put_varint(&mut count, self.entries);
            self.out.splice(ENTRY_COUNT_AT..=ENTRY_COUNT_AT, count);
        }
        self.entries
    }
}

/// Header of one series inside a v2 batch frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchEntry {
    /// The opaque series key (the analyzer's directed-edge node indices).
    pub key: (u32, u32),
    /// First tick of the series span.
    pub start: Tick,
    /// Span length in ticks.
    pub len: u64,
    /// Number of runs that follow, already capped against the bytes
    /// actually remaining in the frame.
    pub num_runs: u64,
}

impl BatchEntry {
    /// One past the last tick of the series span.
    pub fn end(&self) -> Tick {
        self.start + self.len
    }
}

/// A validating zero-copy cursor over a v2 batch frame.
///
/// Walks entry headers and runs directly off the frame bytes without
/// materializing intermediate [`RleSeries`] — the analyzer streams
/// [`next_run`](FrameCursor::next_run) straight into
/// [`SlidingWindow::extend_runs`](crate::window::SlidingWindow::extend_runs).
/// Every run is validated exactly as strictly as the v1 decoder (non-zero
/// length, finite non-zero value, inside the declared span; overlap is
/// structurally impossible since run starts are gap-encoded). Declared
/// counts are capped against the remaining frame length before any use, so
/// a corrupt frame can never trigger an outsized allocation downstream.
#[derive(Debug, Clone)]
pub struct FrameCursor<'a> {
    buf: &'a [u8],
    int_amp: bool,
    /// Entries not yet returned by `next_entry`.
    entries_left: u64,
    /// Runs of the current entry not yet returned by `next_run`.
    runs_left: u64,
    span_end: u64,
    prev_end: u64,
}

impl<'a> FrameCursor<'a> {
    /// Opens a cursor over `frame`, validating the v2 header.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on a bad magic, a version other than 2,
    /// unknown flag bits, or a truncated header.
    pub fn new(frame: &'a [u8]) -> Result<Self, DecodeError> {
        let version = frame_version(frame)?;
        if version != WIRE_VERSION_V2 {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let mut buf = &frame[5..];
        let Some((&flags, rest)) = buf.split_first() else {
            return Err(DecodeError::Truncated);
        };
        buf = rest;
        if flags & !FLAG_INT_AMP != 0 {
            return Err(DecodeError::Corrupt("unknown flag bits"));
        }
        let entries_left = get_varint(&mut buf)?;
        if entries_left
            .checked_mul(MIN_ENTRY_BYTES)
            .is_none_or(|need| need > buf.len() as u64)
        {
            return Err(DecodeError::Truncated);
        }
        Ok(FrameCursor {
            buf,
            int_amp: flags & FLAG_INT_AMP != 0,
            entries_left,
            runs_left: 0,
            span_end: 0,
            prev_end: 0,
        })
    }

    /// Whether amplitudes use the integer-count encoding.
    pub fn int_amp(&self) -> bool {
        self.int_amp
    }

    /// Entries not yet returned by [`next_entry`](Self::next_entry).
    pub fn entries_remaining(&self) -> u64 {
        self.entries_left
    }

    /// Advances to the next series header, first draining (and validating)
    /// any unread runs of the current entry. Returns `None` after the last
    /// entry — at which point any trailing garbage is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the frame is truncated or any skipped
    /// run is invalid.
    pub fn next_entry(&mut self) -> Result<Option<BatchEntry>, DecodeError> {
        while self.runs_left > 0 {
            self.next_run()?;
        }
        if self.entries_left == 0 {
            if !self.buf.is_empty() {
                return Err(DecodeError::Corrupt("trailing bytes after last series"));
            }
            return Ok(None);
        }
        self.entries_left -= 1;
        let src = get_varint(&mut self.buf)?;
        let dst = get_varint(&mut self.buf)?;
        let key = (
            u32::try_from(src).map_err(|_| DecodeError::Corrupt("series key exceeds u32"))?,
            u32::try_from(dst).map_err(|_| DecodeError::Corrupt("series key exceeds u32"))?,
        );
        let start = get_varint(&mut self.buf)?;
        let len = get_varint(&mut self.buf)?;
        let num_runs = get_varint(&mut self.buf)?;
        let span_end = start
            .checked_add(len)
            .ok_or(DecodeError::Corrupt("series span overflows"))?;
        let min_run_bytes = if self.int_amp {
            MIN_RUN_BYTES_INT_AMP
        } else {
            MIN_RUN_BYTES_RAW
        };
        if num_runs
            .checked_mul(min_run_bytes)
            .is_none_or(|need| need > self.buf.len() as u64)
        {
            return Err(DecodeError::Truncated);
        }
        self.runs_left = num_runs;
        self.span_end = span_end;
        self.prev_end = start;
        Ok(Some(BatchEntry {
            key,
            start: Tick::new(start),
            len,
            num_runs,
        }))
    }

    /// Decodes the next run of the current entry; `None` once the entry's
    /// declared runs are exhausted.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the frame is truncated or the run
    /// violates series invariants.
    pub fn next_run(&mut self) -> Result<Option<Run>, DecodeError> {
        if self.runs_left == 0 {
            return Ok(None);
        }
        let gap = get_varint(&mut self.buf)?;
        let len = get_varint(&mut self.buf)?;
        if len == 0 {
            return Err(DecodeError::Corrupt("zero-length run"));
        }
        let run_start = self
            .prev_end
            .checked_add(gap)
            .ok_or(DecodeError::Corrupt("run outside declared span"))?;
        let run_end = run_start
            .checked_add(len)
            .ok_or(DecodeError::Corrupt("run outside declared span"))?;
        if run_end > self.span_end {
            return Err(DecodeError::Corrupt("run outside declared span"));
        }
        let value = if self.int_amp {
            match get_varint(&mut self.buf)? {
                0 => self.get_raw_f64()?,
                n => (n as f64).sqrt(),
            }
        } else {
            self.get_raw_f64()?
        };
        if value == 0.0 || !value.is_finite() {
            return Err(DecodeError::Corrupt("zero or non-finite run value"));
        }
        self.runs_left -= 1;
        self.prev_end = run_end;
        Ok(Some(Run::new(Tick::new(run_start), len, value)))
    }

    fn get_raw_f64(&mut self) -> Result<f64, DecodeError> {
        if self.buf.remaining() < 8 {
            return Err(DecodeError::Truncated);
        }
        Ok(self.buf.get_f64())
    }
}

/// The fully-materialized contents of a v2 batch frame: one keyed series
/// per entry, in frame order.
pub type DecodedBatch = Vec<((u32, u32), RleSeries)>;

/// Decodes a v2 batch frame into owned keyed series. The streaming ingest
/// path uses [`FrameCursor`] directly; this materializing form serves
/// tests and tools.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the frame is malformed, truncated, or any
/// series violates its invariants.
pub fn decode_batch(frame: &[u8]) -> Result<DecodedBatch, DecodeError> {
    let mut cursor = FrameCursor::new(frame)?;
    let mut out = Vec::with_capacity(cursor.entries_remaining() as usize);
    while let Some(entry) = cursor.next_entry()? {
        let mut runs = Vec::with_capacity(entry.num_runs as usize);
        while let Some(run) = cursor.next_run()? {
            runs.push(run);
        }
        out.push((
            entry.key,
            RleSeries::from_parts(entry.start, entry.len, runs),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RleSeries {
        RleSeries::from_parts(
            Tick::new(100),
            60,
            vec![
                Run::new(Tick::new(101), 5, 1.0),
                Run::new(Tick::new(120), 2, 2f64.sqrt()),
            ],
        )
    }

    #[test]
    fn round_trip() {
        let s = sample();
        assert_eq!(decode(&encode(&s)).unwrap(), s);
    }

    #[test]
    fn empty_series_round_trip() {
        let s = RleSeries::empty(Tick::new(7), 0);
        assert_eq!(decode(&encode(&s)).unwrap(), s);
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_buffer() {
        let s = sample();
        let mut buf = vec![0xAAu8; 3]; // stale contents must be cleared
        encode_into(&s, &mut buf);
        assert_eq!(&buf[..], &encode(&s)[..]);
        let cap = buf.capacity();
        encode_into(&RleSeries::empty(Tick::new(7), 0), &mut buf);
        assert_eq!(&buf[..], &encode(&RleSeries::empty(Tick::new(7), 0))[..]);
        assert_eq!(buf.capacity(), cap, "reuse must not shrink or reallocate");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut f = encode(&sample()).to_vec();
        f[0] = b'X';
        assert_eq!(decode(&f), Err(DecodeError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut f = encode(&sample()).to_vec();
        f[4] = 99;
        assert_eq!(decode(&f), Err(DecodeError::UnsupportedVersion(99)));
    }

    #[test]
    fn truncation_detected() {
        let f = encode(&sample());
        for cut in [0, 3, 8, 24, f.len() - 1] {
            assert_eq!(decode(&f[..cut]), Err(DecodeError::Truncated), "cut={cut}");
        }
    }

    #[test]
    fn corrupt_run_value_rejected() {
        let mut f = encode(&sample()).to_vec();
        // Overwrite the first run's value (offset 25 + 12) with NaN.
        let off = 25 + 12;
        f[off..off + 8].copy_from_slice(&f64::NAN.to_be_bytes());
        assert!(matches!(decode(&f), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn run_outside_span_rejected() {
        let mut f = encode(&sample()).to_vec();
        // Overwrite the first run's start tick with one past the span.
        let off = 25;
        f[off..off + 8].copy_from_slice(&999u64.to_be_bytes());
        assert!(matches!(decode(&f), Err(DecodeError::Corrupt(_))));
    }

    fn batch() -> Vec<((u32, u32), RleSeries)> {
        vec![
            ((2, 0), sample()),
            ((0, 3), RleSeries::empty(Tick::new(160), 60)),
            (
                (7, 1),
                RleSeries::from_parts(
                    Tick::new(0),
                    40,
                    vec![
                        Run::new(Tick::new(0), 3, 5f64.sqrt()),
                        Run::new(Tick::new(10), 30, 1.0),
                    ],
                ),
            ),
        ]
    }

    #[test]
    fn batch_round_trip_with_and_without_int_amp() {
        let entries = batch();
        for int_amp in [false, true] {
            let frame = encode_batch(&entries, int_amp);
            assert_eq!(decode_batch(&frame).unwrap(), entries, "int_amp={int_amp}");
        }
    }

    #[test]
    fn int_amp_shrinks_sqrt_count_amplitudes() {
        let entries = batch();
        let plain = encode_batch(&entries, false);
        let packed = encode_batch(&entries, true);
        assert!(
            packed.len() < plain.len(),
            "int-amp frame not smaller: {} vs {}",
            packed.len(),
            plain.len()
        );
    }

    #[test]
    fn int_amp_escapes_non_count_values_losslessly() {
        // Values that are not √n for any integer n (including a negative
        // one) must survive the escape path bit-for-bit.
        let odd = RleSeries::from_parts(
            Tick::new(0),
            20,
            vec![
                Run::new(Tick::new(0), 2, 0.3),
                Run::new(Tick::new(5), 1, -2.5),
                Run::new(Tick::new(9), 4, 3.0), // √9: back on the count path
            ],
        );
        let frame = encode_batch(&[((1, 2), odd.clone())], true);
        let back = decode_batch(&frame).unwrap();
        assert_eq!(back.len(), 1);
        for (got, want) in back[0].1.runs().iter().zip(odd.runs()) {
            assert_eq!(got.value().to_bits(), want.value().to_bits());
        }
    }

    #[test]
    fn int_amp_code_matches_density_values() {
        // Every value the density estimator can emit is √n for a message
        // count n, and the code must reproduce it bit-for-bit.
        for n in [1u64, 2, 3, 9, 50, 12_345, u64::from(u32::MAX)] {
            let v = (n as f64).sqrt();
            assert_eq!(int_amp_code(v), Some(n), "n={n}");
        }
        assert_eq!(int_amp_code(0.0), None);
        assert_eq!(int_amp_code(-1.0), None);
        assert_eq!(int_amp_code(0.5), None);
        assert_eq!(int_amp_code(f64::NAN), None);
        assert_eq!(int_amp_code(1e300), None);
    }

    #[test]
    fn varint_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cursor = &buf[..];
            assert_eq!(get_varint(&mut cursor), Ok(v));
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // Ten continuation bytes with a final byte carrying >1 bit at
        // shift 63 overflows u64.
        let over = [0xffu8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(matches!(
            get_varint(&mut &over[..]),
            Err(DecodeError::Corrupt(_))
        ));
        let trunc = [0x80u8, 0x80];
        assert_eq!(get_varint(&mut &trunc[..]), Err(DecodeError::Truncated));
    }

    #[test]
    fn frame_version_distinguishes_formats() {
        assert_eq!(frame_version(&encode(&sample())), Ok(1));
        assert_eq!(frame_version(&encode_batch(&batch(), true)), Ok(2));
        assert_eq!(frame_version(b"E2E"), Err(DecodeError::Truncated));
        assert_eq!(frame_version(b"XXXX\x02"), Err(DecodeError::BadMagic));
    }

    #[test]
    fn cursor_streams_runs_without_materializing() {
        let entries = batch();
        let frame = encode_batch(&entries, true);
        let mut cursor = FrameCursor::new(&frame).unwrap();
        assert_eq!(cursor.entries_remaining(), 3);
        let mut seen = Vec::new();
        while let Some(entry) = cursor.next_entry().unwrap() {
            let mut runs = Vec::new();
            while let Some(run) = cursor.next_run().unwrap() {
                runs.push(run);
            }
            seen.push((
                entry.key,
                RleSeries::from_parts(entry.start, entry.len, runs),
            ));
        }
        assert_eq!(seen, entries);
    }

    #[test]
    fn cursor_next_entry_skips_unread_runs() {
        let frame = encode_batch(&batch(), true);
        let mut cursor = FrameCursor::new(&frame).unwrap();
        let mut keys = Vec::new();
        while let Some(entry) = cursor.next_entry().unwrap() {
            keys.push(entry.key); // never read the runs
        }
        assert_eq!(keys, vec![(2, 0), (0, 3), (7, 1)]);
    }

    #[test]
    fn v1_frame_is_rejected_by_the_v2_cursor() {
        let frame = encode(&sample());
        assert!(matches!(
            FrameCursor::new(&frame),
            Err(DecodeError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn batch_truncation_detected_at_every_cut() {
        let frame = encode_batch(&batch(), true);
        for cut in 0..frame.len() {
            assert!(
                decode_batch(&frame[..cut]).is_err(),
                "cut={cut} silently decoded"
            );
        }
    }

    #[test]
    fn absurd_declared_lengths_capped_before_allocation() {
        // A minimal frame claiming u64::MAX entries (or runs) must fail
        // fast on the length cap, not attempt an allocation.
        let mut f = Vec::new();
        f.extend_from_slice(WIRE_MAGIC);
        f.push(WIRE_VERSION_V2);
        f.push(FLAG_INT_AMP);
        put_varint(&mut f, u64::MAX); // entry count
        assert_eq!(decode_batch(&f), Err(DecodeError::Truncated));

        let mut f = Vec::new();
        f.extend_from_slice(WIRE_MAGIC);
        f.push(WIRE_VERSION_V2);
        f.push(FLAG_INT_AMP);
        put_varint(&mut f, 1); // one entry
        put_varint(&mut f, 0); // src
        put_varint(&mut f, 1); // dst
        put_varint(&mut f, 0); // start
        put_varint(&mut f, u64::MAX); // len
        put_varint(&mut f, u64::MAX / 2); // num_runs: absurd
        assert_eq!(decode_batch(&f), Err(DecodeError::Truncated));
    }

    #[test]
    fn unknown_flag_bits_rejected() {
        let mut f = encode_batch(&batch(), true).to_vec();
        f[5] |= 0b1000_0000;
        assert_eq!(
            decode_batch(&f),
            Err(DecodeError::Corrupt("unknown flag bits"))
        );
    }

    #[test]
    fn writer_count_runs_are_the_bytes_of_the_sqrt_series() {
        let runs = [
            CountRun {
                start: Tick::new(101),
                len: 5,
                count: 1,
            },
            CountRun {
                start: Tick::new(120),
                len: 2,
                count: 300, // two-byte varint
            },
        ];
        let series =
            RleSeries::from_parts(Tick::new(100), 60, runs.iter().map(|&r| r.into()).collect());
        for int_amp in [false, true] {
            let mut buf = vec![0xAA; 3]; // stale contents must be cleared
            let mut writer = BatchWriter::new(&mut buf, int_amp);
            writer.count_runs((2, 0), Tick::new(100), 60, &runs);
            writer.count_runs((0, 3), Tick::new(160), 60, &[]);
            assert_eq!(writer.finish(), 2);
            let empty = RleSeries::empty(Tick::new(160), 60);
            let want = encode_batch(&[((2, 0), &series), ((0, 3), &empty)], int_amp);
            assert_eq!(&buf[..], &want[..], "int_amp={int_amp}");
        }
    }

    #[test]
    fn writer_patches_entry_counts_past_one_varint_byte() {
        for n in [0u32, 1, 127, 128, 300] {
            let entries: Vec<((u32, u32), RleSeries)> =
                (0..n).map(|i| ((i, i + 1), sample())).collect();
            let frame = encode_batch(&entries, true);
            assert_eq!(decode_batch(&frame).unwrap(), entries, "n={n}");
            // The count is the minimal varint a one-shot encoder would
            // have written up front.
            let mut count = Vec::new();
            put_varint(&mut count, u64::from(n));
            assert_eq!(
                &frame[ENTRY_COUNT_AT..ENTRY_COUNT_AT + count.len()],
                &count[..]
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut f = encode_batch(&batch(), true).to_vec();
        f.push(0);
        assert_eq!(
            decode_batch(&f),
            Err(DecodeError::Corrupt("trailing bytes after last series"))
        );
    }

    #[test]
    fn display_messages_are_lowercase() {
        for e in [
            DecodeError::BadMagic,
            DecodeError::UnsupportedVersion(2),
            DecodeError::Truncated,
            DecodeError::Corrupt("x"),
        ] {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'));
        }
    }
}
