//! Client-side transport endpoints: the tracer's socket-backed
//! [`FrameSink`] and the analyzer's subscribing connection.
//!
//! Both ends implement the reconnect invariant cooperatively with the
//! broker:
//!
//! - [`TracerLink`] keeps every data frame in its bounded [`SendQueue`]
//!   until *fully* written; a connection dying mid-frame rewinds the
//!   in-flight frame and resends it from byte 0 on the next connection.
//!   Per-origin sequence numbers persist across reconnects, so the broker
//!   dedups the overlap.
//! - [`AnalyzerConn`] reconnects with the resume positions of everything
//!   it already ingested; the broker replays only what was missed, and a
//!   local [`SeqDedup`] discards any residual overlap.
//!
//! Net effect: as long as connectivity eventually returns, the analyzer
//! ingests exactly the frames the tracers emitted, once each, in
//! per-origin order — which is why a faulted run's graphs are bit
//! identical to an uninterrupted run's.

use crate::frame::{
    encode_frame_head, encode_frame_to_vec, FrameDecoder, FrameKind, RawFrame, HEADER_LEN,
};
use crate::msg::{
    decode_hint, encode_announce, encode_hello, encode_hint, encode_subscribe, Reader, Role,
    Subscribe, SubscribeSpec,
};
use crate::queue::{QueueStats, QueuedFrame, SendQueue};
use crate::registry::{Freshness, SeqDedup};
use crate::stream::{write_coalesced, Dialer, NetStream, COALESCE_MAX_BYTES, COALESCE_MAX_FRAMES};
use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use e2eprof_core::reduction::HintState;
use e2eprof_core::tracer::{FrameSink, TracerFrame};
use e2eprof_netsim::NodeId;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// High bit marking an envelope origin as a synthetic analyzer hint
/// origin (`HINT_ORIGIN_BIT | shard`) rather than a tracer node index.
/// Keeps hint sequence spaces disjoint from data sequence spaces in
/// every dedup map they share.
pub const HINT_ORIGIN_BIT: u32 = 0x8000_0000;

/// Tuning for a client-side link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Bounded send-queue capacity in frames (drop-oldest beyond it).
    pub queue_capacity: usize,
    /// Reconnect attempts a single flush may spend before leaving the
    /// remaining frames queued for the next flush.
    pub max_flush_redials: u32,
    /// First reconnect delay; doubles per consecutive failure. Zero in
    /// tests keeps the fault suite free of wall-clock time.
    pub backoff_base: Duration,
    /// Upper bound the exponential backoff saturates at.
    pub backoff_cap: Duration,
    /// Frames `send_frame` lets accumulate before it flushes. The
    /// default of 1 flushes on every send (lowest latency — today's
    /// semantics); a bursty sender can raise it so one coalesced
    /// vectored write carries up to this many frames, then call
    /// [`TracerLink::drain`] at its natural batch boundary to push out
    /// the tail. Deferred frames are not counted as delivered until a
    /// flush actually lands them.
    pub coalesce_depth: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            queue_capacity: 1024,
            max_flush_redials: 8,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            coalesce_depth: 1,
        }
    }
}

impl LinkConfig {
    /// A configuration for deterministic tests: no backoff sleeps.
    pub fn immediate() -> Self {
        LinkConfig {
            backoff_base: Duration::ZERO,
            ..LinkConfig::default()
        }
    }
}

/// Exponential backoff state.
#[derive(Debug)]
struct Backoff {
    base: Duration,
    cap: Duration,
    consecutive: u32,
}

impl Backoff {
    fn new(base: Duration, cap: Duration) -> Self {
        Backoff {
            base,
            cap,
            consecutive: 0,
        }
    }

    /// Sleeps for the current delay and doubles it (saturating at the
    /// cap). A zero base never sleeps.
    fn wait(&mut self) {
        let delay = self
            .base
            .saturating_mul(1u32 << self.consecutive.min(16))
            .min(self.cap);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        self.consecutive = self.consecutive.saturating_add(1);
    }

    fn reset(&mut self) {
        self.consecutive = 0;
    }
}

/// Lifetime counters of a [`TracerLink`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Send-queue counters (enqueued / sent / dropped-oldest).
    pub queue: QueueStats,
    /// Connections dialed beyond the first (i.e. reconnects).
    pub redials: u64,
}

/// A socket-backed [`FrameSink`] for one tracer agent.
///
/// Single-threaded by design: the agent's `poll` both enqueues and
/// flushes, so the capture loop's only exposure to the network is bounded
/// by the flush's redial budget.
pub struct TracerLink {
    origin: u32,
    dialer: Box<dyn Dialer>,
    config: LinkConfig,
    conn: Option<Box<dyn NetStream>>,
    queue: SendQueue,
    /// Next data sequence number (starts at 1; 0 means "none yet" in
    /// resume maps). Persists across reconnects.
    next_seq: u64,
    /// Latest announced edge set, replayed on every (re)connect.
    announce: Option<Vec<u8>>,
    /// Announce changed since last successfully written.
    announce_dirty: bool,
    backoff: Backoff,
    dials: u64,
    /// Reconnects (dials beyond the first), shared so the pipeline can
    /// surface per-link reconnect counts after the link has been boxed
    /// into its agent.
    redials: Arc<AtomicU64>,
    /// Data frames *fully written* to a connection — shared so the
    /// pipeline driver can count what crossed the transport without
    /// reaching through the agent that owns this sink. A fully written
    /// frame is delivered: connections fail by rejecting bytes, never by
    /// losing accepted ones (TCP semantics, mirrored by the in-memory
    /// pipe's drain-then-EOF close).
    delivered: Arc<AtomicU64>,
    /// Reused staging buffer for coalesced flushes over streams without
    /// genuine vectored writes.
    staging: Vec<u8>,
}

impl TracerLink {
    /// Creates a link for the tracer on node `origin`. Nothing is dialed
    /// until the first flush.
    pub fn new(origin: u32, dialer: Box<dyn Dialer>, config: LinkConfig) -> Self {
        TracerLink {
            origin,
            dialer,
            backoff: Backoff::new(config.backoff_base, config.backoff_cap),
            queue: SendQueue::new(config.queue_capacity),
            config,
            conn: None,
            next_seq: 1,
            announce: None,
            announce_dirty: false,
            dials: 0,
            redials: Arc::new(AtomicU64::new(0)),
            delivered: Arc::new(AtomicU64::new(0)),
            staging: Vec::new(),
        }
    }

    /// A shared handle to the link's reconnect count (dials beyond the
    /// first).
    pub fn redials_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.redials)
    }

    /// A shared handle to the count of data frames fully written to the
    /// broker. Counts exactly the frames the broker will ingest (net of
    /// its dedup), so a driver can block an analyzer with
    /// `ingest_expected` on the sum across links — deterministic
    /// synchronization with no sleeps.
    pub fn delivered_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.delivered)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LinkStats {
        LinkStats {
            queue: self.queue.stats(),
            redials: self.dials.saturating_sub(1),
        }
    }

    /// Frames queued but not yet fully written.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Flushes every queued frame now, regardless of
    /// [`LinkConfig::coalesce_depth`]. A sender running with a depth
    /// above 1 must call this at its batch boundary — deferred frames
    /// only count as delivered once a flush lands them.
    pub fn drain(&mut self) {
        self.flush();
    }

    /// Writes the connection preamble (Hello, then the current Announce)
    /// on a fresh connection.
    fn handshake(&mut self, conn: &mut Box<dyn NetStream>) -> std::io::Result<()> {
        let hello = encode_frame_to_vec(
            FrameKind::Hello,
            self.origin,
            0,
            &encode_hello(Role::Tracer { node: self.origin }),
        );
        conn.write_all(&hello)?;
        if let Some(payload) = &self.announce {
            let frame = encode_frame_to_vec(FrameKind::Announce, self.origin, 0, payload);
            conn.write_all(&frame)?;
            self.announce_dirty = false;
        }
        Ok(())
    }

    /// Drains the queue onto the connection, redialing on failure up to
    /// the configured budget. Frames that cannot be flushed stay queued —
    /// and a frame interrupted mid-write is rewound, to be resent whole on
    /// the next connection (the peer discarded the partial bytes with the
    /// stream).
    fn flush(&mut self) {
        let mut redials = 0u32;
        loop {
            if self.conn.is_none() {
                match self.dialer.dial() {
                    Ok(mut conn) => {
                        self.dials += 1;
                        if self.dials > 1 {
                            self.redials.fetch_add(1, Ordering::Relaxed);
                        }
                        if self.handshake(&mut conn).is_err() {
                            redials += 1;
                            if redials > self.config.max_flush_redials {
                                return;
                            }
                            self.backoff.wait();
                            continue;
                        }
                        self.backoff.reset();
                        self.queue.rewind_front();
                        self.conn = Some(conn);
                    }
                    Err(_) => {
                        redials += 1;
                        if redials > self.config.max_flush_redials {
                            return;
                        }
                        self.backoff.wait();
                        continue;
                    }
                }
            }
            if self.announce_dirty {
                if let Some(payload) = &self.announce {
                    let frame = encode_frame_to_vec(FrameKind::Announce, self.origin, 0, payload);
                    let conn = self.conn.as_mut().expect("connected above");
                    if conn.write_all(&frame).is_err() {
                        self.conn = None;
                        self.queue.rewind_front();
                        redials += 1;
                        if redials > self.config.max_flush_redials {
                            return;
                        }
                        self.backoff.wait();
                        continue;
                    }
                    self.announce_dirty = false;
                }
            }
            // Coalesced drain: gather the queue into one bounded batch of
            // borrowed segments and flush it with a single vectored write
            // (or one staged write) — one syscall per flush instead of
            // one per frame. On error the fully-written prefix is retired
            // (those frames reached the peer or died with the stream's
            // accepted bytes — same cases as before) and the partial
            // frame rewinds to be resent whole on the next connection.
            while !self.queue.is_empty() {
                let conn = self.conn.as_mut().expect("connected above");
                let vectored = conn.vectored_writes();
                let mut bufs: Vec<&[u8]> = Vec::new();
                self.queue
                    .gather(COALESCE_MAX_FRAMES, COALESCE_MAX_BYTES, &mut bufs);
                let (written, err) = write_coalesced(conn, vectored, &bufs, &mut self.staging);
                drop(bufs);
                let completed = self.queue.advance_bytes(written);
                if completed > 0 {
                    self.delivered.fetch_add(completed, Ordering::Relaxed);
                }
                if err.is_some() {
                    self.conn = None;
                    self.queue.rewind_front();
                    break;
                }
            }
            if self.conn.is_some() && self.queue.is_empty() && !self.announce_dirty {
                return;
            }
            if self.conn.is_none() {
                redials += 1;
                if redials > self.config.max_flush_redials {
                    return;
                }
                self.backoff.wait();
            }
        }
    }
}

impl std::fmt::Debug for TracerLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracerLink")
            .field("origin", &self.origin)
            .field("backlog", &self.queue.len())
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl FrameSink for TracerLink {
    fn send_frame(&mut self, frame: TracerFrame) -> u64 {
        // The payload `Bytes` rides into the queue as a shared segment —
        // only the envelope head (header plus the series edge prefix) is
        // materialized; the gather flush hands both to the stream without
        // ever copying the payload.
        let (kind, prefix, tail) = match frame {
            TracerFrame::Batch { payload } => (FrameKind::DataBatch, Vec::new(), payload),
            TracerFrame::Backfill { payload } => (FrameKind::Backfill, Vec::new(), payload),
            // No producer in this repo; removal waits for a `benchmark` PR.
            TracerFrame::Series { edge, payload } => {
                // DataSeries payloads carry the edge in an 8-byte prefix
                // (v1 wire frames identify edges out of band).
                let mut prefix = Vec::with_capacity(8);
                prefix.extend_from_slice(&(edge.0.index() as u32).to_be_bytes());
                prefix.extend_from_slice(&(edge.1.index() as u32).to_be_bytes());
                (FrameKind::DataSeries, prefix, payload)
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let head = encode_frame_head(kind, self.origin, seq, &prefix, &tail);
        let dropped = self.queue.push(QueuedFrame::new(head, tail));
        if self.queue.len() >= self.config.coalesce_depth.max(1) {
            self.flush();
        }
        dropped
    }

    fn announce(&mut self, edges: &[(u32, u32)]) {
        self.announce = Some(encode_announce(edges));
        self.announce_dirty = true;
        self.flush();
    }
}

/// Counters of an [`AnalyzerConn`].
#[derive(Debug, Default)]
pub struct ConnStats {
    /// Data frames forwarded to the analyzer channel.
    pub delivered: AtomicU64,
    /// Replayed frames discarded by the per-origin dedup.
    pub duplicates: AtomicU64,
    /// Connections dialed beyond the first.
    pub reconnects: AtomicU64,
    /// Framing/decode errors observed (each costs one reconnect).
    pub decode_errors: AtomicU64,
}

/// The analyzer's subscribing connection: a background reader that dials
/// the broker, subscribes, decodes data frames into [`TracerFrame`]s, and
/// feeds them to the channel an [`OnlineAnalyzer`] ingests from —
/// reconnecting with resume positions whenever the connection dies.
///
/// [`OnlineAnalyzer`]: e2eprof_core::analyzer::OnlineAnalyzer
pub struct AnalyzerConn {
    stop: Arc<AtomicBool>,
    stats: Arc<ConnStats>,
    thread: Option<JoinHandle<()>>,
}

impl AnalyzerConn {
    /// Spawns the reader. `shard`/`of` identify this analyzer shard to the
    /// broker; frames arrive on the returned channel's receiver.
    pub fn spawn(
        dialer: Box<dyn Dialer>,
        shard: u32,
        of: u32,
        config: LinkConfig,
    ) -> (AnalyzerConn, Receiver<TracerFrame>) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ConnStats::default());
        let thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                reader_loop(&*dialer, shard, of, &config, &stop, &stats, &tx)
            })
        };
        (
            AnalyzerConn {
                stop,
                stats,
                thread: Some(thread),
            },
            rx,
        )
    }

    /// Shared counters.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// Signals the reader to exit at the next connection boundary and
    /// joins it. (Tear the broker down first so a blocked read wakes.)
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for AnalyzerConn {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Don't join in drop: the reader may be blocked on a live broker
        // with no traffic. `stop()` is the orderly path.
        let _ = self.thread.take();
    }
}

fn reader_loop(
    dialer: &dyn Dialer,
    shard: u32,
    of: u32,
    config: &LinkConfig,
    stop: &AtomicBool,
    stats: &ConnStats,
    tx: &Sender<TracerFrame>,
) {
    let mut dedup = SeqDedup::new();
    let mut backoff = Backoff::new(config.backoff_base, config.backoff_cap);
    let mut dials = 0u64;
    let mut dial_failures = 0u32;
    while !stop.load(Ordering::Relaxed) {
        let mut conn = match dialer.dial() {
            Ok(c) => c,
            Err(_) => {
                dial_failures += 1;
                if dial_failures > config.max_flush_redials {
                    return;
                }
                backoff.wait();
                continue;
            }
        };
        dial_failures = 0;
        dials += 1;
        if dials > 1 {
            stats.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        if subscribe(&mut conn, shard, of, &dedup).is_err() {
            backoff.wait();
            continue;
        }
        backoff.reset();
        let mut dec = FrameDecoder::new();
        let mut buf = vec![0u8; 64 * 1024];
        'conn: loop {
            loop {
                match dec.next_raw() {
                    Ok(Some(frame)) if frame.kind.is_data() => {
                        if dedup.offer(frame.origin, frame.seq) == Freshness::Duplicate {
                            stats.duplicates.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        let Some(tracer_frame) = to_tracer_frame(&frame) else {
                            stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                            conn.shutdown_stream();
                            break 'conn;
                        };
                        if tx.send(tracer_frame).is_err() {
                            return; // analyzer gone: nothing left to feed
                        }
                        stats.delivered.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(Some(_)) => {} // control frames are not expected; ignore
                    Ok(None) => break,
                    Err(_) => {
                        stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                        conn.shutdown_stream();
                        break 'conn;
                    }
                }
            }
            match conn.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => dec.feed(&buf[..n]),
            }
        }
    }
}

/// Writes Hello + Subscribe(All, resume positions) on a fresh connection.
fn subscribe(
    conn: &mut Box<dyn NetStream>,
    shard: u32,
    of: u32,
    dedup: &SeqDedup,
) -> std::io::Result<()> {
    let mut bytes = encode_frame_to_vec(
        FrameKind::Hello,
        0,
        0,
        &encode_hello(Role::Analyzer { shard, of }),
    );
    let sub = Subscribe {
        spec: SubscribeSpec::All,
        resume: dedup.resume_positions(),
    };
    bytes.extend_from_slice(&encode_frame_to_vec(
        FrameKind::Subscribe,
        0,
        0,
        &encode_subscribe(&sub),
    ));
    conn.write_all(&bytes)
}

/// Reverses [`TracerLink::send_frame`]'s payload mapping. Zero-copy: the
/// `TracerFrame` payload is a window into the validated receive bytes —
/// the same shared allocation the decoder produced, never re-copied.
fn to_tracer_frame(frame: &RawFrame) -> Option<TracerFrame> {
    let payload = Bytes::from_arc(Arc::clone(&frame.bytes)).slice(HEADER_LEN..frame.bytes.len());
    match frame.kind {
        FrameKind::DataBatch => Some(TracerFrame::Batch { payload }),
        FrameKind::Backfill => Some(TracerFrame::Backfill { payload }),
        FrameKind::DataSeries => {
            let mut key = Reader::new(&payload);
            let (src, dst) = (key.u32().ok()?, key.u32().ok()?);
            Some(TracerFrame::Series {
                edge: (NodeId::new(src), NodeId::new(dst)),
                payload: payload.slice(8..payload.len()),
            })
        }
        _ => None,
    }
}

/// The analyzer shard's hint-publishing connection: a synchronous,
/// driver-owned sender that pushes each [`HintState`] snapshot to the
/// broker as a `Hint` frame with origin `HINT_ORIGIN_BIT | shard` and a
/// per-shard monotonic sequence.
///
/// Retries with the *same* sequence number across redials (like
/// [`TracerLink`]): a connection dying mid-frame discards the partial
/// bytes with the stream, and the broker's dedup absorbs any resend of a
/// frame that did land whole.
pub struct HintSender {
    shard: u32,
    of: u32,
    dialer: Box<dyn Dialer>,
    config: LinkConfig,
    conn: Option<Box<dyn NetStream>>,
    next_seq: u64,
    backoff: Backoff,
    dials: u64,
}

impl HintSender {
    /// Creates a sender for analyzer shard `shard` of `of`. Nothing is
    /// dialed until the first send.
    pub fn new(shard: u32, of: u32, dialer: Box<dyn Dialer>, config: LinkConfig) -> Self {
        HintSender {
            shard,
            of,
            backoff: Backoff::new(config.backoff_base, config.backoff_cap),
            config,
            dialer,
            conn: None,
            next_seq: 1,
            dials: 0,
        }
    }

    /// The synthetic envelope origin this shard's hints carry.
    pub fn origin(&self) -> u32 {
        HINT_ORIGIN_BIT | self.shard
    }

    /// Publishes one snapshot; returns the sequence number it was written
    /// under, or `None` if the redial budget ran out (the snapshot is
    /// dropped — harmless, because the next snapshot is full-state and
    /// supersedes it).
    pub fn send(&mut self, state: &HintState) -> Option<u64> {
        let seq = self.next_seq;
        let frame = encode_frame_to_vec(FrameKind::Hint, self.origin(), seq, &encode_hint(state));
        let mut redials = 0u32;
        loop {
            if self.conn.is_none() {
                match self.dialer.dial() {
                    Ok(mut conn) => {
                        self.dials += 1;
                        let hello = encode_frame_to_vec(
                            FrameKind::Hello,
                            self.origin(),
                            0,
                            &encode_hello(Role::Analyzer {
                                shard: self.shard,
                                of: self.of,
                            }),
                        );
                        if conn.write_all(&hello).is_err() {
                            redials += 1;
                            if redials > self.config.max_flush_redials {
                                return None;
                            }
                            self.backoff.wait();
                            continue;
                        }
                        self.backoff.reset();
                        self.conn = Some(conn);
                    }
                    Err(_) => {
                        redials += 1;
                        if redials > self.config.max_flush_redials {
                            return None;
                        }
                        self.backoff.wait();
                        continue;
                    }
                }
            }
            let conn = self.conn.as_mut().expect("connected above");
            if conn.write_all(&frame).is_ok() {
                self.next_seq += 1;
                return Some(seq);
            }
            self.conn = None;
            redials += 1;
            if redials > self.config.max_flush_redials {
                return None;
            }
            self.backoff.wait();
        }
    }
}

impl std::fmt::Debug for HintSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HintSender")
            .field("shard", &self.shard)
            .field("next_seq", &self.next_seq)
            .field("dials", &self.dials)
            .finish_non_exhaustive()
    }
}

/// The tracer's hint-subscription connection: a background reader that
/// subscribes to reduction hints, decodes fresh snapshots onto a channel
/// for the agent to apply, and reconnects with per-shard resume
/// positions so the broker replays only snapshots it has not seen.
///
/// The per-shard high-water marks are published through an atomic vector:
/// once `hint_seq(shard) >= s`, the snapshot written under sequence `s`
/// is already in the channel — which is the barrier the deterministic
/// pipeline spins on after each refresh.
pub struct HintConn {
    stop: Arc<AtomicBool>,
    latest: Arc<Vec<AtomicU64>>,
    reconnects: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl HintConn {
    /// Spawns the reader for the tracer on node `node`, expecting hints
    /// from `shards` analyzer shards. Snapshots arrive on the returned
    /// receiver in publish order per shard.
    pub fn spawn(
        dialer: Box<dyn Dialer>,
        node: u32,
        shards: u32,
        config: LinkConfig,
    ) -> (HintConn, Receiver<HintState>) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let stop = Arc::new(AtomicBool::new(false));
        let latest: Arc<Vec<AtomicU64>> =
            Arc::new((0..shards).map(|_| AtomicU64::new(0)).collect());
        let reconnects = Arc::new(AtomicU64::new(0));
        let thread = {
            let stop = Arc::clone(&stop);
            let latest = Arc::clone(&latest);
            let reconnects = Arc::clone(&reconnects);
            std::thread::spawn(move || {
                hint_reader_loop(&*dialer, node, &config, &stop, &latest, &reconnects, &tx)
            })
        };
        (
            HintConn {
                stop,
                latest,
                reconnects,
                thread: Some(thread),
            },
            rx,
        )
    }

    /// Highest hint sequence received (and enqueued) from `shard`.
    pub fn hint_seq(&self, shard: u32) -> u64 {
        self.latest[shard as usize].load(Ordering::Acquire)
    }

    /// Connections dialed beyond the first.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Signals the reader to exit at the next connection boundary without
    /// joining it. Set this *before* tearing the broker down: a reader
    /// woken by the broker closing its stream then exits instead of
    /// redialing a listener whose accept thread may outlive the broker.
    pub fn signal_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Signals the reader to exit at the next connection boundary and
    /// joins it. (Tear the broker down first so a blocked read wakes.)
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HintConn {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Don't join in drop: the reader may be blocked on a live broker
        // with no traffic. `stop()` is the orderly path.
        let _ = self.thread.take();
    }
}

impl std::fmt::Debug for HintConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HintConn")
            .field("shards", &self.latest.len())
            .field("reconnects", &self.reconnects())
            .finish_non_exhaustive()
    }
}

fn hint_reader_loop(
    dialer: &dyn Dialer,
    node: u32,
    config: &LinkConfig,
    stop: &AtomicBool,
    latest: &[AtomicU64],
    reconnects: &AtomicU64,
    tx: &Sender<HintState>,
) {
    let mut backoff = Backoff::new(config.backoff_base, config.backoff_cap);
    let mut dials = 0u64;
    let mut dial_failures = 0u32;
    while !stop.load(Ordering::Relaxed) {
        let mut conn = match dialer.dial() {
            Ok(c) => c,
            Err(_) => {
                dial_failures += 1;
                if dial_failures > config.max_flush_redials {
                    return;
                }
                backoff.wait();
                continue;
            }
        };
        dial_failures = 0;
        dials += 1;
        if dials > 1 {
            reconnects.fetch_add(1, Ordering::Relaxed);
        }
        if hint_subscribe(&mut conn, node, latest).is_err() {
            backoff.wait();
            continue;
        }
        backoff.reset();
        let mut dec = FrameDecoder::new();
        let mut buf = vec![0u8; 64 * 1024];
        'conn: loop {
            loop {
                match dec.next_frame() {
                    Ok(Some(frame)) if frame.kind == FrameKind::Hint => {
                        let shard = (frame.origin & !HINT_ORIGIN_BIT) as usize;
                        if shard >= latest.len() {
                            conn.shutdown_stream();
                            break 'conn;
                        }
                        if frame.seq <= latest[shard].load(Ordering::Acquire) {
                            continue; // replay overlap after a reconnect
                        }
                        let Ok(state) = decode_hint(&frame.payload) else {
                            conn.shutdown_stream();
                            break 'conn;
                        };
                        if tx.send(state).is_err() {
                            return; // agent gone: nothing left to feed
                        }
                        // Publish *after* the send so a reader observing
                        // this mark finds the snapshot already enqueued.
                        latest[shard].store(frame.seq, Ordering::Release);
                    }
                    Ok(Some(_)) => {} // other kinds are not expected; ignore
                    Ok(None) => break,
                    Err(_) => {
                        conn.shutdown_stream();
                        break 'conn;
                    }
                }
            }
            match conn.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => dec.feed(&buf[..n]),
            }
        }
    }
}

/// Writes Hello(HintSub) + Subscribe(All, per-shard hint resume
/// positions) on a fresh hint connection.
fn hint_subscribe(
    conn: &mut Box<dyn NetStream>,
    node: u32,
    latest: &[AtomicU64],
) -> std::io::Result<()> {
    let mut bytes = encode_frame_to_vec(
        FrameKind::Hello,
        node,
        0,
        &encode_hello(Role::HintSub { node }),
    );
    let sub = Subscribe {
        spec: SubscribeSpec::All,
        resume: latest
            .iter()
            .enumerate()
            .map(|(s, seq)| (HINT_ORIGIN_BIT | s as u32, seq.load(Ordering::Acquire)))
            .collect(),
    };
    bytes.extend_from_slice(&encode_frame_to_vec(
        FrameKind::Subscribe,
        node,
        0,
        &encode_subscribe(&sub),
    ));
    conn.write_all(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::{BrokerConfig, BrokerHandle};
    use crate::fault::{FaultPlan, FaultyDialer};
    use crate::mem::MemListener;

    fn batch(bytes: &[u8]) -> TracerFrame {
        TracerFrame::Batch {
            payload: Bytes::copy_from_slice(bytes),
        }
    }

    #[test]
    fn frames_flow_end_to_end() {
        let listener = Arc::new(MemListener::new());
        let broker = BrokerHandle::spawn(listener.clone(), BrokerConfig::default());
        let (mut conn, rx) =
            AnalyzerConn::spawn(Box::new(listener.dialer()), 0, 1, LinkConfig::immediate());

        let mut link = TracerLink::new(3, Box::new(listener.dialer()), LinkConfig::immediate());
        FrameSink::announce(&mut link, &[(3, 4)]);
        link.send_frame(batch(b"alpha"));
        link.send_frame(batch(b"beta"));

        let got: Vec<TracerFrame> = (0..2).map(|_| rx.recv().expect("frame")).collect();
        assert_eq!(got, vec![batch(b"alpha"), batch(b"beta")]);
        assert_eq!(link.backlog(), 0);
        broker.shutdown();
        conn.stop();
    }

    #[test]
    fn series_frames_carry_their_edge() {
        let listener = Arc::new(MemListener::new());
        let broker = BrokerHandle::spawn(listener.clone(), BrokerConfig::default());
        let (mut conn, rx) =
            AnalyzerConn::spawn(Box::new(listener.dialer()), 0, 1, LinkConfig::immediate());
        let mut link = TracerLink::new(1, Box::new(listener.dialer()), LinkConfig::immediate());
        let frame = TracerFrame::Series {
            edge: (NodeId::new(4), NodeId::new(7)),
            payload: Bytes::copy_from_slice(b"rle"),
        };
        link.send_frame(frame.clone());
        assert_eq!(rx.recv().expect("frame"), frame);
        broker.shutdown();
        conn.stop();
    }

    #[test]
    fn mid_frame_cut_is_resent_without_loss_or_duplication() {
        let listener = Arc::new(MemListener::new());
        let broker = BrokerHandle::spawn(listener.clone(), BrokerConfig::default());
        let (mut conn, rx) =
            AnalyzerConn::spawn(Box::new(listener.dialer()), 0, 1, LinkConfig::immediate());

        // First connection dies 10 bytes into the second data frame
        // (handshake ≈ hello 31 + announce 38 bytes; first data frame is
        // fully written, the second is interrupted).
        let hello_len = 31u64;
        let announce_len = 38u64;
        let data_len = 26 + 5; // header + payload "alpha"
        let cut_at = hello_len + announce_len + data_len + 10;
        let dialer = FaultyDialer::new(listener.dialer(), vec![FaultPlan::cut_write_at(cut_at)]);
        let mut link = TracerLink::new(9, Box::new(dialer), LinkConfig::immediate());
        FrameSink::announce(&mut link, &[(9, 1)]);
        link.send_frame(batch(b"alpha"));
        link.send_frame(batch(b"bravo"));
        link.send_frame(batch(b"gamma"));

        let got: Vec<TracerFrame> = (0..3).map(|_| rx.recv().expect("frame")).collect();
        assert_eq!(
            got,
            vec![batch(b"alpha"), batch(b"bravo"), batch(b"gamma")],
            "exactly-once, in order, across the cut"
        );
        assert_eq!(link.stats().redials, 1, "one reconnect");
        assert_eq!(link.backlog(), 0);
        broker.shutdown();
        conn.stop();
    }

    #[test]
    fn jittered_connection_still_delivers_everything() {
        let listener = Arc::new(MemListener::new());
        let broker = BrokerHandle::spawn(listener.clone(), BrokerConfig::default());
        let (mut conn, rx) =
            AnalyzerConn::spawn(Box::new(listener.dialer()), 0, 1, LinkConfig::immediate());
        let dialer = FaultyDialer::new(listener.dialer(), vec![FaultPlan::jitter(77, 3)]);
        let mut link = TracerLink::new(2, Box::new(dialer), LinkConfig::immediate());
        for i in 0..5u8 {
            link.send_frame(batch(&[i; 7]));
        }
        for i in 0..5u8 {
            assert_eq!(rx.recv().expect("frame"), batch(&[i; 7]));
        }
        broker.shutdown();
        conn.stop();
    }

    #[test]
    fn bounded_queue_drops_oldest_and_counts_when_unreachable() {
        // A dialer that always fails: frames pile up in the bounded queue.
        struct DeadDialer;
        impl Dialer for DeadDialer {
            fn dial(&self) -> std::io::Result<Box<dyn NetStream>> {
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "down",
                ))
            }
        }
        let mut config = LinkConfig::immediate();
        config.queue_capacity = 2;
        config.max_flush_redials = 0;
        let mut link = TracerLink::new(1, Box::new(DeadDialer), config);
        let mut dropped = 0;
        for i in 0..5u8 {
            dropped += link.send_frame(batch(&[i]));
        }
        assert_eq!(dropped, 3, "capacity 2: three oldest frames evicted");
        assert_eq!(link.stats().queue.dropped_oldest, 3);
        assert_eq!(link.backlog(), 2);
    }

    /// The seq mark is published *after* the snapshot is enqueued (that
    /// direction is the pipeline's barrier invariant), so a test that
    /// recv()s a snapshot may observe the mark a beat later.
    fn await_hint_seq(conn: &HintConn, shard: u32, want: u64) {
        for _ in 0..1_000_000 {
            if conn.hint_seq(shard) >= want {
                return;
            }
            std::thread::yield_now();
        }
        assert_eq!(conn.hint_seq(shard), want, "hint seq mark never arrived");
    }

    #[test]
    fn hints_reach_live_and_late_subscribers() {
        let listener = Arc::new(MemListener::new());
        let broker = BrokerHandle::spawn(listener.clone(), BrokerConfig::default());
        let mut sender =
            HintSender::new(0, 1, Box::new(listener.dialer()), LinkConfig::immediate());
        let s1 = HintState {
            shard: 0,
            of: 1,
            edges: vec![((1, 2), 16)],
        };
        assert_eq!(sender.send(&s1), Some(1));
        // A subscriber arriving *after* the publish still gets the latest
        // stored snapshot replayed.
        let (mut conn, rx) =
            HintConn::spawn(Box::new(listener.dialer()), 3, 1, LinkConfig::immediate());
        assert_eq!(rx.recv().expect("replayed hint"), s1);
        await_hint_seq(&conn, 0, 1);
        // And live updates flow through.
        let s2 = HintState {
            shard: 0,
            of: 1,
            edges: vec![],
        };
        assert_eq!(sender.send(&s2), Some(2));
        assert_eq!(rx.recv().expect("live hint"), s2);
        await_hint_seq(&conn, 0, 2);
        broker.shutdown();
        conn.stop();
    }

    #[test]
    fn hint_conn_cut_replays_latest_snapshot_exactly_once() {
        let listener = Arc::new(MemListener::new());
        let broker = BrokerHandle::spawn(listener.clone(), BrokerConfig::default());
        let mut sender =
            HintSender::new(0, 1, Box::new(listener.dialer()), LinkConfig::immediate());
        // One-edge snapshot: 26-byte envelope + (12 + 16) payload bytes.
        let frame_len = 26 + 28;
        let dialer = FaultyDialer::new(
            listener.dialer(),
            vec![FaultPlan::cut_read_at(frame_len as u64 + 10)],
        );
        let (mut conn, rx) = HintConn::spawn(Box::new(dialer), 5, 1, LinkConfig::immediate());
        let s1 = HintState {
            shard: 0,
            of: 1,
            edges: vec![((1, 2), 16)],
        };
        let s2 = HintState {
            shard: 0,
            of: 1,
            edges: vec![((1, 2), 16), ((3, 4), 8)],
        };
        assert_eq!(sender.send(&s1), Some(1));
        assert_eq!(rx.recv().expect("first hint"), s1);
        // The second snapshot lands while the subscriber's connection is
        // dying mid-read; the reconnect's resume position (1) makes the
        // broker replay exactly the missed latest snapshot.
        assert_eq!(sender.send(&s2), Some(2));
        assert_eq!(rx.recv().expect("replayed second hint"), s2);
        await_hint_seq(&conn, 0, 2);
        assert!(rx.try_recv().is_err(), "no duplicate replay");
        broker.shutdown();
        conn.stop();
    }

    #[test]
    fn backfill_frames_round_trip_like_batches() {
        let listener = Arc::new(MemListener::new());
        let broker = BrokerHandle::spawn(listener.clone(), BrokerConfig::default());
        let (mut conn, rx) =
            AnalyzerConn::spawn(Box::new(listener.dialer()), 0, 1, LinkConfig::immediate());
        let mut link = TracerLink::new(4, Box::new(listener.dialer()), LinkConfig::immediate());
        let frame = TracerFrame::Backfill {
            payload: Bytes::copy_from_slice(b"fine-window"),
        };
        link.send_frame(frame.clone());
        assert_eq!(rx.recv().expect("frame"), frame);
        broker.shutdown();
        conn.stop();
    }

    #[test]
    fn analyzer_reconnect_resumes_without_duplicates() {
        let listener = Arc::new(MemListener::new());
        let broker = BrokerHandle::spawn(listener.clone(), BrokerConfig::default());
        // Subscriber's first connection dies after ~1.5 data frames read.
        let dialer =
            FaultyDialer::new(listener.dialer(), vec![FaultPlan::cut_read_at(26 + 5 + 10)]);
        let (mut conn, rx) = AnalyzerConn::spawn(Box::new(dialer), 0, 1, LinkConfig::immediate());
        let mut link = TracerLink::new(6, Box::new(listener.dialer()), LinkConfig::immediate());
        link.send_frame(batch(b"first"));
        link.send_frame(batch(b"again"));
        link.send_frame(batch(b"third"));
        let got: Vec<TracerFrame> = (0..3).map(|_| rx.recv().expect("frame")).collect();
        assert_eq!(got, vec![batch(b"first"), batch(b"again"), batch(b"third")]);
        assert_eq!(conn.stats().reconnects.load(Ordering::Relaxed), 1);
        broker.shutdown();
        conn.stop();
    }
}
