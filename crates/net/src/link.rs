//! Client-side transport endpoints: the tracer's socket-backed
//! [`FrameSink`] and the analyzer's subscribing connection.
//!
//! Both clients reach the broker one way: dial, write the handshake, and
//! on failure redial with exponential backoff, at most
//! [`LinkConfig::max_flush_redials`] failures in a row. The subscriber
//! ([`AnalyzerConn`]) subscribes with its resume positions and receives
//! everything after them.
//!
//! The reconnect invariant, kept cooperatively with the broker:
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
    encode_frame, encode_frame_head, encode_frame_to_vec, FrameDecoder, FrameKind, RawFrame,
    HEADER_LEN,
};
use crate::msg::{encode_hello, encode_subscribe, Reader, Role};
use crate::queue::{QueueStats, QueuedFrame, SendQueue};
use crate::registry::{Freshness, SeqDedup};
use crate::stream::{write_coalesced, Dialer, NetStream, COALESCE_MAX_BYTES, COALESCE_MAX_FRAMES};
use bytes::Bytes;
use e2eprof_core::tracer::{FrameSink, TracerFrame};
use e2eprof_netsim::NodeId;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for a client-side link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Bounded send-queue capacity in frames (drop-oldest beyond it).
    pub queue_capacity: usize,
    /// Every client's reconnect budget: failed dials, handshakes or
    /// connections in a row before it gives up. A [`TracerLink`] flush
    /// then leaves the remaining frames queued for the next flush, and
    /// the reader thread of an [`AnalyzerConn`] exits. Each flush starts
    /// a fresh budget; the subscriber starts one whenever an established
    /// connection ends.
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

/// How every client reaches the broker: dial, write the handshake, and
/// on failure redial with backoff — at most
/// [`LinkConfig::max_flush_redials`] failures since the last
/// [`renew`](Self::renew).
struct Redial {
    dialer: Box<dyn Dialer>,
    backoff: Backoff,
    budget: u32,
    /// Failures since the budget was last renewed.
    spent: u32,
    /// Whether a dial has ever succeeded: every later one is a reconnect.
    dialed: bool,
    /// A subscriber's stop flag: once set, no further dial is made.
    stop: Option<Arc<AtomicBool>>,
}

impl Redial {
    fn new(dialer: Box<dyn Dialer>, config: &LinkConfig, stop: Option<Arc<AtomicBool>>) -> Self {
        Redial {
            dialer,
            backoff: Backoff {
                base: config.backoff_base,
                cap: config.backoff_cap,
                consecutive: 0,
            },
            budget: config.max_flush_redials,
            spent: 0,
            dialed: false,
            stop,
        }
    }

    /// Starts a fresh budget.
    fn renew(&mut self) {
        self.spent = 0;
    }

    /// Counts one failure — a refused dial, a failed handshake or a dead
    /// connection. While the budget lasts, waits out the backoff and
    /// returns `true`; once it is spent, returns `false`.
    fn retry(&mut self) -> bool {
        self.spent += 1;
        if self.spent > self.budget {
            return false;
        }
        self.backoff.wait();
        true
    }

    /// Dials until a connection takes `handshake` whole. `None` once the
    /// budget is spent or the stop flag is set. Every successful dial
    /// after the client's first counts in `reconnects`.
    fn connect(&mut self, handshake: &[u8], reconnects: &AtomicU64) -> Option<Box<dyn NetStream>> {
        loop {
            if self
                .stop
                .as_ref()
                .is_some_and(|stop| stop.load(Ordering::Relaxed))
            {
                return None;
            }
            if let Ok(mut conn) = self.dialer.dial() {
                if self.dialed {
                    reconnects.fetch_add(1, Ordering::Relaxed);
                }
                self.dialed = true;
                if conn.write_all(handshake).is_ok() {
                    self.backoff.reset();
                    return Some(conn);
                }
            }
            if !self.retry() {
                return None;
            }
        }
    }
}

/// A `Hello` envelope introducing `role`.
fn hello(origin: u32, role: Role) -> Vec<u8> {
    encode_frame_to_vec(FrameKind::Hello, origin, 0, &encode_hello(role))
}

/// A subscriber's handshake: `Hello` as `role`, then `Subscribe` with its
/// resume positions.
fn subscription(role: Role, resume: &[(u32, u64)]) -> Vec<u8> {
    let mut bytes = hello(0, role);
    let payload = encode_subscribe(resume);
    encode_frame(FrameKind::Subscribe, 0, 0, &payload, &mut bytes);
    bytes
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
    redial: Redial,
    coalesce_depth: usize,
    conn: Option<Box<dyn NetStream>>,
    queue: SendQueue,
    /// Next data sequence number (starts at 1; 0 means "none yet" in
    /// resume maps). Persists across reconnects.
    next_seq: u64,
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
            redial: Redial::new(dialer, &config, None),
            coalesce_depth: config.coalesce_depth,
            conn: None,
            queue: SendQueue::new(config.queue_capacity),
            next_seq: 1,
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
            redials: self.redials.load(Ordering::Relaxed),
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

    /// Drains the queue onto the connection, redialing on failure within
    /// the budget. Frames that cannot be flushed stay queued — and a
    /// frame interrupted mid-write is rewound, to be resent whole on the
    /// next connection (the peer discarded the partial bytes with the
    /// stream).
    fn flush(&mut self) {
        self.redial.renew();
        loop {
            let mut conn = match self.conn.take() {
                Some(conn) => conn,
                None => {
                    let hello = hello(self.origin, Role::Tracer { node: self.origin });
                    let Some(conn) = self.redial.connect(&hello, &self.redials) else {
                        return;
                    };
                    self.queue.rewind_front();
                    conn
                }
            };
            if self.write_queue(&mut conn) {
                self.conn = Some(conn);
                return;
            }
            if !self.redial.retry() {
                return;
            }
        }
    }

    /// Coalesced drain: gathers the queue into bounded batches of
    /// borrowed segments and writes each with a single vectored write (or
    /// one staged write) — one syscall per batch instead of one per
    /// frame. Returns `false` if the connection died: the fully-written
    /// prefix is retired (those frames reached the peer) and the partial
    /// frame rewinds to be resent whole on the next connection.
    fn write_queue(&mut self, conn: &mut Box<dyn NetStream>) -> bool {
        let vectored = conn.vectored_writes();
        while !self.queue.is_empty() {
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
                self.queue.rewind_front();
                return false;
            }
        }
        true
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
            // A `Backfill` (no producer in this repo) is a batch on the
            // wire.
            TracerFrame::Batch { payload } | TracerFrame::Backfill { payload } => {
                (FrameKind::DataBatch, Vec::new(), payload)
            }
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
        if self.queue.len() >= self.coalesce_depth.max(1) {
            self.flush();
        }
        dropped
    }
}

/// What [`DataFeed`] makes of one frame.
enum Next {
    /// Keep reading.
    Read,
    /// The frame does not decode: drop the connection and resubscribe.
    Redial,
    /// The consumer hung up: stop for good.
    Exit,
}

/// The subscriber's reader: connect, subscribe with the resume positions,
/// and hand every frame to `feed`. A connection that ends or breaks is
/// redialed with a fresh budget. Exits once the redial budget is spent,
/// the stop flag is set, or `feed`'s consumer hangs up.
fn subscriber_loop(mut redial: Redial, role: Role, mut feed: DataFeed) {
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        redial.renew();
        let handshake = subscription(role, &feed.dedup.resume_positions());
        let Some(mut conn) = redial.connect(&handshake, &feed.stats.reconnects) else {
            return;
        };
        let mut dec = FrameDecoder::new();
        'conn: loop {
            loop {
                let next = match dec.next_raw() {
                    Ok(Some(frame)) => feed.frame(&frame),
                    Ok(None) => break,
                    Err(_) => Next::Redial,
                };
                match next {
                    Next::Read => {}
                    Next::Redial => {
                        feed.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                        conn.shutdown_stream();
                        break 'conn;
                    }
                    Next::Exit => return,
                }
            }
            match conn.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => dec.feed(&buf[..n]),
            }
        }
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
        let (tx, rx) = channel();
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ConnStats::default());
        let redial = Redial::new(dialer, &config, Some(Arc::clone(&stop)));
        let feed = DataFeed {
            dedup: SeqDedup::new(),
            stats: Arc::clone(&stats),
            tx,
        };
        let role = Role::Analyzer { shard, of };
        let thread = std::thread::spawn(move || subscriber_loop(redial, role, feed));
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

/// [`AnalyzerConn`]'s handler: dedup, decode, forward, count.
struct DataFeed {
    dedup: SeqDedup,
    stats: Arc<ConnStats>,
    tx: Sender<TracerFrame>,
}

impl DataFeed {
    /// Handles one validated frame.
    fn frame(&mut self, frame: &RawFrame) -> Next {
        if !frame.kind.is_data() {
            return Next::Read; // control frames are not expected; ignore
        }
        if self.dedup.offer(frame.origin, frame.seq) == Freshness::Duplicate {
            self.stats.duplicates.fetch_add(1, Ordering::Relaxed);
            return Next::Read;
        }
        let Some(tracer_frame) = to_tracer_frame(frame) else {
            return Next::Redial;
        };
        if self.tx.send(tracer_frame).is_err() {
            return Next::Exit; // analyzer gone: nothing left to feed
        }
        self.stats.delivered.fetch_add(1, Ordering::Relaxed);
        Next::Read
    }
}

/// Reverses [`TracerLink::send_frame`]'s payload mapping. Zero-copy: the
/// `TracerFrame` payload is a window into the validated receive bytes —
/// the same shared allocation the decoder produced, never re-copied.
fn to_tracer_frame(frame: &RawFrame) -> Option<TracerFrame> {
    let payload = Bytes::from_arc(Arc::clone(&frame.bytes)).slice(HEADER_LEN..frame.bytes.len());
    match frame.kind {
        FrameKind::DataBatch => Some(TracerFrame::Batch { payload }),
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
        // (handshake = hello 31 bytes; first data frame is fully written,
        // the second is interrupted).
        let hello_len = 31u64;
        let data_len = 26 + 5; // header + payload "alpha"
        let cut_at = hello_len + data_len + 10;
        let dialer = FaultyDialer::new(listener.dialer(), vec![FaultPlan::cut_write_at(cut_at)]);
        let mut link = TracerLink::new(9, Box::new(dialer), LinkConfig::immediate());
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
        // A dialer that always fails and counts its attempts: frames pile
        // up in the bounded queue, and every client spends exactly its
        // redial budget — the first dial plus `max_flush_redials` more —
        // before it gives up.
        struct DeadDialer(Arc<AtomicU64>);
        impl Dialer for DeadDialer {
            fn dial(&self) -> std::io::Result<Box<dyn NetStream>> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "down",
                ))
            }
        }
        let dials = Arc::new(AtomicU64::new(0));
        let dead = || Box::new(DeadDialer(Arc::clone(&dials)));
        let taken = || dials.swap(0, Ordering::Relaxed);
        let mut config = LinkConfig::immediate();
        config.queue_capacity = 2;
        config.max_flush_redials = 2;
        let budget = u64::from(config.max_flush_redials) + 1;

        let mut link = TracerLink::new(1, dead(), config.clone());
        assert_eq!(link.send_frame(batch(&[0])), 0);
        assert_eq!(taken(), budget, "one flush spends one budget");
        let mut dropped = 0;
        for i in 1..5u8 {
            dropped += link.send_frame(batch(&[i]));
        }
        assert_eq!(dropped, 3, "capacity 2: three oldest frames evicted");
        assert_eq!(link.stats().queue.dropped_oldest, 3);
        assert_eq!(link.backlog(), 2);
        assert_eq!(link.stats().redials, 0, "no dial ever succeeded");
        taken();

        let (mut conn, rx) = AnalyzerConn::spawn(dead(), 0, 1, config);
        // The reader exits on its own — dropping its sender — once the
        // budget is spent; only then is the count final.
        assert!(rx.recv().is_err(), "the reader gave up");
        assert_eq!(taken(), budget, "the reader spends one budget");
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
