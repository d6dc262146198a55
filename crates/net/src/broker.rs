//! The threaded broker: tracers publish, analyzers subscribe, the broker
//! fans data frames out through a bounded replay ring.
//!
//! Threading model: one accept thread; one reader thread per connection;
//! one writer thread per subscriber walking its own [`RingCursor`]. Every
//! subscriber receives every stream — a pathmap shard correlates each
//! front end against every candidate edge, so none can name the edges it
//! needs in advance. The only per-frame decision is the inbound
//! [`SeqDedup`] from [`registry`](crate::registry); the threads only
//! move bytes.
//!
//! A tracer connection's reader coalesces its reads in time while the
//! tracer writes in a burst: after a read that drained the socket and
//! found its data less than `TRACER_READ_PAUSE` (200 µs) after it was
//! issued, it sleeps that long before reading again, so the tracer's next
//! few flushes land in the socket buffer without waking it and are taken
//! by one read. A tracer flushing at its paced interval parks in `read`
//! between flushes and never pauses; a frame after idle is read at once,
//! a read that fills the buffer loops at once, and analyzer connections
//! never pause.
//!
//! Delivery guarantees (the reconnect invariant):
//!
//! - The broker dedups inbound data frames per origin, so a tracer
//!   resending its queue after a reconnect cannot duplicate a frame in
//!   the ring.
//! - The dedup is a per-origin high-water mark, so an origin's frames must
//!   be offered in the order its connections were made. Each connection
//!   has its own reader thread; a tracer connection therefore relays
//!   nothing until every connection accepted before it that is, or may
//!   yet turn out to be, the same tracer has been read to EOF — a
//!   once-per-`Hello` handoff.
//! - A tracer connection relays only its own node's frames: a data frame
//!   whose origin differs from the node its `Hello` named drops the
//!   connection, as a data frame before `Hello` does. Otherwise it could
//!   advance another node's high-water mark and get that node's real
//!   frames rejected as duplicates.
//! - A subscriber's `Subscribe` carries resume positions; its writer
//!   replays retained frames strictly *after* those positions, so a
//!   reconnecting analyzer receives exactly the frames it missed — and
//!   then everything published after them.
//! - Data sequence numbers start at 1; 0 means "nothing received yet".
//!
//! A thread that panics while holding one of the broker's locks poisons
//! it; every other thread recovers the guard and carries on, since each
//! critical section leaves its state consistent at every step. A reader
//! that unwinds still leaves `arrivals` (its drop guard, `Departure`),
//! so it never holds back a later connection of the same tracer.

use crate::frame::{FrameDecoder, FrameKind, RawFrame};
use crate::msg::{decode_hello, decode_subscribe, Role};
use crate::queue::{ReplayFrame, ReplayRing, RingCursor};
use crate::registry::{Freshness, SeqDedup};
use crate::stream::{
    write_coalesced, Acceptor, SplitStream, COALESCE_MAX_BYTES, COALESCE_MAX_FRAMES,
};
use std::collections::BTreeMap;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// A connected peer's id, assigned in accept order (connection-scoped).
type PeerId = u64;

/// How long a tracer connection's reader sleeps before its next read
/// while the tracer writes in a burst, so that the tracer's next flushes
/// queue in the socket buffer instead of each waking a reader parked in
/// `read`.
///
/// On loopback TCP a 106-byte write costs about 1 µs back to back, 4 µs
/// into a reader that is not parked in `read`, and 6 µs when it must
/// wake one. Only traffic written faster than one pause apart gains, and
/// in this repository that is replay-speed traffic: on `rubis_stream`,
/// which replays each step's flushes per tracer back to back, the
/// link's send was 7.7 µs a frame, about 59 % of a step, and 92 % of the
/// tracer reads now pause. There 100, 200 and 300 µs measured alike
/// (median `step_ms_p50` 7.3, 6.7 and 6.7 ms over five seeds, against
/// 8.7 ms without a pause). A tracer flushing in real time writes once
/// every 50 ms or more: its reads wait far longer than one pause, so it
/// never pauses ([`pauses_after_read`]) and pays neither the sleep's
/// timer wake-up nor its latency. A frame is relayed at most one pause
/// later, nothing against a refresh period of a second or more.
const TRACER_READ_PAUSE: Duration = Duration::from_micros(200);

/// Whether a reader pauses before its next read: only on a tracer
/// connection, only after a read that returned data without filling the
/// buffer (more may be waiting right behind a full one), and only when
/// that read's data came less than one pause after the read was issued —
/// the tracer is writing faster than a pause apart, so a pause will
/// catch its next writes.
fn pauses_after_read(role: Option<Role>, read: usize, capacity: usize, waited: Duration) -> bool {
    matches!(role, Some(Role::Tracer { .. }))
        && read > 0
        && read < capacity
        && waited < TRACER_READ_PAUSE
}

/// Takes a connection out of `arrivals` when its reader exits, on unwind
/// too: a reader that panicked must not keep a later connection of the
/// same tracer waiting at its `Hello` for ever.
struct Departure<'a> {
    shared: &'a Shared,
    peer: PeerId,
}

impl Drop for Departure<'_> {
    fn drop(&mut self) {
        self.shared
            .arrivals
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.peer);
        self.shared.arrivals_changed.notify_all();
    }
}

/// Broker tuning knobs.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Frames retained for replay to late or reconnecting subscribers.
    /// When full the oldest frame is evicted (drop-oldest, counted).
    pub ring_capacity: usize,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            ring_capacity: 4096,
        }
    }
}

struct Shared {
    ring: ReplayRing,
    dedup: Mutex<SeqDedup>,
    /// Every connection that may still relay a tracer's data frames, in
    /// accept order: `None` until it has said `Hello`, then the tracer's
    /// node. Other roles leave at their `Hello`, everyone when their
    /// reader exits.
    ///
    /// A tracer forgets a frame once it is fully *written*, and redials
    /// as soon as a write fails — while the dead connection's reader may
    /// not have drained (or even started on) what was written to it. If
    /// the new connection's reader offered its frames first, the
    /// high-water dedup would reject the old connection's as duplicates:
    /// a silent loss. So a tracer's reader waits here, once, at its
    /// `Hello`, until no earlier arrival is unidentified or the same
    /// node.
    arrivals: Mutex<BTreeMap<PeerId, Option<u32>>>,
    arrivals_changed: Condvar,
    /// Data frames written to subscriber connections.
    delivered: AtomicU64,
    next_peer: AtomicU64,
}

/// A handle to a running broker. Dropping it shuts the broker down.
pub struct BrokerHandle {
    shared: Arc<Shared>,
    acceptor: Arc<dyn Acceptor>,
}

impl BrokerHandle {
    /// Spawns a broker serving connections from `acceptor`.
    pub fn spawn(acceptor: Arc<dyn Acceptor>, config: BrokerConfig) -> BrokerHandle {
        let shared = Arc::new(Shared {
            ring: ReplayRing::new(config.ring_capacity),
            dedup: Mutex::new(SeqDedup::new()),
            arrivals: Mutex::new(BTreeMap::new()),
            arrivals_changed: Condvar::new(),
            delivered: AtomicU64::new(0),
            next_peer: AtomicU64::new(1),
        });
        {
            let shared = Arc::clone(&shared);
            let acceptor = Arc::clone(&acceptor);
            thread::spawn(move || accept_loop(&*acceptor, &shared));
        }
        BrokerHandle { shared, acceptor }
    }

    /// Stops accepting and wakes every subscriber writer so their threads
    /// exit. Live reader threads exit as their peers disconnect.
    pub fn shutdown(&self) {
        self.acceptor.close_acceptor();
        self.shared.ring.close();
    }

    /// Frames evicted from the replay ring under backpressure.
    pub fn ring_dropped(&self) -> u64 {
        self.shared.ring.dropped()
    }

    /// Inbound data frames rejected as per-origin duplicates.
    pub fn duplicates_rejected(&self) -> u64 {
        self.shared
            .dedup
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .duplicates
    }

    /// Data frames written to subscriber connections.
    pub fn delivered(&self) -> u64 {
        self.shared.delivered.load(Ordering::Relaxed)
    }
}

impl Drop for BrokerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(acceptor: &dyn Acceptor, shared: &Arc<Shared>) {
    while let Ok(conn) = acceptor.accept_conn() {
        let peer = shared.next_peer.fetch_add(1, Ordering::Relaxed);
        // Enrolled here, not by the reader: accept order is the order the
        // peer dialed in, whichever reader thread gets to run first.
        shared
            .arrivals
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(peer, None);
        let shared = Arc::clone(shared);
        thread::spawn(move || serve_conn(conn, peer, &shared));
    }
}

/// Per-connection reader loop: validate envelopes, dispatch, clean up on
/// any exit path (EOF, IO error, framing error, protocol misuse).
///
/// Decoding is via [`FrameDecoder::next_raw`]: every frame is validated
/// (header bounds + CRC over header and payload) but *not* decoded —
/// data frames relay their original bytes, only control frames parse
/// their payloads.
///
/// A tracer connection's reads are coalesced in time
/// ([`TRACER_READ_PAUSE`]): the pause comes after the frames of a read
/// are relayed, so it delays the *next* read only.
fn serve_conn(mut conn: Box<dyn SplitStream>, peer: PeerId, shared: &Arc<Shared>) {
    let departure = Departure { shared, peer };
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut role: Option<Role> = None;
    let mut pause = false;
    'conn: loop {
        loop {
            match dec.next_raw() {
                Ok(Some(frame)) => {
                    if handle_frame(&frame, &mut conn, peer, &mut role, shared).is_err() {
                        conn.shutdown_stream();
                        break 'conn;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Framing/corruption error: the stream position is
                    // untrustworthy — drop the connection; the peer
                    // reconnects and resumes.
                    conn.shutdown_stream();
                    break 'conn;
                }
            }
        }
        if pause {
            thread::sleep(TRACER_READ_PAUSE);
        }
        let issued = Instant::now();
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                // `role` is still what the connection said before this
                // read: the read carrying `Hello` waited on the dial, not
                // on the tracer's pace, and never pauses.
                pause = pauses_after_read(role, n, buf.len(), issued.elapsed());
                dec.feed(&buf[..n]);
            }
        }
    }
    // Everything this connection carried has been relayed: a successor of
    // the same tracer may proceed.
    drop(departure);
    // Wake a writer blocked on this connection, if any.
    conn.shutdown_stream();
}

fn handle_frame(
    frame: &RawFrame,
    conn: &mut Box<dyn SplitStream>,
    peer: PeerId,
    role: &mut Option<Role>,
    shared: &Arc<Shared>,
) -> Result<(), ()> {
    match frame.kind {
        FrameKind::Hello => {
            let hello = decode_hello(frame.payload()).map_err(|_| ())?;
            *role = Some(hello);
            let mut arrivals = shared
                .arrivals
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let Role::Tracer { node } = hello else {
                arrivals.remove(&peer);
                shared.arrivals_changed.notify_all();
                return Ok(());
            };
            arrivals.insert(peer, Some(node));
            shared.arrivals_changed.notify_all();
            let ahead = |arrivals: &mut BTreeMap<PeerId, Option<u32>>| {
                arrivals
                    .range(..peer)
                    .any(|(_, who)| who.is_none_or(|other| other == node))
            };
            drop(
                shared
                    .arrivals_changed
                    .wait_while(arrivals, ahead)
                    .unwrap_or_else(PoisonError::into_inner),
            );
            Ok(())
        }
        FrameKind::Subscribe => {
            let Some(Role::Analyzer { .. }) = *role else {
                return Err(());
            };
            let resume = decode_subscribe(frame.payload()).map_err(|_| ())?;
            let cursor = shared.ring.cursor_resuming(&resume);
            let writer = conn.try_clone_stream().map_err(|_| ())?;
            let resume: BTreeMap<u32, u64> = resume.into_iter().collect();
            let shared = Arc::clone(shared);
            thread::spawn(move || subscriber_writer(writer, cursor, resume, &shared));
            Ok(())
        }
        FrameKind::DataBatch | FrameKind::DataSeries => {
            // Data before `Hello`, from a subscriber, or naming another
            // node's origin: drop the connection.
            let Some(Role::Tracer { node }) = *role else {
                return Err(());
            };
            if frame.origin != node {
                return Err(());
            }
            let fresh = shared
                .dedup
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .offer(frame.origin, frame.seq);
            if fresh == Freshness::Fresh {
                // Pass-through relay: the envelope already carries a CRC
                // over header and payload that this decoder verified, so
                // the validated receive bytes are pushed to the ring
                // as-is — no payload decode, no re-encode, no copy.
                shared.ring.push(ReplayFrame {
                    origin: frame.origin,
                    seq: frame.seq,
                    bytes: Arc::clone(&frame.bytes),
                });
            }
            Ok(())
        }
    }
}

/// Fan-out loop for one subscriber: walk the ring, skip frames the
/// subscriber already holds (resume positions), write the rest. Exits
/// when the ring closes or the connection dies.
///
/// Frames are drained in coalesced batches: one blocking read, then
/// non-blocking reads extend the batch until the ring runs dry or the
/// batch reaches [`COALESCE_MAX_BYTES`]/[`COALESCE_MAX_FRAMES`], and the
/// whole batch is flushed with one vectored write (or one staged write on
/// streams without genuine vectored support). Batches never wait for
/// more data — a lone frame flushes immediately — so coalescing trades
/// zero latency for fewer syscalls.
fn subscriber_writer(
    mut stream: Box<dyn SplitStream>,
    mut cursor: RingCursor,
    resume: BTreeMap<u32, u64>,
    shared: &Arc<Shared>,
) {
    let vectored = stream.vectored_writes();
    let mut batch: Vec<ReplayFrame> = Vec::new();
    let mut staging: Vec<u8> = Vec::new();
    'conn: while let Some(first) = cursor.next_blocking() {
        batch.clear();
        let mut bytes = 0usize;
        let mut next = Some(first);
        loop {
            if let Some(frame) = next.take() {
                if frame.seq > resume.get(&frame.origin).copied().unwrap_or(0) {
                    bytes += frame.bytes.len();
                    batch.push(frame);
                }
            }
            if bytes >= COALESCE_MAX_BYTES || batch.len() >= COALESCE_MAX_FRAMES {
                break;
            }
            match cursor.try_next() {
                Some(frame) => next = Some(frame),
                None => break,
            }
        }
        if batch.is_empty() {
            continue;
        }
        let bufs: Vec<&[u8]> = batch.iter().map(|f| f.bytes.as_ref()).collect();
        let (written, err) = write_coalesced(&mut stream, vectored, &bufs, &mut staging);
        // Count exactly the frames that were *fully* written — the
        // delivery counter feeds the pipeline's deterministic barrier, so
        // a frame cut mid-envelope (discarded by the peer's decoder and
        // replayed on resubscribe) must not be counted here.
        let mut delivered = 0u64;
        let mut acc = 0usize;
        for frame in &batch {
            acc += frame.bytes.len();
            if acc > written {
                break;
            }
            delivered += 1;
        }
        if delivered > 0 {
            shared.delivered.fetch_add(delivered, Ordering::Relaxed);
        }
        if err.is_some() {
            break 'conn;
        }
    }
    stream.shutdown_stream();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, encode_frame_to_vec, Frame};
    use crate::mem::MemListener;
    use crate::msg::{encode_hello, encode_subscribe};
    use crate::stream::{Dialer, NetStream};
    use std::io::Write;
    use std::sync::mpsc;

    fn data_frame(origin: u32, seq: u64, byte: u8) -> Vec<u8> {
        encode_frame_to_vec(FrameKind::DataBatch, origin, seq, &[byte])
    }

    fn tracer_hello(node: u32) -> Vec<u8> {
        encode_frame_to_vec(
            FrameKind::Hello,
            node,
            0,
            &encode_hello(Role::Tracer { node }),
        )
    }

    fn subscribe(resume: &[(u32, u64)]) -> Vec<u8> {
        let mut out = encode_frame_to_vec(
            FrameKind::Hello,
            0,
            0,
            &encode_hello(Role::Analyzer { shard: 0, of: 1 }),
        );
        encode_frame(
            FrameKind::Subscribe,
            0,
            0,
            &encode_subscribe(resume),
            &mut out,
        );
        out
    }

    fn read_data(conn: &mut Box<dyn NetStream>, n: usize) -> Vec<Frame> {
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 4096];
        let mut out = Vec::new();
        while out.len() < n {
            let got = conn.read(&mut buf).expect("subscriber read");
            assert!(got > 0, "unexpected EOF from broker");
            dec.feed(&buf[..got]);
            while let Some(frame) = dec.next_frame().expect("valid frame") {
                out.push(frame);
            }
        }
        out
    }

    #[test]
    fn publishes_reach_subscriber() {
        let listener = Arc::new(MemListener::new());
        let broker = BrokerHandle::spawn(listener.clone(), BrokerConfig::default());
        let dialer = listener.dialer();

        let mut tracer = dialer.dial().unwrap();
        let mut bytes = tracer_hello(7);
        bytes.extend(data_frame(7, 1, 0xAA));
        bytes.extend(data_frame(7, 2, 0xBB));
        tracer.write_all(&bytes).unwrap();

        let mut sub = dialer.dial().unwrap();
        sub.write_all(&subscribe(&[])).unwrap();
        let frames = read_data(&mut sub, 2);
        assert_eq!(frames[0].seq, 1);
        assert_eq!(frames[0].payload.as_ref(), &[0xAA]);
        assert_eq!(frames[1].seq, 2);
        // The writer counts a batch once its write returns, which may be
        // after the subscriber has read it.
        for _ in 0..1_000_000 {
            if broker.delivered() >= 2 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(broker.delivered(), 2);
        broker.shutdown();
    }

    #[test]
    fn only_a_tracer_in_a_burst_pauses_and_only_after_a_draining_read() {
        let tracer = Some(Role::Tracer { node: 1 });
        let analyzer = Some(Role::Analyzer { shard: 0, of: 1 });
        let burst = Duration::from_micros(70);
        assert!(pauses_after_read(tracer, 106, 4096, burst));
        assert!(pauses_after_read(tracer, 1, 4096, Duration::ZERO));
        assert!(!pauses_after_read(tracer, 0, 4096, burst), "EOF or no data");
        assert!(
            !pauses_after_read(tracer, 4096, 4096, burst),
            "a full read loops"
        );
        assert!(!pauses_after_read(analyzer, 106, 4096, burst));
        assert!(!pauses_after_read(None, 106, 4096, burst), "before `Hello`");
        // A tracer flushing at its paced interval: its read parked for the
        // whole gap, so a pause would catch nothing.
        let paced = Duration::from_millis(50);
        assert!(!pauses_after_read(tracer, 106, 4096, paced));
        assert!(!pauses_after_read(tracer, 106, 4096, TRACER_READ_PAUSE));
    }

    #[test]
    fn a_reader_that_panics_still_leaves_arrivals() {
        let shared = Arc::new(Shared {
            ring: ReplayRing::new(16),
            dedup: Mutex::new(SeqDedup::new()),
            arrivals: Mutex::new(BTreeMap::from([(1, None), (2, Some(7))])),
            arrivals_changed: Condvar::new(),
            delivered: AtomicU64::new(0),
            next_peer: AtomicU64::new(3),
        });
        let reader = Arc::clone(&shared);
        let unwound = std::thread::spawn(move || {
            let _departure = Departure {
                shared: &reader,
                peer: 1,
            };
            let _held = reader.arrivals.lock().unwrap();
            panic!("a reader dies holding the arrivals lock");
        })
        .join();
        assert!(unwound.is_err());
        let arrivals = shared
            .arrivals
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        assert_eq!(*arrivals, BTreeMap::from([(2, Some(7))]));
    }

    #[test]
    fn tracers_writing_frame_by_frame_are_relayed_once_in_order() {
        const TRACERS: u32 = 3;
        const FRAMES: u64 = 8;
        let listener = Arc::new(MemListener::new());
        let broker = BrokerHandle::spawn(listener.clone(), BrokerConfig::default());
        let dialer = listener.dialer();

        let mut sub = dialer.dial().unwrap();
        sub.write_all(&subscribe(&[])).unwrap();
        let writers: Vec<_> = (1..=TRACERS)
            .map(|node| {
                let mut tracer = dialer.dial().unwrap();
                std::thread::spawn(move || {
                    tracer.write_all(&tracer_hello(node)).unwrap();
                    // One write per frame, some back to back and some
                    // spaced, so reads land both inside and after pauses.
                    for seq in 1..=FRAMES {
                        tracer.write_all(&data_frame(node, seq, seq as u8)).unwrap();
                        if seq % 3 == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                    }
                    tracer
                })
            })
            .collect();

        let frames = read_data(&mut sub, (TRACERS as u64 * FRAMES) as usize);
        let mut seqs: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for frame in &frames {
            assert_eq!(frame.payload.as_ref(), &[frame.seq as u8]);
            seqs.entry(frame.origin).or_default().push(frame.seq);
        }
        let each: Vec<u64> = (1..=FRAMES).collect();
        assert_eq!(seqs.len(), TRACERS as usize);
        for (origin, got) in &seqs {
            assert_eq!(got, &each, "origin {origin}: every frame once, in order");
        }
        assert_eq!(broker.duplicates_rejected(), 0);
        for writer in writers {
            writer.join().unwrap().shutdown_stream();
        }
        broker.shutdown();
    }

    #[test]
    fn a_tracer_sending_another_nodes_origin_is_dropped() {
        let listener = Arc::new(MemListener::new());
        let broker = BrokerHandle::spawn(listener.clone(), BrokerConfig::default());
        let dialer = listener.dialer();

        let mut sub = dialer.dial().unwrap();
        sub.write_all(&subscribe(&[])).unwrap();

        // Node 5 claims a frame of node 6, far ahead of node 6's real
        // sequence: the broker closes the connection.
        let mut spoofer = dialer.dial().unwrap();
        let mut bytes = tracer_hello(5);
        bytes.extend(data_frame(6, 100, 0xEE));
        spoofer.write_all(&bytes).unwrap();
        let (closed_tx, closed) = mpsc::channel();
        std::thread::spawn(move || {
            let mut buf = [0u8; 16];
            while matches!(spoofer.read(&mut buf), Ok(got) if got > 0) {}
            let _ = closed_tx.send(());
        });
        closed
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the broker closes the spoofing connection");

        // The honest node 6 starts at seq 1 and is delivered — as the
        // first frame, so nothing of the spoofer's was relayed before it.
        let mut honest = dialer.dial().unwrap();
        let mut bytes = tracer_hello(6);
        bytes.extend(data_frame(6, 1, 0x61));
        honest.write_all(&bytes).unwrap();
        let frames = read_data(&mut sub, 1);
        assert_eq!((frames[0].origin, frames[0].seq), (6, 1));
        assert_eq!(frames[0].payload.as_ref(), &[0x61]);
        assert_eq!(broker.duplicates_rejected(), 0);
        broker.shutdown();
    }

    #[test]
    fn resume_positions_suppress_replay() {
        let listener = Arc::new(MemListener::new());
        let broker = BrokerHandle::spawn(listener.clone(), BrokerConfig::default());
        let dialer = listener.dialer();

        let mut tracer = dialer.dial().unwrap();
        let mut bytes = tracer_hello(3);
        for seq in 1..=3 {
            bytes.extend(data_frame(3, seq, seq as u8));
        }
        tracer.write_all(&bytes).unwrap();

        // Subscriber already holds seq 1 and 2 of origin 3.
        let mut sub = dialer.dial().unwrap();
        sub.write_all(&subscribe(&[(3, 2)])).unwrap();
        let frames = read_data(&mut sub, 1);
        assert_eq!(frames[0].seq, 3, "only the missed frame is replayed");
        broker.shutdown();
    }

    #[test]
    fn tracer_resend_is_not_double_delivered() {
        let listener = Arc::new(MemListener::new());
        let broker = BrokerHandle::spawn(listener.clone(), BrokerConfig::default());
        let dialer = listener.dialer();

        let mut sub = dialer.dial().unwrap();
        sub.write_all(&subscribe(&[])).unwrap();

        let mut tracer = dialer.dial().unwrap();
        let mut bytes = tracer_hello(5);
        bytes.extend(data_frame(5, 1, 1));
        bytes.extend(data_frame(5, 2, 2));
        tracer.write_all(&bytes).unwrap();
        tracer.shutdown_stream();
        // Each connection has its own reader thread. Seeing the first
        // connection's frames arrive before reconnecting fixes the order:
        // it is the resend that gets rejected, never the original.
        let mut seqs: Vec<u64> = read_data(&mut sub, 2).iter().map(|f| f.seq).collect();

        // Reconnect and conservatively resend everything plus one new.
        let mut tracer = dialer.dial().unwrap();
        let mut bytes = tracer_hello(5);
        for seq in 1..=3 {
            bytes.extend(data_frame(5, seq, seq as u8));
        }
        tracer.write_all(&bytes).unwrap();

        seqs.extend(read_data(&mut sub, 1).iter().map(|f| f.seq));
        assert_eq!(seqs, vec![1, 2, 3], "each frame delivered exactly once");
        for _ in 0..1_000_000 {
            if broker.duplicates_rejected() >= 2 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(broker.duplicates_rejected(), 2);
        broker.shutdown();
    }

    /// A connection whose broker-side reads are held until the gate's
    /// sender is dropped: a reader thread that has fallen behind.
    struct StalledStream {
        inner: Box<dyn SplitStream>,
        gate: Arc<Mutex<mpsc::Receiver<()>>>,
    }

    impl Read for StalledStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            // Blocks while the sender lives; an error ever after.
            let _ = self.gate.lock().expect("gate lock").recv();
            self.inner.read(buf)
        }
    }

    impl Write for StalledStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.inner.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    impl NetStream for StalledStream {
        fn shutdown_stream(&mut self) {
            self.inner.shutdown_stream();
        }
    }

    impl SplitStream for StalledStream {
        fn try_clone_stream(&self) -> std::io::Result<Box<dyn SplitStream>> {
            Ok(Box::new(StalledStream {
                inner: self.inner.try_clone_stream()?,
                gate: Arc::clone(&self.gate),
            }))
        }
    }

    /// Hands the broker its `stalled`-th connection (in accept order) as a
    /// [`StalledStream`].
    struct StallingAcceptor {
        inner: MemListener,
        stalled: u64,
        accepted: AtomicU64,
        gate: Arc<Mutex<mpsc::Receiver<()>>>,
    }

    impl Acceptor for StallingAcceptor {
        fn accept_conn(&self) -> std::io::Result<Box<dyn SplitStream>> {
            let inner = self.inner.accept_conn()?;
            if self.accepted.fetch_add(1, Ordering::Relaxed) != self.stalled {
                return Ok(inner);
            }
            Ok(Box::new(StalledStream {
                inner,
                gate: Arc::clone(&self.gate),
            }))
        }

        fn close_acceptor(&self) {
            self.inner.close_acceptor();
        }
    }

    #[test]
    fn a_dead_connections_frames_are_relayed_before_its_successors() {
        let listener = MemListener::new();
        let (open_gate, gate) = mpsc::channel();
        let broker = BrokerHandle::spawn(
            Arc::new(StallingAcceptor {
                inner: listener.clone(),
                stalled: 1,
                accepted: AtomicU64::new(0),
                gate: Arc::new(Mutex::new(gate)),
            }),
            BrokerConfig::default(),
        );
        let dialer = listener.dialer();

        let mut sub = dialer.dial().unwrap();
        sub.write_all(&subscribe(&[])).unwrap();

        // The tracer wrote one frame in full, then its connection died.
        // The broker's reader of that connection is stalled: it has not
        // even seen the `Hello` yet.
        let mut dead = dialer.dial().unwrap();
        let mut bytes = tracer_hello(5);
        bytes.extend(data_frame(5, 1, 1));
        dead.write_all(&bytes).unwrap();
        dead.shutdown_stream();

        // The tracer redials and carries on from the frame after.
        let mut tracer = dialer.dial().unwrap();
        let mut bytes = tracer_hello(5);
        bytes.extend(data_frame(5, 2, 2));
        bytes.extend(data_frame(5, 3, 3));
        tracer.write_all(&bytes).unwrap();

        // Give the successor every chance to overtake. A broker that lets
        // it relays seq 2 and 3 within this budget — and then rejects
        // seq 1 as a duplicate; one that makes it wait has nothing of
        // origin 5 to deliver however long this spins.
        for _ in 0..100_000 {
            if broker.delivered() > 0 {
                break;
            }
            std::thread::yield_now();
        }
        drop(open_gate);
        tracer.write_all(&data_frame(5, 4, 4)).unwrap();

        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 4096];
        let mut seqs = Vec::new();
        while seqs.last() != Some(&4) {
            let got = sub.read(&mut buf).expect("subscriber read");
            assert!(got > 0, "unexpected EOF from broker");
            dec.feed(&buf[..got]);
            while let Some(frame) = dec.next_frame().expect("valid frame") {
                seqs.push(frame.seq);
            }
        }
        assert_eq!(seqs, vec![1, 2, 3, 4], "nothing lost, in order");
        assert_eq!(broker.duplicates_rejected(), 0);
        broker.shutdown();
    }

    #[test]
    fn corrupt_stream_drops_connection_not_broker() {
        let listener = Arc::new(MemListener::new());
        let broker = BrokerHandle::spawn(listener.clone(), BrokerConfig::default());
        let dialer = listener.dialer();

        let mut bad = dialer.dial().unwrap();
        bad.write_all(b"not a frame at all").unwrap();
        // The broker shuts the corrupt connection; our next read sees EOF.
        let mut buf = [0u8; 16];
        loop {
            match bad.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }

        // The broker still serves fresh connections.
        let mut tracer = dialer.dial().unwrap();
        let mut bytes = tracer_hello(1);
        bytes.extend(data_frame(1, 1, 9));
        tracer.write_all(&bytes).unwrap();
        let mut sub = dialer.dial().unwrap();
        sub.write_all(&subscribe(&[])).unwrap();
        let frames = read_data(&mut sub, 1);
        assert_eq!(frames[0].payload.as_ref(), &[9]);
        broker.shutdown();
    }
}
