//! The threaded broker: tracers announce and publish, analyzers
//! subscribe, the broker fans data frames out through a bounded replay
//! ring.
//!
//! Threading model: one accept thread; one reader thread per connection;
//! one writer thread per subscriber walking its own [`RingCursor`]. The
//! routing/dedup brain is the pure [`Registry`]/[`SeqDedup`] pair from
//! [`registry`](crate::registry) — the threads only move bytes.
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
//! - A subscriber's `Subscribe` carries resume positions; its writer
//!   replays retained frames strictly *after* those positions, so a
//!   reconnecting analyzer receives exactly the frames it missed.
//! - Data sequence numbers start at 1; 0 means "nothing received yet".

use crate::frame::{FrameDecoder, FrameKind, RawFrame};
use crate::msg::{decode_announce, decode_hello, decode_subscribe, Role, SubscribeSpec};
use crate::queue::{ReplayFrame, ReplayRing, RingCursor};
use crate::registry::{Freshness, PeerId, Registry, SeqDedup};
use crate::stream::{
    write_coalesced, Acceptor, SplitStream, COALESCE_MAX_BYTES, COALESCE_MAX_FRAMES,
};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

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

/// The broker's hint-routing state: the latest full-state reduction
/// snapshot per analyzer shard (keyed by the shard's synthetic hint
/// origin) plus the live tracer-side hint subscribers.
///
/// Because snapshots are full-state and idempotent, retaining only the
/// latest per shard suffices: a late or reconnecting subscriber replayed
/// just the latest snapshots converges to exactly the state an
/// uninterrupted subscriber holds.
#[derive(Default)]
struct HintHub {
    /// Hint origin → (seq, fully encoded `Hint` envelope).
    latest: BTreeMap<u32, (u64, Arc<[u8]>)>,
    /// Live hint subscribers. The hub lock guards only this list and
    /// `latest`; actual socket writes happen under each subscriber's own
    /// writer mutex, so one stalled tracer cannot freeze fan-out to the
    /// others or block new `HintSub` handshakes (head-of-line fix).
    subs: Vec<HintSub>,
    /// Set on broker shutdown. A hint subscription arriving afterwards is
    /// rejected (its connection closed) instead of registered: the accept
    /// thread may outlive shutdown on kernel listeners, and a sub
    /// registered after the shutdown sweep would block its reader on a
    /// stream nobody will ever write to or close.
    closed: bool,
}

/// A hint subscriber's shareable write half: publishers lock this
/// per-subscriber mutex — never the hub lock — while writing, so writes
/// to independent subscribers proceed concurrently and a stall affects
/// only its own connection.
type HintWriter = Arc<Mutex<Box<dyn SplitStream>>>;

/// One live hint subscriber.
struct HintSub {
    peer: PeerId,
    /// Write half; see [`HintWriter`].
    writer: HintWriter,
    /// A second handle to the same connection used by shutdown: closing
    /// via the kernel/pipe layer needs no writer mutex, so it unwedges a
    /// publisher blocked mid-write on this subscriber.
    closer: Box<dyn SplitStream>,
}

struct Shared {
    registry: Mutex<Registry>,
    /// Bumped (under the registry lock) whenever the origin → edges map
    /// changes — announcements and tracer disconnects. Subscriber writers
    /// compare it against their cached fan-out filter's generation and
    /// rebuild the cache lazily, so the steady-state data path never
    /// takes the registry lock.
    registry_gen: AtomicU64,
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
    /// node. (It also keeps the old connection's `tracer_disconnected`
    /// from wiping the new one's announcement.)
    arrivals: Mutex<BTreeMap<PeerId, Option<u32>>>,
    arrivals_changed: Condvar,
    hints: Mutex<HintHub>,
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
            registry: Mutex::new(Registry::new()),
            registry_gen: AtomicU64::new(0),
            ring: ReplayRing::new(config.ring_capacity),
            dedup: Mutex::new(SeqDedup::new()),
            arrivals: Mutex::new(BTreeMap::new()),
            arrivals_changed: Condvar::new(),
            hints: Mutex::new(HintHub::default()),
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
        let subs = {
            let mut hub = self.shared.hints.lock().expect("hint lock");
            hub.closed = true;
            std::mem::take(&mut hub.subs)
        };
        // Close via the dedicated closer handles, outside the hub lock and
        // without touching the writer mutexes — a publisher blocked
        // mid-write on a stalled subscriber is unwedged by the close.
        for mut sub in subs {
            sub.closer.shutdown_stream();
        }
    }

    /// Frames evicted from the replay ring under backpressure.
    pub fn ring_dropped(&self) -> u64 {
        self.shared.ring.dropped()
    }

    /// Inbound data frames rejected as per-origin duplicates.
    pub fn duplicates_rejected(&self) -> u64 {
        self.shared.dedup.lock().expect("dedup lock").duplicates
    }

    /// Data frames written to subscriber connections.
    pub fn delivered(&self) -> u64 {
        self.shared.delivered.load(Ordering::Relaxed)
    }

    /// Live subscriber count.
    pub fn subscriber_count(&self) -> usize {
        self.shared
            .registry
            .lock()
            .expect("registry lock")
            .subscriber_count()
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
            .expect("arrivals lock")
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
fn serve_conn(mut conn: Box<dyn SplitStream>, peer: PeerId, shared: &Arc<Shared>) {
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut role: Option<Role> = None;
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
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => dec.feed(&buf[..n]),
            Err(_) => break,
        }
    }
    match role {
        Some(Role::Tracer { node }) => {
            let mut registry = shared.registry.lock().expect("registry lock");
            registry.tracer_disconnected(node);
            // Origin → edges changed; invalidate cached fan-out filters.
            shared.registry_gen.fetch_add(1, Ordering::Release);
        }
        Some(Role::Analyzer { .. }) => shared
            .registry
            .lock()
            .expect("registry lock")
            .subscriber_disconnected(peer),
        Some(Role::HintSub { .. }) => shared
            .hints
            .lock()
            .expect("hint lock")
            .subs
            .retain(|s| s.peer != peer),
        None => {}
    }
    // Everything this connection carried has been relayed and its
    // registry entry is gone: a successor of the same tracer may proceed.
    shared.arrivals.lock().expect("arrivals lock").remove(&peer);
    shared.arrivals_changed.notify_all();
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
            let mut arrivals = shared.arrivals.lock().expect("arrivals lock");
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
                    .expect("arrivals lock"),
            );
            Ok(())
        }
        FrameKind::Announce => {
            let Some(Role::Tracer { node }) = *role else {
                return Err(());
            };
            let edges = decode_announce(frame.payload()).map_err(|_| ())?;
            let mut registry = shared.registry.lock().expect("registry lock");
            registry.announce(node, &edges);
            // Origin → edges changed; invalidate cached fan-out filters.
            shared.registry_gen.fetch_add(1, Ordering::Release);
            Ok(())
        }
        FrameKind::Subscribe => match *role {
            Some(Role::Analyzer { .. }) => {
                let sub = decode_subscribe(frame.payload()).map_err(|_| ())?;
                shared
                    .registry
                    .lock()
                    .expect("registry lock")
                    .subscribe(peer, sub.spec.clone());
                let cursor = shared.ring.cursor_resuming(&sub.resume);
                let writer = conn.try_clone_stream().map_err(|_| ())?;
                let resume: BTreeMap<u32, u64> = sub.resume.iter().copied().collect();
                let shared = Arc::clone(shared);
                thread::spawn(move || {
                    subscriber_writer(writer, cursor, resume, sub.spec, &shared);
                });
                Ok(())
            }
            Some(Role::HintSub { .. }) => {
                // A tracer subscribing to reduction hints: replay the
                // latest stored snapshot per shard (skipping what the
                // subscriber already holds), then keep the write half for
                // live fan-out. Replay writes happen *outside* the hub
                // lock; the loop re-checks for snapshots that arrived
                // while writing and registers only once caught up, so no
                // snapshot is missed and no other subscriber stalls
                // behind this handshake.
                let sub = decode_subscribe(frame.payload()).map_err(|_| ())?;
                let mut have: BTreeMap<u32, u64> = sub.resume.iter().copied().collect();
                let writer = Arc::new(Mutex::new(conn.try_clone_stream().map_err(|_| ())?));
                let mut closer = Some(conn.try_clone_stream().map_err(|_| ())?);
                loop {
                    let pending: Vec<(u32, u64, Arc<[u8]>)> = {
                        let mut hub = shared.hints.lock().expect("hint lock");
                        if hub.closed {
                            return Err(());
                        }
                        let pending: Vec<_> = hub
                            .latest
                            .iter()
                            .filter(|(origin, (seq, _))| {
                                *seq > have.get(origin).copied().unwrap_or(0)
                            })
                            .map(|(origin, (seq, bytes))| (*origin, *seq, Arc::clone(bytes)))
                            .collect();
                        if pending.is_empty() {
                            hub.subs.push(HintSub {
                                peer,
                                writer: Arc::clone(&writer),
                                closer: closer.take().expect("closer consumed once"),
                            });
                            return Ok(());
                        }
                        pending
                    };
                    for (origin, seq, bytes) in pending {
                        let mut w = writer.lock().expect("hint writer lock");
                        w.write_all(&bytes).map_err(|_| ())?;
                        drop(w);
                        have.insert(origin, seq);
                    }
                }
            }
            _ => Err(()),
        },
        FrameKind::DataBatch | FrameKind::DataSeries | FrameKind::Backfill => {
            let Some(Role::Tracer { .. }) = *role else {
                return Err(());
            };
            let fresh = shared
                .dedup
                .lock()
                .expect("dedup lock")
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
        FrameKind::Hint => {
            let Some(Role::Analyzer { .. }) = *role else {
                return Err(());
            };
            let fresh = shared
                .dedup
                .lock()
                .expect("dedup lock")
                .offer(frame.origin, frame.seq);
            if fresh == Freshness::Fresh {
                // Pass-through for hints too: store and fan out the
                // validated receive bytes.
                let bytes = Arc::clone(&frame.bytes);
                let targets: Vec<(PeerId, HintWriter)> = {
                    let mut hub = shared.hints.lock().expect("hint lock");
                    hub.latest
                        .insert(frame.origin, (frame.seq, Arc::clone(&bytes)));
                    hub.subs
                        .iter()
                        .map(|s| (s.peer, Arc::clone(&s.writer)))
                        .collect()
                };
                // Writes go through each subscriber's own mutex with the
                // hub lock released: a stalled subscriber delays only
                // itself. Dead subscribers are swept afterwards; they
                // re-subscribe with resume positions and get the latest
                // snapshot back.
                let mut dead = Vec::new();
                for (peer, sub_writer) in targets {
                    let mut w = sub_writer.lock().expect("hint writer lock");
                    if w.write_all(&bytes).is_err() {
                        dead.push(peer);
                    }
                }
                if !dead.is_empty() {
                    let mut hub = shared.hints.lock().expect("hint lock");
                    hub.subs.retain(|s| !dead.contains(&s.peer));
                }
            }
            Ok(())
        }
    }
}

/// A subscriber's fan-out filter with a generation-validated cache.
///
/// `Edges` subscriptions need the registry's origin → edges map to decide
/// whether a frame is wanted. Taking the registry lock per frame would
/// serialize every subscriber writer against announce traffic, so each
/// writer memoizes `origin → wanted` and only falls back to the lock on a
/// cache miss. The cache is invalidated wholesale whenever
/// `Shared::registry_gen` moves — announcements and tracer disconnects
/// bump it under the registry lock, so any mutation after the generation
/// was sampled forces a rebuild on the next frame.
struct FanoutFilter {
    spec: SubscribeSpec,
    cache: BTreeMap<u32, bool>,
    generation: u64,
}

impl FanoutFilter {
    fn new(spec: SubscribeSpec) -> Self {
        FanoutFilter {
            spec,
            cache: BTreeMap::new(),
            generation: u64::MAX,
        }
    }

    fn wanted(&mut self, origin: u32, shared: &Shared) -> bool {
        let want = match &self.spec {
            SubscribeSpec::All => return true,
            SubscribeSpec::Edges(want) => want,
        };
        let generation = shared.registry_gen.load(Ordering::Acquire);
        if generation != self.generation {
            self.cache.clear();
            self.generation = generation;
        }
        if let Some(&wanted) = self.cache.get(&origin) {
            return wanted;
        }
        let wanted = {
            let registry = shared.registry.lock().expect("registry lock");
            let have = registry.edges_of(origin);
            want.iter().any(|e| have.contains(e))
        };
        self.cache.insert(origin, wanted);
        wanted
    }
}

/// Fan-out loop for one subscriber: walk the ring, skip frames the
/// subscriber already holds (resume positions) or did not ask for (spec),
/// write the rest. Exits when the ring closes or the connection dies.
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
    spec: SubscribeSpec,
    shared: &Arc<Shared>,
) {
    let vectored = stream.vectored_writes();
    let mut filter = FanoutFilter::new(spec);
    let mut batch: Vec<ReplayFrame> = Vec::new();
    let mut staging: Vec<u8> = Vec::new();
    'conn: while let Some(first) = cursor.next_blocking() {
        batch.clear();
        let mut bytes = 0usize;
        let mut next = Some(first);
        loop {
            if let Some(frame) = next.take() {
                let skip = frame.seq <= resume.get(&frame.origin).copied().unwrap_or(0)
                    || !filter.wanted(frame.origin, shared);
                if !skip {
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
    use crate::msg::{encode_announce, encode_hello, encode_subscribe, Subscribe};
    use crate::stream::{Dialer, NetStream};
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

    fn subscribe_all(resume: Vec<(u32, u64)>) -> Vec<u8> {
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
            &encode_subscribe(&Subscribe {
                spec: SubscribeSpec::All,
                resume,
            }),
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
        bytes.extend(encode_frame_to_vec(
            FrameKind::Announce,
            7,
            0,
            &encode_announce(&[(7, 8)]),
        ));
        bytes.extend(data_frame(7, 1, 0xAA));
        bytes.extend(data_frame(7, 2, 0xBB));
        tracer.write_all(&bytes).unwrap();

        let mut sub = dialer.dial().unwrap();
        sub.write_all(&subscribe_all(vec![])).unwrap();
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
        sub.write_all(&subscribe_all(vec![(3, 2)])).unwrap();
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
        sub.write_all(&subscribe_all(vec![])).unwrap();

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
        sub.write_all(&subscribe_all(vec![])).unwrap();

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
        sub.write_all(&subscribe_all(vec![])).unwrap();
        let frames = read_data(&mut sub, 1);
        assert_eq!(frames[0].payload.as_ref(), &[9]);
        broker.shutdown();
    }
}
