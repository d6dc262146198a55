//! Bounded send queues with a drop-oldest-batch backpressure policy.
//!
//! A slow or dead peer must not stall the tracer's capture loop or grow
//! memory without bound. Each connection owns a bounded queue of encoded
//! frames; when full, the *oldest unsent* frame is dropped to admit the
//! newest — recent windows matter more than stale ones for an online
//! pathmap. A frame that has started flowing onto the wire is never
//! dropped: a partial frame on the stream would poison the peer's
//! decoder, so the in-flight frame is always either finished or the
//! connection is abandoned wholesale.
//!
//! Counters record every admission, send, and drop so backpressure is
//! observable instead of silent.

use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// Counters describing a queue's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Frames accepted into the queue.
    pub enqueued: u64,
    /// Frames fully handed to the consumer.
    pub sent: u64,
    /// Frames evicted by the drop-oldest policy.
    pub dropped_oldest: u64,
}

/// One queued envelope, stored as two gather segments: the owned `head`
/// (envelope header plus any payload prefix, produced by
/// [`encode_frame_head`](crate::frame::encode_frame_head)) and the
/// refcounted payload `tail` shared with the tracer that produced it.
/// Keeping them separate means enqueueing never copies the payload — a
/// vectored flush hands both segments to the kernel as-is.
#[derive(Debug, Clone)]
pub struct QueuedFrame {
    head: Vec<u8>,
    tail: Bytes,
}

impl QueuedFrame {
    /// A frame whose payload tail rides as a shared, uncopied segment.
    pub fn new(head: Vec<u8>, tail: Bytes) -> Self {
        QueuedFrame { head, tail }
    }

    /// A fully-materialized frame (control frames, tests).
    pub fn contiguous(bytes: Vec<u8>) -> Self {
        QueuedFrame {
            head: bytes,
            tail: Bytes::new(),
        }
    }

    /// Total wire length of the frame.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Whether the frame is empty (never true for real envelopes).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A bounded FIFO of encoded frames with drop-oldest backpressure.
///
/// Single-threaded: the tracer link both enqueues (during `poll`) and
/// drains (during flush) from the same thread.
#[derive(Debug)]
pub struct SendQueue {
    frames: VecDeque<QueuedFrame>,
    capacity: usize,
    /// Byte offset already written of the front frame; the front frame is
    /// exempt from eviction while this is non-zero.
    front_written: usize,
    stats: QueueStats,
}

impl SendQueue {
    /// Creates a queue holding at most `capacity` frames (minimum 1).
    pub fn new(capacity: usize) -> Self {
        SendQueue {
            frames: VecDeque::new(),
            capacity: capacity.max(1),
            front_written: 0,
            stats: QueueStats::default(),
        }
    }

    /// Queue occupancy in frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the queue holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Admits a frame, evicting the oldest evictable frame if full.
    /// Returns the number of frames dropped (0 or 1).
    pub fn push(&mut self, frame: QueuedFrame) -> u64 {
        let mut dropped = 0;
        if self.frames.len() >= self.capacity {
            // Never evict a frame that has started onto the wire.
            let evict_at = usize::from(self.front_written > 0);
            if evict_at < self.frames.len() {
                self.frames.remove(evict_at);
                self.stats.dropped_oldest += 1;
                dropped = 1;
            }
        }
        self.frames.push_back(frame);
        self.stats.enqueued += 1;
        dropped
    }

    /// Collects the next coalesced flush batch into `out` as borrowed
    /// gather segments: the front frame from its already-written offset,
    /// then whole frames while the batch stays within `max_frames` and
    /// `max_bytes`. The front frame is always included even if it alone
    /// exceeds `max_bytes` (progress must be possible). Returns the total
    /// byte length gathered.
    pub fn gather<'a>(
        &'a self,
        max_frames: usize,
        max_bytes: usize,
        out: &mut Vec<&'a [u8]>,
    ) -> usize {
        out.clear();
        let mut bytes = 0usize;
        for (i, f) in self.frames.iter().enumerate() {
            let skip = if i == 0 { self.front_written } else { 0 };
            let remaining = f.len() - skip;
            if i > 0 && (i >= max_frames || bytes + remaining > max_bytes) {
                break;
            }
            if skip < f.head.len() {
                out.push(&f.head[skip..]);
                if !f.tail.is_empty() {
                    out.push(&f.tail);
                }
            } else {
                let tail_skip = skip - f.head.len();
                if tail_skip < f.tail.len() {
                    out.push(&f.tail[tail_skip..]);
                }
            }
            bytes += remaining;
        }
        bytes
    }

    /// Records `n` more bytes written from the front of the queue:
    /// completed frames are popped (in order) and the remainder becomes
    /// the new front's written offset. Returns how many frames completed.
    pub fn advance_bytes(&mut self, mut n: usize) -> u64 {
        let mut completed = 0u64;
        while n > 0 {
            let front_len = self
                .frames
                .front()
                .expect("advance past queued bytes")
                .len();
            let remaining = front_len - self.front_written;
            if n >= remaining {
                n -= remaining;
                self.frames.pop_front();
                self.front_written = 0;
                self.stats.sent += 1;
                completed += 1;
            } else {
                self.front_written += n;
                n = 0;
            }
        }
        completed
    }

    /// Resets the in-flight offset: after a connection dies mid-frame the
    /// partial remote copy is lost with the stream, so the frame is resent
    /// from the start on the next connection.
    pub fn rewind_front(&mut self) {
        self.front_written = 0;
    }
}

/// A frame retained for replay, tagged with its origin and sequence.
#[derive(Debug, Clone)]
pub struct ReplayFrame {
    /// Tracer origin id the frame came from.
    pub origin: u32,
    /// Per-origin sequence number.
    pub seq: u64,
    /// Fully encoded wire bytes (envelope included) — shared with the
    /// receive path that validated them, never re-encoded.
    pub bytes: Arc<[u8]>,
}

/// A bounded multi-consumer replay ring the broker fans data frames out
/// of. Each subscriber tracks its own cursor; a reconnecting subscriber
/// resumes from its per-origin sequence positions, re-reading retained
/// frames it never fully ingested.
#[derive(Debug, Default)]
pub struct ReplayRing {
    inner: Arc<(Mutex<RingState>, Condvar)>,
}

#[derive(Debug, Default)]
struct RingState {
    frames: VecDeque<ReplayFrame>,
    /// Total frames ever admitted; `frames` holds the tail of them.
    admitted: u64,
    capacity: usize,
    closed: bool,
    /// Frames evicted while at least one live cursor still needed them.
    dropped: u64,
}

/// A subscriber's position in a [`ReplayRing`].
#[derive(Debug)]
pub struct RingCursor {
    ring: Arc<(Mutex<RingState>, Condvar)>,
    /// Absolute index of the next frame to read.
    next: u64,
}

impl ReplayRing {
    /// Creates a ring retaining at most `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        let ring = ReplayRing::default();
        ring.inner.0.lock().expect("ring lock").capacity = capacity.max(1);
        ring
    }

    /// Appends a frame, evicting the oldest if full.
    pub fn push(&self, frame: ReplayFrame) {
        let (lock, cvar) = &*self.inner;
        let mut state = lock.lock().expect("ring lock");
        if state.frames.len() >= state.capacity {
            state.frames.pop_front();
            state.dropped += 1;
        }
        state.frames.push_back(frame);
        state.admitted += 1;
        cvar.notify_all();
    }

    /// Frames evicted from the retention window.
    pub fn dropped(&self) -> u64 {
        self.inner.0.lock().expect("ring lock").dropped
    }

    /// Closes the ring; blocked cursors observe the end of the stream.
    pub fn close(&self) {
        let (lock, cvar) = &*self.inner;
        lock.lock().expect("ring lock").closed = true;
        cvar.notify_all();
    }

    /// A cursor starting at the oldest retained frame.
    pub fn cursor(&self) -> RingCursor {
        let state = self.inner.0.lock().expect("ring lock");
        RingCursor {
            ring: Arc::clone(&self.inner),
            next: state.admitted - state.frames.len() as u64,
        }
    }

    /// A cursor skipping frames the subscriber already holds: a retained
    /// frame is replayed only if its `(origin, seq)` is *after* the
    /// subscriber's resume position for that origin.
    pub fn cursor_resuming(&self, resume: &[(u32, u64)]) -> RingCursor {
        // Replay still walks every retained frame; the filter happens at
        // read time so interleaved origins keep their relative order.
        let mut cursor = self.cursor();
        cursor.apply_resume(resume);
        cursor
    }
}

impl Clone for ReplayRing {
    fn clone(&self) -> Self {
        ReplayRing {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl RingCursor {
    fn apply_resume(&mut self, _resume: &[(u32, u64)]) {
        // Positional fast-forward is origin-specific and handled by the
        // caller filtering on `(origin, seq)`; the cursor itself stays at
        // the oldest retained frame so no origin's backlog is skipped.
    }

    /// Blocks for the next frame; `None` when the ring is closed and
    /// drained.
    pub fn next_blocking(&mut self) -> Option<ReplayFrame> {
        let (lock, cvar) = &*self.ring;
        let mut state = lock.lock().expect("ring lock");
        loop {
            let oldest = state.admitted - state.frames.len() as u64;
            if self.next < oldest {
                // Fell behind the retention window; jump forward.
                self.next = oldest;
            }
            if self.next < state.admitted {
                let at = (self.next - oldest) as usize;
                let frame = state.frames[at].clone();
                self.next += 1;
                return Some(frame);
            }
            if state.closed {
                return None;
            }
            state = cvar.wait(state).expect("ring lock");
        }
    }

    /// Returns the next frame if one is already available, without
    /// blocking — the batching drain: a subscriber writer takes one frame
    /// via [`next_blocking`](Self::next_blocking), then keeps extending
    /// the coalesced batch with `try_next` until the ring runs dry or the
    /// batch hits its flush bounds.
    pub fn try_next(&mut self) -> Option<ReplayFrame> {
        let (lock, _) = &*self.ring;
        let state = lock.lock().expect("ring lock");
        let oldest = state.admitted - state.frames.len() as u64;
        if self.next < oldest {
            self.next = oldest;
        }
        if self.next < state.admitted {
            let at = (self.next - oldest) as usize;
            let frame = state.frames[at].clone();
            self.next += 1;
            Some(frame)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(origin: u32, seq: u64) -> ReplayFrame {
        ReplayFrame {
            origin,
            seq,
            bytes: Arc::from(&[origin as u8, seq as u8][..]),
        }
    }

    /// The queue's pending bytes, flattened via `gather` with no bounds.
    fn flat(q: &SendQueue) -> Vec<u8> {
        let mut segs = Vec::new();
        q.gather(usize::MAX, usize::MAX, &mut segs);
        segs.concat()
    }

    #[test]
    fn send_queue_drops_oldest_when_full() {
        let mut q = SendQueue::new(2);
        assert_eq!(q.push(QueuedFrame::contiguous(vec![1])), 0);
        assert_eq!(q.push(QueuedFrame::contiguous(vec![2])), 0);
        assert_eq!(
            q.push(QueuedFrame::contiguous(vec![3])),
            1,
            "third push evicts the oldest"
        );
        assert_eq!(q.stats().dropped_oldest, 1);
        assert_eq!(flat(&q), vec![2, 3], "frame 1 was the victim");
    }

    #[test]
    fn send_queue_never_drops_inflight_front() {
        let mut q = SendQueue::new(2);
        q.push(QueuedFrame::contiguous(vec![1, 1]));
        q.push(QueuedFrame::contiguous(vec![2, 2]));
        assert_eq!(q.advance_bytes(1), 0, "front partially written");
        q.push(QueuedFrame::contiguous(vec![3, 3]));
        // The partially-written front survives; the second frame is evicted.
        assert_eq!(flat(&q), vec![1, 3, 3], "front resumes at offset 1");
        assert_eq!(q.stats().dropped_oldest, 1);
        assert_eq!(q.advance_bytes(1), 1, "front completes");
        assert_eq!(flat(&q), vec![3, 3]);
    }

    #[test]
    fn send_queue_rewind_resends_from_start() {
        let mut q = SendQueue::new(4);
        q.push(QueuedFrame::contiguous(vec![9, 9, 9]));
        assert_eq!(q.advance_bytes(2), 0);
        q.rewind_front();
        assert_eq!(flat(&q), vec![9, 9, 9]);
    }

    #[test]
    fn gather_respects_bounds_and_split_frames() {
        let mut q = SendQueue::new(8);
        q.push(QueuedFrame::new(
            vec![1, 2],
            Bytes::copy_from_slice(&[3, 4]),
        ));
        q.push(QueuedFrame::new(vec![5], Bytes::copy_from_slice(&[6])));
        q.push(QueuedFrame::contiguous(vec![7]));
        let mut segs = Vec::new();
        // Unbounded: head/tail segments of all three frames, in order.
        assert_eq!(q.gather(usize::MAX, usize::MAX, &mut segs), 7);
        assert_eq!(segs.concat(), vec![1, 2, 3, 4, 5, 6, 7]);
        // Frame cap stops after two frames.
        assert_eq!(q.gather(2, usize::MAX, &mut segs), 6);
        assert_eq!(segs.concat(), vec![1, 2, 3, 4, 5, 6]);
        // Byte cap: the front always rides, the second frame (2 bytes)
        // would exceed 5 bytes total.
        assert_eq!(q.gather(usize::MAX, 5, &mut segs), 4);
        assert_eq!(segs.concat(), vec![1, 2, 3, 4]);
        // Byte cap below the front's size still yields the whole front.
        assert_eq!(q.gather(usize::MAX, 1, &mut segs), 4);
        assert_eq!(segs.concat(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn gather_resumes_mid_head_and_mid_tail() {
        let mut q = SendQueue::new(8);
        q.push(QueuedFrame::new(
            vec![1, 2, 3],
            Bytes::copy_from_slice(&[4, 5, 6]),
        ));
        q.advance_bytes(1); // inside the head
        assert_eq!(flat(&q), vec![2, 3, 4, 5, 6]);
        q.advance_bytes(3); // now inside the tail
        assert_eq!(flat(&q), vec![5, 6]);
    }

    #[test]
    fn advance_bytes_retires_whole_frames_and_tracks_partials() {
        let mut q = SendQueue::new(8);
        q.push(QueuedFrame::new(vec![1, 2], Bytes::copy_from_slice(&[3])));
        q.push(QueuedFrame::contiguous(vec![4, 5]));
        q.push(QueuedFrame::contiguous(vec![6]));
        // 3 (frame 1) + 1 (partial frame 2) bytes written.
        assert_eq!(q.advance_bytes(4), 1);
        assert_eq!(q.stats().sent, 1);
        assert_eq!(flat(&q), vec![5, 6]);
        // Finish frame 2 and all of frame 3.
        assert_eq!(q.advance_bytes(2), 2);
        assert!(q.is_empty());
        assert_eq!(q.stats().sent, 3);
    }

    #[test]
    fn ring_cursor_sees_frames_in_order() {
        let ring = ReplayRing::new(8);
        ring.push(frame(1, 1));
        ring.push(frame(1, 2));
        let mut cur = ring.cursor();
        assert_eq!(cur.next_blocking().unwrap().seq, 1);
        assert_eq!(cur.next_blocking().unwrap().seq, 2);
        ring.close();
        assert!(cur.next_blocking().is_none());
    }

    #[test]
    fn ring_evicts_and_counts_when_full() {
        let ring = ReplayRing::new(2);
        for seq in 1..=4 {
            ring.push(frame(1, seq));
        }
        assert_eq!(ring.dropped(), 2);
        let mut cur = ring.cursor();
        assert_eq!(cur.next_blocking().unwrap().seq, 3, "oldest retained");
    }

    #[test]
    fn late_cursor_starts_at_retained_tail() {
        let ring = ReplayRing::new(4);
        ring.push(frame(2, 10));
        let mut cur = ring.cursor();
        ring.push(frame(2, 11));
        assert_eq!(cur.next_blocking().unwrap().seq, 10);
        assert_eq!(cur.next_blocking().unwrap().seq, 11);
    }

    #[test]
    fn try_next_drains_without_blocking() {
        let ring = ReplayRing::new(4);
        ring.push(frame(1, 1));
        ring.push(frame(1, 2));
        let mut cur = ring.cursor();
        assert_eq!(cur.try_next().unwrap().seq, 1);
        assert_eq!(cur.try_next().unwrap().seq, 2);
        assert!(cur.try_next().is_none(), "dry ring returns immediately");
        ring.push(frame(1, 3));
        assert_eq!(cur.try_next().unwrap().seq, 3);
    }

    #[test]
    fn blocked_cursor_wakes_on_push() {
        let ring = ReplayRing::new(4);
        let mut cur = ring.cursor();
        let t = std::thread::spawn(move || cur.next_blocking().map(|f| f.seq));
        ring.push(frame(1, 7));
        assert_eq!(t.join().unwrap(), Some(7));
    }
}
