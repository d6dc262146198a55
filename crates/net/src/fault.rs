//! Deterministic fault injection for transport streams.
//!
//! [`FaultyStream`] wraps any [`NetStream`] and scripts failures at exact
//! byte offsets: mid-frame disconnects, short reads/writes, and stalls —
//! no sleeps, no timing, no real-network flakiness. Combined with the
//! in-memory pipes of [`mem`](crate::mem), an entire tracer → broker →
//! analyzer pipeline can be driven through injected faults and still
//! produce a bit-reproducible outcome.
//!
//! Offsets count bytes *through this wrapper* (per direction), so a
//! scripted cut lands on the same frame byte on every run regardless of
//! thread scheduling.

use crate::stream::{Dialer, NetStream};
use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// The classic xorshift64 generator — tiny, seedable, and good enough to
/// scatter fault offsets and chunk sizes reproducibly.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeds the generator (zero is mapped to a fixed odd constant).
    pub fn new(seed: u64) -> Self {
        XorShift(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform-ish value in `1..=max`.
    pub fn chunk(&mut self, max: usize) -> usize {
        1 + (self.next_u64() as usize) % max.max(1)
    }
}

/// A scripted failure plan for one connection.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Tear the connection down once this many bytes have been written
    /// through the wrapper (the write reaching the offset fails).
    pub cut_after_writes: Option<u64>,
    /// Tear the connection down once this many bytes have been read.
    pub cut_after_reads: Option<u64>,
    /// Chunk every read/write to `1..=max` bytes using the seeded
    /// generator — forces partial-IO handling on every code path.
    pub jitter: Option<Jitter>,
    /// From write offset `at`, hold written bytes back from the peer until
    /// `ops` further write calls have occurred, then release them in
    /// order — a stall that resolves without wall-clock time.
    pub stall: Option<Stall>,
}

/// Seeded short-read/short-write chunking.
#[derive(Debug, Clone)]
pub struct Jitter {
    /// Generator seed.
    pub seed: u64,
    /// Largest chunk a single read/write may move.
    pub max_chunk: usize,
}

/// A scripted write-side stall.
#[derive(Debug, Clone)]
pub struct Stall {
    /// Write offset at which the stall begins.
    pub at: u64,
    /// Number of subsequent write calls the bytes are held for.
    pub ops: u32,
}

impl FaultPlan {
    /// A plan that injects nothing (the identity wrapper).
    pub fn clean() -> Self {
        FaultPlan::default()
    }

    /// Cuts the connection after `at` written bytes.
    pub fn cut_write_at(at: u64) -> Self {
        FaultPlan {
            cut_after_writes: Some(at),
            ..FaultPlan::default()
        }
    }

    /// Cuts the connection after `at` read bytes.
    pub fn cut_read_at(at: u64) -> Self {
        FaultPlan {
            cut_after_reads: Some(at),
            ..FaultPlan::default()
        }
    }

    /// Chunks all IO with the given seed (short reads and writes).
    pub fn jitter(seed: u64, max_chunk: usize) -> Self {
        FaultPlan {
            jitter: Some(Jitter { seed, max_chunk }),
            ..FaultPlan::default()
        }
    }
}

/// A [`NetStream`] wrapper executing a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    plan: FaultPlan,
    /// The plan's jitter: the seeded generator with its largest chunk.
    jitter: Option<(XorShift, usize)>,
    written: u64,
    read: u64,
    cut: bool,
    held: VecDeque<u8>,
    stall_ops_left: u32,
    stall_done: bool,
}

impl<S: NetStream> FaultyStream<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        let jitter = plan
            .jitter
            .as_ref()
            .map(|j| (XorShift::new(j.seed), j.max_chunk));
        let stall_ops_left = plan.stall.as_ref().map_or(0, |s| s.ops);
        FaultyStream {
            inner,
            plan,
            jitter,
            written: 0,
            read: 0,
            cut: false,
            held: VecDeque::new(),
            stall_ops_left,
            stall_done: false,
        }
    }

    /// Bytes written through the wrapper so far.
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    /// Bytes read through the wrapper so far.
    pub fn bytes_read(&self) -> u64 {
        self.read
    }

    fn trip(&mut self) -> io::Error {
        self.cut = true;
        self.inner.shutdown_stream();
        io::Error::new(io::ErrorKind::ConnectionReset, "injected cut")
    }

    fn release_stall(&mut self) -> io::Result<()> {
        while let Some(&b) = self.held.front() {
            match self.inner.write(&[b]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "stalled byte refused",
                    ))
                }
                Ok(_) => {
                    self.held.pop_front();
                }
                Err(e) => return Err(e),
            }
        }
        self.stall_done = true;
        Ok(())
    }
}

impl<S: NetStream> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.cut {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected cut",
            ));
        }
        if let Some(cut_at) = self.plan.cut_after_reads {
            if self.read >= cut_at {
                return Err(self.trip());
            }
        }
        let mut allowed = buf.len();
        if let Some((rng, max_chunk)) = &mut self.jitter {
            allowed = allowed.min(rng.chunk(*max_chunk));
        }
        if let Some(cut_at) = self.plan.cut_after_reads {
            allowed = allowed.min((cut_at - self.read) as usize);
        }
        let take = allowed.max(1).min(buf.len());
        let n = self.inner.read(&mut buf[..take])?;
        self.read += n as u64;
        Ok(n)
    }
}

impl<S: NetStream> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.cut {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected cut",
            ));
        }
        if buf.is_empty() {
            return Ok(0);
        }
        if let Some(cut_at) = self.plan.cut_after_writes {
            if self.written >= cut_at {
                return Err(self.trip());
            }
        }
        let mut allowed = buf.len();
        if let Some((rng, max_chunk)) = &mut self.jitter {
            allowed = allowed.min(rng.chunk(*max_chunk));
        }
        if let Some(cut_at) = self.plan.cut_after_writes {
            allowed = allowed.min((cut_at - self.written) as usize).max(1);
        }
        // Stall window: accept bytes but hold them back from the peer.
        let stalling = !self.stall_done
            && self
                .plan
                .stall
                .as_ref()
                .is_some_and(|s| self.written >= s.at);
        if stalling {
            self.held.extend(&buf[..allowed]);
            self.written += allowed as u64;
            self.stall_ops_left = self.stall_ops_left.saturating_sub(1);
            if self.stall_ops_left == 0 {
                self.release_stall()?;
            }
            return Ok(allowed);
        }
        if !self.held.is_empty() {
            self.release_stall()?;
        }
        let n = self.inner.write(&buf[..allowed])?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<S: NetStream> NetStream for FaultyStream<S> {
    fn shutdown_stream(&mut self) {
        self.inner.shutdown_stream();
    }

    /// Deliberately `false` (the trait default): a coalesced flush over a
    /// faulty stream must take the staging path so every byte funnels
    /// through [`write`](Self::write)'s cut/jitter/stall accounting —
    /// which is also what lets scripted cuts land *inside* a coalesced
    /// batch at exact byte offsets.
    fn vectored_writes(&self) -> bool {
        false
    }
}

/// A [`Dialer`] handing out connections wrapped under a queue of fault
/// plans: the first dial gets the first plan, the second the second, and
/// dials past the script run clean. This is how a test scripts "the
/// connection dies mid-frame, the retry succeeds".
pub struct FaultyDialer<D> {
    inner: D,
    plans: std::sync::Mutex<VecDeque<FaultPlan>>,
}

impl<D: Dialer> FaultyDialer<D> {
    /// Wraps `inner`; successive dials consume `plans` in order.
    pub fn new(inner: D, plans: Vec<FaultPlan>) -> Self {
        FaultyDialer {
            inner,
            plans: std::sync::Mutex::new(plans.into()),
        }
    }
}

impl<D: Dialer> Dialer for FaultyDialer<D> {
    fn dial(&self) -> io::Result<Box<dyn NetStream>> {
        let stream = self.inner.dial()?;
        let plan = self
            .plans
            .lock()
            .expect("plans lock")
            .pop_front()
            .unwrap_or_default();
        Ok(Box::new(FaultyStream::new(stream, plan)))
    }
}

impl NetStream for Box<dyn NetStream> {
    fn shutdown_stream(&mut self) {
        (**self).shutdown_stream();
    }

    fn vectored_writes(&self) -> bool {
        (**self).vectored_writes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::mem_pair;

    #[test]
    fn clean_plan_is_transparent() {
        let (a, mut b) = mem_pair();
        let mut faulty = FaultyStream::new(a, FaultPlan::clean());
        faulty.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn cut_fails_the_write_spanning_the_offset() {
        let (a, mut b) = mem_pair();
        let mut faulty = FaultyStream::new(a, FaultPlan::cut_write_at(3));
        assert_eq!(faulty.write(b"abc").unwrap(), 3);
        let err = faulty.write(b"d").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // Peer drains pre-cut bytes, then sees EOF.
        let mut out = Vec::new();
        b.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"abc");
    }

    #[test]
    fn cut_lands_mid_buffer() {
        let (a, _b) = mem_pair();
        let mut faulty = FaultyStream::new(a, FaultPlan::cut_write_at(2));
        // A 5-byte write is truncated at the cut offset, then fails.
        assert_eq!(faulty.write(b"abcde").unwrap(), 2);
        assert!(faulty.write(b"cde").is_err());
        assert!(faulty.write(b"x").is_err(), "cut is permanent");
    }

    #[test]
    fn jitter_forces_short_writes_deterministically() {
        let run = |seed| {
            let (a, mut b) = mem_pair();
            let mut faulty = FaultyStream::new(a, FaultPlan::jitter(seed, 3));
            let mut sizes = Vec::new();
            let mut remaining: &[u8] = b"some longer payload crossing chunks";
            while !remaining.is_empty() {
                let n = faulty.write(remaining).unwrap();
                sizes.push(n);
                remaining = &remaining[n..];
            }
            let mut buf = vec![0u8; 35];
            b.read_exact(&mut buf).unwrap();
            assert_eq!(buf, b"some longer payload crossing chunks");
            sizes
        };
        let first = run(42);
        assert!(first.iter().all(|&n| n <= 3));
        assert!(first.len() > 11, "chunking actually happened: {first:?}");
        assert_eq!(first, run(42), "same seed, same schedule");
        assert_ne!(first, run(43), "different seed, different schedule");
    }

    #[test]
    fn stall_holds_bytes_then_releases_in_order() {
        let (a, mut b) = mem_pair();
        let mut faulty = FaultyStream::new(
            a,
            FaultPlan {
                stall: Some(Stall { at: 2, ops: 2 }),
                ..FaultPlan::default()
            },
        );
        faulty.write_all(b"ab").unwrap(); // before the stall window
        faulty.write_all(b"cd").unwrap(); // held (op 1)
        let mut buf = [0u8; 2];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ab");
        faulty.write_all(b"ef").unwrap(); // held, then released (op 2)
        let mut rest = [0u8; 4];
        b.read_exact(&mut rest).unwrap();
        assert_eq!(&rest, b"cdef", "held bytes arrive in order");
    }

    #[test]
    fn read_cut_trips_at_offset() {
        let (mut a, b) = mem_pair();
        a.write_all(b"0123456789").unwrap();
        let mut faulty = FaultyStream::new(b, FaultPlan::cut_read_at(4));
        let mut buf = [0u8; 10];
        let mut got = 0;
        loop {
            match faulty.read(&mut buf[got..]) {
                Ok(n) => got += n,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
                    break;
                }
            }
        }
        assert_eq!(got, 4, "exactly the scripted bytes arrive before the cut");
    }

    #[test]
    fn faulty_dialer_scripts_successive_connections() {
        let listener = crate::mem::MemListener::new();
        let dialer = FaultyDialer::new(listener.dialer(), vec![FaultPlan::cut_write_at(0)]);
        let mut first = dialer.dial().unwrap();
        assert!(first.write(b"x").is_err(), "first connection cut at byte 0");
        let mut second = dialer.dial().unwrap();
        assert_eq!(second.write(b"x").unwrap(), 1, "second connection clean");
    }
}
