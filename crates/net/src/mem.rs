//! Blocking in-memory duplex streams with socket-like semantics.
//!
//! The fault-injection suite must exercise mid-frame disconnects, short
//! reads/writes, and stalls *deterministically* — real loopback sockets
//! add scheduler- and kernel-buffer-dependent timing. These pipes behave
//! like sockets (blocking reads, EOF after close, broken-pipe writes)
//! while keeping every byte movement a plain in-process operation.
//!
//! Close semantics mirror a graceful FIN: bytes written before the close
//! remain readable; readers observe EOF only after draining them. This is
//! the property the reconnect invariant leans on — a frame fully written
//! before a cut is delivered, a partially written frame is discarded with
//! the connection.
//!
//! A thread that panics while holding a pipe's or a listener's lock
//! poisons it; every other thread recovers the guard and carries on.

use crate::stream::{Acceptor, Dialer, NetStream, SplitStream};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Locks a pipe's or listener's state, recovering it from a thread that
/// panicked while holding it: every critical section below leaves the
/// state consistent, so the other end carries on.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cvar`, recovering the guard the same way.
fn wait<'a, T>(cvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

/// One direction of a duplex in-memory connection.
#[derive(Debug, Clone, Default)]
struct Pipe(Arc<(Mutex<PipeState>, Condvar)>);

impl Pipe {
    fn write(&self, bytes: &[u8]) -> io::Result<usize> {
        let (mutex, cvar) = &*self.0;
        let mut state = lock(mutex);
        if state.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
        }
        state.buf.extend(bytes);
        cvar.notify_all();
        Ok(bytes.len())
    }

    /// Appends every buffer under one lock acquisition — the in-memory
    /// analogue of `writev`, so coalesced flushes over mem transport are
    /// genuinely one "syscall".
    fn write_vectored(&self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        let (mutex, cvar) = &*self.0;
        let mut state = lock(mutex);
        if state.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
        }
        let mut n = 0;
        for buf in bufs {
            state.buf.extend(buf.iter().copied());
            n += buf.len();
        }
        cvar.notify_all();
        Ok(n)
    }

    fn read(&self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let (mutex, cvar) = &*self.0;
        let mut state = lock(mutex);
        while state.buf.is_empty() && !state.closed {
            state = wait(cvar, state);
        }
        if state.buf.is_empty() {
            return Ok(0); // closed and drained: EOF
        }
        let n = out.len().min(state.buf.len());
        for (slot, byte) in out.iter_mut().zip(state.buf.drain(..n)) {
            *slot = byte;
        }
        Ok(n)
    }

    fn close(&self) {
        let (mutex, cvar) = &*self.0;
        lock(mutex).closed = true;
        cvar.notify_all();
    }
}

/// One end of an in-memory duplex connection.
#[derive(Debug, Clone)]
pub struct MemStream {
    rx: Pipe,
    tx: Pipe,
}

/// Creates a connected pair of in-memory streams.
pub fn mem_pair() -> (MemStream, MemStream) {
    let a_to_b = Pipe::default();
    let b_to_a = Pipe::default();
    (
        MemStream {
            rx: b_to_a.clone(),
            tx: a_to_b.clone(),
        },
        MemStream {
            rx: a_to_b,
            tx: b_to_a,
        },
    )
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.rx.read(buf)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx.write(buf)
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        self.tx.write_vectored(bufs)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl NetStream for MemStream {
    fn shutdown_stream(&mut self) {
        self.tx.close();
        self.rx.close();
    }

    fn vectored_writes(&self) -> bool {
        true
    }
}

impl SplitStream for MemStream {
    fn try_clone_stream(&self) -> io::Result<Box<dyn SplitStream>> {
        Ok(Box::new(self.clone()))
    }
}

#[derive(Debug, Default)]
struct ListenerState {
    pending: VecDeque<MemStream>,
    closed: bool,
}

/// An in-memory connection acceptor (the loopback analogue of a bound
/// listening socket).
#[derive(Debug, Clone, Default)]
pub struct MemListener(Arc<(Mutex<ListenerState>, Condvar)>);

impl MemListener {
    /// Creates an open listener.
    pub fn new() -> Self {
        MemListener::default()
    }

    /// A dialer that connects to this listener.
    pub fn dialer(&self) -> MemDialer {
        MemDialer(self.clone())
    }

    /// Stops accepting; pending and future dials fail.
    pub fn close(&self) {
        let (mutex, cvar) = &*self.0;
        lock(mutex).closed = true;
        cvar.notify_all();
    }

    fn connect(&self) -> io::Result<MemStream> {
        let (client, server) = mem_pair();
        let (mutex, cvar) = &*self.0;
        let mut state = lock(mutex);
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "listener closed",
            ));
        }
        state.pending.push_back(server);
        cvar.notify_all();
        Ok(client)
    }
}

impl Acceptor for MemListener {
    fn close_acceptor(&self) {
        self.close();
    }

    fn accept_conn(&self) -> io::Result<Box<dyn SplitStream>> {
        let (mutex, cvar) = &*self.0;
        let mut state = lock(mutex);
        loop {
            if let Some(conn) = state.pending.pop_front() {
                return Ok(Box::new(conn));
            }
            if state.closed {
                return Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "listener closed",
                ));
            }
            state = wait(cvar, state);
        }
    }
}

/// Dials a [`MemListener`].
#[derive(Debug, Clone)]
pub struct MemDialer(MemListener);

impl Dialer for MemDialer {
    fn dial(&self) -> io::Result<Box<dyn NetStream>> {
        Ok(Box::new(self.0.connect()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_carries_bytes_both_ways() {
        let (mut a, mut b) = mem_pair();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn vectored_write_is_one_contiguous_append() {
        let (mut a, mut b) = mem_pair();
        let bufs = [
            io::IoSlice::new(b"head"),
            io::IoSlice::new(b""),
            io::IoSlice::new(b"payload"),
        ];
        assert_eq!(a.write_vectored(&bufs).unwrap(), 11);
        let mut buf = [0u8; 11];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"headpayload");
    }

    #[test]
    fn close_drains_then_eofs() {
        let (mut a, mut b) = mem_pair();
        a.write_all(b"tail").unwrap();
        a.shutdown_stream();
        assert!(a.write_all(b"x").is_err(), "write after close fails");
        let mut buf = Vec::new();
        b.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"tail", "pre-close bytes survive the close");
    }

    #[test]
    fn blocking_read_wakes_on_write() {
        let (mut a, mut b) = mem_pair();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 3];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        a.write_all(b"abc").unwrap();
        assert_eq!(&t.join().unwrap(), b"abc");
    }

    #[test]
    fn pipe_survives_a_thread_panicking_under_its_lock() {
        let (mut a, mut b) = mem_pair();
        let poisoner = a.tx.clone();
        let unwound = std::thread::spawn(move || {
            let _held = poisoner.0 .0.lock().unwrap();
            panic!("a writer dies holding the pipe lock");
        })
        .join();
        assert!(unwound.is_err());
        assert!(a.tx.0 .0.is_poisoned());

        a.write_all(b"after").unwrap();
        let bufs = [io::IoSlice::new(b" the"), io::IoSlice::new(b" panic")];
        assert_eq!(a.write_vectored(&bufs).unwrap(), 10);
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"after");
        a.shutdown_stream();
        let mut rest = Vec::new();
        b.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b" the panic", "drains, then reports EOF");
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn listener_accepts_dialed_connections() {
        let listener = MemListener::new();
        let dialer = listener.dialer();
        let t = {
            let listener = listener.clone();
            std::thread::spawn(move || {
                let mut conn = listener.accept_conn().unwrap();
                let mut buf = [0u8; 2];
                conn.read_exact(&mut buf).unwrap();
                buf
            })
        };
        let mut client = dialer.dial().unwrap();
        client.write_all(b"hi").unwrap();
        assert_eq!(&t.join().unwrap(), b"hi");
        listener.close();
        assert!(dialer.dial().is_err(), "closed listener refuses dials");
    }
}
