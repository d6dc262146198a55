//! Stream and listener abstractions the transport runs over.
//!
//! The broker and links are generic over byte streams so the same code
//! serves TCP sockets, Unix-domain sockets, and the in-memory pipes the
//! deterministic fault harness uses ([`mem`](crate::mem)).

use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-flush coalescing cap in bytes: a batched flush stops growing once
/// it would exceed this many bytes, bounding both the vectored submission
/// and the staging copy on the fallback path.
pub const COALESCE_MAX_BYTES: usize = 64 << 10;
/// Per-flush coalescing cap in frames, bounding the iovec count handed to
/// one `write_vectored` call well under any platform `IOV_MAX`.
pub const COALESCE_MAX_FRAMES: usize = 64;

/// A bidirectional byte stream a link or broker connection runs over.
pub trait NetStream: Read + Write + Send {
    /// Tears the connection down so the peer observes EOF (after draining
    /// any bytes already in flight) — used on framing errors and injected
    /// cuts.
    fn shutdown_stream(&mut self);

    /// Whether this stream's `write_vectored` genuinely submits multiple
    /// buffers at once (kernel sockets, the in-memory pipe). Streams that
    /// inherit the default one-buffer `write_vectored` — notably the
    /// fault-injection wrapper, which must see every byte pass through its
    /// cut/jitter accounting — return `false`, steering coalesced flushes
    /// onto the staging-buffer path.
    fn vectored_writes(&self) -> bool {
        false
    }
}

/// Flushes `bufs` — one coalesced batch of already-framed envelopes — to
/// `stream`, returning the number of bytes written and the error that
/// stopped the flush, if any.
///
/// With `vectored` set, remaining buffers are submitted together via
/// `write_vectored` (one syscall per call on kernel sockets), re-sliced
/// after partial writes. Otherwise the batch is copied once into
/// `staging` and written with plain `write` calls, so wrappers that
/// intercept `write` (fault injection) observe the identical byte stream.
/// A zero-length write is reported as [`io::ErrorKind::WriteZero`]; on any
/// error, bytes written so far are still reported so callers can retire
/// fully-flushed frames and rewind the partial one.
pub fn write_coalesced<S: Write + ?Sized>(
    stream: &mut S,
    vectored: bool,
    bufs: &[&[u8]],
    staging: &mut Vec<u8>,
) -> (usize, Option<io::Error>) {
    let total: usize = bufs.iter().map(|b| b.len()).sum();
    let mut written = 0usize;
    if vectored {
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(bufs.len());
        while written < total {
            slices.clear();
            let mut skip = written;
            for buf in bufs {
                if skip >= buf.len() {
                    skip -= buf.len();
                    continue;
                }
                slices.push(IoSlice::new(&buf[skip..]));
                skip = 0;
            }
            match stream.write_vectored(&slices) {
                Ok(0) => {
                    return (
                        written,
                        Some(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "stream accepted zero bytes",
                        )),
                    );
                }
                Ok(n) => written += n,
                Err(err) => return (written, Some(err)),
            }
        }
    } else {
        staging.clear();
        staging.reserve(total);
        for buf in bufs {
            staging.extend_from_slice(buf);
        }
        while written < total {
            match stream.write(&staging[written..]) {
                Ok(0) => {
                    return (
                        written,
                        Some(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "stream accepted zero bytes",
                        )),
                    );
                }
                Ok(n) => written += n,
                Err(err) => return (written, Some(err)),
            }
        }
    }
    (written, None)
}

/// A [`NetStream`] that can be cloned into a second handle sharing the
/// underlying connection — the broker reads and writes a subscriber
/// connection from different threads.
pub trait SplitStream: NetStream {
    /// Clones a handle to the same connection.
    fn try_clone_stream(&self) -> io::Result<Box<dyn SplitStream>>;
}

impl NetStream for TcpStream {
    fn shutdown_stream(&mut self) {
        let _ = TcpStream::shutdown(self, std::net::Shutdown::Both);
    }

    fn vectored_writes(&self) -> bool {
        true
    }
}

impl SplitStream for TcpStream {
    fn try_clone_stream(&self) -> io::Result<Box<dyn SplitStream>> {
        Ok(Box::new(self.try_clone()?))
    }
}

impl NetStream for UnixStream {
    fn shutdown_stream(&mut self) {
        let _ = UnixStream::shutdown(self, std::net::Shutdown::Both);
    }

    fn vectored_writes(&self) -> bool {
        true
    }
}

impl SplitStream for UnixStream {
    fn try_clone_stream(&self) -> io::Result<Box<dyn SplitStream>> {
        Ok(Box::new(self.try_clone()?))
    }
}

/// Something that can open fresh connections to a peer — the reconnect
/// loop's dependency, kept abstract so tests can hand out faulty or
/// in-memory connections.
pub trait Dialer: Send {
    /// Opens a new connection.
    fn dial(&self) -> io::Result<Box<dyn NetStream>>;
}

impl Dialer for Box<dyn Dialer> {
    fn dial(&self) -> io::Result<Box<dyn NetStream>> {
        (**self).dial()
    }
}

/// Dials a TCP address.
#[derive(Debug, Clone)]
pub struct TcpDialer(pub SocketAddr);

impl Dialer for TcpDialer {
    fn dial(&self) -> io::Result<Box<dyn NetStream>> {
        let stream = TcpStream::connect(self.0)?;
        // Nagle off: flushes are already coalesced at the framing layer
        // (DESIGN.md §6.7), so letting the kernel re-buffer them only adds
        // latency to the sub-MTU control frames.
        stream.set_nodelay(true).ok();
        Ok(Box::new(stream))
    }
}

/// Dials a Unix-domain socket path.
#[derive(Debug, Clone)]
pub struct UnixDialer(pub PathBuf);

impl Dialer for UnixDialer {
    fn dial(&self) -> io::Result<Box<dyn NetStream>> {
        Ok(Box::new(UnixStream::connect(&self.0)?))
    }
}

/// A connection acceptor the broker runs on.
pub trait Acceptor: Send + Sync {
    /// Blocks for the next inbound connection.
    fn accept_conn(&self) -> io::Result<Box<dyn SplitStream>>;

    /// Stops accepting, unblocking a pending [`accept_conn`](Self::accept_conn)
    /// where the platform allows it. The default is a
    /// no-op: kernel TCP/Unix listeners cannot be interrupted portably, so
    /// a broker on a real socket parks its accept thread until process
    /// exit.
    fn close_acceptor(&self) {}
}

impl Acceptor for TcpListener {
    fn accept_conn(&self) -> io::Result<Box<dyn SplitStream>> {
        let (stream, _) = self.accept()?;
        // Nagle off on the accept side too — subscriber fan-out flushes
        // are coalesced batches that should hit the wire immediately.
        stream.set_nodelay(true).ok();
        Ok(Box::new(stream))
    }
}

impl Acceptor for UnixListener {
    fn accept_conn(&self) -> io::Result<Box<dyn SplitStream>> {
        let (stream, _) = self.accept()?;
        Ok(Box::new(stream))
    }
}

/// Shared write-side counters for [`CountingStream`] — the bench harness
/// reads these to report syscalls-per-record.
#[derive(Debug, Default)]
pub struct IoCounters {
    /// Number of `write`/`write_vectored` calls that reached the wrapped
    /// stream (each one is at most one syscall on a kernel socket).
    pub write_calls: AtomicU64,
    /// Total bytes accepted by those calls.
    pub bytes_written: AtomicU64,
}

impl IoCounters {
    /// Fresh zeroed counters behind an [`Arc`].
    pub fn shared() -> Arc<IoCounters> {
        Arc::new(IoCounters::default())
    }
}

/// A [`SplitStream`] wrapper that counts write calls and bytes without
/// altering the byte stream — used by `transport_throughput` to measure
/// how many flush syscalls the broker issues per delivered record.
pub struct CountingStream {
    inner: Box<dyn SplitStream>,
    counters: Arc<IoCounters>,
}

impl CountingStream {
    /// Wraps `inner`, attributing its writes to `counters`.
    pub fn new(inner: Box<dyn SplitStream>, counters: Arc<IoCounters>) -> Self {
        CountingStream { inner, counters }
    }
}

impl Read for CountingStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for CountingStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counters.write_calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_written
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let n = self.inner.write_vectored(bufs)?;
        self.counters.write_calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_written
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl NetStream for CountingStream {
    fn shutdown_stream(&mut self) {
        self.inner.shutdown_stream();
    }

    fn vectored_writes(&self) -> bool {
        self.inner.vectored_writes()
    }
}

impl SplitStream for CountingStream {
    fn try_clone_stream(&self) -> io::Result<Box<dyn SplitStream>> {
        Ok(Box::new(CountingStream {
            inner: self.inner.try_clone_stream()?,
            counters: Arc::clone(&self.counters),
        }))
    }
}

/// Wraps an [`Acceptor`] so every accepted connection is a
/// [`CountingStream`] sharing one set of [`IoCounters`].
pub struct CountingAcceptor {
    inner: Arc<dyn Acceptor>,
    counters: Arc<IoCounters>,
}

impl CountingAcceptor {
    /// Wraps `inner`, attributing accepted connections' writes to
    /// `counters`.
    pub fn new(inner: Arc<dyn Acceptor>, counters: Arc<IoCounters>) -> Self {
        CountingAcceptor { inner, counters }
    }
}

impl Acceptor for CountingAcceptor {
    fn accept_conn(&self) -> io::Result<Box<dyn SplitStream>> {
        let stream = self.inner.accept_conn()?;
        Ok(Box::new(CountingStream::new(
            stream,
            Arc::clone(&self.counters),
        )))
    }

    fn close_acceptor(&self) {
        self.inner.close_acceptor();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` sink that accepts at most `cap` bytes per call, so both
    /// coalescing paths exercise their partial-write re-slicing.
    struct Dribble {
        cap: usize,
        data: Vec<u8>,
        calls: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.cap);
            self.data.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut left = self.cap;
            for buf in bufs {
                let n = buf.len().min(left);
                self.data.extend_from_slice(&buf[..n]);
                left -= n;
                if left == 0 {
                    break;
                }
            }
            Ok(self.cap - left)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn coalesced_write_preserves_byte_order_on_both_paths() {
        let bufs: Vec<&[u8]> = vec![b"alpha", b"", b"beta", b"gamma!"];
        let expect: Vec<u8> = bufs.concat();
        for vectored in [false, true] {
            for cap in [1, 3, 7, 64] {
                let mut sink = Dribble {
                    cap,
                    data: Vec::new(),
                    calls: 0,
                };
                let mut staging = Vec::new();
                let (n, err) = write_coalesced(&mut sink, vectored, &bufs, &mut staging);
                assert!(err.is_none(), "vectored={vectored} cap={cap}");
                assert_eq!(n, expect.len());
                assert_eq!(sink.data, expect);
            }
        }
    }

    #[test]
    fn coalesced_write_reports_partial_progress_on_error() {
        struct FailAfter {
            accept: usize,
            data: Vec<u8>,
        }
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.accept == 0 {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "cut"));
                }
                let n = buf.len().min(self.accept);
                self.accept -= n;
                self.data.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let bufs: Vec<&[u8]> = vec![b"0123456789", b"abcdef"];
        let mut sink = FailAfter {
            accept: 12,
            data: Vec::new(),
        };
        let mut staging = Vec::new();
        let (n, err) = write_coalesced(&mut sink, false, &bufs, &mut staging);
        assert_eq!(n, 12);
        assert_eq!(err.unwrap().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(sink.data, b"0123456789ab");
    }

    #[test]
    fn write_zero_surfaces_as_error_not_livelock() {
        struct Zero;
        impl Write for Zero {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let bufs: Vec<&[u8]> = vec![b"data"];
        let mut staging = Vec::new();
        for vectored in [false, true] {
            let (n, err) = write_coalesced(&mut Zero, vectored, &bufs, &mut staging);
            assert_eq!(n, 0);
            assert_eq!(err.unwrap().kind(), io::ErrorKind::WriteZero);
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut sink = Dribble {
            cap: 8,
            data: Vec::new(),
            calls: 0,
        };
        let mut staging = Vec::new();
        let (n, err) = write_coalesced(&mut sink, true, &[], &mut staging);
        assert_eq!(n, 0);
        assert!(err.is_none());
        assert_eq!(sink.calls, 0);
    }
}
