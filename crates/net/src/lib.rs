//! Network transport for the E2EProf pipeline: wire v2 on real sockets.
//!
//! This crate puts the tracer→analyzer stream onto TCP and Unix-domain
//! sockets (plus deterministic in-memory pipes for testing), and shards
//! the analyzer tier horizontally:
//!
//! - [`frame`] — the length-prefixed, CRC-checked transport envelope
//!   carrying wire-v1/v2 payloads, with a sans-io incremental decoder;
//! - [`msg`] — control-plane payloads (Hello, Subscribe);
//! - [`stream`] / [`mem`] — the byte-stream abstraction and its kernel
//!   (TCP, Unix) and in-memory implementations;
//! - [`fault`] — seeded, byte-offset-scripted fault injection (cuts,
//!   jitter, stalls) for the deterministic fault harness;
//! - [`queue`] — bounded send queues (drop-oldest backpressure) and the
//!   broker's replay ring;
//! - [`registry`] — the pure per-origin sequence dedup;
//! - [`broker`] — the socket-facing broker: tracers publish, analyzers
//!   subscribe with resume positions and receive every stream;
//! - [`link`] — client endpoints: the tracer's socket-backed `FrameSink`
//!   and the analyzer's subscription, sharing one reconnect path;
//! - [`pipeline`] — the assembled distributed tier with a deterministic,
//!   sleep-free run loop whose sharded output merges bit-identically to
//!   the in-process analyzer.
//!
//! The design invariant throughout: transports and faults may reorder
//! *when* work happens, never *what* is computed. Any run that reaches
//! the same drain ticks produces the same graphs, whether frames crossed
//! a channel, a socket, or a scripted sequence of dying connections.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod fault;
pub mod frame;
pub mod link;
pub mod mem;
pub mod msg;
pub mod pipeline;
pub mod queue;
pub mod registry;
pub mod stream;

pub use broker::{BrokerConfig, BrokerHandle};
pub use fault::{FaultPlan, FaultyDialer, FaultyStream};
pub use frame::{Frame, FrameDecoder, FrameError, FrameKind, RawFrame};
pub use link::{AnalyzerConn, LinkConfig, LinkStats, TracerLink};
pub use pipeline::{BoundEndpoint, DistributedPipeline, Endpoint, PipelineBuilder};
pub use stream::{
    Acceptor, CountingAcceptor, CountingStream, Dialer, IoCounters, NetStream, TcpDialer,
    UnixDialer, COALESCE_MAX_BYTES, COALESCE_MAX_FRAMES,
};
