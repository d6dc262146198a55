//! Offline stand-in for `crossbeam`: only the `bench/` harness names it.

pub mod channel {
    pub use std::sync::mpsc::{
        channel as unbounded, Receiver, RecvError, SendError, Sender, TryRecvError,
    };
}
