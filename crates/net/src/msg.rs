//! Control-plane payloads carried inside [`frame`](crate::frame)
//! envelopes: peer introduction, edge announcement, and subscription.
//!
//! Encodings are fixed-width big-endian with explicit counts, and every
//! decoded count is capped against the bytes actually present before any
//! allocation — the same hardening discipline as the series wire format.
//! Decoders read through one total `Reader`: a payload of the wrong
//! length or an unknown role is [`FrameError::Malformed`], never a panic.

use crate::frame::FrameError;
use e2eprof_core::reduction::HintState;

/// Who is on the other end of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A tracer agent running on the given node.
    Tracer {
        /// Node index the agent runs on.
        node: u32,
    },
    /// An analyzer shard.
    Analyzer {
        /// Shard index in `0..of`.
        shard: u32,
        /// Total shard count.
        of: u32,
    },
    /// A tracer's hint-subscription connection (the feedback direction).
    /// Distinct from [`Role::Tracer`] so its disconnect cannot disturb
    /// the data link's announce state in the registry.
    HintSub {
        /// Node index of the tracer subscribing to reduction hints.
        node: u32,
    },
}

/// The `Hello` payload: first frame on every connection.
pub fn encode_hello(role: Role) -> Vec<u8> {
    match role {
        Role::Tracer { node } => {
            let mut v = vec![0u8];
            v.extend_from_slice(&node.to_be_bytes());
            v
        }
        Role::Analyzer { shard, of } => {
            let mut v = vec![1u8];
            v.extend_from_slice(&shard.to_be_bytes());
            v.extend_from_slice(&of.to_be_bytes());
            v
        }
        Role::HintSub { node } => {
            let mut v = vec![2u8];
            v.extend_from_slice(&node.to_be_bytes());
            v
        }
    }
}

/// Decodes a `Hello` payload.
pub fn decode_hello(payload: &[u8]) -> Result<Role, FrameError> {
    let (&role, rest) = payload.split_first().ok_or(FrameError::Malformed)?;
    let mut r = Reader::new(rest);
    let role = match role {
        0 => Role::Tracer { node: r.u32()? },
        1 => Role::Analyzer {
            shard: r.u32()?,
            of: r.u32()?,
        },
        2 => Role::HintSub { node: r.u32()? },
        _ => return Err(FrameError::Malformed),
    };
    r.end()?;
    Ok(role)
}

/// Encodes an `Announce` payload: the directed edges a tracer owns.
pub fn encode_announce(edges: &[(u32, u32)]) -> Vec<u8> {
    let mut v = Vec::with_capacity(4 + edges.len() * 8);
    v.extend_from_slice(&(edges.len() as u32).to_be_bytes());
    for &(src, dst) in edges {
        v.extend_from_slice(&src.to_be_bytes());
        v.extend_from_slice(&dst.to_be_bytes());
    }
    v
}

/// Decodes an `Announce` payload.
pub fn decode_announce(payload: &[u8]) -> Result<Vec<(u32, u32)>, FrameError> {
    let mut r = Reader::new(payload);
    let edges = r.counted(8, |r| Ok((r.u32()?, r.u32()?)))?;
    r.end()?;
    Ok(edges)
}

/// What an analyzer subscribes to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscribeSpec {
    /// Every edge any tracer announces (the sharded-analyzer default:
    /// shards partition *roots*, but every shard correlates against every
    /// edge signal).
    All,
    /// Only streams whose announced edges intersect this set.
    Edges(Vec<(u32, u32)>),
}

/// The `Subscribe` payload: the spec, plus per-origin resume positions —
/// the highest sequence number the analyzer fully ingested from each
/// origin, so a reconnecting subscriber is replayed only what it missed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscribe {
    /// Which streams to receive.
    pub spec: SubscribeSpec,
    /// `(origin, last fully received seq)` pairs.
    pub resume: Vec<(u32, u64)>,
}

/// Encodes a `Subscribe` payload.
pub fn encode_subscribe(sub: &Subscribe) -> Vec<u8> {
    let mut v = Vec::new();
    match &sub.spec {
        SubscribeSpec::All => v.extend_from_slice(&u32::MAX.to_be_bytes()),
        SubscribeSpec::Edges(edges) => {
            v.extend_from_slice(&(edges.len() as u32).to_be_bytes());
            for &(src, dst) in edges {
                v.extend_from_slice(&src.to_be_bytes());
                v.extend_from_slice(&dst.to_be_bytes());
            }
        }
    }
    v.extend_from_slice(&(sub.resume.len() as u32).to_be_bytes());
    for &(origin, seq) in &sub.resume {
        v.extend_from_slice(&origin.to_be_bytes());
        v.extend_from_slice(&seq.to_be_bytes());
    }
    v
}

/// Decodes a `Subscribe` payload.
pub fn decode_subscribe(payload: &[u8]) -> Result<Subscribe, FrameError> {
    let mut r = Reader::new(payload);
    let spec = match r.u32()? {
        u32::MAX => SubscribeSpec::All,
        count => SubscribeSpec::Edges(r.elements(count, 8, |r| Ok((r.u32()?, r.u32()?)))?),
    };
    let resume = r.counted(12, |r| Ok((r.u32()?, r.u64()?)))?;
    r.end()?;
    Ok(Subscribe { spec, resume })
}

/// Encodes a `Hint` payload: one analyzer shard's full-state reduction
/// snapshot (see [`HintState`]).
pub fn encode_hint(state: &HintState) -> Vec<u8> {
    let mut v = Vec::with_capacity(12 + state.edges.len() * 16);
    v.extend_from_slice(&state.shard.to_be_bytes());
    v.extend_from_slice(&state.of.to_be_bytes());
    v.extend_from_slice(&(state.edges.len() as u32).to_be_bytes());
    for &((src, dst), level) in &state.edges {
        v.extend_from_slice(&src.to_be_bytes());
        v.extend_from_slice(&dst.to_be_bytes());
        v.extend_from_slice(&level.to_be_bytes());
    }
    v
}

/// Decodes a `Hint` payload.
pub fn decode_hint(payload: &[u8]) -> Result<HintState, FrameError> {
    let mut r = Reader::new(payload);
    let (shard, of) = (r.u32()?, r.u32()?);
    let edges = r.counted(16, |r| Ok(((r.u32()?, r.u32()?), r.u64()?)))?;
    r.end()?;
    Ok(HintState { shard, of, edges })
}

/// A total big-endian reader over a control payload: every read checks
/// that the bytes it needs are there.
pub(crate) struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `payload`.
    pub(crate) fn new(payload: &'a [u8]) -> Self {
        Reader { rest: payload }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let (head, rest) = self.rest.split_first_chunk().ok_or(FrameError::Malformed)?;
        self.rest = rest;
        Ok(*head)
    }

    /// The next big-endian `u32`.
    pub(crate) fn u32(&mut self) -> Result<u32, FrameError> {
        self.take().map(u32::from_be_bytes)
    }

    /// The next big-endian `u64`.
    pub(crate) fn u64(&mut self) -> Result<u64, FrameError> {
        self.take().map(u64::from_be_bytes)
    }

    /// A `u32` count and then that many elements, each `width` bytes
    /// long and read by `read` (see [`elements`](Self::elements)).
    fn counted<T>(
        &mut self,
        width: usize,
        read: impl FnMut(&mut Self) -> Result<T, FrameError>,
    ) -> Result<Vec<T>, FrameError> {
        let count = self.u32()?;
        self.elements(count, width, read)
    }

    /// `count` elements, each `width` bytes long and read by `read`. The
    /// count is capped against the bytes left before anything is
    /// allocated for it.
    fn elements<T>(
        &mut self,
        count: u32,
        width: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, FrameError>,
    ) -> Result<Vec<T>, FrameError> {
        let count = count as usize;
        if count
            .checked_mul(width)
            .is_none_or(|len| len > self.rest.len())
        {
            return Err(FrameError::Malformed);
        }
        (0..count).map(|_| read(self)).collect()
    }

    /// Checks that nothing is left over.
    fn end(self) -> Result<(), FrameError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(FrameError::Malformed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrip() {
        for role in [
            Role::Tracer { node: 9 },
            Role::Analyzer { shard: 2, of: 4 },
            Role::HintSub { node: 5 },
        ] {
            assert_eq!(decode_hello(&encode_hello(role)), Ok(role));
        }
        assert!(decode_hello(&[]).is_err());
        assert!(decode_hello(&[7, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn hint_roundtrip() {
        for state in [
            HintState {
                shard: 0,
                of: 1,
                edges: vec![],
            },
            HintState {
                shard: 2,
                of: 4,
                edges: vec![((1, 2), 16), ((3, u32::MAX), u64::MAX)],
            },
        ] {
            assert_eq!(decode_hint(&encode_hint(&state)), Ok(state));
        }
        assert!(decode_hint(&[]).is_err());
        // Truncated edge list.
        let enc = encode_hint(&HintState {
            shard: 0,
            of: 1,
            edges: vec![((1, 2), 16)],
        });
        assert!(decode_hint(&enc[..enc.len() - 1]).is_err());
        // Absurd count with no bytes behind it.
        let mut bad = vec![0u8; 8];
        bad.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode_hint(&bad).is_err());
    }

    #[test]
    fn announce_roundtrip() {
        let edges = vec![(1, 2), (3, 4), (0, u32::MAX)];
        assert_eq!(decode_announce(&encode_announce(&edges)), Ok(edges));
        assert_eq!(decode_announce(&encode_announce(&[])), Ok(vec![]));
        // Truncated body.
        let enc = encode_announce(&[(1, 2)]);
        assert!(decode_announce(&enc[..enc.len() - 1]).is_err());
        // Absurd count with no bytes behind it.
        assert!(decode_announce(&u32::MAX.to_be_bytes()).is_err());
    }

    #[test]
    fn subscribe_roundtrip() {
        for sub in [
            Subscribe {
                spec: SubscribeSpec::All,
                resume: vec![],
            },
            Subscribe {
                spec: SubscribeSpec::All,
                resume: vec![(3, 77), (9, u64::MAX)],
            },
            Subscribe {
                spec: SubscribeSpec::Edges(vec![(1, 2), (2, 1)]),
                resume: vec![(1, 5)],
            },
        ] {
            assert_eq!(decode_subscribe(&encode_subscribe(&sub)), Ok(sub));
        }
        assert!(decode_subscribe(&[]).is_err());
        assert!(decode_subscribe(&u32::MAX.to_be_bytes()).is_err());
    }

    /// A payload whose envelope verified but whose body does not parse is
    /// malformed — not a checksum mismatch, not an unknown frame kind.
    #[test]
    fn every_decoder_reports_a_malformed_payload_as_such() {
        use FrameError::Malformed;
        let tail = |mut v: Vec<u8>| {
            v.push(0);
            v
        };
        // Hello: empty, unknown role, short, trailing byte.
        assert_eq!(decode_hello(&[]), Err(Malformed));
        assert_eq!(decode_hello(&[7, 0, 0, 0, 0]), Err(Malformed));
        assert_eq!(decode_hello(&[1, 0, 0, 0, 2]), Err(Malformed));
        let hello = encode_hello(Role::Tracer { node: 3 });
        assert_eq!(decode_hello(&tail(hello)), Err(Malformed));
        // Announce: no count, absurd count, trailing byte.
        assert_eq!(decode_announce(&[0, 0]), Err(Malformed));
        assert_eq!(decode_announce(&u32::MAX.to_be_bytes()), Err(Malformed));
        let announce = encode_announce(&[(1, 2)]);
        assert_eq!(decode_announce(&tail(announce)), Err(Malformed));
        // Subscribe: no spec, an edge list short of its count, no resume
        // count, trailing byte.
        assert_eq!(decode_subscribe(&[0xFF, 0xFF]), Err(Malformed));
        assert_eq!(decode_subscribe(&[0, 0, 0, 1, 0, 0, 0, 0]), Err(Malformed));
        assert_eq!(decode_subscribe(&u32::MAX.to_be_bytes()), Err(Malformed));
        let subscribe = encode_subscribe(&Subscribe {
            spec: SubscribeSpec::All,
            resume: vec![(1, 5)],
        });
        assert_eq!(decode_subscribe(&tail(subscribe)), Err(Malformed));
        // Hint: short header, absurd count, trailing byte.
        assert_eq!(decode_hint(&[0; 11]), Err(Malformed));
        let mut huge = vec![0u8; 8];
        huge.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(decode_hint(&huge), Err(Malformed));
        let hint = encode_hint(&HintState {
            shard: 0,
            of: 1,
            edges: vec![((1, 2), 16)],
        });
        assert_eq!(decode_hint(&tail(hint)), Err(Malformed));
    }
}
