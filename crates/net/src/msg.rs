//! Control-plane payloads carried inside [`frame`](crate::frame)
//! envelopes: peer introduction and subscription.
//!
//! Encodings are fixed-width big-endian with explicit counts, and every
//! decoded count is capped against the bytes actually present before any
//! allocation — the same hardening discipline as the series wire format.
//! Decoders read through one total `Reader`: a payload of the wrong
//! length or an unknown role is [`FrameError::Malformed`], never a panic.

use crate::frame::FrameError;

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
        _ => return Err(FrameError::Malformed),
    };
    r.end()?;
    Ok(role)
}

/// Encodes a `Subscribe` payload: per-origin resume positions — the
/// highest sequence number the subscriber fully ingested from each
/// origin, so a reconnecting subscriber is replayed only what it missed.
/// A subscriber always receives every stream.
pub fn encode_subscribe(resume: &[(u32, u64)]) -> Vec<u8> {
    let mut v = Vec::with_capacity(4 + resume.len() * 12);
    v.extend_from_slice(&(resume.len() as u32).to_be_bytes());
    for &(origin, seq) in resume {
        v.extend_from_slice(&origin.to_be_bytes());
        v.extend_from_slice(&seq.to_be_bytes());
    }
    v
}

/// Decodes a `Subscribe` payload into its `(origin, last fully received
/// seq)` resume positions.
pub fn decode_subscribe(payload: &[u8]) -> Result<Vec<(u32, u64)>, FrameError> {
    let mut r = Reader::new(payload);
    let resume = r.counted(12, |r| Ok((r.u32()?, r.u64()?)))?;
    r.end()?;
    Ok(resume)
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
    /// long and read by `read`. The count is capped against the bytes
    /// left before anything is allocated for it.
    fn counted<T>(
        &mut self,
        width: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, FrameError>,
    ) -> Result<Vec<T>, FrameError> {
        let count = self.u32()? as usize;
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
        for role in [Role::Tracer { node: 9 }, Role::Analyzer { shard: 2, of: 4 }] {
            assert_eq!(decode_hello(&encode_hello(role)), Ok(role));
        }
        assert!(decode_hello(&[]).is_err());
        assert!(decode_hello(&[7, 0, 0, 0, 0]).is_err());
        // Role 2, the retired hint subscriber, is unknown.
        assert!(decode_hello(&[2, 0, 0, 0, 5]).is_err());
    }

    #[test]
    fn subscribe_roundtrip() {
        for resume in [vec![], vec![(3, 77), (9, u64::MAX)]] {
            assert_eq!(decode_subscribe(&encode_subscribe(&resume)), Ok(resume));
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
        // Subscribe: no count, a resume list short of its count, absurd
        // count, trailing byte.
        assert_eq!(decode_subscribe(&[0xFF, 0xFF]), Err(Malformed));
        assert_eq!(decode_subscribe(&[0, 0, 0, 1, 0, 0, 0, 0]), Err(Malformed));
        assert_eq!(decode_subscribe(&u32::MAX.to_be_bytes()), Err(Malformed));
        let subscribe = encode_subscribe(&[(1, 5)]);
        assert_eq!(decode_subscribe(&tail(subscribe)), Err(Malformed));
    }
}
