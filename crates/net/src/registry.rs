//! Per-origin sequence bookkeeping, kept pure so property tests can
//! drive arbitrary interleavings of publishes and replays.
//!
//! Tracers number their data frames per origin, and the numbering
//! persists across reconnects. [`SeqDedup`] on each consuming side — the
//! broker's inbound relay and every analyzer connection — turns that into
//! **no double delivery**: a frame replayed across a reconnect is
//! ingested at most once. Its high-water marks double as the resume
//! positions a reconnecting subscriber sends. There is no routing state:
//! every subscriber receives every stream.

use std::collections::BTreeMap;

/// Verdict of offering a frame to [`SeqDedup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// First sighting — ingest it.
    Fresh,
    /// Already ingested (a replay overlap) — discard it.
    Duplicate,
}

/// Per-origin high-water-mark deduplication for the consuming side.
///
/// Tracers number their data frames with a per-origin sequence that
/// persists across reconnects, so "already seen" reduces to a single
/// comparison per origin.
#[derive(Debug, Default)]
pub struct SeqDedup {
    last: BTreeMap<u32, u64>,
    /// Frames rejected as duplicates.
    pub duplicates: u64,
}

impl SeqDedup {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        SeqDedup::default()
    }

    /// Offers `(origin, seq)`; advances the high-water mark on fresh
    /// frames.
    pub fn offer(&mut self, origin: u32, seq: u64) -> Freshness {
        let last = self.last.entry(origin).or_insert(0);
        if seq <= *last {
            self.duplicates += 1;
            Freshness::Duplicate
        } else {
            *last = seq;
            Freshness::Fresh
        }
    }

    /// `(origin, last ingested seq)` pairs — the resume positions a
    /// reconnecting subscriber sends in its `Subscribe`.
    pub fn resume_positions(&self) -> Vec<(u32, u64)> {
        self.last.iter().map(|(&o, &s)| (o, s)).collect()
    }

    /// Whether `(origin, seq)` would be fresh, without recording it.
    pub fn would_be_fresh(&self, origin: u32, seq: u64) -> bool {
        seq > self.last.get(&origin).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_rejects_replayed_and_accepts_fresh() {
        let mut d = SeqDedup::new();
        assert_eq!(d.offer(1, 1), Freshness::Fresh);
        assert_eq!(d.offer(1, 2), Freshness::Fresh);
        assert_eq!(d.offer(1, 2), Freshness::Duplicate);
        assert_eq!(d.offer(1, 1), Freshness::Duplicate);
        assert_eq!(d.offer(2, 1), Freshness::Fresh, "origins independent");
        assert_eq!(d.duplicates, 2);
        assert_eq!(d.resume_positions(), vec![(1, 2), (2, 1)]);
    }
}
