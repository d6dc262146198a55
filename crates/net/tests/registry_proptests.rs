//! Property-based tests of the per-origin sequence dedup shared by the
//! broker and every analyzer connection: the dedup must deliver every
//! published frame exactly once — no losses, no double delivery — no
//! matter how publishes interleave with replays, and its resume positions
//! must carry its frontier to a fresh tracker.

use e2eprof_net::registry::{Freshness, SeqDedup};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exactly-once: an arbitrary interleaving of fresh publishes and
    /// replayed prefixes (what reconnecting tracers produce) passes each
    /// sequence number through the dedup exactly once, in order, per
    /// origin.
    #[test]
    fn dedup_delivers_every_frame_exactly_once(
        publishes in prop::collection::vec((0u32..3, 1u64..30), 1..60),
        replay_points in prop::collection::vec(0usize..60, 0..6),
    ) {
        // Build per-origin monotone sequence streams from the raw pairs:
        // each (origin, _) pair becomes that origin's next seq.
        let mut next: BTreeMap<u32, u64> = BTreeMap::new();
        let mut stream: Vec<(u32, u64)> = Vec::new();
        for &(origin, _) in &publishes {
            let seq = next.entry(origin).or_insert(0);
            *seq += 1;
            stream.push((origin, *seq));
        }
        // Splice in replays: at each chosen point, re-publish the last
        // few frames of that origin (a reconnecting tracer resending).
        let mut with_replays: Vec<(u32, u64)> = Vec::new();
        for (i, &(origin, seq)) in stream.iter().enumerate() {
            with_replays.push((origin, seq));
            if replay_points.contains(&i) {
                for back in (1..=seq.min(3)).rev() {
                    with_replays.push((origin, seq - back + 1));
                }
            }
        }
        let mut dedup = SeqDedup::new();
        let mut delivered: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for &(origin, seq) in &with_replays {
            if dedup.offer(origin, seq) == Freshness::Fresh {
                delivered.entry(origin).or_default().push(seq);
            }
        }
        // Every origin's delivered stream is exactly 1..=max, once each.
        for (&origin, seqs) in &delivered {
            let max = *next.get(&origin).expect("origin published");
            let want: Vec<u64> = (1..=max).collect();
            prop_assert_eq!(
                seqs.clone(), want,
                "origin {}: delivered {:?}", origin, seqs
            );
        }
        prop_assert_eq!(delivered.len(), next.len());
        // The duplicate counter accounts for every suppressed frame.
        let total = with_replays.len() as u64;
        let fresh: u64 = delivered.values().map(|v| v.len() as u64).sum();
        prop_assert_eq!(dedup.duplicates, total - fresh);
    }

    /// Resume positions round-trip: a dedup rebuilt from another's resume
    /// positions accepts exactly the frames the original would.
    #[test]
    fn resume_positions_transfer_the_dedup_frontier(
        publishes in prop::collection::vec(0u32..3, 1..40),
        probes in prop::collection::vec((0u32..3, 1u64..20), 1..20),
    ) {
        let mut next: BTreeMap<u32, u64> = BTreeMap::new();
        let mut dedup = SeqDedup::new();
        for &origin in &publishes {
            let seq = next.entry(origin).or_insert(0);
            *seq += 1;
            assert_eq!(dedup.offer(origin, *seq), Freshness::Fresh);
        }
        let mut resumed = SeqDedup::new();
        for (origin, seq) in dedup.resume_positions() {
            assert_eq!(resumed.offer(origin, seq), Freshness::Fresh);
        }
        for &(origin, seq) in &probes {
            prop_assert_eq!(
                resumed.would_be_fresh(origin, seq),
                dedup.would_be_fresh(origin, seq),
                "origin {} seq {}", origin, seq
            );
        }
    }
}
