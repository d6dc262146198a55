//! Analyzer→tracer data-reduction control state (the feedback direction).
//!
//! When [`PathmapConfig::reduction`](crate::config::PathmapConfig::reduction)
//! is enabled, each analyzer shard derives per-edge decimation verdicts from
//! the supports of its signals: edges whose every tracked (client, edge)
//! pair has no overlapping runs at any lag are *demoted* and ship only a
//! coarse decimated image; edges whose coarse image overlaps a root signal
//! again are *promoted* back to full resolution. Both decisions are one
//! test, `supports_overlap`, at two resolutions. A shard publishes its
//! complete verdict as a [`HintState`] snapshot — idempotent by
//! construction, so replaying the latest snapshot after a reconnect
//! converges to the same tracer state.
//!
//! Tracer agents keep the latest snapshot per shard and merge them with
//! [`effective_levels`]; the transport layer carries snapshots broker→tracer
//! as `Hint` control frames with the same exactly-once seq/dedup machinery
//! as data frames.

use crate::hashing::FxHashMap;
use e2eprof_timeseries::RleSeries;

/// Whether two non-negative signals have overlapping runs at *any* lag
/// `d ∈ [0, lags)`: some `t` with `x(t) ≠ 0` and `y(t + d) ≠ 0`.
///
/// Where they do not, every lagged product `x(t)·y(t+d)` has a zero
/// factor, so the pair's exact correlation is zero at every lag — the
/// fact demotion rests on (with fine views and `L` lags). The test only
/// reads supports, so it holds at any resolution and for any amplitude
/// convention: promotion asks it of coarse images over
/// [`coarse_lag_bound`] lags.
///
/// Runs are scanned with two pointers in `O(runs(x) + runs(y))`.
pub(crate) fn supports_overlap(x: &RleSeries, y: &RleSeries, lags: u64) -> bool {
    if lags == 0 {
        return false;
    }
    let xr = x.runs();
    let yr = y.runs();
    let mut i = 0usize;
    for ry in yr {
        // Drop source runs that end too early to reach this (or any
        // later) target run at an admissible lag: t + d spans
        // [rx.start, rx.end + lags - 1).
        while i < xr.len() && xr[i].end().index() + lags - 1 <= ry.start().index() {
            i += 1;
        }
        if i < xr.len() && xr[i].start() < ry.end() {
            return true;
        }
    }
    false
}

/// Number of coarse lags, at `k` fine ticks per coarse tick, that cover
/// every fine lag `d < max_lag`: `⌊(max_lag−1)/k⌋ + 2`.
///
/// A fine product `x(t)·y(t+d)` with `t = Jk + a`, `a ∈ [0, k)`, lands in
/// coarse blocks `J` and `⌊(t+d)/k⌋ = J + ⌊(a+d)/k⌋`, a coarse lag of
/// `⌊d/k⌋` or `⌊d/k⌋ + 1`. A non-zero fine product therefore puts both
/// coarse blocks in their images' supports at a coarse lag below this
/// bound, which is what makes coarse [`supports_overlap`] a sound promote
/// trigger: without it no fine product of the window can be non-zero.
pub(crate) fn coarse_lag_bound(max_lag: u64, k: u64) -> u64 {
    assert!(k > 0, "decimation factor must be positive");
    if max_lag == 0 {
        0
    } else {
        (max_lag - 1) / k + 2
    }
}

/// One analyzer shard's complete reduction verdict.
///
/// A snapshot lists **every** edge the shard currently wants demoted, with
/// its decimation level. Snapshots are full-state and idempotent: applying
/// the latest one per shard — in any order, any number of times — yields
/// the same tracer-side levels, which is what makes hint replay after a
/// connection cut safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintState {
    /// The analyzer shard that produced this snapshot.
    pub shard: u32,
    /// Total number of analyzer shards in the tier.
    pub of: u32,
    /// Every currently demoted edge (as node-index pairs) with its
    /// decimation level — fine ticks per coarse block, always ≥ 2. Edges
    /// absent from every shard's snapshot stream at full resolution.
    pub edges: Vec<((u32, u32), u64)>,
}

/// Merges the latest [`HintState`] per shard into effective per-edge
/// decimation levels.
///
/// Analyzer shards partition *roots*, not edges: every shard ingests every
/// edge stream, so an edge may only be decimated once **every** shard has
/// declared it dead for its own roots. The merge is therefore an
/// intersection — an edge's effective level is the minimum across all
/// shards' snapshots, and an edge missing from *any* shard's snapshot
/// (including shards that have not reported yet) streams at full
/// resolution. Erring toward full resolution can cost bytes but never
/// graph fidelity.
pub fn effective_levels(states: &FxHashMap<u32, HintState>) -> FxHashMap<(u32, u32), u64> {
    let mut out: FxHashMap<(u32, u32), u64> = FxHashMap::default();
    let Some(of) = states.values().map(|s| s.of as usize).max() else {
        return out;
    };
    if states.len() < of {
        return out; // some shard has not reported yet: everything fine
    }
    let mut seen: FxHashMap<(u32, u32), (u64, usize)> = FxHashMap::default();
    for state in states.values() {
        for &(edge, level) in &state.edges {
            let slot = seen.entry(edge).or_insert((level, 0));
            slot.0 = slot.0.min(level);
            slot.1 += 1;
        }
    }
    let quorum = states.len();
    for (edge, (level, count)) in seen {
        if count == quorum {
            out.insert(edge, level);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2eprof_timeseries::{DenseSeries, Tick};

    fn rles(start: u64, v: Vec<f64>) -> RleSeries {
        DenseSeries::new(Tick::new(start), v).to_sparse().to_rle()
    }

    fn pseudo_signal(len: u64, seed: u64, density: u64) -> RleSeries {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let v: Vec<f64> = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(density) {
                    (1.0 + (state % 4) as f64).sqrt()
                } else {
                    0.0
                }
            })
            .collect();
        rles(0, v)
    }

    #[test]
    fn supports_overlap_matches_admissible_lag_windows() {
        // y active only at tick 10: reachable from x's run [2, 5) only
        // when the lag horizon extends past 10 − 4 = 6.
        let x = rles(0, {
            let mut v = vec![0.0; 16];
            v[2] = 1.0;
            v[3] = 1.0;
            v[4] = 2.0;
            v
        });
        let y = rles(0, {
            let mut v = vec![0.0; 16];
            v[10] = 3.0;
            v
        });
        assert!(!supports_overlap(&x, &y, 0));
        assert!(!supports_overlap(&x, &y, 6)); // t + d ≤ 4 + 5 = 9 < 10
        assert!(supports_overlap(&x, &y, 7)); // t = 4, d = 6 reaches 10

        // Anti-causal activity (target strictly before the source) never
        // counts: lags are non-negative, however long the horizon.
        assert!(!supports_overlap(&y, &x, 4));
        assert!(!supports_overlap(&y, &x, 100));
        // Coincident activity overlaps at any positive horizon.
        assert!(supports_overlap(&x, &x, 1));
    }

    /// The test is exact: it says "overlap" precisely when some lagged
    /// product is non-zero.
    #[test]
    fn supports_overlap_iff_some_lagged_product_is_nonzero() {
        for (sx, sy) in [(1, 2), (3, 4), (5, 6), (7, 8)] {
            let x = pseudo_signal(120, sx, 9);
            let y = pseudo_signal(160, sy, 11);
            for lags in [1u64, 3, 8, 24] {
                let product = (0..120u64).any(|t| {
                    (0..lags)
                        .any(|d| x.value_at(Tick::new(t)) * y.value_at(Tick::new(t + d)) != 0.0)
                });
                assert_eq!(supports_overlap(&x, &y, lags), product, "lags {lags}");
            }
        }
    }

    #[test]
    fn coarse_lag_bound_covers_every_fine_lag() {
        for max_lag in [1u64, 7, 16, 100] {
            for k in [2u64, 4, 8, 16] {
                let lc = coarse_lag_bound(max_lag, k);
                // The last fine lag lands at coarse lag ⌊(L−1)/k⌋ + 1 at
                // most, which must be < Lc.
                assert!((max_lag - 1) / k + 1 < lc, "L={max_lag} k={k}");
            }
        }
        assert_eq!(coarse_lag_bound(0, 4), 0);
    }

    /// Promotion's soundness: fine overlap within `L` lags implies coarse
    /// overlap within `coarse_lag_bound(L, k)` lags, so a demoted edge
    /// whose coarse image shows none cannot have a non-zero fine product.
    #[test]
    fn fine_overlap_implies_coarse_overlap() {
        let max_lag = 24;
        for seed in 0..16u64 {
            let x = pseudo_signal(120, 2 * seed + 1, 40);
            let y = pseudo_signal(160, 2 * seed + 2, 50);
            for k in [2u64, 4, 8] {
                let coarse =
                    supports_overlap(&x.decimate(k), &y.decimate(k), coarse_lag_bound(max_lag, k));
                assert!(
                    coarse || !supports_overlap(&x, &y, max_lag),
                    "seed {seed} k={k}"
                );
            }
        }
    }

    #[test]
    fn levels_intersect_across_shards_with_min_level() {
        let mut states = FxHashMap::default();
        states.insert(
            0,
            HintState {
                shard: 0,
                of: 2,
                edges: vec![((1, 2), 16), ((3, 4), 32)],
            },
        );
        states.insert(
            1,
            HintState {
                shard: 1,
                of: 2,
                edges: vec![((5, 6), 8), ((3, 4), 16)],
            },
        );
        let levels = effective_levels(&states);
        assert_eq!(
            levels.get(&(1, 2)),
            None,
            "edge shard 1 still needs stays fine"
        );
        assert_eq!(levels.get(&(5, 6)), None);
        assert_eq!(levels.get(&(3, 4)), Some(&16), "unanimous edge takes min");
        assert_eq!(levels.get(&(9, 9)), None, "unmentioned edges stay fine");
    }

    #[test]
    fn no_decimation_until_every_shard_reports() {
        let mut states = FxHashMap::default();
        states.insert(
            0,
            HintState {
                shard: 0,
                of: 2,
                edges: vec![((1, 2), 16)],
            },
        );
        assert!(
            effective_levels(&states).is_empty(),
            "one of two shards reported: everything must stay fine"
        );
    }

    #[test]
    fn replacing_a_shard_snapshot_is_idempotent() {
        let mut states = FxHashMap::default();
        let snap = HintState {
            shard: 0,
            of: 1,
            edges: vec![((1, 2), 16)],
        };
        states.insert(0, snap.clone());
        let once = effective_levels(&states);
        states.insert(0, snap);
        assert_eq!(effective_levels(&states), once);
    }
}
