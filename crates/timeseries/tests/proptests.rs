//! Property-based tests for the series representations: every
//! representation is a lossless view of the same underlying signal, and
//! compression must never change values, spans, or statistics.

use e2eprof_timeseries::density::{CountRun, DensityEstimator};
use e2eprof_timeseries::{
    wire, DenseSeries, Nanos, Quanta, RleSeries, Run, SparseEntry, SparseSeries, Tick,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// An arbitrary signal as a dense value vector; values are drawn from the
/// small set a density function can produce (sqrt of small counts) plus
/// zeros, so RLE merging actually happens.
fn signal_strategy() -> impl Strategy<Value = (u64, Vec<f64>)> {
    (
        0u64..1000,
        prop::collection::vec(
            prop_oneof![
                3 => Just(0.0f64),
                2 => (1u32..5).prop_map(|c| (c as f64).sqrt()),
            ],
            0..200,
        ),
    )
}

fn dense(start: u64, values: Vec<f64>) -> DenseSeries {
    DenseSeries::new(Tick::new(start), values)
}

proptest! {
    #[test]
    fn dense_sparse_round_trip((start, values) in signal_strategy()) {
        let d = dense(start, values);
        let back = d.to_sparse().to_dense();
        prop_assert_eq!(&back, &d);
    }

    #[test]
    fn sparse_rle_round_trip((start, values) in signal_strategy()) {
        let s = dense(start, values).to_sparse();
        prop_assert_eq!(s.to_rle().to_sparse(), s);
    }

    #[test]
    fn rle_support_equals_sparse_entries((start, values) in signal_strategy()) {
        let s = dense(start, values).to_sparse();
        prop_assert_eq!(s.to_rle().support(), s.num_entries() as u64);
    }

    #[test]
    fn stats_agree_across_representations((start, values) in signal_strategy()) {
        let d = dense(start, values);
        let s = d.to_sparse();
        let r = s.to_rle();
        prop_assert!((d.stats().mean() - s.stats().mean()).abs() < 1e-9);
        prop_assert!((s.stats().mean() - r.stats().mean()).abs() < 1e-9);
        prop_assert!((d.stats().variance() - r.stats().variance()).abs() < 1e-9);
        prop_assert_eq!(d.stats().window_len(), r.stats().window_len());
    }

    #[test]
    fn wire_round_trip((start, values) in signal_strategy()) {
        let r = dense(start, values).to_sparse().to_rle();
        let decoded = wire::decode(&wire::encode(&r)).expect("round trip");
        prop_assert_eq!(decoded, r);
    }

    #[test]
    fn slice_matches_pointwise(
        (start, values) in signal_strategy(),
        a in 0u64..220,
        b in 0u64..220,
    ) {
        let d = dense(start, values);
        let (a, b) = (start + a.min(b), start + a.max(b));
        let sliced = d.to_sparse().slice(Tick::new(a), Tick::new(b));
        for t in a..b {
            prop_assert_eq!(sliced.value_at(Tick::new(t)), d.value_at(Tick::new(t)));
        }
        // Nothing outside the slice span.
        prop_assert!(sliced
            .entries()
            .iter()
            .all(|e| e.tick().index() >= a && e.tick().index() < b));
    }

    #[test]
    fn rle_slice_matches_sparse_slice(
        (start, values) in signal_strategy(),
        a in 0u64..220,
        b in 0u64..220,
    ) {
        let s = dense(start, values).to_sparse();
        let (a, b) = (start + a.min(b), start + a.max(b));
        let via_rle = s.to_rle().slice(Tick::new(a), Tick::new(b)).to_sparse();
        let direct = s.slice(Tick::new(a), Tick::new(b));
        prop_assert_eq!(via_rle, direct);
    }

    #[test]
    fn rle_append_equals_whole_encode(
        (start, values) in signal_strategy(),
        split_frac in 0.0f64..1.0,
    ) {
        let d = dense(start, values);
        let split = start + ((d.len() as f64 * split_frac) as u64).min(d.len());
        let whole = d.to_sparse().to_rle();
        let mut left = d.to_sparse().slice(d.start(), Tick::new(split)).to_rle();
        let right = d.to_sparse().slice(Tick::new(split), d.end()).to_rle();
        left.append_chunk(&right);
        prop_assert_eq!(left, whole);
    }
}

/// Reference eviction: drop from the front until at most `cap` ticks.
fn trim_model(start: &mut u64, vals: &mut Vec<f64>, cap: u64) {
    if vals.len() as u64 > cap {
        let drop = vals.len() - cap as usize;
        vals.drain(..drop);
        *start += drop as u64;
    }
}

proptest! {
    /// [`SlidingWindow`] against a brute-force dense reference, under
    /// arbitrary chunk sizes, stream gaps (tracer restarts ahead of the
    /// window), and duplicate/overlapping replays (tracer restarts behind
    /// it). The model mirrors `append_or_reset`'s contract: contiguous
    /// chunks append then evict to capacity, a gap resets the window to
    /// the chunk verbatim (no eviction — the chunk is the entire
    /// history), replays contribute only their novel suffix, and fully
    /// stale chunks are ignored.
    #[test]
    fn sliding_window_matches_dense_reference(
        cap in 5u64..60,
        ops in prop::collection::vec(
            (
                0u8..10,  // <6: contiguous, <8: gap, else: replay
                1u64..25, // gap / replay distance (and the first origin)
                prop::collection::vec(
                    prop_oneof![
                        2 => Just(0.0f64),
                        1 => (1u32..5).prop_map(|c| (c as f64).sqrt()),
                    ],
                    1..30,
                ),
            ),
            1..40,
        ),
    ) {
        use e2eprof_timeseries::window::SlidingWindow;
        let mut w = SlidingWindow::new(cap);
        let mut m_start = 0u64;
        let mut m_vals: Vec<f64> = Vec::new();
        let mut seen = false;
        for (mode, dist, cv) in ops {
            let end = m_start + m_vals.len() as u64;
            let cs = if !seen {
                dist
            } else if mode < 6 {
                end
            } else if mode < 8 {
                end + dist
            } else {
                end.saturating_sub(dist)
            };
            let chunk = DenseSeries::new(Tick::new(cs), cv.clone())
                .to_sparse()
                .to_rle();
            let healed = w.append_or_reset(&chunk);

            if !seen {
                m_start = cs;
                m_vals = cv;
                seen = true;
                trim_model(&mut m_start, &mut m_vals, cap);
                prop_assert!(!healed);
            } else if cs > end {
                m_start = cs;
                m_vals = cv;
                prop_assert!(healed);
            } else if cs + cv.len() as u64 <= end {
                prop_assert!(!healed); // stale duplicate, ignored
            } else {
                let skip = (end - cs) as usize;
                m_vals.extend_from_slice(&cv[skip..]);
                trim_model(&mut m_start, &mut m_vals, cap);
                prop_assert!(!healed);
            }

            let m_end = m_start + m_vals.len() as u64;
            prop_assert_eq!(w.start(), Tick::new(m_start));
            prop_assert_eq!(w.end(), Tick::new(m_end));
            let s = w.series();
            for (i, &v) in m_vals.iter().enumerate() {
                prop_assert_eq!(s.value_at(Tick::new(m_start + i as u64)), v);
            }
            // Views clamp to the retained span and agree pointwise.
            let v = w.view(
                Tick::new(m_start.saturating_sub(3)),
                Tick::new(m_end + 3),
            );
            prop_assert_eq!(v.start(), Tick::new(m_start));
            prop_assert_eq!(v.end(), Tick::new(m_end));
            for (i, &mv) in m_vals.iter().enumerate() {
                prop_assert_eq!(v.value_at(Tick::new(m_start + i as u64)), mv);
            }
        }
    }
}

/// Arbitrary sorted timestamps in a bounded horizon (milliseconds).
fn timestamps_strategy() -> impl Strategy<Value = Vec<Nanos>> {
    prop::collection::vec(0u64..500_000u64, 0..300).prop_map(|mut us| {
        us.sort_unstable();
        us.into_iter().map(Nanos::from_micros).collect()
    })
}

proptest! {
    #[test]
    fn density_count_matches_brute_force(ts in timestamps_strategy(), omega in 1u64..60) {
        let quanta = Quanta::from_millis(1);
        let series = DensityEstimator::from_timestamps(quanta, omega, &ts);
        let half_ns = omega * 1_000_000 / 2;
        // Check a sample of ticks against the definition.
        for tick in (0..series.end().index()).step_by(7) {
            let center = tick * 1_000_000;
            let count = ts
                .iter()
                .filter(|t| {
                    let t = t.as_nanos();
                    t + half_ns >= center && t <= center + half_ns
                })
                .count();
            let expect = (count as f64).sqrt();
            let got = series.value_at(Tick::new(tick));
            prop_assert!((got - expect).abs() < 1e-9, "tick {}: got {} expect {}", tick, got, expect);
        }
    }

    #[test]
    fn density_chunked_equals_one_shot(ts in timestamps_strategy(), omega in 1u64..40) {
        let quanta = Quanta::from_millis(1);
        let one_shot = DensityEstimator::from_timestamps(quanta, omega, &ts);

        let mut est = DensityEstimator::new(quanta, omega);
        let mut acc: Option<SparseSeries> = None;
        let mut i = 0;
        for drain_at in [100u64, 250, 400] {
            // All messages whose window could touch ticks < drain_at.
            let horizon = drain_at * 1_000_000 + omega * 1_000_000 / 2;
            while i < ts.len() && ts[i].as_nanos() < horizon {
                est.push(ts[i]);
                i += 1;
            }
            let chunk = est.drain_chunk(Tick::new(drain_at));
            match &mut acc {
                None => acc = Some(chunk),
                Some(a) => a.append_chunk(&chunk),
            }
        }
        while i < ts.len() {
            est.push(ts[i]);
            i += 1;
        }
        let tail = est.finish();
        let mut acc = acc.expect("chunks");
        acc.append_chunk(&tail);

        for t in 0..one_shot.end().index() {
            prop_assert_eq!(acc.value_at(Tick::new(t)), one_shot.value_at(Tick::new(t)));
        }
    }
}

/// An arbitrary multi-series batch: per-entry edge keys plus a signal.
type BatchSpec = Vec<((u32, u32), (u64, Vec<f64>))>;

fn batch_strategy() -> impl Strategy<Value = BatchSpec> {
    prop::collection::vec(((any::<u32>(), any::<u32>()), signal_strategy()), 0..6)
}

proptest! {
    /// Wire-v2 batch round trip is the identity, with and without the
    /// integer-amplitude encoding (signal values are √count or zero, so
    /// the integer path is exercised and must stay lossless).
    #[test]
    fn wire_v2_batch_round_trip(entries in batch_strategy(), int_amp in any::<bool>()) {
        let batch: Vec<((u32, u32), e2eprof_timeseries::RleSeries)> = entries
            .into_iter()
            .map(|(key, (start, values))| (key, dense(start, values).to_sparse().to_rle()))
            .collect();
        let decoded = wire::decode_batch(&wire::encode_batch(&batch, int_amp))
            .expect("round trip");
        prop_assert_eq!(decoded.len(), batch.len());
        for ((dk, ds), (ek, es)) in decoded.iter().zip(batch.iter()) {
            prop_assert_eq!(dk, ek);
            prop_assert_eq!(ds, es);
            // PartialEq on f64 conflates -0.0/0.0 and would pass NaN-free
            // near-misses; the wire contract is bit-for-bit.
            for (dr, er) in ds.runs().iter().zip(es.runs()) {
                prop_assert_eq!(dr.value().to_bits(), er.value().to_bits());
            }
        }
    }

    /// Re-encoding a decoded v1 series as a v2 batch and decoding it again
    /// yields the exact same series, bit for bit — upgrading the wire
    /// mid-stream cannot perturb the analyzer's inputs.
    #[test]
    fn wire_v2_reencode_of_v1_is_bitwise_equal(
        (start, values) in signal_strategy(),
        int_amp in any::<bool>(),
    ) {
        let r = dense(start, values).to_sparse().to_rle();
        let via_v1 = wire::decode(&wire::encode(&r)).expect("v1 round trip");
        let batch = wire::encode_batch(&[((7u32, 3u32), via_v1.clone())], int_amp);
        let mut via_v2 = wire::decode_batch(&batch).expect("v2 round trip");
        prop_assert_eq!(via_v2.len(), 1);
        let ((src, dst), series) = via_v2.pop().unwrap();
        prop_assert_eq!((src, dst), (7, 3));
        prop_assert_eq!(&series, &via_v1);
        for (a, b) in series.runs().iter().zip(via_v1.runs()) {
            prop_assert_eq!(a.value().to_bits(), b.value().to_bits());
        }
    }
}

/// The pre-deque [`SlidingWindow`]: one owned [`RleSeries`] that is
/// re-sliced (i.e. rebuilt) on every append. Kept verbatim as the
/// reference model for the amortized run-deque rewrite.
struct SliceWindow {
    capacity: u64,
    series: Option<e2eprof_timeseries::RleSeries>,
}

impl SliceWindow {
    fn new(capacity: u64) -> Self {
        SliceWindow {
            capacity,
            series: None,
        }
    }

    fn trim(&mut self) {
        let Some(series) = &mut self.series else {
            return;
        };
        let len = series.end() - series.start();
        if len > self.capacity {
            let new_start = Tick::new(series.end().index() - self.capacity);
            *series = series.slice(new_start, series.end());
        }
    }

    fn append_or_reset(&mut self, chunk: &e2eprof_timeseries::RleSeries) -> bool {
        let Some(series) = &mut self.series else {
            self.series = Some(chunk.clone());
            self.trim();
            return false;
        };
        if chunk.start() > series.end() {
            self.series = Some(chunk.clone());
            return true;
        }
        if chunk.end() <= series.end() {
            return false;
        }
        let novel = chunk.slice(series.end(), chunk.end());
        series.append_chunk(&novel);
        self.trim();
        false
    }

    fn start(&self) -> Tick {
        self.series.as_ref().map_or(Tick::ZERO, |s| s.start())
    }

    fn end(&self) -> Tick {
        self.series.as_ref().map_or(Tick::ZERO, |s| s.end())
    }

    fn series(&self) -> e2eprof_timeseries::RleSeries {
        self.series
            .clone()
            .unwrap_or_else(|| e2eprof_timeseries::RleSeries::empty(Tick::ZERO, 0))
    }
}

proptest! {
    /// The run-deque [`SlidingWindow`] must be indistinguishable from the
    /// slice-based implementation it replaced — same span, same healed
    /// flags, and structurally identical `series()` (run boundaries and
    /// bit-exact values, not just pointwise equality) — under arbitrary
    /// mixtures of contiguous appends, stream gaps, and replays.
    #[test]
    fn sliding_window_deque_matches_slice_reference(
        cap in 5u64..60,
        ops in prop::collection::vec(
            (
                0u8..10,  // <6: contiguous, <8: gap, else: replay
                1u64..25, // gap / replay distance (and the first origin)
                prop::collection::vec(
                    prop_oneof![
                        2 => Just(0.0f64),
                        1 => (1u32..5).prop_map(|c| (c as f64).sqrt()),
                    ],
                    1..30,
                ),
            ),
            1..40,
        ),
    ) {
        use e2eprof_timeseries::window::SlidingWindow;
        let mut new = SlidingWindow::new(cap);
        let mut old = SliceWindow::new(cap);
        for (mode, dist, cv) in ops {
            let end = old.end().index();
            let cs = if old.series.is_none() {
                dist
            } else if mode < 6 {
                end
            } else if mode < 8 {
                end + dist
            } else {
                end.saturating_sub(dist)
            };
            let chunk = DenseSeries::new(Tick::new(cs), cv).to_sparse().to_rle();
            prop_assert_eq!(new.append_or_reset(&chunk), old.append_or_reset(&chunk));
            prop_assert_eq!(new.start(), old.start());
            prop_assert_eq!(new.end(), old.end());
            let (ns, os) = (new.series(), old.series());
            prop_assert_eq!(&ns, &os);
            for (a, b) in ns.runs().iter().zip(os.runs()) {
                prop_assert_eq!(a.start(), b.start());
                prop_assert_eq!(a.len(), b.len());
                prop_assert_eq!(a.value().to_bits(), b.value().to_bits());
            }
        }
    }
}

proptest! {
    /// Decoding arbitrary bytes must never panic — only return errors.
    #[test]
    fn wire_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = wire::decode(&bytes);
    }

    /// Corrupting any single byte of a valid frame either still decodes
    /// (value fields) or errors — never panics.
    #[test]
    fn wire_single_byte_corruption_is_safe(
        (start, values) in signal_strategy(),
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let r = dense(start, values).to_sparse().to_rle();
        let mut frame = wire::encode(&r).to_vec();
        prop_assume!(!frame.is_empty());
        let pos = ((frame.len() - 1) as f64 * pos_frac) as usize;
        frame[pos] ^= xor;
        let _ = wire::decode(&frame);
    }
}

proptest! {
    /// The change-epoch contract the analyzer's activity gate stands on:
    /// an unchanged epoch across any run of appends certifies that the
    /// retained nonzero runs are **bitwise identical at identical
    /// absolute ticks** to when the epoch was read, and `has_runs_in`
    /// agrees with a brute-force scan of the retained series. Together
    /// these let a refresh prove a boundary region stayed all-zero for a
    /// whole inter-refresh period without replaying the stream.
    #[test]
    fn window_epoch_certifies_unchanged_content(
        chunks in prop::collection::vec(signal_strategy(), 1..12),
        capacity in 10u64..150,
        probe in prop::collection::vec((0u64..400, 0u64..100), 1..8),
    ) {
        use e2eprof_timeseries::window::SlidingWindow;
        let cells = |w: &SlidingWindow| -> Vec<(u64, u64)> {
            let s = w.series();
            (s.start().index()..s.end().index())
                .map(|t| (t, s.value_at(Tick::new(t)).to_bits()))
                .filter(|&(_, bits)| bits != 0.0f64.to_bits())
                .collect()
        };
        let mut w = SlidingWindow::new(capacity);
        let mut prev_epoch = w.epoch();
        let mut prev_cells = cells(&w);
        for (_, values) in chunks {
            let chunk = DenseSeries::new(w.end(), values).to_sparse().to_rle();
            let had_content = !chunk.runs().is_empty();
            w.append_chunk(&chunk);
            let now_cells = cells(&w);
            if w.epoch() == prev_epoch {
                // Nothing may have entered or left retention.
                prop_assert_eq!(&now_cells, &prev_cells, "epoch stable but content moved");
                prop_assert!(!had_content, "nonzero chunk left the epoch unchanged");
            }
            if now_cells != prev_cells {
                prop_assert!(w.epoch() > prev_epoch, "content moved without an epoch bump");
            }
            prev_epoch = w.epoch();
            prev_cells = now_cells;
            // has_runs_in must agree with a brute-force scan everywhere.
            for &(from, len) in &probe {
                let (a, b) = (Tick::new(from), Tick::new(from + len));
                let brute = prev_cells.iter().any(|&(t, _)| a.index() <= t && t < b.index());
                prop_assert_eq!(w.has_runs_in(a, b), brute, "has_runs_in({}, {})", from, from + len);
            }
        }
    }
}

/// The estimator's predecessor, kept verbatim as the reference model for
/// the queue-merging rewrite: count deltas in an ordered map, integrated
/// tick by tick into one entry (and one square root) per covered tick.
/// `drain_chunk(end).to_rle()` is what the tracer used to ship.
struct TickDensity {
    tau: u64,
    omega_half_ns: u64,
    diffs: BTreeMap<u64, i64>,
    cursor: u64,
    running: i64,
}

impl TickDensity {
    fn new(quanta: Quanta, omega_ticks: u64) -> Self {
        let tau = quanta.duration().as_nanos();
        TickDensity {
            tau,
            omega_half_ns: omega_ticks * tau / 2,
            diffs: BTreeMap::new(),
            cursor: 0,
            running: 0,
        }
    }

    fn push(&mut self, ts: Nanos) {
        let s = ts.as_nanos();
        let lo = if s <= self.omega_half_ns {
            0
        } else {
            (s - self.omega_half_ns).div_ceil(self.tau)
        };
        let hi = (s + self.omega_half_ns) / self.tau;
        assert!(lo >= self.cursor, "reference drained too eagerly");
        *self.diffs.entry(lo).or_insert(0) += 1;
        *self.diffs.entry(hi + 1).or_insert(0) -= 1;
    }

    fn drain_chunk(&mut self, end: u64) -> SparseSeries {
        let start = self.cursor;
        let mut entries = Vec::new();
        let keys: Vec<u64> = self.diffs.range(..end).map(|(&k, _)| k).collect();
        let mut pos = start;
        let mut running = self.running;
        for k in keys {
            let k_clamped = k.max(start);
            if running > 0 {
                for t in pos..k_clamped {
                    entries.push(SparseEntry::new(Tick::new(t), (running as f64).sqrt()));
                }
            }
            pos = k_clamped;
            running += self.diffs.remove(&k).expect("key just observed");
        }
        if running > 0 {
            for t in pos..end {
                entries.push(SparseEntry::new(Tick::new(t), (running as f64).sqrt()));
            }
        }
        self.cursor = end;
        self.running = running;
        SparseSeries::from_parts(Tick::new(start), end - start, entries)
    }
}

/// Runs compared the way the wire sees them: boundaries, lengths, and the
/// amplitude's bits.
fn run_bits(runs: &[Run]) -> Vec<(u64, u64, u64)> {
    runs.iter()
        .map(|r| (r.start().index(), r.len(), r.value().to_bits()))
        .collect()
}

/// Inter-arrival gaps as `(kind, raw)`, resolved against ω in the test:
/// duplicates, sub-tick bursts, windows that exactly abut
/// (`hi + 1 == lo`), and quiet spells.
fn gaps_strategy() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..10, 0u64..120_000), 0..120)
}

/// Drain steps in ticks: empty drains, steps shorter than a window (a
/// drain inside a run), and long strides.
fn drains_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            1 => Just(0u64),
            3 => 1u64..8,
            3 => 1u64..90,
            1 => 90u64..600,
        ],
        1..40,
    )
}

proptest! {
    /// The queue-merging drain is the old per-tick drain, run for run —
    /// and `drain_chunk`, now an expansion of the same integrator, is the
    /// old `drain_chunk` entry for entry.
    #[test]
    fn density_drain_runs_equal_per_tick_reference(
        gaps in gaps_strategy(),
        drains in drains_strategy(),
        omega in prop_oneof![Just(1u64), Just(2u64), Just(3u64), Just(50u64)],
        first_us in 0u64..30_000,
    ) {
        let quanta = Quanta::from_millis(1);
        // ω even: windows abut at a gap of ω + 1 ticks; ω odd: at ω.
        let abut_us = (omega + 1 - omega % 2) * 1_000;
        let mut at = first_us; // small: the first windows clamp at tick 0
        let stamps: Vec<Nanos> = gaps
            .iter()
            .map(|&(kind, raw)| {
                at += match kind {
                    0..=2 => 0,
                    3..=5 => raw % 3_000,
                    6..=7 => abut_us,
                    _ => raw,
                };
                // Abutting needs whole-tick stamps; snap those.
                if (6..=7).contains(&kind) {
                    at -= at % 1_000;
                }
                Nanos::from_micros(at)
            })
            .collect();
        let mut stamps = stamps;
        stamps.sort_unstable(); // snapping can step back by < 1 tick

        let mut by_run = DensityEstimator::new(quanta, omega);
        let mut by_tick = DensityEstimator::new(quanta, omega);
        let mut reference = TickDensity::new(quanta, omega);
        let mut runs: Vec<CountRun> = Vec::new();
        let mut fed = 0;
        let mut end = 0u64;
        let last = stamps.last().map_or(0, |ts| ts.as_nanos() / 1_000_000 + omega + 2);
        let schedule = drains.iter().map(|step| Some(*step)).chain([None]);
        for step in schedule {
            // The final drain reaches past the last window's close.
            end = step.map_or(end.max(last), |s| end + s);
            let horizon = end * 1_000_000 + omega * 1_000_000 / 2;
            while fed < stamps.len() && stamps[fed].as_nanos() < horizon {
                by_run.push(stamps[fed]);
                by_tick.push(stamps[fed]);
                reference.push(stamps[fed]);
                fed += 1;
            }
            let want = reference.drain_chunk(end);
            by_run.drain_runs(Tick::new(end), &mut runs);
            let got: Vec<Run> = runs.iter().map(|&r| r.into()).collect();
            prop_assert_eq!(run_bits(&got), run_bits(want.to_rle().runs()), "drain to {}", end);
            prop_assert_eq!(by_tick.drain_chunk(Tick::new(end)), want, "drain to {}", end);
        }
        prop_assert_eq!(fed, stamps.len());
    }
}

/// The batch encoder's predecessor, kept as the reference for
/// [`wire::BatchWriter`]: the entry count is known up front and every
/// amplitude goes √ → square → round → verify before it may ship as a
/// count.
fn encode_batch_reference(entries: &[((u32, u32), RleSeries)], int_amp: bool) -> Vec<u8> {
    fn put_varint(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(b);
                return;
            }
            out.push(b | 0x80);
        }
    }
    fn int_amp_code(value: f64) -> Option<u64> {
        if value.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return None;
        }
        let n = (value * value).round();
        if !(1.0..=9.007_199_254_740_992e15).contains(&n) {
            return None;
        }
        let n = n as u64;
        ((n as f64).sqrt().to_bits() == value.to_bits()).then_some(n)
    }
    let mut out = Vec::new();
    out.extend_from_slice(b"E2EP");
    out.push(2);
    out.push(u8::from(int_amp));
    put_varint(&mut out, entries.len() as u64);
    for ((src, dst), series) in entries {
        put_varint(&mut out, u64::from(*src));
        put_varint(&mut out, u64::from(*dst));
        put_varint(&mut out, series.start().index());
        put_varint(&mut out, series.len());
        put_varint(&mut out, series.num_runs() as u64);
        let mut prev_end = series.start().index();
        for r in series.runs() {
            put_varint(&mut out, r.start().index() - prev_end);
            put_varint(&mut out, r.len());
            prev_end = r.end().index();
            match int_amp_code(r.value()).filter(|_| int_amp) {
                Some(n) => put_varint(&mut out, n),
                None => {
                    if int_amp {
                        put_varint(&mut out, 0);
                    }
                    out.extend_from_slice(&r.value().to_be_bytes());
                }
            }
        }
    }
    out
}

/// Like [`signal_strategy`], plus amplitudes that are no √n (negative,
/// fractional, huge): the integer-amplitude escape path.
fn odd_signal_strategy() -> impl Strategy<Value = (u64, Vec<f64>)> {
    (
        0u64..100_000,
        prop::collection::vec(
            prop_oneof![
                4 => Just(0.0f64),
                3 => (1u32..400).prop_map(|c| (c as f64).sqrt()),
                1 => (1u32..1000).prop_map(|c| c as f64 * 0.37),
                1 => (1u32..1000).prop_map(|c| -(c as f64).sqrt()),
                1 => Just(1e300f64),
            ],
            0..120,
        ),
    )
}

proptest! {
    /// The one-shot encoder, now a loop over the incremental writer,
    /// emits the bytes of the up-front encoder it replaced — escape path
    /// and multi-byte entry counts included.
    #[test]
    fn batch_writer_bytes_equal_reference_encoder(
        entries in prop::collection::vec(
            ((any::<u32>(), any::<u32>()), odd_signal_strategy()),
            0..5,
        ),
        int_amp in any::<bool>(),
        padding in prop_oneof![4 => Just(0usize), 1 => 120usize..140],
    ) {
        let mut keyed: Vec<((u32, u32), RleSeries)> = entries
            .into_iter()
            .map(|(key, (start, values))| (key, dense(start, values).to_sparse().to_rle()))
            .collect();
        // Sometimes push the entry count past one varint byte.
        keyed.extend((0..padding).map(|i| ((i as u32, 0), RleSeries::empty(Tick::new(9), 3))));

        let mut buf = vec![0x55u8; 7]; // stale contents must not survive
        wire::encode_batch_into(&keyed, int_amp, &mut buf);
        prop_assert_eq!(&buf, &encode_batch_reference(&keyed, int_amp));
    }

    /// Count runs written straight as varint counts are the bytes of the
    /// series of their square roots.
    #[test]
    fn batch_writer_count_runs_equal_sqrt_series(
        entries in prop::collection::vec(
            (
                (any::<u32>(), any::<u32>()),
                0u64..100_000,
                prop::collection::vec((0u64..40, 1u64..300, 1u64..100_000), 0..30),
                0u64..50,
            ),
            0..5,
        ),
        int_amp in any::<bool>(),
    ) {
        let mut buf = Vec::new();
        let mut writer = wire::BatchWriter::new(&mut buf, int_amp);
        let mut want = Vec::new();
        for (key, start, spec, slack) in entries {
            let mut at = start;
            let runs: Vec<CountRun> = spec
                .into_iter()
                .map(|(gap, len, count)| {
                    let run = CountRun { start: Tick::new(at + gap), len, count };
                    at += gap + len;
                    run
                })
                .collect();
            let len = at - start + slack;
            writer.count_runs(key, Tick::new(start), len, &runs);
            let series = RleSeries::from_parts(
                Tick::new(start),
                len,
                runs.iter().map(|&r| r.into()).collect(),
            );
            want.push((key, series));
        }
        prop_assert_eq!(writer.finish(), want.len() as u64);
        prop_assert_eq!(&buf, &encode_batch_reference(&want, int_amp));
    }
}

proptest! {
    /// What the online analyzer's re-stamped views stand on: for a window
    /// that is quiet between two refreshes — no retained run in the
    /// start-side region `[start₀, start₁ + L)` or the end-side region
    /// `[end₀, data_end₁)`, with `end₀ = data_end₀ − L` — moving the view
    /// cut at the first refresh to the second one's span is bitwise the
    /// view a fresh cut gives: same start, same length, same runs. Runs
    /// are drawn anywhere and then cleared from the two regions; retention
    /// (`capacity`) and the slide are arbitrary, so the first view may be
    /// clamped at either end and the window may end before either
    /// refresh's `data_end`.
    #[test]
    fn restamped_quiet_view_equals_a_fresh_cut(
        values in prop::collection::vec(
            prop_oneof![
                3 => Just(0.0f64),
                2 => (1u32..5).prop_map(|c| (c as f64).sqrt()),
            ],
            1..400,
        ),
        chunk in 1usize..80,
        capacity in 10u64..400,
        (start0, width, lag) in (0u64..400, 0u64..200, 0u64..50),
        (slide, head) in (0u64..150, 0u64..150),
    ) {
        use e2eprof_timeseries::window::SlidingWindow;
        let end0 = start0 + width;
        let data_end0 = end0 + lag;
        let start1 = start0 + slide;
        let data_end1 = data_end0 + head;
        let quiet = |t: u64| (start0..start1 + lag).contains(&t) || (end0..data_end1).contains(&t);
        let values: Vec<f64> = values
            .into_iter()
            .enumerate()
            .map(|(t, v)| if quiet(t as u64) { 0.0 } else { v })
            .collect();
        let mut w = SlidingWindow::new(capacity);
        for (k, part) in values.chunks(chunk).enumerate() {
            let at = (k * chunk) as u64;
            w.append_chunk(&DenseSeries::new(Tick::new(at), part.to_vec()).to_sparse().to_rle());
        }
        let t = Tick::new;
        prop_assert!(!w.has_runs_in(t(start0), t(start1 + lag)));
        prop_assert!(!w.has_runs_in(t(end0), t(data_end1)));
        let bits = |s: &RleSeries| {
            let runs: Vec<_> = s
                .runs()
                .iter()
                .map(|r| (r.start(), r.len(), r.value().to_bits()))
                .collect();
            (s.start(), s.len(), runs)
        };
        let mut view = w.view(t(start0), t(data_end0));
        w.restamp(&mut view, t(start1), t(data_end1));
        prop_assert_eq!(bits(&view), bits(&w.view(t(start1), t(data_end1))));
    }
}
