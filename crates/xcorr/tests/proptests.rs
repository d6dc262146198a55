//! Property-based tests: every engine computes the same function, the
//! incremental correlator never drifts from a from-scratch computation,
//! normalization stays within Pearson bounds, and spike detection honours
//! its contract. The later sections pin the linear-time refresh kernels —
//! cursor normalization, the fused window slide, the run-pair kernel's
//! interior fast path, the lag-tiled slide and the four-lane Eq. 1 loop —
//! bit for bit to the routines they replaced, kept here as reference
//! models.

use e2eprof_timeseries::{DenseSeries, RleSeries, Tick};
use e2eprof_xcorr::engine::{all_engines, Correlator, DenseCorrelator};
use e2eprof_xcorr::incremental::{IncrementalCorrelator, SlideScratch};
use e2eprof_xcorr::{normalize, rle, CorrSeries, Moments, SpikeDetector};
use proptest::prelude::*;

fn signal_strategy(max_len: usize) -> impl Strategy<Value = (u64, Vec<f64>)> {
    (
        0u64..50,
        prop::collection::vec(
            prop_oneof![
                3 => Just(0.0f64),
                2 => (1u32..6).prop_map(|c| (c as f64).sqrt()),
            ],
            0..max_len,
        ),
    )
}

fn to_rle(start: u64, values: Vec<f64>) -> RleSeries {
    DenseSeries::new(Tick::new(start), values)
        .to_sparse()
        .to_rle()
}

/// Signals whose values (and hence every lagged product and partial sum)
/// are small integers: exactly representable in f64 under *any* summation
/// order, so cross-engine comparisons can demand bitwise equality.
fn integer_signal_strategy(max_len: usize) -> impl Strategy<Value = (u64, Vec<f64>)> {
    (
        0u64..50,
        prop::collection::vec(
            prop_oneof![
                3 => Just(0.0f64),
                2 => (1u32..9).prop_map(|c| c as f64),
            ],
            0..max_len,
        ),
    )
}

proptest! {
    #[test]
    fn engines_agree_on_arbitrary_signals(
        (xs, xv) in signal_strategy(120),
        (ys, yv) in signal_strategy(160),
        max_lag in 0u64..80,
    ) {
        let x = to_rle(xs, xv);
        let y = to_rle(ys, yv);
        let reference = DenseCorrelator.correlate(&x, &y, max_lag);
        for engine in all_engines() {
            let got = engine.correlate(&x, &y, max_lag);
            prop_assert_eq!(got.max_lag(), max_lag);
            prop_assert!(
                reference.max_abs_diff(&got) < 1e-6,
                "{} diverged: {:?} vs {:?}", engine.name(), reference.values(), got.values()
            );
        }
    }

    #[test]
    fn direct_engines_bitwise_equal_on_integer_signals(
        (xs, xv) in integer_signal_strategy(120),
        (ys, yv) in integer_signal_strategy(160),
        max_lag in 0u64..80,
    ) {
        let x = to_rle(xs, xv);
        let y = to_rle(ys, yv);
        let reference = DenseCorrelator.correlate(&x, &y, max_lag);
        for engine in all_engines() {
            let got = engine.correlate(&x, &y, max_lag);
            if engine.name() == "fft" {
                // Irrational twiddle factors make the FFT route inexact
                // even on integer inputs; it gets a tolerance instead.
                prop_assert!(
                    reference.max_abs_diff(&got) < 1e-6,
                    "fft diverged: {:?} vs {:?}", reference.values(), got.values()
                );
            } else {
                prop_assert_eq!(
                    reference.values(), got.values(),
                    "{} not bitwise equal on integer signals", engine.name()
                );
            }
        }
    }

    #[test]
    fn incremental_matches_direct_after_slides(
        (_, xv) in signal_strategy(150),
        (_, yv) in signal_strategy(180),
        max_lag in 1u64..30,
        chunk_len in 5u64..40,
        window_len in 20u64..80,
    ) {
        let x = to_rle(0, xv);
        let y = to_rle(0, yv);
        let total = x.len();
        let mut inc = IncrementalCorrelator::new(max_lag);
        let mut end = 0u64;
        while end < total {
            let next = (end + chunk_len).min(total);
            inc.append(&x.slice(Tick::new(end), Tick::new(next)), &y);
            end = next;
            let start = end.saturating_sub(window_len);
            inc.evict_to(Tick::new(start), &x, &y);
            let direct = rle::correlate(&x.slice(Tick::new(start), Tick::new(end)), &y, max_lag);
            prop_assert!(
                inc.corr().max_abs_diff(&direct) < 1e-6,
                "window [{start},{end}) drifted"
            );
        }
    }

    #[test]
    fn incremental_matches_direct_under_random_splits(
        (_, xv) in signal_strategy(160),
        (ys, yv) in signal_strategy(200),
        max_lag in 1u64..30,
        cuts in prop::collection::vec(1u64..160, 0..8),
        evict_frac in 0.0f64..1.0,
    ) {
        // Append the source in arbitrarily-sized contiguous chunks, then
        // evict an arbitrary prefix: the accumulated products must match a
        // from-scratch correlation of the surviving window.
        let x = to_rle(0, xv);
        let y = to_rle(ys, yv);
        let total = x.len();
        prop_assume!(total > 0);
        let mut bounds: Vec<u64> = cuts.into_iter().filter(|&c| c < total).collect();
        bounds.push(total);
        bounds.sort_unstable();
        bounds.dedup();

        let mut inc = IncrementalCorrelator::new(max_lag);
        let mut prev = 0u64;
        for &b in &bounds {
            inc.append(&x.slice(Tick::new(prev), Tick::new(b)), &y);
            prev = b;
        }
        let new_start = ((total as f64) * evict_frac).floor() as u64;
        inc.evict_to(Tick::new(new_start), &x, &y);

        let direct = rle::correlate(&x.slice(Tick::new(new_start), Tick::new(total)), &y, max_lag);
        prop_assert!(
            inc.corr().max_abs_diff(&direct) < 1e-6,
            "window [{},{}) after {} appends drifted", new_start, total, bounds.len()
        );
    }

    #[test]
    fn normalized_values_are_pearson_bounded(
        (xs, xv) in signal_strategy(100),
        (ys, yv) in signal_strategy(140),
        max_lag in 1u64..40,
    ) {
        let x = to_rle(xs, xv);
        let y = to_rle(ys, yv);
        let raw = rle::correlate(&x, &y, max_lag);
        let rho = normalize::normalize(&raw, &x, &y);
        prop_assert!(rho.values().iter().all(|v| v.is_finite() && (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn exact_shift_detected_at_correct_lag(
        (_, xv) in signal_strategy(400),
        shift in 0u64..40,
    ) {
        // Require enough activity for a meaningful test.
        let support = xv.iter().filter(|&&v| v != 0.0).count();
        prop_assume!(support >= 20);
        let x = to_rle(0, xv.clone());
        let mut yv = vec![0.0; shift as usize];
        yv.extend(&xv);
        let y = to_rle(0, yv);
        let raw = rle::correlate(&x, &y, shift + 41);
        let rho = normalize::normalize(&raw, &x, &y);
        // The exact alignment must produce coefficient 1 and be the peak.
        prop_assert!((rho.value_at(shift) - 1.0).abs() < 1e-9);
        let (peak_lag, _) = rho.peak().expect("nonempty");
        prop_assert_eq!(peak_lag, shift);
    }

    #[test]
    fn spikes_are_local_maxima_above_threshold(
        corr in prop::collection::vec(0.0f64..10.0, 1..300),
        sigma in 0.5f64..4.0,
        resolution in 1u64..20,
    ) {
        let det = SpikeDetector::new(sigma, resolution);
        let spikes = det.detect(&corr);
        let n = corr.len() as f64;
        let mean = corr.iter().sum::<f64>() / n;
        let var = (corr.iter().map(|v| v * v).sum::<f64>() / n - mean * mean).max(0.0);
        let threshold = mean + sigma * var.sqrt();
        for s in &spikes {
            let i = s.lag as usize;
            prop_assert!(corr[i] > threshold);
            if i > 0 { prop_assert!(corr[i - 1] <= corr[i]); }
            if i + 1 < corr.len() { prop_assert!(corr[i + 1] <= corr[i]); }
        }
        // Pairwise separation respects the resolution window.
        for w in spikes.windows(2) {
            prop_assert!(w[1].lag - w[0].lag >= resolution);
        }
    }

    #[test]
    fn correlation_is_bilinear_in_x(
        (_, av) in signal_strategy(80),
        (_, bv) in signal_strategy(80),
        (_, yv) in signal_strategy(120),
        max_lag in 1u64..30,
    ) {
        // r(a + b, y) = r(a, y) + r(b, y): split a signal into its two
        // halves and check additivity (the property the incremental engine
        // relies on).
        let n = av.len().max(bv.len());
        let mut sum = vec![0.0; n];
        for (i, &v) in av.iter().enumerate() { sum[i] += v; }
        for (i, &v) in bv.iter().enumerate() { sum[i] += v; }
        // Values may now be non-canonical (e.g. 2·√2) — fine for dense math.
        let dense_a = DenseSeries::new(Tick::new(0), {
            let mut v = av.clone(); v.resize(n, 0.0); v
        });
        let dense_b = DenseSeries::new(Tick::new(0), {
            let mut v = bv.clone(); v.resize(n, 0.0); v
        });
        let dense_sum = DenseSeries::new(Tick::new(0), sum);
        let y = DenseSeries::new(Tick::new(0), yv);
        let ra = e2eprof_xcorr::dense::correlate(&dense_a, &y, max_lag);
        let rb = e2eprof_xcorr::dense::correlate(&dense_b, &y, max_lag);
        let rs = e2eprof_xcorr::dense::correlate(&dense_sum, &y, max_lag);
        for d in 0..max_lag {
            prop_assert!((rs.value_at(d) - ra.value_at(d) - rb.value_at(d)).abs() < 1e-9);
        }
    }
}

/// Dense brute-force Pearson at one lag, straight from Eq. 1.
fn brute_force_rho(x: &RleSeries, y: &RleSeries, d: u64) -> f64 {
    let n = x.len();
    let xv: Vec<f64> = (0..n).map(|i| x.value_at(x.start() + i)).collect();
    let yv: Vec<f64> = (0..n).map(|i| y.value_at(x.start() + i + d)).collect();
    let xm = xv.iter().sum::<f64>() / n as f64;
    let ym = yv.iter().sum::<f64>() / n as f64;
    let num: f64 = xv.iter().zip(&yv).map(|(a, b)| (a - xm) * (b - ym)).sum();
    let ex: f64 = xv.iter().map(|a| (a - xm) * (a - xm)).sum();
    let ey: f64 = yv.iter().map(|b| (b - ym) * (b - ym)).sum();
    if ex * ey < 1e-12 {
        0.0
    } else {
        num / (ex * ey).sqrt()
    }
}

proptest! {
    /// The O(runs + L) prefix-sum normalization must equal the dense
    /// Eq. 1 computation at every lag, for arbitrary signals and spans.
    #[test]
    fn normalization_matches_dense_eq1(
        (xs, xv) in signal_strategy(80),
        (ys, yv) in signal_strategy(120),
        max_lag in 1u64..25,
    ) {
        prop_assume!(!xv.is_empty());
        let x = to_rle(xs, xv);
        let y = to_rle(ys, yv);
        let raw = rle::correlate(&x, &y, max_lag);
        let rho = normalize::normalize(&raw, &x, &y);
        for d in 0..max_lag {
            let expect = brute_force_rho(&x, &y, d);
            let got = rho.value_at(d);
            // Near-zero energies sit inside both implementations' guard
            // bands; tiny disagreements there are rounding, not error.
            let agree = (got - expect).abs() < 1e-9
                || (got.abs() < 1e-4 && expect.abs() < 1e-4);
            prop_assert!(agree, "lag {}: got {} expect {}", d, got, expect);
        }
    }
}

proptest! {
    /// The activity-gated skip invariant (DESIGN.md §6.1): when both
    /// signals are run-free over the two boundary regions a window slide
    /// touches — `[s0, s1 + L)` around the moving start and `[e0, e1 + L)`
    /// around the moving end — then `slide` (the skip path: move the
    /// window, keep the accumulator verbatim) is **bitwise identical** to
    /// the full append + evict advance the eager analyzer performs. Every
    /// correction term is a sum of zero products over those regions, and
    /// the signals are non-negative so no `-0.0` can make `+= 0.0` move a
    /// bit.
    #[test]
    fn quiet_slide_is_bitwise_identical_to_advance(
        (_, xv) in signal_strategy(260),
        (_, yv) in signal_strategy(300),
        max_lag in 1u64..25,
        s0 in 0u64..40,
        w in 30u64..90,
        ds in 0u64..20,
        de in 0u64..20,
    ) {
        let (e0, s1) = (s0 + w, s0 + ds);
        let e1 = e0 + de;
        let horizon = (e1 + max_lag) as usize;
        let mut xv = xv;
        let mut yv = yv;
        xv.resize(horizon.max(xv.len()), 0.0);
        yv.resize(horizon.max(yv.len()), 0.0);
        // Force the quiet predicate: zero both boundary regions.
        for v in [&mut xv, &mut yv] {
            for t in s0..(s1 + max_lag).min(v.len() as u64) { v[t as usize] = 0.0; }
            for t in e0..(e1 + max_lag).min(v.len() as u64) { v[t as usize] = 0.0; }
        }
        let x = to_rle(0, xv);
        let y = to_rle(0, yv);
        let y_horizon = y.end();

        // Two correlators warmed identically over the previous window.
        let mut adv = IncrementalCorrelator::new(max_lag);
        let mut skip = IncrementalCorrelator::new(max_lag);
        for inc in [&mut adv, &mut skip] {
            inc.append(&x.slice(Tick::new(s0), Tick::new(e0)), &y);
        }

        // Eager maintenance path, exactly as the analyzer's advance_pair
        // issues it: append the new suffix, then evict to the new start.
        if e0 < e1 {
            adv.append(
                &x.slice(Tick::new(e0), Tick::new(e1)),
                &y.slice(Tick::new(e0), y_horizon),
            );
        }
        adv.evict_to(
            Tick::new(s1),
            &x.slice(Tick::new(s0), Tick::new(s1)),
            &y.slice(Tick::new(s0), Tick::new((s1 + max_lag).min(y_horizon.index()))),
        );

        // Activity-gated skip path.
        skip.slide((Tick::new(s1), Tick::new(e1)));

        prop_assert_eq!(adv.window(), skip.window());
        let (a, b) = (adv.corr().values(), skip.corr().values());
        prop_assert_eq!(a.len(), b.len());
        for (d, (va, vb)) in a.iter().zip(b).enumerate() {
            prop_assert_eq!(
                va.to_bits(), vb.to_bits(),
                "lag {}: advance {} != skipped {}", d, va, vb
            );
        }
    }
}

/// Reference model: the prefix-sum table with one binary search per
/// evaluation that [`normalize`] used before it walked the runs with
/// forward-only cursors. Same `cum[i] + partial run` expression.
struct RlePrefix<'a> {
    series: &'a RleSeries,
    /// cum[i] = (Σ value·len, Σ value²·len) over runs[0..i].
    cum: Vec<(f64, f64)>,
}

impl<'a> RlePrefix<'a> {
    fn new(series: &'a RleSeries) -> Self {
        let mut cum = Vec::with_capacity(series.num_runs() + 1);
        cum.push((0.0, 0.0));
        let (mut s, mut q) = (0.0, 0.0);
        for r in series.runs() {
            s += r.value() * r.len() as f64;
            q += r.value() * r.value() * r.len() as f64;
            cum.push((s, q));
        }
        RlePrefix { series, cum }
    }

    /// `(Σ_{u<t} y(u), Σ_{u<t} y(u)²)`.
    fn eval(&self, t: Tick) -> (f64, f64) {
        let runs = self.series.runs();
        let i = runs.partition_point(|r| r.end() <= t);
        let (mut s, mut q) = self.cum[i];
        if let Some(r) = runs.get(i) {
            if r.start() < t {
                let part = (t - r.start()) as f64;
                s += r.value() * part;
                q += r.value() * r.value() * part;
            }
        }
        (s, q)
    }
}

/// Reference model of Eq. 1 normalization on top of [`RlePrefix`].
fn binary_search_normalize(raw: &CorrSeries, x: &RleSeries, y: &RleSeries) -> Vec<f64> {
    let n = x.len() as f64;
    if n == 0.0 {
        return vec![0.0; raw.max_lag() as usize];
    }
    let xs = x.stats();
    let (x_mean, ex) = (xs.mean(), xs.centered_energy());
    let prefix = RlePrefix::new(y);
    (0..raw.max_lag())
        .map(|d| {
            let (s_lo, q_lo) = prefix.eval(x.start() + d);
            let (s_hi, q_hi) = prefix.eval(x.end() + d);
            let (s, q) = (s_hi - s_lo, q_hi - q_lo);
            let ey = (q - s * s / n).max(0.0);
            let num = raw.value_at(d) - x_mean * s;
            let den = (ex * ey).sqrt();
            if den > 1e-12 {
                (num / den).clamp(-1.0, 1.0)
            } else {
                0.0
            }
        })
        .collect()
}

/// Reference model of the run-pair kernel: every second-difference
/// impulse of every pair goes through the bounds-checking, negative-lag
/// folding event loop (the kernel now sends interior pairs around it).
fn event_loop_correlate(x: &RleSeries, y: &RleSeries, max_lag: u64) -> Vec<f64> {
    let l = max_lag as i64;
    let mut diff2 = vec![0.0f64; max_lag as usize];
    let (mut lin, mut cst) = (0.0f64, 0.0f64);
    for rx in x.runs() {
        let (sx, lx) = (rx.start().index() as i64, rx.len() as i64);
        for ry in y.runs() {
            let (sy, ly) = (ry.start().index() as i64, ry.len() as i64);
            if ry.end().index() as i64 <= sx {
                continue;
            }
            if sy >= sx + lx + l - 1 {
                break;
            }
            let w = rx.value() * ry.value();
            let p1 = sy - sx - (lx - 1);
            for (p, e) in [(p1, w), (p1 + lx, -w), (p1 + ly, -w), (p1 + lx + ly, w)] {
                if p >= l {
                    continue;
                }
                if p < 0 {
                    lin += e;
                    cst += e * (-p) as f64;
                } else {
                    diff2[p as usize] += e;
                }
            }
        }
    }
    let (mut slope, mut value) = (0.0f64, 0.0f64);
    diff2
        .iter()
        .enumerate()
        .map(|(d, e)| {
            slope += e;
            value += slope;
            value + lin * (d as f64 + 1.0) + cst
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A signal laid out run by run — `(gap before, length, amplitude index)`
/// — so equal-length runs (two impulses of a pair in one slot) and long
/// runs (trapezoids wider than the lag bound) are common, not flukes.
fn run_signal_strategy(max_runs: usize) -> impl Strategy<Value = (u64, Vec<f64>)> {
    (
        0u64..30,
        prop::collection::vec((0usize..5, 1usize..5, 1u32..6), 0..max_runs),
    )
        .prop_map(|(start, runs)| (start, lay_out(runs)))
}

/// Dense values of a signal laid out run by run.
fn lay_out(runs: Vec<(usize, usize, u32)>) -> Vec<f64> {
    let mut values = Vec::new();
    for (gap, len, c) in runs {
        values.extend(std::iter::repeat_n(0.0, gap));
        values.extend(std::iter::repeat_n((c as f64).sqrt(), len));
    }
    values
}

/// [`run_signal_strategy`] at one of two scales: runs and gaps under 6
/// ticks (equal lengths, many pairs per lag tile, four-lag blocks crossing
/// run ends) or under 90 (trapezoids wider than a tile, runs straddling
/// lag `L`, blocks inside one run or gap), starting anywhere in the first
/// 300 ticks so `y` often starts before `x` (negative-lag folds).
fn scaled_signal_strategy(max_runs: usize) -> impl Strategy<Value = (u64, Vec<f64>)> {
    (0u64..300, prop_oneof![Just(6usize), Just(90)]).prop_flat_map(move |(start, scale)| {
        prop::collection::vec((0..scale, 1..scale, 1u32..6), 0..max_runs)
            .prop_map(move |runs| (start, lay_out(runs)))
    })
}

/// Lag bounds with the degenerate `L = 1` over-represented.
fn lag_strategy(max: u64) -> impl Strategy<Value = u64> {
    prop_oneof![
        1 => Just(1u64),
        5 => 1u64..max,
    ]
}

proptest! {
    /// Cursor normalization ≡ the binary-search evaluator, bit for bit:
    /// for `y` ending before `x.end + L`, starting after `x.start`, empty,
    /// or a single run, and for `L = 1`.
    #[test]
    fn cursor_normalization_matches_binary_search_bitwise(
        (xs, xv) in signal_strategy(120),
        (ys, yv) in prop_oneof![
            4 => signal_strategy(220),
            1 => (0u64..50).prop_map(|s| (s, Vec::new())),
            1 => (0u64..150, 1usize..40, 1u32..6)
                .prop_map(|(s, len, c)| (s, vec![(c as f64).sqrt(); len])),
        ],
        max_lag in lag_strategy(90),
    ) {
        let x = to_rle(xs, xv);
        let y = to_rle(ys, yv);
        let raw = rle::correlate(&x, &y, max_lag);
        let want = binary_search_normalize(&raw, &x, &y);
        prop_assert_eq!(bits(normalize::normalize(&raw, &x, &y).values()), bits(&want));
        // The buffer-reusing entry point, over stale contents.
        let mut out = vec![7.0; 3];
        normalize::normalize_into(&raw, &x, &y, &mut out);
        prop_assert_eq!(bits(&out), bits(&want));
    }

    /// The run-pair kernel with its branch-free interior ≡ the all-events
    /// loop, bit for bit — including pairs of equal-length runs (two
    /// impulses share a slot) and runs straddling lag 0 and lag `L`.
    #[test]
    fn interior_fast_path_matches_event_loop_bitwise(
        (xs, xv) in run_signal_strategy(30),
        (ys, yv) in run_signal_strategy(40),
        max_lag in lag_strategy(60),
    ) {
        let x = to_rle(xs, xv);
        let y = to_rle(ys, yv);
        prop_assert_eq!(
            bits(rle::correlate(&x, &y, max_lag).values()),
            bits(&event_loop_correlate(&x, &y, max_lag))
        );
    }

    /// One fused `advance` ≡ `append` then `evict_to` ≡ adding and
    /// subtracting the two chunks' stateless correlations (what the pair
    /// of calls did before they shared `advance`'s internals), bit for
    /// bit, over a whole sequence of slides with arbitrary chunk sizes —
    /// empty chunks and run-free chunks (where a side is skipped outright,
    /// the same no-op `slide` relies on) included — reusing one scratch
    /// throughout.
    #[test]
    fn fused_advance_matches_append_then_evict_bitwise(
        (_, xv) in signal_strategy(300),
        (ys, yv) in signal_strategy(340),
        max_lag in lag_strategy(40),
        w in 10u64..80,
        steps in prop::collection::vec((0u64..25, 0u64..25, any::<bool>()), 1..8),
    ) {
        // Blank x over the chunks the flagged steps append, so run-free
        // chunks occur at every chunk size, not only tiny ones.
        let mut xv = xv;
        let mut e = w;
        for &(grow, _, blank) in &steps {
            if blank {
                for t in e..(e + grow).min(xv.len() as u64) { xv[t as usize] = 0.0; }
            }
            e += grow;
        }
        let x = to_rle(0, xv);
        let y = to_rle(ys, yv);
        let total = x.len();
        prop_assume!(total > w);

        let mut two_step = IncrementalCorrelator::new(max_lag);
        let mut fused = IncrementalCorrelator::new(max_lag);
        for inc in [&mut two_step, &mut fused] {
            inc.append(&x.slice(Tick::new(0), Tick::new(w)), &y);
        }
        let mut model = rle::correlate(&x.slice(Tick::new(0), Tick::new(w)), &y, max_lag)
            .values()
            .to_vec();
        let mut scratch = SlideScratch::new();
        let (mut s0, mut e0) = (0u64, w);
        for (grow, shrink, _) in steps {
            let e1 = (e0 + grow).min(total);
            let s1 = (s0 + shrink).min(e1);
            let appended = x.slice(Tick::new(e0), Tick::new(e1));
            let entering = rle::correlate(&appended, &y, max_lag);
            let leaving = rle::correlate(&x.slice(Tick::new(s0), Tick::new(s1)), &y, max_lag);
            for (m, da) in model.iter_mut().zip(entering.values()) { *m += da; }
            for (m, de) in model.iter_mut().zip(leaving.values()) { *m -= de; }
            two_step.append(&appended, &y);
            two_step.evict_to(Tick::new(s1), &x, &y);
            fused.advance(
                &appended,
                &y,
                Tick::new(s1),
                &x.slice(Tick::new(s0), Tick::new(s1)),
                &y,
                &mut scratch,
            );
            prop_assert_eq!(two_step.window(), fused.window());
            for inc in [&two_step, &fused] {
                prop_assert_eq!(
                    bits(&model),
                    bits(inc.corr().values()),
                    "slide to [{}, {})", s1, e1
                );
            }
            (s0, e0) = (s1, e1);
        }
    }
}

// --- No evidence, no decision: the lemma behind discovery's short cut ---

/// A non-negative signal, dense enough that blanking part of it leaves
/// runs ending and starting exactly at the blanked stretch's edges, with
/// amplitudes beyond the `√count` a density estimator produces.
fn busy_signal_strategy(max_len: usize) -> impl Strategy<Value = (u64, Vec<f64>)> {
    (
        0u64..30,
        prop::collection::vec(
            prop_oneof![
                1 => Just(0.0f64),
                2 => (1u32..6).prop_map(|c| (c as f64).sqrt()),
                1 => 1e-3f64..1e3,
            ],
            0..max_len,
        ),
    )
}

proptest! {
    /// Lagged products that are zero at every lag cannot spike: for
    /// non-negative `x` and `y` every Eq. 1 coefficient is then `≤ 0`, so
    /// normalization + spike detection + the `≥ min_spike_value` filter
    /// yields nothing for any positive floor. `y` is an arbitrary busy
    /// signal silenced inside every lag window `[u, u + L)` of a non-zero
    /// `x(u)` — so its runs end right where lag 0 begins and resume right
    /// at lag `L` — and `x` may be empty, all zero, or constant.
    #[test]
    fn all_zero_products_of_non_negative_signals_never_spike(
        (xs, xv) in prop_oneof![
            4 => run_signal_strategy(12),
            1 => (0u64..30).prop_map(|s| (s, Vec::new())),
            1 => (0u64..30, 1usize..40, 0u32..4)
                .prop_map(|(s, len, c)| (s, vec![(c as f64).sqrt(); len])),
        ],
        (ys, yv) in busy_signal_strategy(160),
        max_lag in lag_strategy(40),
        sigma in 0.0f64..4.0,
        resolution in 1u64..12,
        floor in prop_oneof![Just(f64::MIN_POSITIVE), 1e-12f64..1.0],
    ) {
        let mut yv = yv;
        for (u, _) in xv.iter().enumerate().filter(|(_, &v)| v != 0.0) {
            let u = xs + u as u64;
            for t in u.max(ys)..(u + max_lag).min(ys + yv.len() as u64) {
                yv[(t - ys) as usize] = 0.0;
            }
        }
        let x = to_rle(xs, xv);
        let y = to_rle(ys, yv);
        let raw = rle::correlate(&x, &y, max_lag);
        prop_assert!(raw.values().iter().all(|&r| r == 0.0), "{:?}", raw.values());
        let rho = normalize::normalize(&raw, &x, &y);
        prop_assert!(rho.values().iter().all(|&v| v <= 0.0), "{:?}", rho.values());
        let spikes = SpikeDetector::new(sigma, resolution).detect(rho.values());
        prop_assert!(spikes.iter().all(|s| s.value < floor), "{:?}", spikes);
    }
}

/// The sign precondition of the lemma above is load-bearing: `y` is
/// negative exactly where `x` is silent, every lagged product is zero,
/// and yet the two are perfectly correlated at lag 0.
#[test]
fn a_negative_signal_can_spike_on_all_zero_products() {
    let mut xv = vec![1.0; 100];
    xv[0] = 0.0;
    let x = to_rle(0, xv);
    let mut yv = vec![0.0; 120];
    yv[0] = -3.0;
    let y = to_rle(0, yv);
    let raw = rle::correlate(&x, &y, 20);
    assert!(raw.values().iter().all(|&r| r == 0.0));
    let rho = normalize::normalize(&raw, &x, &y);
    let spikes = SpikeDetector::new(3.0, 1).detect(rho.values());
    assert_eq!(spikes.len(), 1);
    assert_eq!(spikes[0].lag, 0);
    assert!((spikes[0].value - 1.0).abs() < 1e-12, "{spikes:?}");
}

// --- Lag tiles and four lanes: the same bits as the untiled, one-lag loops ---

/// Reference model: the untiled run-pair kernel the lag-tiled one
/// replaced. Accumulates the whole `L`-slot second-difference image of
/// `r(d) = Σ_t x(t)·y(t+d)` and returns the folded negative-lag term
/// `(lin, cst)`, or `None` — leaving `diff2` untouched — when either
/// signal has no run.
fn untiled_accumulate(
    x: &RleSeries,
    y: &RleSeries,
    max_lag: u64,
    diff2: &mut Vec<f64>,
) -> Option<(f64, f64)> {
    let yr = y.runs();
    if x.runs().is_empty() || yr.is_empty() {
        return None;
    }
    diff2.clear();
    diff2.resize(max_lag as usize, 0.0);
    let l = max_lag as i64;
    let (mut lin, mut cst) = (0.0f64, 0.0f64);
    let mut lo = 0usize;
    for rx in x.runs() {
        let (sx, lx, vx) = (rx.start().index() as i64, rx.len() as i64, rx.value());
        while lo < yr.len() && (yr[lo].end().index() as i64) <= sx {
            lo += 1;
        }
        for ry in &yr[lo..] {
            let sy = ry.start().index() as i64;
            if sy >= sx + lx + l - 1 {
                break;
            }
            let ly = ry.len() as i64;
            let w = vx * ry.value();
            let p1 = sy - sx - (lx - 1);
            if p1 >= 0 && p1 + lx + ly < l {
                let p = p1 as usize;
                let (lx, ly) = (lx as usize, ly as usize);
                diff2[p] += w;
                diff2[p + lx] -= w;
                diff2[p + ly] -= w;
                diff2[p + lx + ly] += w;
                continue;
            }
            for (p, e) in [(p1, w), (p1 + lx, -w), (p1 + ly, -w), (p1 + lx + ly, w)] {
                if p >= l {
                    continue;
                }
                if p < 0 {
                    lin += e;
                    cst += e * (-p) as f64;
                } else {
                    diff2[p as usize] += e;
                }
            }
        }
    }
    Some((lin, cst))
}

/// Reference model: resolves a whole second-difference image in its own
/// sweep of the lag axis.
fn untiled_resolve(diff2: &[f64], (lin, cst): (f64, f64)) -> impl Iterator<Item = f64> + '_ {
    let (mut slope, mut value, mut d1) = (0.0f64, 0.0f64, 0.0f64);
    diff2.iter().map(move |&e| {
        slope += e;
        value += slope;
        d1 += 1.0;
        value + lin * d1 + cst
    })
}

/// Reference model of `rle::correlate`.
fn untiled_correlate(x: &RleSeries, y: &RleSeries, max_lag: u64) -> Vec<f64> {
    let mut diff2 = Vec::new();
    match untiled_accumulate(x, y, max_lag, &mut diff2) {
        Some(fold) => untiled_resolve(&diff2, fold).collect(),
        None => vec![0.0; max_lag as usize],
    }
}

/// Reference model of one slide: both chunks' whole images, then one
/// resolve sweep into `acc`, arm by arm as the untiled `advance` had them.
fn untiled_advance(
    acc: &mut [f64],
    entering: (&RleSeries, &RleSeries),
    leaving: Option<(&RleSeries, &RleSeries)>,
) {
    let l = acc.len() as u64;
    let (mut da, mut de) = (Vec::new(), Vec::new());
    let a = untiled_accumulate(entering.0, entering.1, l, &mut da);
    let e = leaving.and_then(|(x, y)| untiled_accumulate(x, y, l, &mut de));
    match (a, e) {
        (Some(a), Some(e)) => {
            for ((slot, a), e) in acc
                .iter_mut()
                .zip(untiled_resolve(&da, a))
                .zip(untiled_resolve(&de, e))
            {
                *slot = (*slot + a) - e;
            }
        }
        (Some(a), None) => {
            for (slot, a) in acc.iter_mut().zip(untiled_resolve(&da, a)) {
                *slot += a;
            }
        }
        (None, Some(e)) => {
            for (slot, e) in acc.iter_mut().zip(untiled_resolve(&de, e)) {
                *slot -= e;
            }
        }
        (None, None) => {}
    }
}

/// Tile lengths that split a lag axis of up to ~1 000 slots into many
/// tiles — one slot each, odd lengths, more slots than most trapezoids —
/// and the production tile, which never splits it.
fn tile_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(3),
        Just(7),
        Just(64),
        Just(rle::LAG_TILE),
    ]
}

proptest! {
    /// A pair's first window, tiled ≡ untiled, bit for bit, whatever the
    /// tile length: pairs straddling tile boundaries and lag `L`, folds of
    /// `y` runs before `x` runs, equal-length runs and run-free sides
    /// included. `rle::correlate` is the production tile's instance.
    #[test]
    fn tiled_correlate_matches_untiled_bitwise(
        (xs, xv) in scaled_signal_strategy(24),
        (ys, yv) in scaled_signal_strategy(32),
        max_lag in lag_strategy(1_000),
        tile in tile_strategy(),
    ) {
        let x = to_rle(xs, xv);
        let y = to_rle(ys, yv);
        let want = untiled_correlate(&x, &y, max_lag);
        let mut acc = vec![0.0; max_lag as usize];
        rle::slide_tiled(&mut acc, Some((&x, &y)), None, &mut SlideScratch::new(), tile);
        prop_assert_eq!(bits(&acc), bits(&want));
        prop_assert_eq!(bits(rle::correlate(&x, &y, max_lag).values()), bits(&want));
    }

    /// A sequence of window slides, tiled ≡ untiled, bit for bit, with one
    /// scratch reused across slides (stale tiles must not leak) — empty and
    /// run-free entering chunks and slides that evict nothing included.
    /// `IncrementalCorrelator::advance` (the production tile) follows the
    /// same sequence.
    #[test]
    fn tiled_advance_matches_untiled_bitwise(
        (_, xv) in scaled_signal_strategy(40),
        (ys, yv) in scaled_signal_strategy(48),
        max_lag in lag_strategy(1_000),
        tile in tile_strategy(),
        w in 1u64..400,
        steps in prop::collection::vec((0u64..300, 0u64..300), 1..4),
    ) {
        let x = to_rle(0, xv);
        let y = to_rle(ys, yv);
        let total = x.len();
        prop_assume!(total > w);
        let mut model = untiled_correlate(&x.slice(Tick::new(0), Tick::new(w)), &y, max_lag);
        let mut tiled = model.clone();
        let mut inc = IncrementalCorrelator::new(max_lag);
        inc.refill(&x.slice(Tick::new(0), Tick::new(w)), &y);
        prop_assert_eq!(bits(inc.corr().values()), bits(&model));
        let (mut scratch, mut inc_scratch) = (SlideScratch::new(), SlideScratch::new());
        let (mut s0, mut e0) = (0u64, w);
        for (grow, shrink) in steps {
            let e1 = (e0 + grow).min(total);
            let s1 = (s0 + shrink).min(e1);
            let appended = x.slice(Tick::new(e0), Tick::new(e1));
            let evicted = x.slice(Tick::new(s0), Tick::new(s1));
            let leaving = (s1 > s0).then_some((&evicted, &y));
            untiled_advance(&mut model, (&appended, &y), leaving);
            rle::slide_tiled(&mut tiled, Some((&appended, &y)), leaving, &mut scratch, tile);
            inc.advance(&appended, &y, Tick::new(s1), &evicted, &y, &mut inc_scratch);
            prop_assert_eq!(bits(&tiled), bits(&model), "tile {}, slide to [{}, {})", tile, s1, e1);
            prop_assert_eq!(bits(inc.corr().values()), bits(&model), "advance to [{}, {})", s1, e1);
            (s0, e0) = (s1, e1);
        }
    }

    /// The four-lane Eq. 1 loop ≡ the one-lag loop, bit for bit, and both
    /// return the left-to-right moments of what they wrote: lag counts of
    /// every residue mod 4, blocks inside one run or gap and blocks
    /// crossing run ends (both cursors), a constant source (`Eₓ = 0`), and
    /// lags whose target window is constant (`den ≤ EPS`, `+0.0`).
    #[test]
    fn four_lane_normalization_matches_portable_bitwise(
        (xs, xv) in prop_oneof![
            4 => scaled_signal_strategy(24),
            1 => (0u64..300, 1usize..200, 0u32..4)
                .prop_map(|(s, len, c)| (s, vec![(c as f64).sqrt(); len])),
        ],
        (ys, yv) in prop_oneof![
            4 => scaled_signal_strategy(40),
            1 => (0u64..50).prop_map(|s| (s, Vec::new())),
            1 => (0u64..600, 1usize..40, 1u32..6)
                .prop_map(|(s, len, c)| (s, vec![(c as f64).sqrt(); len])),
        ],
        max_lag in lag_strategy(300),
    ) {
        let x = to_rle(xs, xv);
        let y = to_rle(ys, yv);
        let raw = rle::correlate(&x, &y, max_lag);
        let mut portable = vec![7.0; 3];
        let m = normalize::normalize_into_portable(&raw, &x, &y, &mut portable);
        prop_assert_eq!(portable.len() as u64, max_lag);
        let m_bits = |m: Moments| (m.sum.to_bits(), m.sum_sq.to_bits());
        prop_assert_eq!(m_bits(m), m_bits(Moments::of(&portable)));
        let mut best = vec![7.0; 5];
        let m_best = normalize::normalize_into(&raw, &x, &y, &mut best);
        prop_assert_eq!(bits(&best), bits(&portable));
        prop_assert_eq!(m_bits(m_best), m_bits(m));
        let mut four = Vec::new();
        if let Some(m_four) = normalize::normalize_into_avx2(&raw, &x, &y, &mut four) {
            prop_assert_eq!(bits(&four), bits(&portable));
            prop_assert_eq!(m_bits(m_four), m_bits(m));
        }
        let det = SpikeDetector::default();
        prop_assert_eq!(det.detect_with(&portable, m), det.detect(&portable));
    }
}
