//! Workload generators: the arrival processes driving client nodes.
//!
//! The RUBiS experiments use `httperf`-style open-loop sessions with
//! Poisson arrivals; the Delta Revenue Pipeline adds diurnal rate
//! variation, pronounced ON/OFF burstiness, and a nightly batch surge (the
//! 4 AM paper-ticket submission that drives queue lengths to 4000).

use e2eprof_timeseries::Nanos;
use rand::Rng;

/// An arrival process description (stateless configuration).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Workload {
    /// Poisson arrivals at a constant rate (exponential inter-arrivals).
    Poisson {
        /// Mean arrivals per second.
        rate_per_sec: f64,
    },
    /// ON/OFF bursty traffic: Poisson at `rate_per_sec` during ON phases,
    /// silent during OFF phases.
    OnOff {
        /// Rate during the ON phase.
        rate_per_sec: f64,
        /// Mean ON-phase duration (exponential).
        on: Nanos,
        /// Mean OFF-phase duration (exponential).
        off: Nanos,
    },
    /// Explicit arrival instants (must be sorted).
    Trace(
        /// Sorted arrival timestamps.
        Vec<Nanos>,
    ),
    /// Poisson base traffic plus scheduled batch surges: at each `(time,
    /// count)` entry, `count` extra requests arrive back-to-back.
    PoissonWithBatches {
        /// Base arrival rate per second.
        rate_per_sec: f64,
        /// Scheduled `(instant, burst size)` entries, sorted by instant.
        batches: Vec<(Nanos, u32)>,
    },
    /// Diurnal traffic: a non-homogeneous Poisson process whose rate
    /// swings sinusoidally between `trough_fraction · peak_rate` and
    /// `peak_rate` over each `period` (sampled by thinning). Models the
    /// daily cycle of enterprise pipelines like Delta's.
    Diurnal {
        /// Rate at the daily peak (arrivals/second).
        peak_rate: f64,
        /// Trough rate as a fraction of the peak, in `[0, 1]`.
        trough_fraction: f64,
        /// Length of one full cycle.
        period: Nanos,
    },
}

impl Workload {
    /// Poisson arrivals at `rate_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite.
    pub fn poisson(rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "arrival rate must be positive"
        );
        Workload::Poisson { rate_per_sec }
    }

    /// ON/OFF bursty arrivals.
    pub fn on_off(rate_per_sec: f64, on: Nanos, off: Nanos) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "arrival rate must be positive"
        );
        Workload::OnOff {
            rate_per_sec,
            on,
            off,
        }
    }

    /// Replays explicit arrival instants.
    ///
    /// # Panics
    ///
    /// Panics if the instants are not sorted.
    pub fn trace(mut arrivals: Vec<Nanos>) -> Self {
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "trace arrivals must be sorted"
        );
        arrivals.shrink_to_fit();
        Workload::Trace(arrivals)
    }

    /// Diurnal arrivals: sinusoidal rate between `trough_fraction ·
    /// peak_rate` (at phase 0) and `peak_rate` (half a period in).
    ///
    /// # Panics
    ///
    /// Panics if the peak rate is not positive, `trough_fraction` is
    /// outside `[0, 1]`, or the period is zero.
    pub fn diurnal(peak_rate: f64, trough_fraction: f64, period: Nanos) -> Self {
        assert!(
            peak_rate.is_finite() && peak_rate > 0.0,
            "arrival rate must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&trough_fraction),
            "trough fraction must be in [0, 1]"
        );
        assert!(period > Nanos::ZERO, "period must be positive");
        Workload::Diurnal {
            peak_rate,
            trough_fraction,
            period,
        }
    }

    /// Poisson base rate plus scheduled batches.
    pub fn poisson_with_batches(rate_per_sec: f64, mut batches: Vec<(Nanos, u32)>) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "arrival rate must be positive"
        );
        batches.sort_by_key(|&(t, _)| t);
        Workload::PoissonWithBatches {
            rate_per_sec,
            batches,
        }
    }
}

/// Exponential inter-arrival draw for rate `rate_per_sec`.
fn exp_gap<R: Rng + ?Sized>(rate_per_sec: f64, rng: &mut R) -> Nanos {
    let u: f64 = 1.0 - rng.gen::<f64>();
    Nanos::from_nanos((-u.ln() / rate_per_sec * 1e9).round() as u64)
}

/// Stateful iterator over a workload's arrival instants.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    workload: Workload,
    /// Next trace / batch cursor.
    cursor: usize,
    /// Remaining arrivals in the current batch.
    batch_left: u32,
    /// End of the current ON phase (OnOff only).
    on_until: Nanos,
}

impl ArrivalGen {
    /// Creates a generator for the workload.
    pub fn new(workload: Workload) -> Self {
        ArrivalGen {
            workload,
            cursor: 0,
            batch_left: 0,
            on_until: Nanos::ZERO,
        }
    }

    /// The instant of the arrival following time `now`, or `None` if the
    /// workload is exhausted (only possible for traces).
    pub fn next_arrival<R: Rng + ?Sized>(&mut self, now: Nanos, rng: &mut R) -> Option<Nanos> {
        match &self.workload {
            Workload::Poisson { rate_per_sec } => Some(now + exp_gap(*rate_per_sec, rng)),
            Workload::OnOff {
                rate_per_sec,
                on,
                off,
            } => {
                let mut t = now;
                loop {
                    if t < self.on_until {
                        let candidate = t + exp_gap(*rate_per_sec, rng);
                        if candidate <= self.on_until {
                            return Some(candidate);
                        }
                        // Arrival fell past the ON phase: enter OFF.
                        t = self.on_until;
                    }
                    // Begin the next OFF→ON cycle.
                    let off_len = DistDraw::exponential(*off, rng);
                    let on_len = DistDraw::exponential(*on, rng);
                    t += off_len;
                    self.on_until = t + on_len;
                }
            }
            Workload::Trace(arrivals) => {
                while self.cursor < arrivals.len() && arrivals[self.cursor] < now {
                    self.cursor += 1;
                }
                let t = arrivals.get(self.cursor).copied();
                if t.is_some() {
                    self.cursor += 1;
                }
                t
            }
            Workload::PoissonWithBatches {
                rate_per_sec,
                batches,
            } => {
                // Drain an in-progress batch first (back-to-back arrivals).
                if self.batch_left > 0 {
                    self.batch_left -= 1;
                    return Some(now);
                }
                let base = now + exp_gap(*rate_per_sec, rng);
                if let Some(&(bt, count)) = batches.get(self.cursor) {
                    if bt <= base && bt >= now {
                        self.cursor += 1;
                        self.batch_left = count.saturating_sub(1);
                        return Some(bt);
                    }
                }
                Some(base)
            }
            Workload::Diurnal {
                peak_rate,
                trough_fraction,
                period,
            } => {
                // Thinning: candidates at the peak rate, accepted with
                // probability rate(t)/peak.
                let mut t = now;
                loop {
                    t += exp_gap(*peak_rate, rng);
                    let phase =
                        (t.as_nanos() % period.as_nanos()) as f64 / period.as_nanos() as f64;
                    let swing = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos());
                    let fraction = trough_fraction + (1.0 - trough_fraction) * swing;
                    if rng.gen::<f64>() < fraction {
                        return Some(t);
                    }
                }
            }
        }
    }
}

/// Internal helper for exponential draws from a mean duration.
struct DistDraw;

impl DistDraw {
    fn exponential<R: Rng + ?Sized>(mean: Nanos, rng: &mut R) -> Nanos {
        let u: f64 = 1.0 - rng.gen::<f64>();
        Nanos::from_nanos((-(mean.as_nanos() as f64) * u.ln()).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn collect(workload: Workload, horizon: Nanos, seed: u64) -> Vec<Nanos> {
        let mut gen = ArrivalGen::new(workload);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        let mut now = Nanos::ZERO;
        while let Some(t) = gen.next_arrival(now, &mut rng) {
            if t > horizon {
                break;
            }
            out.push(t);
            now = t;
        }
        out
    }

    #[test]
    fn poisson_rate_converges() {
        let arrivals = collect(Workload::poisson(100.0), Nanos::from_secs(100), 1);
        let rate = arrivals.len() as f64 / 100.0;
        assert!((rate - 100.0).abs() < 5.0, "rate {rate}");
    }

    #[test]
    fn poisson_interarrivals_are_memoryless() {
        // Coefficient of variation of exponential inter-arrivals is 1.
        let arrivals = collect(Workload::poisson(200.0), Nanos::from_secs(50), 2);
        let gaps: Vec<f64> = arrivals
            .windows(2)
            .map(|w| (w[1] - w[0]).as_nanos() as f64)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.1, "cv {cv}");
    }

    #[test]
    fn trace_replays_exactly() {
        let ts = vec![
            Nanos::from_millis(3),
            Nanos::from_millis(8),
            Nanos::from_millis(8),
            Nanos::from_millis(20),
        ];
        let arrivals = collect(Workload::trace(ts.clone()), Nanos::from_secs(1), 3);
        assert_eq!(arrivals, ts);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_trace_rejected() {
        let _ = Workload::trace(vec![Nanos::from_millis(5), Nanos::from_millis(2)]);
    }

    #[test]
    fn batches_arrive_back_to_back() {
        let w = Workload::poisson_with_batches(1.0, vec![(Nanos::from_secs(5), 50)]);
        let arrivals = collect(w, Nanos::from_secs(10), 4);
        let at_batch = arrivals
            .iter()
            .filter(|&&t| t == Nanos::from_secs(5))
            .count();
        assert_eq!(at_batch, 50);
    }

    #[test]
    fn on_off_has_quiet_zones() {
        let w = Workload::on_off(1000.0, Nanos::from_millis(50), Nanos::from_millis(200));
        let arrivals = collect(w, Nanos::from_secs(20), 5);
        assert!(arrivals.len() > 100);
        // A Poisson stream at this average rate would rarely show 150 ms
        // gaps; ON/OFF must show many.
        let long_gaps = arrivals
            .windows(2)
            .filter(|w| w[1] - w[0] > Nanos::from_millis(150))
            .count();
        assert!(long_gaps > 10, "long gaps: {long_gaps}");
    }

    #[test]
    fn diurnal_rate_swings_between_trough_and_peak() {
        let period = Nanos::from_secs(100);
        let w = Workload::diurnal(200.0, 0.1, period);
        let arrivals = collect(w, Nanos::from_secs(400), 6);
        // Count arrivals near troughs (phase ~0) vs peaks (phase ~0.5).
        let phase_of = |t: Nanos| (t.as_nanos() % period.as_nanos()) as f64 / 1e11;
        let near_trough = arrivals
            .iter()
            .filter(|&&t| {
                let p = phase_of(t);
                !(0.15..0.85).contains(&p)
            })
            .count();
        let near_peak = arrivals
            .iter()
            .filter(|&&t| {
                let p = phase_of(t);
                (0.35..0.65).contains(&p)
            })
            .count();
        assert!(
            near_peak as f64 > 2.0 * near_trough as f64,
            "peak {near_peak} vs trough {near_trough}"
        );
        // Average rate is between trough and peak.
        let avg = arrivals.len() as f64 / 400.0;
        assert!((20.0..200.0).contains(&avg), "avg {avg}");
    }

    #[test]
    #[should_panic(expected = "trough fraction")]
    fn diurnal_rejects_bad_trough() {
        let _ = Workload::diurnal(10.0, 1.5, Nanos::from_secs(10));
    }

    #[test]
    fn generators_are_deterministic() {
        let a = collect(Workload::poisson(100.0), Nanos::from_secs(5), 9);
        let b = collect(Workload::poisson(100.0), Nanos::from_secs(5), 9);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = Workload::poisson(0.0);
    }
}
