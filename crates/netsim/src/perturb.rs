//! Time-varying extra-delay schedules for perturbation experiments.
//!
//! The paper's change-detection experiment (Fig. 7) injects an artificial
//! delay into one EJB server, increased every 3 minutes; the SLA scheduling
//! experiment (Table 1) perturbs both EJB servers with random 0–100 ms
//! delays changing once per minute. `DelaySchedule` expresses both as a
//! pure function of simulation time, keeping the simulator deterministic.

use e2eprof_timeseries::Nanos;

/// A deterministic extra processing delay as a function of time.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum DelaySchedule {
    /// No extra delay.
    #[default]
    None,
    /// A fixed extra delay at all times.
    Constant(Nanos),
    /// Zero before `start`; afterwards `step · (1 + ⌊(t − start)/period⌋)`
    /// — the Fig. 7 staircase, increasing every `period`.
    Staircase {
        /// When the staircase starts.
        start: Nanos,
        /// Duration of each step.
        period: Nanos,
        /// Height added per step.
        step: Nanos,
    },
    /// Piecewise-constant: `(from, extra)` entries sorted by `from`; the
    /// extra delay in force at time `t` is that of the last entry with
    /// `from ≤ t` (zero before the first entry).
    Piecewise(
        /// Sorted `(from, extra)` change points.
        Vec<(Nanos, Nanos)>,
    ),
    /// Uniformly random in `[0, max)` per `period`-long interval, derived
    /// by hashing `(seed, interval index)` — deterministic, no RNG state
    /// (the Table 1 perturbation).
    RandomPiecewise {
        /// Interval length between re-draws.
        period: Nanos,
        /// Exclusive upper bound on the extra delay.
        max: Nanos,
        /// Hash seed.
        seed: u64,
    },
}

/// SplitMix64 finalizer — a well-distributed 64-bit hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl DelaySchedule {
    /// A staircase starting at `start`, adding `step` every `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn staircase(start: Nanos, period: Nanos, step: Nanos) -> Self {
        assert!(period > Nanos::ZERO, "staircase period must be positive");
        DelaySchedule::Staircase {
            start,
            period,
            step,
        }
    }

    /// Uniform random extra delay in `[0, max)`, re-drawn each `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn random_piecewise(period: Nanos, max: Nanos, seed: u64) -> Self {
        assert!(period > Nanos::ZERO, "period must be positive");
        DelaySchedule::RandomPiecewise { period, max, seed }
    }

    /// The extra delay in force at time `now`.
    pub fn extra_delay(&self, now: Nanos) -> Nanos {
        match self {
            DelaySchedule::None => Nanos::ZERO,
            DelaySchedule::Constant(d) => *d,
            DelaySchedule::Staircase {
                start,
                period,
                step,
            } => match now.checked_sub(*start) {
                None => Nanos::ZERO,
                Some(elapsed) => {
                    let steps = elapsed.as_nanos() / period.as_nanos() + 1;
                    Nanos::from_nanos(step.as_nanos() * steps)
                }
            },
            DelaySchedule::Piecewise(entries) => {
                let i = entries.partition_point(|&(from, _)| from <= now);
                if i == 0 {
                    Nanos::ZERO
                } else {
                    entries[i - 1].1
                }
            }
            DelaySchedule::RandomPiecewise { period, max, seed } => {
                if max.as_nanos() == 0 {
                    return Nanos::ZERO;
                }
                let idx = now.as_nanos() / period.as_nanos();
                let h = mix(seed ^ mix(idx));
                Nanos::from_nanos(h % max.as_nanos())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_and_constant() {
        assert_eq!(
            DelaySchedule::None.extra_delay(Nanos::from_secs(5)),
            Nanos::ZERO
        );
        assert_eq!(
            DelaySchedule::Constant(Nanos::from_millis(7)).extra_delay(Nanos::ZERO),
            Nanos::from_millis(7)
        );
    }

    #[test]
    fn staircase_steps_up() {
        let s = DelaySchedule::staircase(
            Nanos::from_minutes(1),
            Nanos::from_minutes(3),
            Nanos::from_millis(20),
        );
        assert_eq!(s.extra_delay(Nanos::from_secs(30)), Nanos::ZERO);
        assert_eq!(
            s.extra_delay(Nanos::from_minutes(1)),
            Nanos::from_millis(20)
        );
        assert_eq!(
            s.extra_delay(Nanos::from_minutes(3)),
            Nanos::from_millis(20)
        );
        assert_eq!(
            s.extra_delay(Nanos::from_minutes(4)),
            Nanos::from_millis(40)
        );
        assert_eq!(
            s.extra_delay(Nanos::from_minutes(7)),
            Nanos::from_millis(60)
        );
    }

    #[test]
    fn piecewise_lookup() {
        let s = DelaySchedule::Piecewise(vec![
            (Nanos::from_secs(10), Nanos::from_millis(5)),
            (Nanos::from_secs(20), Nanos::from_millis(50)),
        ]);
        assert_eq!(s.extra_delay(Nanos::from_secs(5)), Nanos::ZERO);
        assert_eq!(s.extra_delay(Nanos::from_secs(10)), Nanos::from_millis(5));
        assert_eq!(s.extra_delay(Nanos::from_secs(19)), Nanos::from_millis(5));
        assert_eq!(s.extra_delay(Nanos::from_secs(25)), Nanos::from_millis(50));
    }

    #[test]
    fn random_piecewise_is_constant_within_period() {
        let s =
            DelaySchedule::random_piecewise(Nanos::from_minutes(1), Nanos::from_millis(100), 42);
        let a = s.extra_delay(Nanos::from_secs(61));
        let b = s.extra_delay(Nanos::from_secs(119));
        assert_eq!(a, b);
        assert!(a < Nanos::from_millis(100));
    }

    #[test]
    fn random_piecewise_varies_across_periods() {
        let s =
            DelaySchedule::random_piecewise(Nanos::from_minutes(1), Nanos::from_millis(100), 42);
        let values: Vec<Nanos> = (0..20)
            .map(|m| s.extra_delay(Nanos::from_minutes(m)))
            .collect();
        let distinct: std::collections::HashSet<_> = values.iter().collect();
        assert!(
            distinct.len() > 10,
            "only {} distinct values",
            distinct.len()
        );
    }

    #[test]
    fn random_piecewise_deterministic_per_seed() {
        let a = DelaySchedule::random_piecewise(Nanos::from_secs(10), Nanos::from_millis(50), 7);
        let b = DelaySchedule::random_piecewise(Nanos::from_secs(10), Nanos::from_millis(50), 7);
        for s in 0..50 {
            assert_eq!(
                a.extra_delay(Nanos::from_secs(s)),
                b.extra_delay(Nanos::from_secs(s))
            );
        }
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = DelaySchedule::random_piecewise(Nanos::ZERO, Nanos::from_millis(1), 0);
    }
}
