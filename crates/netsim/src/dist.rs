//! Delay distributions for service times, link latencies, and think times.
//!
//! Implemented directly on top of `rand`'s uniform primitives (inverse-CDF
//! for the exponential, Box–Muller for the clamped normal) to keep the
//! dependency surface to the offline crate set.

use e2eprof_timeseries::Nanos;
use rand::Rng;

/// A distribution over non-negative delays.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DelayDist {
    /// Always exactly this long.
    Constant(Nanos),
    /// Uniform over `[lo, hi]`.
    Uniform {
        /// Lower bound (inclusive).
        lo: Nanos,
        /// Upper bound (inclusive).
        hi: Nanos,
    },
    /// Exponential with the given mean (memoryless service).
    Exponential {
        /// Mean delay.
        mean: Nanos,
    },
    /// Normal with the given mean and standard deviation, clamped at zero.
    Normal {
        /// Mean delay.
        mean: Nanos,
        /// Standard deviation.
        std_dev: Nanos,
    },
}

impl DelayDist {
    /// A constant delay of `ms` milliseconds.
    pub fn constant_millis(ms: u64) -> Self {
        DelayDist::Constant(Nanos::from_millis(ms))
    }

    /// A uniform delay between `lo_ms` and `hi_ms` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `lo_ms > hi_ms`.
    pub fn uniform_millis(lo_ms: u64, hi_ms: u64) -> Self {
        assert!(lo_ms <= hi_ms, "uniform bounds reversed");
        DelayDist::Uniform {
            lo: Nanos::from_millis(lo_ms),
            hi: Nanos::from_millis(hi_ms),
        }
    }

    /// An exponential delay with mean `ms` milliseconds.
    pub fn exponential_millis(ms: u64) -> Self {
        DelayDist::Exponential {
            mean: Nanos::from_millis(ms),
        }
    }

    /// A zero-clamped normal delay with mean and standard deviation in
    /// milliseconds.
    pub fn normal_millis(mean_ms: u64, std_ms: u64) -> Self {
        DelayDist::Normal {
            mean: Nanos::from_millis(mean_ms),
            std_dev: Nanos::from_millis(std_ms),
        }
    }

    /// The distribution's mean.
    pub fn mean(&self) -> Nanos {
        match *self {
            DelayDist::Constant(d) => d,
            DelayDist::Uniform { lo, hi } => Nanos::from_nanos((lo.as_nanos() + hi.as_nanos()) / 2),
            DelayDist::Exponential { mean } => mean,
            // Clamping at zero biases the mean upward slightly; ignored —
            // configuration keeps std well under mean.
            DelayDist::Normal { mean, .. } => mean,
        }
    }

    /// Draws one delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Nanos {
        match *self {
            DelayDist::Constant(d) => d,
            DelayDist::Uniform { lo, hi } => {
                Nanos::from_nanos(rng.gen_range(lo.as_nanos()..=hi.as_nanos()))
            }
            DelayDist::Exponential { mean } => {
                // Inverse CDF: −mean · ln(U), U ∈ (0, 1].
                let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
                let d = -(mean.as_nanos() as f64) * u.ln();
                Nanos::from_nanos(d.round() as u64)
            }
            DelayDist::Normal { mean, std_dev } => {
                // Box–Muller.
                let u1: f64 = (1.0 - rng.gen::<f64>()).max(f64::MIN_POSITIVE);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let d = mean.as_nanos() as f64 + std_dev.as_nanos() as f64 * z;
                Nanos::from_nanos(d.max(0.0).round() as u64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn empirical_mean(dist: &DelayDist, n: usize) -> f64 {
        let mut r = rng();
        (0..n)
            .map(|_| dist.sample(&mut r).as_nanos() as f64)
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = DelayDist::constant_millis(5);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), Nanos::from_millis(5));
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let d = DelayDist::uniform_millis(2, 8);
        let mut r = rng();
        for _ in 0..1000 {
            let s = d.sample(&mut r);
            assert!(s >= Nanos::from_millis(2) && s <= Nanos::from_millis(8));
        }
        let m = empirical_mean(&d, 20_000);
        assert!((m - 5e6).abs() < 0.2e6, "mean {m}");
    }

    #[test]
    fn exponential_mean_converges() {
        let d = DelayDist::exponential_millis(10);
        let m = empirical_mean(&d, 50_000);
        assert!((m - 10e6).abs() < 0.5e6, "mean {m}");
    }

    #[test]
    fn normal_mean_converges_and_clamps() {
        let d = DelayDist::normal_millis(10, 2);
        let m = empirical_mean(&d, 50_000);
        assert!((m - 10e6).abs() < 0.5e6, "mean {m}");
        // Heavily clamped distribution never goes negative.
        let d = DelayDist::normal_millis(1, 50);
        let mut r = rng();
        for _ in 0..1000 {
            let _ = d.sample(&mut r); // Nanos is unsigned; just must not panic
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = DelayDist::exponential_millis(3);
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "bounds reversed")]
    fn reversed_uniform_rejected() {
        let _ = DelayDist::uniform_millis(9, 2);
    }

    #[test]
    fn means_reported() {
        assert_eq!(DelayDist::constant_millis(4).mean(), Nanos::from_millis(4));
        assert_eq!(
            DelayDist::uniform_millis(2, 8).mean(),
            Nanos::from_millis(5)
        );
        assert_eq!(
            DelayDist::exponential_millis(7).mean(),
            Nanos::from_millis(7)
        );
    }
}
