//! Per-node clocks with injectable skew and drift.
//!
//! Pathmap assumes loosely NTP-synchronized clocks (Section 3.8): small
//! skews shift inferred delays by the skew amount, and the skew itself can
//! be estimated by cross-correlating the two ends of one edge. The
//! simulator therefore stamps each node's capture records with that node's
//! *local* clock — global simulation time transformed by a per-node offset
//! and drift.

use e2eprof_timeseries::Nanos;

/// A node's local clock: `local(t) = t + skew + drift_ppm · t / 10⁶`,
/// saturated at zero.
///
/// # Example
///
/// ```
/// use e2eprof_netsim::clock::NodeClock;
/// use e2eprof_timeseries::Nanos;
/// let c = NodeClock::with_skew_millis(5);
/// assert_eq!(c.local(Nanos::from_secs(1)), Nanos::from_millis(1005));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeClock {
    /// Constant offset from global time, in nanoseconds (may be negative).
    skew_ns: i64,
    /// Linear drift in parts per million.
    drift_ppm: f64,
}

impl Default for NodeClock {
    /// A perfectly synchronized clock.
    fn default() -> Self {
        NodeClock {
            skew_ns: 0,
            drift_ppm: 0.0,
        }
    }
}

impl NodeClock {
    /// A perfectly synchronized clock.
    pub fn synchronized() -> Self {
        Self::default()
    }

    /// A clock offset by a constant number of nanoseconds (positive: this
    /// node's clock runs ahead of global time).
    pub fn with_skew_nanos(skew_ns: i64) -> Self {
        NodeClock {
            skew_ns,
            drift_ppm: 0.0,
        }
    }

    /// A clock offset by a constant number of milliseconds.
    pub fn with_skew_millis(skew_ms: i64) -> Self {
        Self::with_skew_nanos(skew_ms * 1_000_000)
    }

    /// Adds linear drift in parts per million.
    pub fn with_drift_ppm(mut self, ppm: f64) -> Self {
        self.drift_ppm = ppm;
        self
    }

    /// The constant skew in nanoseconds.
    pub fn skew_ns(&self) -> i64 {
        self.skew_ns
    }

    /// The drift in parts per million.
    pub fn drift_ppm(&self) -> f64 {
        self.drift_ppm
    }

    /// Transforms global simulation time into this node's local timestamp.
    ///
    /// Saturates at zero (a trace cannot contain negative timestamps).
    pub fn local(&self, global: Nanos) -> Nanos {
        let g = global.as_nanos() as i128;
        let drift = (self.drift_ppm * global.as_nanos() as f64 / 1e6).round() as i128;
        let local = g + self.skew_ns as i128 + drift;
        Nanos::from_nanos(local.max(0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronized_clock_is_identity() {
        let c = NodeClock::synchronized();
        assert_eq!(c.local(Nanos::from_millis(123)), Nanos::from_millis(123));
    }

    #[test]
    fn positive_skew_runs_ahead() {
        let c = NodeClock::with_skew_millis(3);
        assert_eq!(c.local(Nanos::from_millis(10)), Nanos::from_millis(13));
    }

    #[test]
    fn negative_skew_runs_behind_and_saturates() {
        let c = NodeClock::with_skew_millis(-3);
        assert_eq!(c.local(Nanos::from_millis(10)), Nanos::from_millis(7));
        assert_eq!(c.local(Nanos::from_millis(1)), Nanos::ZERO);
    }

    #[test]
    fn drift_accumulates_linearly() {
        // 100 ppm over 10 seconds = 1 ms.
        let c = NodeClock::synchronized().with_drift_ppm(100.0);
        assert_eq!(
            c.local(Nanos::from_secs(10)),
            Nanos::from_nanos(10_001_000_000)
        );
    }

    #[test]
    fn monotone_for_sane_drift() {
        let c = NodeClock::with_skew_millis(-2).with_drift_ppm(-200.0);
        let mut prev = c.local(Nanos::ZERO);
        for ms in (0..10_000).step_by(97) {
            let cur = c.local(Nanos::from_millis(ms));
            assert!(cur >= prev);
            prev = cur;
        }
    }
}
