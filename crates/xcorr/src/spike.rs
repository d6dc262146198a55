//! Spike detection in correlation series (paper Section 3.3).
//!
//! "Spikes in the cross-correlation series are detected by finding points
//! that are local maxima and exceed a threshold (mean + 3 × Std.Dev.). In
//! traces with some noise, there may exist spikes that are very close to
//! each other. To address this issue, we define a resolution threshold
//! window that chooses only the tallest spike in a particular window."

/// A detected correlation spike: a causal-delay candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spike {
    /// The lag (in ticks) at which the spike occurs — the inferred delay.
    pub lag: u64,
    /// The correlation value at the spike.
    pub value: f64,
}

/// `Σ v` and `Σ v²` of a correlation series, each a plain left-to-right
/// sum in lag order: what the spike threshold is computed from.
///
/// [`normalize_into`](crate::normalize::normalize_into) returns these for
/// the coefficients it writes, so discovery hands them to
/// [`SpikeDetector::detect_with`] instead of summing the series again.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Moments {
    /// `Σ v`.
    pub sum: f64,
    /// `Σ v²`.
    pub sum_sq: f64,
}

impl Moments {
    /// Both moments of `values`, in one left-to-right pass.
    pub fn of(values: &[f64]) -> Self {
        let mut m = Moments::default();
        for &v in values {
            m.add(v);
        }
        m
    }

    /// Adds the next value, in lag order.
    #[inline(always)]
    pub fn add(&mut self, v: f64) {
        self.sum += v;
        self.sum_sq += v * v;
    }
}

/// Configurable spike detector.
///
/// # Example
///
/// ```
/// use e2eprof_xcorr::SpikeDetector;
/// let mut corr = vec![0.1f64; 100];
/// corr[40] = 5.0;
/// corr[41] = 4.9; // shoulder of the same spike
/// corr[70] = 4.0;
/// let spikes = SpikeDetector::new(3.0, 5).detect(&corr);
/// let lags: Vec<u64> = spikes.iter().map(|s| s.lag).collect();
/// assert_eq!(lags, vec![40, 70]); // 41 suppressed by the resolution window
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeDetector {
    /// Threshold in standard deviations above the mean (paper: 3.0).
    threshold_sigma: f64,
    /// Resolution window in ticks: of spikes closer than this, only the
    /// tallest survives.
    resolution: u64,
}

impl Default for SpikeDetector {
    /// The paper's configuration: `mean + 3σ`, resolution window of 1 tick
    /// (no merging).
    fn default() -> Self {
        SpikeDetector::new(3.0, 1)
    }
}

impl SpikeDetector {
    /// Creates a detector with the given sigma threshold and resolution
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `threshold_sigma` is negative or non-finite.
    pub fn new(threshold_sigma: f64, resolution: u64) -> Self {
        assert!(
            threshold_sigma.is_finite() && threshold_sigma >= 0.0,
            "threshold must be a non-negative finite number"
        );
        SpikeDetector {
            threshold_sigma,
            resolution: resolution.max(1),
        }
    }

    /// The sigma threshold.
    pub fn threshold_sigma(&self) -> f64 {
        self.threshold_sigma
    }

    /// The resolution window in ticks.
    pub fn resolution(&self) -> u64 {
        self.resolution
    }

    /// Detects spikes in a correlation series, returned in increasing lag
    /// order.
    ///
    /// A point qualifies if it is a local maximum (≥ both neighbors) and
    /// strictly exceeds `mean + threshold_sigma · std_dev` of the whole
    /// series. Nearby qualifiers are thinned to the tallest within the
    /// resolution window (ties broken toward the smaller lag).
    pub fn detect(&self, corr: &[f64]) -> Vec<Spike> {
        self.detect_with(corr, Moments::of(corr))
    }

    /// [`detect`](Self::detect) with the series' moments already summed —
    /// by whoever wrote the series, in the same pass. The spikes are
    /// `detect`'s exactly when `moments` is [`Moments::of`]`(corr)`.
    pub fn detect_with(&self, corr: &[f64], moments: Moments) -> Vec<Spike> {
        if corr.is_empty() {
            return Vec::new();
        }
        let n = corr.len() as f64;
        let mean = moments.sum / n;
        let var = (moments.sum_sq / n - mean * mean).max(0.0);
        let threshold = mean + self.threshold_sigma * var.sqrt();

        let mut candidates: Vec<Spike> = Vec::new();
        for (i, &v) in corr.iter().enumerate() {
            if v <= threshold {
                continue;
            }
            let left_ok = i == 0 || corr[i - 1] <= v;
            let right_ok = i + 1 == corr.len() || corr[i + 1] <= v;
            if left_ok && right_ok {
                candidates.push(Spike {
                    lag: i as u64,
                    value: v,
                });
            }
        }

        // Non-maximum suppression within the resolution window: strongest
        // first, ties toward the smaller lag for determinism.
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by(|&a, &b| {
            candidates[b]
                .value
                .partial_cmp(&candidates[a].value)
                .expect("non-finite correlation value")
                .then(candidates[a].lag.cmp(&candidates[b].lag))
        });
        let mut accepted: Vec<Spike> = Vec::new();
        for idx in order {
            let c = candidates[idx];
            if accepted
                .iter()
                .all(|s| s.lag.abs_diff(c.lag) >= self.resolution)
            {
                accepted.push(c);
            }
        }
        accepted.sort_by_key(|s| s.lag);
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_series_has_no_spikes() {
        let d = SpikeDetector::default();
        assert!(d.detect(&[1.0; 50]).is_empty());
        assert!(d.detect(&[0.0; 50]).is_empty());
        assert!(d.detect(&[]).is_empty());
    }

    #[test]
    fn single_clear_spike() {
        let mut c = vec![0.0; 100];
        c[37] = 10.0;
        let spikes = SpikeDetector::default().detect(&c);
        assert_eq!(spikes.len(), 1);
        assert_eq!(spikes[0].lag, 37);
        assert_eq!(spikes[0].value, 10.0);
    }

    #[test]
    fn spike_at_boundary_detected() {
        let mut c = vec![0.0; 50];
        c[0] = 8.0;
        let spikes = SpikeDetector::default().detect(&c);
        assert_eq!(spikes[0].lag, 0);
        let mut c = vec![0.0; 50];
        c[49] = 8.0;
        let spikes = SpikeDetector::default().detect(&c);
        assert_eq!(spikes[0].lag, 49);
    }

    #[test]
    fn sub_threshold_bumps_ignored() {
        // Noisy series with modest variance: a bump below mean+3σ is noise.
        let mut c: Vec<f64> = (0..200).map(|i| ((i * 7) % 13) as f64).collect();
        let mean = c.iter().sum::<f64>() / 200.0;
        let var = c.iter().map(|v| v * v).sum::<f64>() / 200.0 - mean * mean;
        let just_below = mean + 2.5 * var.sqrt();
        c[100] = just_below;
        // Flatten neighbors so c[100] is a local max but under threshold.
        c[99] = 0.0;
        c[101] = 0.0;
        let spikes = SpikeDetector::new(3.0, 1).detect(&c);
        assert!(spikes.iter().all(|s| s.lag != 100));
    }

    #[test]
    fn resolution_window_keeps_tallest() {
        let mut c = vec![0.0; 100];
        c[50] = 9.0;
        c[52] = 10.0;
        c[54] = 8.0;
        c[80] = 7.0;
        let spikes = SpikeDetector::new(3.0, 5).detect(&c);
        let lags: Vec<u64> = spikes.iter().map(|s| s.lag).collect();
        assert_eq!(lags, vec![52, 80]);
    }

    #[test]
    fn resolution_one_keeps_all_locals() {
        let mut c = vec![0.0; 100];
        c[50] = 9.0;
        c[52] = 10.0;
        let spikes = SpikeDetector::new(3.0, 1).detect(&c);
        assert_eq!(spikes.len(), 2);
    }

    #[test]
    fn plateau_counts_once_per_local_max_rule() {
        // Equal neighbors: both plateau points are >= neighbors, NMS with
        // resolution keeps one.
        let mut c = vec![0.0; 50];
        c[20] = 5.0;
        c[21] = 5.0;
        let spikes = SpikeDetector::new(3.0, 3).detect(&c);
        assert_eq!(spikes.len(), 1);
        assert_eq!(spikes[0].lag, 20); // tie broken toward smaller lag
    }

    #[test]
    fn multiple_well_separated_spikes_all_found() {
        let mut c = vec![0.0; 300];
        for &lag in &[30u64, 120, 250] {
            c[lag as usize] = 20.0;
        }
        let spikes = SpikeDetector::new(3.0, 10).detect(&c);
        let lags: Vec<u64> = spikes.iter().map(|s| s.lag).collect();
        assert_eq!(lags, vec![30, 120, 250]);
    }

    #[test]
    #[should_panic(expected = "non-negative finite")]
    fn negative_threshold_rejected() {
        let _ = SpikeDetector::new(-1.0, 1);
    }
}
