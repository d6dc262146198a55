//! Time newtypes: wall-clock nanoseconds, the time quantum `τ`, and tick
//! indices.
//!
//! E2EProf's analysis operates on discretized time. The *time quantum*
//! [`Quanta`] (`τ` in the paper) is the smallest service delay of interest;
//! every signal is indexed by [`Tick`]s — integer multiples of `τ`.
//! Wall-clock time is carried as [`Nanos`] and only converted to ticks at
//! the density-estimation boundary.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A wall-clock instant or duration in nanoseconds.
///
/// `Nanos` is deliberately ambiguous between "instant" and "duration":
/// traces carry instants, configuration carries durations, and both live on
/// the same monotone axis starting at the trace epoch.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::Nanos;
/// let t = Nanos::from_millis(3) + Nanos::from_micros(500);
/// assert_eq!(t.as_nanos(), 3_500_000);
/// assert_eq!(t.as_millis_f64(), 3.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero instant (the trace epoch).
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a value from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a value from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a value from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a value from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a value from whole minutes.
    pub const fn from_minutes(m: u64) -> Self {
        Nanos(m * 60 * 1_000_000_000)
    }

    /// Creates a value from a fractional number of milliseconds.
    ///
    /// Negative inputs saturate to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        Nanos((ms.max(0.0) * 1_000_000.0).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The value in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The value in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The value in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Subtraction that saturates at zero instead of panicking.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction, `None` if `rhs > self`.
    pub fn checked_sub(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_sub(rhs.0).map(Nanos)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 && self.0.is_multiple_of(1_000_000) {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// The time quantum `τ`: the resolution of all series in the analysis.
///
/// The paper recommends setting `τ` to the shortest service delay of
/// interest (1 ms for the RUBiS experiments, 1 s for the Delta Revenue
/// Pipeline traces).
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::{Quanta, Nanos};
/// let q = Quanta::from_millis(1);
/// assert_eq!(q.tick_of(Nanos::from_micros(2_400)).index(), 2);
/// assert_eq!(q.ticks_in(Nanos::from_secs(3)), 3000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Quanta(Nanos);

impl Quanta {
    /// Creates a quantum of `ns` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is zero.
    pub fn from_nanos(ns: u64) -> Self {
        assert!(ns > 0, "time quantum must be positive");
        Quanta(Nanos::from_nanos(ns))
    }

    /// Creates a quantum of `us` microseconds.
    pub fn from_micros(us: u64) -> Self {
        Self::from_nanos(us * 1_000)
    }

    /// Creates a quantum of `ms` milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Self::from_nanos(ms * 1_000_000)
    }

    /// Creates a quantum of `s` seconds.
    pub fn from_secs(s: u64) -> Self {
        Self::from_nanos(s * 1_000_000_000)
    }

    /// The duration of one tick.
    pub fn duration(self) -> Nanos {
        self.0
    }

    /// The tick containing the instant `t` (floor division).
    pub fn tick_of(self, t: Nanos) -> Tick {
        Tick(t.as_nanos() / self.0.as_nanos())
    }

    /// The number of whole ticks in the duration `d` (floor division).
    pub fn ticks_in(self, d: Nanos) -> u64 {
        d.as_nanos() / self.0.as_nanos()
    }

    /// The instant at which tick `t` begins.
    pub fn instant_of(self, t: Tick) -> Nanos {
        Nanos::from_nanos(t.0 * self.0.as_nanos())
    }

    /// Converts a tick-count (e.g. a correlation lag) to wall-clock time.
    pub fn ticks_to_nanos(self, ticks: u64) -> Nanos {
        Nanos::from_nanos(ticks * self.0.as_nanos())
    }
}

/// An integer index on the discretized time axis, in units of `τ`.
///
/// # Example
///
/// ```
/// use e2eprof_timeseries::Tick;
/// let t = Tick::new(10) + 5;
/// assert_eq!(t.index(), 15);
/// assert_eq!(t - Tick::new(10), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(u64);

impl Tick {
    /// The zero tick.
    pub const ZERO: Tick = Tick(0);

    /// Creates a tick from a raw index.
    pub const fn new(index: u64) -> Self {
        Tick(index)
    }

    /// The raw index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Subtraction that saturates at tick zero.
    pub fn saturating_sub(self, ticks: u64) -> Tick {
        Tick(self.0.saturating_sub(ticks))
    }

    /// Checked distance to a (possibly earlier) tick.
    pub fn checked_sub(self, rhs: Tick) -> Option<u64> {
        self.0.checked_sub(rhs.0)
    }
}

impl From<u64> for Tick {
    fn from(index: u64) -> Self {
        Tick(index)
    }
}

impl Add<u64> for Tick {
    type Output = Tick;
    fn add(self, rhs: u64) -> Tick {
        Tick(self.0 + rhs)
    }
}

impl Sub for Tick {
    type Output = u64;
    /// Distance in ticks.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`.
    fn sub(self, rhs: Tick) -> u64 {
        self.0
            .checked_sub(rhs.0)
            .expect("tick subtraction underflow")
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_constructors_agree() {
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1_000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1_000));
        assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1_000));
        assert_eq!(Nanos::from_minutes(1), Nanos::from_secs(60));
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::from_millis(5);
        let b = Nanos::from_millis(3);
        assert_eq!((a - b).as_millis(), 2);
        assert_eq!((a + b).as_millis(), 8);
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.checked_sub(b), Some(Nanos::from_millis(2)));
        assert_eq!(b.checked_sub(a), None);
    }

    #[test]
    fn nanos_from_millis_f64_rounds_and_saturates() {
        assert_eq!(Nanos::from_millis_f64(1.5).as_nanos(), 1_500_000);
        assert_eq!(Nanos::from_millis_f64(-3.0), Nanos::ZERO);
    }

    #[test]
    fn nanos_display_picks_unit() {
        assert_eq!(format!("{}", Nanos::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Nanos::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(2)), "2.000s");
    }

    #[test]
    fn quanta_tick_floor_semantics() {
        let q = Quanta::from_millis(1);
        assert_eq!(q.tick_of(Nanos::from_nanos(0)), Tick::new(0));
        assert_eq!(q.tick_of(Nanos::from_nanos(999_999)), Tick::new(0));
        assert_eq!(q.tick_of(Nanos::from_nanos(1_000_000)), Tick::new(1));
        assert_eq!(q.instant_of(Tick::new(7)), Nanos::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "time quantum must be positive")]
    fn zero_quanta_rejected() {
        let _ = Quanta::from_nanos(0);
    }

    #[test]
    fn tick_arithmetic() {
        let t = Tick::new(100);
        assert_eq!(t + 5, Tick::new(105));
        assert_eq!(t - Tick::new(40), 60);
        assert_eq!(t.saturating_sub(200), Tick::ZERO);
        assert_eq!(t.checked_sub(Tick::new(101)), None);
        assert_eq!(t.checked_sub(Tick::new(99)), Some(1));
    }

    #[test]
    #[should_panic(expected = "tick subtraction underflow")]
    fn tick_sub_underflow_panics() {
        let _ = Tick::new(1) - Tick::new(2);
    }
}
