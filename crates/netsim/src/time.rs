//! Simulated time.
//!
//! The simulator uses its own monotonically increasing clock measured in
//! nanoseconds since the start of the experiment. Wrapping the value in a
//! newtype keeps wall-clock time (`std::time`) out of the simulation so that
//! experiments are fully deterministic and can be run faster than real time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Duration(nanos)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Duration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds.
    pub fn from_secs_f64(secs: f64) -> Self {
        Duration((secs * 1e9).round().max(0.0) as u64)
    }

    /// The duration expressed in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating multiplication by an integer factor.
    pub const fn saturating_mul(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }

    /// Checked subtraction: `None` when `other` is larger than `self`.
    pub fn checked_sub(self, other: Duration) -> Option<Duration> {
        self.0.checked_sub(other.0).map(Duration)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// An instant on the simulated clock (nanoseconds since experiment start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the experiment.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from nanoseconds since experiment start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Builds an instant from seconds since experiment start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since experiment start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since experiment start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`; zero when `earlier` is in the future.
    pub fn duration_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The instant `d` after `self`.
    pub fn after(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.as_nanos()))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        self.after(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(2), Duration::from_millis(2_000));
        assert_eq!(Duration::from_millis(3), Duration::from_micros(3_000));
        assert_eq!(Duration::from_micros(5), Duration::from_nanos(5_000));
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_millis(10);
        let b = Duration::from_millis(4);
        assert_eq!(a + b, Duration::from_millis(14));
        assert_eq!(a - b, Duration::from_millis(6));
        // Subtraction saturates instead of panicking.
        assert_eq!((b - a).as_nanos(), 0);
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a.checked_sub(b), Some(Duration::from_millis(6)));
    }

    #[test]
    fn simtime_ordering_and_elapsed() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + Duration::from_secs(1);
        assert!(t1 > t0);
        assert_eq!(t1.duration_since(t0), Duration::from_secs(1));
        assert_eq!(t0.duration_since(t1), Duration::ZERO);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(Duration::from_secs_f64(0.5), Duration::from_millis(500));
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Duration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", Duration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", Duration::from_nanos(10)), "10ns");
    }
}
