//! Deterministic logical time.
//!
//! The consensus engine is *sans-IO*: it never reads a wall clock. Every
//! entry point takes a [`Time`] supplied by the runtime — the discrete-event
//! simulator passes virtual time, the real-time transport passes a monotonic
//! wall-clock reading. Using dedicated newtypes (rather than
//! [`std::time::Instant`], which cannot be constructed at an arbitrary point)
//! keeps simulated runs bit-reproducible.
//!
//! Resolution is microseconds, stored in a `u64`: enough for ~584,000 years
//! of simulated time, and finer than any latency the paper models (the
//! evaluation uses 100–200 ms links and 1.5–6 s election timeouts).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in logical time, measured in microseconds from an arbitrary epoch
/// (simulation start, or transport start-up).
///
/// # Examples
///
/// ```
/// use escape_core::time::{Duration, Time};
///
/// let t = Time::ZERO + Duration::from_millis(1500);
/// assert_eq!(t.as_millis(), 1500);
/// assert_eq!(t - Time::ZERO, Duration::from_millis(1500));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(u64);

impl Time {
    /// The epoch: the instant a run begins.
    pub const ZERO: Time = Time(0);
    /// The greatest representable instant; useful as an "infinitely far"
    /// sentinel deadline.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time `micros` microseconds past the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        Time(micros)
    }

    /// Creates a time `millis` milliseconds past the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        Time(millis * 1_000)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional milliseconds since the epoch.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`Time::MAX`] instead of overflowing.
    pub fn saturating_add(self, d: Duration) -> Time {
        Time(self.0.saturating_add(d.0))
    }

    /// Subtracts a duration, saturating at [`Time::ZERO`] instead of
    /// underflowing.
    pub fn saturating_sub(self, d: Duration) -> Time {
        Time(self.0.saturating_sub(d.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// A span of logical time, in microseconds.
///
/// # Examples
///
/// ```
/// use escape_core::time::Duration;
///
/// let hb = Duration::from_millis(500);
/// assert_eq!(hb * 3, Duration::from_millis(1500));
/// assert_eq!(hb.as_micros(), 500_000);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);
    /// The longest representable duration.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Duration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000_000)
    }

    /// Length in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Length in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Length in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// `true` if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction, returning `None` on underflow.
    pub fn checked_sub(self, rhs: Duration) -> Option<Duration> {
        self.0.checked_sub(rhs.0).map(Duration)
    }

    /// Saturating subtraction: clamps at zero.
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl From<std::time::Duration> for Duration {
    fn from(d: std::time::Duration) -> Self {
        Duration(d.as_micros() as u64)
    }
}

impl From<Duration> for std::time::Duration {
    fn from(d: Duration) -> Self {
        std::time::Duration::from_micros(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = Time::from_millis(100);
        let d = Duration::from_millis(50);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        assert_eq!(t.as_micros(), 100_000);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(2), Duration::from_millis(2_000));
        assert_eq!(Duration::from_millis(3), Duration::from_micros(3_000));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = Time::from_millis(10);
        let late = Time::from_millis(20);
        assert_eq!(early.saturating_since(late), Duration::ZERO);
        assert_eq!(late.saturating_since(early), Duration::from_millis(10));
    }

    #[test]
    fn saturating_add_caps_at_max() {
        assert_eq!(Time::MAX.saturating_add(Duration::from_millis(1)), Time::MAX);
    }

    #[test]
    fn duration_scalar_ops() {
        let d = Duration::from_millis(10);
        assert_eq!(d * 4, Duration::from_millis(40));
        assert_eq!(d / 2, Duration::from_millis(5));
        assert_eq!(d.saturating_sub(Duration::from_millis(20)), Duration::ZERO);
        assert_eq!(d.checked_sub(Duration::from_millis(20)), None);
        assert_eq!(
            Duration::from_millis(20).checked_sub(d),
            Some(Duration::from_millis(10))
        );
    }

    #[test]
    fn std_duration_conversions() {
        let d: Duration = std::time::Duration::from_millis(7).into();
        assert_eq!(d, Duration::from_millis(7));
        let back: std::time::Duration = d.into();
        assert_eq!(back, std::time::Duration::from_millis(7));
    }

    #[test]
    fn display_formats_millis() {
        assert_eq!(Duration::from_micros(1500).to_string(), "1.500ms");
        assert_eq!(Time::from_millis(2).to_string(), "2.000ms");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(Time::from_millis(1) < Time::from_millis(2));
        assert!(Duration::from_micros(999) < Duration::from_millis(1));
    }
}
