//! Deterministic simulated time.
//!
//! Every Guillotine crate measures time against a [`SimClock`] instead of the
//! host wall clock so that experiments are perfectly reproducible: the same
//! seed and workload always produce the same timeline. Time is modelled at
//! nanosecond resolution, which is fine enough for cache-latency accounting
//! (single-digit nanoseconds) and coarse enough to express multi-hour
//! physical-hypervisor procedures (e.g. datacenter immolation).

use std::fmt;

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimInstant {
    /// The origin of simulated time.
    pub const ZERO: SimInstant = SimInstant(0);

    /// Creates an instant from raw nanoseconds since simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimInstant(nanos)
    }

    /// Returns the raw nanosecond count since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero.
    pub fn duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns this instant advanced by `d`, saturating at `u64::MAX`.
    pub fn saturating_add(self, d: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_add(d.0))
    }

    /// Returns this instant moved `d` into the past, saturating at the
    /// simulation origin. The admission tier's batch former uses this for
    /// "dispatch by" arithmetic: a deadline minus the wait budget is the
    /// instant a queued request must leave the queue.
    pub fn saturating_sub(self, d: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * 1_000_000_000)
    }

    /// Returns the duration as raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as (truncated) microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as (truncated) milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the sum of two durations, saturating at `u64::MAX`.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Returns this duration scaled by an integer factor, saturating.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl std::ops::Add<SimDuration> for SimInstant {
    type Output = SimInstant;

    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// A monotonically advancing simulated clock.
///
/// The clock is advanced explicitly by the component that owns the
/// simulation's main loop (a machine, a scenario runner, a benchmark), which
/// keeps the whole system deterministic.
///
/// # Examples
///
/// ```
/// use guillotine_types::{SimClock, SimDuration};
///
/// let mut clock = SimClock::new();
/// clock.advance(SimDuration::from_micros(3));
/// assert_eq!(clock.now().as_nanos(), 3_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: SimInstant,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        SimClock {
            now: SimInstant::ZERO,
        }
    }

    /// Returns the current simulated instant.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Advances the clock by `d`.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Advances the clock to `t` if `t` is in the future; otherwise leaves it
    /// unchanged (the clock never moves backwards).
    pub fn advance_to(&mut self, t: SimInstant) {
        if t > self.now {
            self.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_arithmetic_round_trips() {
        let t = SimInstant::from_nanos(1_500);
        let d = SimDuration::from_micros(2);
        assert_eq!((t + d).as_nanos(), 3_500);
        assert_eq!((t + d).duration_since(t), d);
    }

    #[test]
    fn duration_constructors_scale_correctly() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_mins(1).as_millis(), 60_000);
    }

    #[test]
    fn clock_is_monotonic() {
        let mut c = SimClock::new();
        c.advance(SimDuration::from_millis(5));
        let earlier = SimInstant::from_nanos(10);
        c.advance_to(earlier);
        assert_eq!(c.now().as_nanos(), 5_000_000);
    }

    #[test]
    fn duration_since_saturates() {
        let a = SimInstant::from_nanos(5);
        let b = SimInstant::from_nanos(50);
        assert_eq!(a.duration_since(b), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }
}
