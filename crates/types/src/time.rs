//! Virtual time and logical timestamps.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point (or span) of *virtual time* in the simulated world, in
/// nanoseconds.
///
/// Virtual time is global and objective: the discrete-event simulator owns
/// the single authoritative clock. Replicas never observe virtual time
/// directly — they observe their (possibly skewed) local clock through
/// [`Timestamp`]s.
///
/// # Examples
///
/// ```
/// use bayou_types::VirtualTime;
/// let t = VirtualTime::from_millis(2) + VirtualTime::from_micros(500);
/// assert_eq!(t.as_nanos(), 2_500_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(u64);

impl VirtualTime {
    /// The origin of virtual time.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// The largest representable virtual time.
    pub const MAX: VirtualTime = VirtualTime(u64::MAX);

    /// Creates a virtual time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        VirtualTime(ns)
    }

    /// Creates a virtual time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        VirtualTime(us * 1_000)
    }

    /// Creates a virtual time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        VirtualTime(ms * 1_000_000)
    }

    /// Creates a virtual time from seconds.
    pub const fn from_secs(s: u64) -> Self {
        VirtualTime(s * 1_000_000_000)
    }

    /// Returns the number of whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the number of whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the number of whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns time as floating-point seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition.
    pub const fn saturating_add(self, other: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.saturating_add(other.0))
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, other: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.saturating_sub(other.0))
    }

    /// Multiplies the span by a dimensionless factor, saturating.
    ///
    /// Used by the per-replica CPU model to scale handler costs.
    pub fn mul_f64(self, factor: f64) -> VirtualTime {
        debug_assert!(factor >= 0.0, "time cannot be scaled by a negative factor");
        VirtualTime((self.0 as f64 * factor).min(u64::MAX as f64) as u64)
    }

    /// Returns the maximum of two times.
    pub fn max(self, other: VirtualTime) -> VirtualTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for VirtualTime {
    type Output = VirtualTime;
    fn add(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0 + rhs.0)
    }
}

impl AddAssign for VirtualTime {
    fn add_assign(&mut self, rhs: VirtualTime) {
        self.0 += rhs.0;
    }
}

impl Sub for VirtualTime {
    type Output = VirtualTime;
    fn sub(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0 - rhs.0)
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{}ms", self.as_millis())
        } else if self.0 >= 1_000 {
            write!(f, "{}us", self.as_micros())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A *logical timestamp* read from a replica's local clock.
///
/// Bayou orders tentative requests by `(timestamp, dot)` (Algorithm 1,
/// line 3). The paper makes no assumption on clock drift between replicas;
/// it only requires that each local clock advances strictly monotonically
/// with subsequent events. The simulator's clock model (offset + rate)
/// produces these values.
///
/// # Examples
///
/// ```
/// use bayou_types::Timestamp;
/// assert!(Timestamp::new(10) < Timestamp::new(11));
/// assert_eq!(Timestamp::new(5).value(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(i64);

impl Timestamp {
    /// Creates a timestamp from a raw clock reading.
    pub const fn new(v: i64) -> Self {
        Timestamp(v)
    }

    /// Returns the raw clock reading.
    pub const fn value(self) -> i64 {
        self.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(VirtualTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(VirtualTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(VirtualTime::from_micros(9).as_nanos(), 9_000);
        assert_eq!(VirtualTime::from_nanos(42).as_nanos(), 42);
    }

    #[test]
    fn arithmetic() {
        let a = VirtualTime::from_millis(5);
        let b = VirtualTime::from_millis(3);
        assert_eq!((a + b).as_millis(), 8);
        assert_eq!((a - b).as_millis(), 2);
        let mut c = a;
        c += b;
        assert_eq!(c.as_millis(), 8);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            VirtualTime::MAX.saturating_add(VirtualTime::from_nanos(1)),
            VirtualTime::MAX
        );
        assert_eq!(
            VirtualTime::ZERO.saturating_sub(VirtualTime::from_nanos(1)),
            VirtualTime::ZERO
        );
    }

    #[test]
    fn mul_f64_scales() {
        let t = VirtualTime::from_millis(10);
        assert_eq!(t.mul_f64(2.0).as_millis(), 20);
        assert_eq!(t.mul_f64(0.5).as_millis(), 5);
        assert_eq!(t.mul_f64(0.0), VirtualTime::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(VirtualTime::from_nanos(17).to_string(), "17ns");
        assert_eq!(VirtualTime::from_micros(17).to_string(), "17us");
        assert_eq!(VirtualTime::from_millis(17).to_string(), "17ms");
        assert_eq!(VirtualTime::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn timestamps_order() {
        assert!(Timestamp::new(-5) < Timestamp::new(0));
        assert!(Timestamp::new(0) < Timestamp::new(7));
        assert_eq!(Timestamp::new(7).to_string(), "ts7");
    }

    #[test]
    fn max_of_times() {
        let a = VirtualTime::from_nanos(10);
        let b = VirtualTime::from_nanos(20);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }
}
