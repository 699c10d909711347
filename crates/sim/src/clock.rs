//! Per-replica local clocks: skewed, but strictly monotonic.

use bayou_types::{Timestamp, VirtualTime};

/// Configuration of one replica's local clock.
///
/// The paper makes *no* assumption on the maximum drift between replicas;
/// it only requires each local clock to advance strictly monotonically
/// with subsequent events (Appendix A.2.1, footnote 9). The clock reading
/// at global virtual time `t` is `offset + rate * t` (in microseconds),
/// bumped if necessary to stay strictly increasing across reads.
///
/// Slowing a replica's clock (`rate < 1`) gives its requests unfairly low
/// timestamps — the §2.3 experiment uses exactly this to provoke rollback
/// storms on the other replicas.
///
/// # Examples
///
/// ```
/// use bayou_sim::ClockConfig;
/// let c = ClockConfig::default();
/// assert_eq!(c.rate, 1.0);
/// let slow = ClockConfig::with_rate(0.5);
/// assert_eq!(slow.rate, 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockConfig {
    /// Constant offset, in microseconds (may be negative).
    pub offset_us: i64,
    /// Clock rate relative to virtual time (1.0 = perfect).
    pub rate: f64,
}

impl Default for ClockConfig {
    fn default() -> Self {
        ClockConfig {
            offset_us: 0,
            rate: 1.0,
        }
    }
}

impl ClockConfig {
    /// A clock running at `rate` with no offset.
    pub fn with_rate(rate: f64) -> Self {
        ClockConfig { offset_us: 0, rate }
    }

    /// A clock with a constant offset (microseconds) and perfect rate.
    pub fn with_offset(offset_us: i64) -> Self {
        ClockConfig {
            offset_us,
            rate: 1.0,
        }
    }
}

/// The runtime state of a replica's clock.
#[derive(Debug, Clone)]
pub(crate) struct Clock {
    config: ClockConfig,
    last: i64,
}

impl Clock {
    pub fn new(config: ClockConfig) -> Self {
        Clock {
            config,
            last: i64::MIN,
        }
    }

    /// Reads the clock at global time `now`, enforcing strict
    /// monotonicity across reads.
    pub fn read(&mut self, now: VirtualTime) -> Timestamp {
        let raw = self.config.offset_us + (now.as_micros() as f64 * self.config.rate) as i64;
        let v = if raw > self.last { raw } else { self.last + 1 };
        self.last = v;
        Timestamp::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> VirtualTime {
        VirtualTime::from_millis(v)
    }

    #[test]
    fn perfect_clock_tracks_virtual_time() {
        let mut c = Clock::new(ClockConfig::default());
        assert_eq!(c.read(ms(1)).value(), 1_000);
        assert_eq!(c.read(ms(2)).value(), 2_000);
    }

    #[test]
    fn strictly_monotonic_even_when_time_stalls() {
        let mut c = Clock::new(ClockConfig::default());
        let a = c.read(ms(1));
        let b = c.read(ms(1));
        let d = c.read(ms(1));
        assert!(a < b && b < d);
    }

    #[test]
    fn slow_clock_lags() {
        let mut slow = Clock::new(ClockConfig::with_rate(0.1));
        let mut fast = Clock::new(ClockConfig::default());
        assert!(slow.read(ms(100)) < fast.read(ms(100)));
    }

    #[test]
    fn offset_shifts_readings() {
        let mut c = Clock::new(ClockConfig::with_offset(-5_000));
        assert_eq!(c.read(ms(10)).value(), 5_000);
    }

    #[test]
    fn monotonic_under_negative_rate_jitter() {
        // even a clock with rate 0 (pathological) must keep increasing
        let mut c = Clock::new(ClockConfig::with_rate(0.0));
        let a = c.read(ms(1));
        let b = c.read(ms(50));
        assert!(b > a);
    }
}
