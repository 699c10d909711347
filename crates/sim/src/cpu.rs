//! The per-replica CPU model.

use bayou_types::VirtualTime;

/// Configuration of one replica's processing speed.
///
/// Event handlers on a replica execute serially: an event arriving while
/// the replica is still busy waits until the CPU frees up. Every handler
/// consumes `base_cost * slowdown` of virtual time. A `slowdown > 1`
/// models the slow replica `Rs` of the paper's §2.3 argument: under a
/// saturating workload its queue (backlog) grows without bound, and with
/// it the response time of weak operations — the demonstration that Bayou
/// is not bounded wait-free.
///
/// # Examples
///
/// ```
/// use bayou_sim::CpuConfig;
/// let normal = CpuConfig::default();
/// let slow = CpuConfig::with_slowdown(8.0);
/// assert!(slow.slowdown > normal.slowdown);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Cost of one handler execution before scaling.
    pub base_cost: VirtualTime,
    /// Multiplier applied to every cost (1.0 = nominal speed).
    pub slowdown: f64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            base_cost: VirtualTime::from_micros(10),
            slowdown: 1.0,
        }
    }
}

impl CpuConfig {
    /// Nominal base cost with the given slowdown factor.
    pub fn with_slowdown(slowdown: f64) -> Self {
        CpuConfig {
            slowdown,
            ..CpuConfig::default()
        }
    }

    /// An infinitely fast CPU (handlers are free). Useful when an
    /// experiment wants pure network behaviour.
    pub fn instant() -> Self {
        CpuConfig {
            base_cost: VirtualTime::ZERO,
            slowdown: 1.0,
        }
    }

    /// The virtual-time cost of one handler execution.
    pub fn step_cost(&self) -> VirtualTime {
        self.base_cost.mul_f64(self.slowdown)
    }
}

/// Runtime CPU state of one replica.
#[derive(Debug, Clone)]
pub(crate) struct Cpu {
    config: CpuConfig,
    /// The time until which the CPU is occupied.
    pub busy_until: VirtualTime,
    /// Total handler executions (protocol steps).
    pub steps: u64,
}

impl Cpu {
    pub fn new(config: CpuConfig) -> Self {
        Cpu {
            config,
            busy_until: VirtualTime::ZERO,
            steps: 0,
        }
    }

    /// Whether the CPU is free at time `t`.
    pub fn free_at(&self, t: VirtualTime) -> bool {
        t >= self.busy_until
    }

    /// Accounts for a handler starting at `start`; returns its completion
    /// time.
    pub fn run(&mut self, start: VirtualTime) -> VirtualTime {
        debug_assert!(self.free_at(start));
        self.steps += 1;
        self.busy_until = start + self.config.step_cost();
        self.busy_until
    }

    /// Backlog: how far in the future the CPU is already committed,
    /// measured at time `t`.
    pub fn backlog(&self, t: VirtualTime) -> VirtualTime {
        self.busy_until.saturating_sub(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> VirtualTime {
        VirtualTime::from_micros(v)
    }

    #[test]
    fn step_cost_scales_with_slowdown() {
        let c = CpuConfig {
            base_cost: us(10),
            slowdown: 3.0,
        };
        assert_eq!(c.step_cost(), us(30));
        assert_eq!(CpuConfig::instant().step_cost(), VirtualTime::ZERO);
    }

    #[test]
    fn run_advances_busy_until_and_counts_steps() {
        let mut cpu = Cpu::new(CpuConfig {
            base_cost: us(5),
            slowdown: 1.0,
        });
        assert!(cpu.free_at(VirtualTime::ZERO));
        let done = cpu.run(us(100));
        assert_eq!(done, us(105));
        assert!(!cpu.free_at(us(104)));
        assert!(cpu.free_at(us(105)));
        assert_eq!(cpu.steps, 1);
    }

    #[test]
    fn backlog_measures_queueing() {
        let mut cpu = Cpu::new(CpuConfig {
            base_cost: us(50),
            slowdown: 2.0,
        });
        cpu.run(us(0));
        assert_eq!(cpu.backlog(us(0)), us(100));
        assert_eq!(cpu.backlog(us(60)), us(40));
        assert_eq!(cpu.backlog(us(200)), VirtualTime::ZERO);
    }
}
