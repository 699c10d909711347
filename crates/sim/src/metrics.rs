//! Run-wide counters collected by the simulator.

use bayou_types::ReplicaId;
use std::fmt;

/// Counters describing what happened during a simulated run.
///
/// # Examples
///
/// ```
/// use bayou_sim::Metrics;
/// let m = Metrics::new(3);
/// assert_eq!(m.messages_sent, 0);
/// assert_eq!(m.steps.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages delivered to a handler.
    pub messages_delivered: u64,
    /// Messages dropped by a partition.
    pub messages_dropped_partition: u64,
    /// Messages dropped because the destination had crashed.
    pub messages_dropped_crash: u64,
    /// Messages dropped by a loss burst ([`crate::LinkFault`]).
    pub messages_dropped_loss: u64,
    /// Extra copies injected by a duplication burst.
    pub messages_duplicated: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Client inputs dispatched.
    pub inputs: u64,
    /// Internal protocol steps executed (rollbacks/executes in Bayou).
    pub internal_steps: u64,
    /// Replica restarts executed (crash-recovery schedules).
    pub restarts: u64,
    /// Simulated time replicas spent blocked in storage fsync, charged
    /// to their CPUs (zero unless a storage backend injects latency).
    pub storage_stall: bayou_types::VirtualTime,
    /// Physical fsync barriers issued by the replicas' storage engines
    /// (zero for non-durable processes) — the numerator of fsyncs/op.
    pub fsyncs: u64,
    /// Encoded wire bytes of the frames replicas sent, as reported by
    /// processes with a frame meter
    /// ([`bayou_types::Process::take_wire_bytes`]); zero when metering
    /// is off. The network-side analogue of WAL bytes — the numerator of
    /// bytes/op.
    pub wire_bytes: u64,
    /// Total handler executions per replica.
    pub steps: Vec<u64>,
}

impl Metrics {
    /// Creates zeroed metrics for a cluster of `n` replicas.
    pub fn new(n: usize) -> Self {
        Metrics {
            steps: vec![0; n],
            ..Metrics::default()
        }
    }

    /// Records one handler execution on `replica`.
    pub(crate) fn count_step(&mut self, replica: ReplicaId) {
        if let Some(s) = self.steps.get_mut(replica.index()) {
            *s += 1;
        }
    }

    /// Total handler executions across the cluster.
    pub fn total_steps(&self) -> u64 {
        self.steps.iter().sum()
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} delivered={} dropped(part)={} dropped(crash)={} dropped(loss)={} dup={} timers={} inputs={} internal={} fsyncs={} wire_bytes={} steps={:?}",
            self.messages_sent,
            self.messages_delivered,
            self.messages_dropped_partition,
            self.messages_dropped_crash,
            self.messages_dropped_loss,
            self.messages_duplicated,
            self.timers_fired,
            self.inputs,
            self.internal_steps,
            self.fsyncs,
            self.wire_bytes,
            self.steps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let m = Metrics::new(2);
        assert_eq!(m.total_steps(), 0);
        assert_eq!(m.steps, vec![0, 0]);
    }

    #[test]
    fn count_step_increments_the_right_replica() {
        let mut m = Metrics::new(3);
        m.count_step(ReplicaId::new(1));
        m.count_step(ReplicaId::new(1));
        m.count_step(ReplicaId::new(2));
        assert_eq!(m.steps, vec![0, 2, 1]);
        assert_eq!(m.total_steps(), 3);
    }

    #[test]
    fn count_step_ignores_out_of_range() {
        let mut m = Metrics::new(1);
        m.count_step(ReplicaId::new(9));
        assert_eq!(m.total_steps(), 0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Metrics::new(1).to_string().is_empty());
    }
}
