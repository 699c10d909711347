//! The network model: delays, jitter and a partition schedule.

use bayou_types::{ReplicaId, VirtualTime};
use rand::Rng;

/// A temporary network partition: during `[from, until)` the replica set
/// is split into disjoint blocks, and messages between different blocks
/// are dropped.
///
/// Replicas not named in any block form an implicit extra block of
/// singletons — they are isolated from everyone (including each other) for
/// the duration. Lower protocol layers (stubborn links) retransmit, so
/// dropped traffic flows again once the partition heals, matching the
/// paper's temporary-partition model.
///
/// # Examples
///
/// ```
/// use bayou_sim::Partition;
/// use bayou_types::{ReplicaId, VirtualTime};
///
/// let p = Partition::new(
///     VirtualTime::from_millis(100),
///     VirtualTime::from_millis(500),
///     vec![vec![ReplicaId::new(0)], vec![ReplicaId::new(1), ReplicaId::new(2)]],
/// );
/// assert!(p.separates(
///     ReplicaId::new(0),
///     ReplicaId::new(1),
///     VirtualTime::from_millis(200)
/// ));
/// assert!(!p.separates(
///     ReplicaId::new(1),
///     ReplicaId::new(2),
///     VirtualTime::from_millis(200)
/// ));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    from: VirtualTime,
    until: VirtualTime,
    blocks: Vec<Vec<ReplicaId>>,
}

impl Partition {
    /// Creates a partition active during `[from, until)` with the given
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics if `from >= until` or a replica appears in two blocks.
    pub fn new(from: VirtualTime, until: VirtualTime, blocks: Vec<Vec<ReplicaId>>) -> Self {
        assert!(from < until, "partition interval must be non-empty");
        let mut seen = std::collections::HashSet::new();
        for b in &blocks {
            for r in b {
                assert!(seen.insert(*r), "replica {r} appears in two blocks");
            }
        }
        Partition {
            from,
            until,
            blocks,
        }
    }

    /// Splits the cluster into `{0..k}` vs `{k..n}` during `[from, until)`.
    pub fn split_at(from: VirtualTime, until: VirtualTime, k: usize, n: usize) -> Self {
        let left = ReplicaId::all(n).take(k).collect();
        let right = ReplicaId::all(n).skip(k).collect();
        Partition::new(from, until, vec![left, right])
    }

    /// Isolates a single replica from the rest during `[from, until)`.
    pub fn isolate(from: VirtualTime, until: VirtualTime, victim: ReplicaId, n: usize) -> Self {
        let rest = ReplicaId::all(n).filter(|r| *r != victim).collect();
        Partition::new(from, until, vec![vec![victim], rest])
    }

    /// Whether the partition is active at time `t`.
    pub fn active_at(&self, t: VirtualTime) -> bool {
        self.from <= t && t < self.until
    }

    /// The end of the partition interval.
    pub fn until(&self) -> VirtualTime {
        self.until
    }

    fn block_of(&self, r: ReplicaId) -> Option<usize> {
        self.blocks.iter().position(|b| b.contains(&r))
    }

    /// Whether the partition separates `a` from `b` at time `t`.
    pub fn separates(&self, a: ReplicaId, b: ReplicaId, t: VirtualTime) -> bool {
        if !self.active_at(t) || a == b {
            return false;
        }
        match (self.block_of(a), self.block_of(b)) {
            (Some(x), Some(y)) => x != y,
            // a replica not named in any block is isolated from everyone
            _ => true,
        }
    }
}

/// An ordered collection of [`Partition`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionSchedule {
    partitions: Vec<Partition>,
}

impl PartitionSchedule {
    /// Creates an empty schedule (fully connected network).
    pub fn none() -> Self {
        PartitionSchedule::default()
    }

    /// Creates a schedule from a list of partitions (which may overlap in
    /// time; a message is dropped if *any* active partition separates its
    /// endpoints).
    pub fn new(partitions: Vec<Partition>) -> Self {
        PartitionSchedule { partitions }
    }

    /// Adds a partition to the schedule.
    pub fn push(&mut self, p: Partition) {
        self.partitions.push(p);
    }

    /// Whether any active partition separates `a` from `b` at time `t`.
    pub fn separated(&self, a: ReplicaId, b: ReplicaId, t: VirtualTime) -> bool {
        self.partitions.iter().any(|p| p.separates(a, b, t))
    }

    /// The time after which no partition is ever active again.
    pub fn heal_time(&self) -> VirtualTime {
        self.partitions
            .iter()
            .map(|p| p.until())
            .max()
            .unwrap_or(VirtualTime::ZERO)
    }

    /// Whether the schedule has no partitions at all.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }
}

/// A transient link-fault window: during `[from, until)` every
/// cross-replica message is independently dropped with probability
/// `loss` and (if not dropped) delivered twice with probability
/// `duplicate`.
///
/// Bursts model flaky networks between the binary extremes the
/// simulator already had (perfect links vs. a full partition drop).
/// Loss is recovered by the protocol stack's retransmission (stubborn
/// links, Paxos pumps), and every protocol message is idempotent, so a
/// duplicate may cost extra work but never changes an outcome — which
/// is exactly what the DST harness uses these windows to check.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFault {
    /// Start of the window (inclusive).
    pub from: VirtualTime,
    /// End of the window (exclusive).
    pub until: VirtualTime,
    /// Per-message drop probability in `[0, 1]`.
    pub loss: f64,
    /// Per-message duplication probability in `[0, 1]` (applied to
    /// messages that survived the loss draw).
    pub duplicate: f64,
}

impl LinkFault {
    /// Creates a fault window.
    ///
    /// # Panics
    ///
    /// Panics if `from >= until` or a probability is outside `[0, 1]`.
    pub fn new(from: VirtualTime, until: VirtualTime, loss: f64, duplicate: f64) -> Self {
        assert!(from < until, "fault window must be non-empty");
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        assert!(
            (0.0..=1.0).contains(&duplicate),
            "duplicate must be a probability"
        );
        LinkFault {
            from,
            until,
            loss,
            duplicate,
        }
    }

    /// Whether the window is active at time `t`.
    pub fn active_at(&self, t: VirtualTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// Network delay and partition configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Minimum one-way delay.
    pub base_delay: VirtualTime,
    /// Uniform jitter added on top of the base delay.
    pub jitter: VirtualTime,
    /// The partition schedule.
    pub partitions: PartitionSchedule,
    /// Directional per-link delay overrides `(from, to, delay)`; matching
    /// links use exactly `delay` (no jitter). Used by scripted anomaly
    /// reproductions (e.g. the Theorem 1 schedule) that need one slow
    /// link.
    pub link_delays: Vec<(ReplicaId, ReplicaId, VirtualTime)>,
    /// Message loss/duplication bursts (see [`LinkFault`]).
    pub faults: Vec<LinkFault>,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            base_delay: VirtualTime::from_millis(1),
            jitter: VirtualTime::from_micros(500),
            partitions: PartitionSchedule::none(),
            link_delays: Vec::new(),
            faults: Vec::new(),
        }
    }
}

impl NetworkConfig {
    /// A network with fixed delay and no jitter — useful for scripted
    /// anomaly reproductions where exact timing matters.
    pub fn fixed(delay: VirtualTime) -> Self {
        NetworkConfig {
            base_delay: delay,
            jitter: VirtualTime::ZERO,
            partitions: PartitionSchedule::none(),
            link_delays: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Overrides the delay of the directional link `from → to` (builder
    /// style).
    pub fn with_link_delay(mut self, from: ReplicaId, to: ReplicaId, delay: VirtualTime) -> Self {
        self.link_delays.push((from, to, delay));
        self
    }

    /// Adds a message loss/duplication burst (builder style).
    pub fn with_fault(mut self, fault: LinkFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Samples whether a cross-replica message sent at time `t` is lost
    /// to an active fault burst. Draws from `rng` only while a burst
    /// with non-zero loss is active, so configurations without bursts
    /// consume exactly the random stream they did before bursts existed.
    pub fn sample_loss<R: Rng + ?Sized>(&self, t: VirtualTime, rng: &mut R) -> bool {
        self.faults
            .iter()
            .any(|f| f.active_at(t) && f.loss > 0.0 && rng.gen_range(0.0..1.0) < f.loss)
    }

    /// Samples whether a surviving cross-replica message sent at time
    /// `t` is duplicated by an active fault burst (at most one extra
    /// copy, however many bursts overlap).
    pub fn sample_duplicate<R: Rng + ?Sized>(&self, t: VirtualTime, rng: &mut R) -> bool {
        self.faults
            .iter()
            .any(|f| f.active_at(t) && f.duplicate > 0.0 && rng.gen_range(0.0..1.0) < f.duplicate)
    }

    /// The time after which no loss/duplication burst is ever active
    /// again.
    pub fn faults_heal_time(&self) -> VirtualTime {
        self.faults
            .iter()
            .map(|f| f.until)
            .max()
            .unwrap_or(VirtualTime::ZERO)
    }

    /// Samples a one-way delay for a message on the link `from → to`.
    pub fn sample_link_delay<R: Rng + ?Sized>(
        &self,
        from: ReplicaId,
        to: ReplicaId,
        rng: &mut R,
    ) -> VirtualTime {
        if let Some((_, _, d)) = self
            .link_delays
            .iter()
            .find(|(f, t, _)| *f == from && *t == to)
        {
            return *d;
        }
        self.sample_delay(rng)
    }

    /// Samples a one-way delay using the default link parameters.
    pub fn sample_delay<R: Rng + ?Sized>(&self, rng: &mut R) -> VirtualTime {
        if self.jitter == VirtualTime::ZERO {
            self.base_delay
        } else {
            self.base_delay + VirtualTime::from_nanos(rng.gen_range(0..=self.jitter.as_nanos()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::mock::StepRng;

    fn ms(v: u64) -> VirtualTime {
        VirtualTime::from_millis(v)
    }

    #[test]
    fn partition_boundaries_are_half_open() {
        let p = Partition::split_at(ms(10), ms(20), 1, 3);
        let (a, b) = (ReplicaId::new(0), ReplicaId::new(1));
        assert!(!p.separates(a, b, ms(9)));
        assert!(p.separates(a, b, ms(10)));
        assert!(p.separates(a, b, ms(19)));
        assert!(!p.separates(a, b, ms(20)));
    }

    #[test]
    fn same_block_not_separated() {
        let p = Partition::split_at(ms(0), ms(10), 1, 3);
        assert!(!p.separates(ReplicaId::new(1), ReplicaId::new(2), ms(5)));
        // self-messages are never separated
        assert!(!p.separates(ReplicaId::new(0), ReplicaId::new(0), ms(5)));
    }

    #[test]
    fn unlisted_replica_is_isolated() {
        let p = Partition::new(ms(0), ms(10), vec![vec![ReplicaId::new(0)]]);
        assert!(p.separates(ReplicaId::new(1), ReplicaId::new(2), ms(5)));
        assert!(p.separates(ReplicaId::new(0), ReplicaId::new(1), ms(5)));
    }

    #[test]
    fn isolate_constructor() {
        let p = Partition::isolate(ms(0), ms(10), ReplicaId::new(1), 3);
        assert!(p.separates(ReplicaId::new(1), ReplicaId::new(0), ms(1)));
        assert!(!p.separates(ReplicaId::new(0), ReplicaId::new(2), ms(1)));
    }

    #[test]
    #[should_panic(expected = "two blocks")]
    fn duplicate_replica_rejected() {
        Partition::new(
            ms(0),
            ms(1),
            vec![vec![ReplicaId::new(0)], vec![ReplicaId::new(0)]],
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_interval_rejected() {
        Partition::new(ms(5), ms(5), vec![]);
    }

    #[test]
    fn schedule_heal_time() {
        let mut s = PartitionSchedule::none();
        assert!(s.is_empty());
        assert_eq!(s.heal_time(), VirtualTime::ZERO);
        s.push(Partition::split_at(ms(0), ms(10), 1, 3));
        s.push(Partition::split_at(ms(20), ms(40), 2, 3));
        assert_eq!(s.heal_time(), ms(40));
        assert!(s.separated(ReplicaId::new(0), ReplicaId::new(1), ms(5)));
        assert!(!s.separated(ReplicaId::new(0), ReplicaId::new(1), ms(15)));
        assert!(s.separated(ReplicaId::new(0), ReplicaId::new(2), ms(25)));
    }

    #[test]
    fn fault_window_boundaries_are_half_open() {
        let f = LinkFault::new(ms(10), ms(20), 1.0, 0.0);
        assert!(!f.active_at(ms(9)));
        assert!(f.active_at(ms(10)));
        assert!(f.active_at(ms(19)));
        assert!(!f.active_at(ms(20)));
    }

    #[test]
    fn certain_loss_drops_and_certain_duplication_duplicates() {
        let cfg = NetworkConfig::default()
            .with_fault(LinkFault::new(ms(0), ms(10), 1.0, 0.0))
            .with_fault(LinkFault::new(ms(20), ms(30), 0.0, 1.0));
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        assert!(cfg.sample_loss(ms(5), &mut rng));
        assert!(!cfg.sample_loss(ms(15), &mut rng), "between windows");
        assert!(!cfg.sample_loss(ms(25), &mut rng), "dup-only window");
        assert!(cfg.sample_duplicate(ms(25), &mut rng));
        assert!(!cfg.sample_duplicate(ms(5), &mut rng), "loss-only window");
        assert_eq!(cfg.faults_heal_time(), ms(30));
        assert_eq!(NetworkConfig::default().faults_heal_time(), ms(0));
    }

    #[test]
    fn inactive_faults_consume_no_randomness() {
        // the zero-fault random stream must be byte-identical to the
        // pre-fault simulator's, or every archived seed changes meaning
        use rand::RngCore;
        let cfg = NetworkConfig::default().with_fault(LinkFault::new(ms(50), ms(60), 0.9, 0.9));
        let mut rng = rand::rngs::mock::StepRng::new(7, 13);
        let mut rng2 = rng.clone();
        assert!(!cfg.sample_loss(ms(1), &mut rng));
        assert!(!cfg.sample_duplicate(ms(1), &mut rng));
        assert_eq!(rng.next_u64(), rng2.next_u64(), "no draws consumed");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn fault_rejects_bad_probability() {
        LinkFault::new(ms(0), ms(1), 1.5, 0.0);
    }

    #[test]
    fn fixed_network_has_deterministic_delay() {
        let cfg = NetworkConfig::fixed(ms(3));
        let mut rng = StepRng::new(0, 1);
        assert_eq!(cfg.sample_delay(&mut rng), ms(3));
        assert_eq!(cfg.sample_delay(&mut rng), ms(3));
    }

    #[test]
    fn jitter_bounds_delay() {
        let cfg = NetworkConfig {
            base_delay: ms(1),
            jitter: ms(2),
            ..Default::default()
        };
        let mut rng = rand::rngs::mock::StepRng::new(12345, 999_999_937);
        for _ in 0..100 {
            let d = cfg.sample_delay(&mut rng);
            assert!(d >= ms(1) && d <= ms(3), "delay {d} out of bounds");
        }
    }
}
