//! The fault state of the links: partitions, crashes and the Ω leader.
//! No thread sits between two replicas: the thread that runs a wake
//! consults this state itself at the end of it (`Shared::deliver`).

use bayou_types::ReplicaId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared control surface for fault injection, used by
/// [`crate::LiveCluster`] and readable from tests.
///
/// Partitions are block lists exactly as in the simulator: messages
/// between different blocks are dropped (protocol-level retransmission
/// recovers them after healing). Crashed replicas neither send nor
/// receive, and Ω names the lowest-id live replica.
#[derive(Debug)]
pub struct PartitionControl {
    n: usize,
    blocks: Mutex<Option<Vec<Vec<ReplicaId>>>>,
    /// One flag per replica, each independent of the others: `is_crashed`
    /// runs several times per replica step and once per outgoing frame,
    /// so it takes no lock.
    crashed: Vec<AtomicBool>,
}

impl PartitionControl {
    pub(crate) fn new(n: usize) -> Arc<Self> {
        Arc::new(PartitionControl {
            n,
            blocks: Mutex::new(None),
            crashed: (0..n).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    /// Number of replicas under control.
    pub fn cluster_size(&self) -> usize {
        self.n
    }

    /// Installs a partition (replaces any existing one).
    pub fn partition(&self, blocks: Vec<Vec<ReplicaId>>) {
        *self.blocks.lock() = Some(blocks);
    }

    /// Splits the cluster into `{0..k}` vs `{k..n}` — mirrors
    /// `bayou_sim::Partition::split_at`, so a simulated fault schedule
    /// can be replayed against a live cluster verbatim.
    pub fn split_at(&self, k: usize) {
        self.partition(vec![
            ReplicaId::all(self.n).take(k).collect(),
            ReplicaId::all(self.n).skip(k).collect(),
        ]);
    }

    /// Isolates a single replica from the rest — mirrors
    /// `bayou_sim::Partition::isolate`.
    pub fn isolate(&self, victim: ReplicaId) {
        self.partition(vec![
            vec![victim],
            ReplicaId::all(self.n).filter(|r| *r != victim).collect(),
        ]);
    }

    /// Removes the partition.
    pub fn heal(&self) {
        *self.blocks.lock() = None;
    }

    /// Marks a replica as crashed.
    pub fn crash(&self, r: ReplicaId) {
        self.set_crashed(r, true);
    }

    /// Marks a replica as live again (a restart completed).
    pub fn uncrash(&self, r: ReplicaId) {
        self.set_crashed(r, false);
    }

    fn set_crashed(&self, r: ReplicaId, value: bool) {
        if let Some(flag) = self.crashed.get(r.index()) {
            flag.store(value, Ordering::SeqCst);
        }
    }

    /// Ids of the replicas not crashed, ascending.
    fn live(&self) -> impl Iterator<Item = u32> + '_ {
        (0u32..)
            .zip(&self.crashed)
            .filter(|(_, c)| !c.load(Ordering::SeqCst))
            .map(|(i, _)| i)
    }

    /// The current Ω output (lowest-id live replica).
    pub fn leader(&self) -> ReplicaId {
        ReplicaId::new(self.live().next().unwrap_or(0))
    }

    /// The current Ω output for protocol *lane* `lane` (a replication
    /// group in a sharded host): lanes round-robin over the live
    /// replicas, so co-hosted groups spread their leader work instead
    /// of funnelling it through the lowest id. Lane 0 is exactly
    /// [`PartitionControl::leader`].
    pub fn leader_for(&self, lane: u32) -> ReplicaId {
        let live = self.live().count().max(1);
        // `None` when all are crashed, or a crash fell between the scans
        ReplicaId::new(self.live().nth(lane as usize % live).unwrap_or(0))
    }

    /// Whether `r` has crashed.
    pub fn is_crashed(&self, r: ReplicaId) -> bool {
        self.crashed
            .get(r.index())
            .is_some_and(|c| c.load(Ordering::SeqCst))
    }

    /// Whether a partition currently cuts the link between `a` and `b`.
    pub(crate) fn separated(&self, a: ReplicaId, b: ReplicaId) -> bool {
        let guard = self.blocks.lock();
        let Some(blocks) = guard.as_ref() else {
            return false;
        };
        if a == b {
            return false;
        }
        let pos = |r: ReplicaId| blocks.iter().position(|blk| blk.contains(&r));
        match (pos(a), pos(b)) {
            (Some(x), Some(y)) => x != y,
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_control_blocks_and_heals() {
        let ctl = PartitionControl::new(3);
        let (a, b, c) = (ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(2));
        assert!(!ctl.separated(a, b));
        ctl.partition(vec![vec![a], vec![b, c]]);
        assert!(ctl.separated(a, b));
        assert!(!ctl.separated(b, c));
        ctl.heal();
        assert!(!ctl.separated(a, b));
    }

    #[test]
    fn unlisted_replica_is_isolated() {
        let ctl = PartitionControl::new(3);
        ctl.partition(vec![vec![ReplicaId::new(0)]]);
        assert!(ctl.separated(ReplicaId::new(1), ReplicaId::new(2)));
    }

    #[test]
    fn crash_updates_leader() {
        let ctl = PartitionControl::new(3);
        assert_eq!(ctl.leader(), ReplicaId::new(0));
        ctl.crash(ReplicaId::new(0));
        assert_eq!(ctl.leader(), ReplicaId::new(1));
        assert!(ctl.is_crashed(ReplicaId::new(0)));
        ctl.crash(ReplicaId::new(1));
        assert_eq!(ctl.leader(), ReplicaId::new(2));
    }
}
