//! Replica identifiers and dots (unique per-replica event counters).

use std::fmt;

/// Identifier of a replica (a Bayou server process).
///
/// Replicas in a cluster of size `n` are numbered `0..n`. The numeric value
/// participates in tie-breaking of request timestamps (the second component
/// of a [`Dot`]), exactly as in Algorithm 1 of the paper.
///
/// # Examples
///
/// ```
/// use bayou_types::ReplicaId;
/// let a = ReplicaId::new(0);
/// let b = ReplicaId::new(1);
/// assert!(a < b);
/// assert_eq!(a.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReplicaId(u32);

impl ReplicaId {
    /// Creates a replica identifier from its cluster index.
    pub const fn new(index: u32) -> Self {
        ReplicaId(index)
    }

    /// Returns the cluster index of this replica.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw numeric value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Iterates over the identifiers of a cluster of `n` replicas.
    ///
    /// # Examples
    ///
    /// ```
    /// use bayou_types::ReplicaId;
    /// let ids: Vec<_> = ReplicaId::all(3).collect();
    /// assert_eq!(ids.len(), 3);
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = ReplicaId> + Clone {
        (0..n as u32).map(ReplicaId)
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl From<u32> for ReplicaId {
    fn from(v: u32) -> Self {
        ReplicaId(v)
    }
}

/// Identifier of a replication group (one independent Bayou instance:
/// its own total order, WAL namespace and compaction watermark).
///
/// A process hosting `g` groups runs one `BayouReplica` per group; the
/// pair `(ReplicaId, GroupId)` addresses a single protocol endpoint.
/// Groups never exchange protocol state, so dots are unique only
/// *within* a group — the keyspace partition guarantees no request ever
/// crosses a group boundary.
///
/// # Examples
///
/// ```
/// use bayou_types::GroupId;
/// let a = GroupId::new(0);
/// let b = GroupId::new(1);
/// assert!(a < b);
/// assert_eq!(b.index(), 1);
/// assert_eq!(b.to_string(), "G1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GroupId(u32);

impl GroupId {
    /// Creates a group identifier from its index.
    pub const fn new(index: u32) -> Self {
        GroupId(index)
    }

    /// Returns the index of this group.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw numeric value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Iterates over the identifiers of `g` groups.
    ///
    /// # Examples
    ///
    /// ```
    /// use bayou_types::GroupId;
    /// let ids: Vec<_> = GroupId::all(2).collect();
    /// assert_eq!(ids, vec![GroupId::new(0), GroupId::new(1)]);
    /// ```
    pub fn all(g: usize) -> impl Iterator<Item = GroupId> + Clone {
        (0..g as u32).map(GroupId)
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

impl From<u32> for GroupId {
    fn from(v: u32) -> Self {
        GroupId(v)
    }
}

/// A *dot*: the pair `(replica, event number)` that uniquely identifies an
/// invocation event system-wide.
///
/// The event number grows strictly monotonically on each replica with every
/// `invoke` event (line 10 of Algorithm 1), so dots are unique and totally
/// ordered lexicographically. Requests are arbitrated by
/// `(timestamp, dot)` pairs.
///
/// # Examples
///
/// ```
/// use bayou_types::{Dot, ReplicaId};
/// let d1 = Dot::new(ReplicaId::new(0), 1);
/// let d2 = Dot::new(ReplicaId::new(0), 2);
/// let d3 = Dot::new(ReplicaId::new(1), 1);
/// assert!(d1 < d2);
/// // Ordering is lexicographic on (replica, event number), so every dot of
/// // replica 0 sorts before every dot of replica 1:
/// assert!(d2 < d3);
/// assert!(Dot::new(ReplicaId::new(0), 99) < d3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dot {
    replica: ReplicaId,
    event_no: u64,
}

impl Dot {
    /// Creates a dot from a replica identifier and an event number.
    pub const fn new(replica: ReplicaId, event_no: u64) -> Self {
        Dot { replica, event_no }
    }

    /// The replica on which the event was executed.
    pub const fn replica(self) -> ReplicaId {
        self.replica
    }

    /// The per-replica event sequence number.
    pub const fn event_no(self) -> u64 {
        self.event_no
    }
}

impl fmt::Display for Dot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.replica, self.event_no)
    }
}

/// Requests are uniquely identified by the dot of their invocation event.
pub type ReqId = Dot;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_id_ordering_and_index() {
        let ids: Vec<_> = ReplicaId::all(4).collect();
        assert_eq!(ids.len(), 4);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        assert!(ids[0] < ids[1] && ids[2] < ids[3]);
    }

    #[test]
    fn replica_id_display() {
        assert_eq!(ReplicaId::new(2).to_string(), "R2");
    }

    #[test]
    fn group_id_ordering_index_and_display() {
        let ids: Vec<_> = GroupId::all(3).collect();
        assert_eq!(ids.len(), 3);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        assert!(ids[0] < ids[1]);
        assert_eq!(GroupId::new(7).to_string(), "G7");
        assert_eq!(GroupId::from(4).as_u32(), 4);
    }

    #[test]
    fn dot_lexicographic_order() {
        let r0 = ReplicaId::new(0);
        let r1 = ReplicaId::new(1);
        assert!(Dot::new(r0, 5) < Dot::new(r0, 6));
        assert!(Dot::new(r0, 1000) < Dot::new(r1, 1));
        assert_eq!(Dot::new(r1, 3), Dot::new(r1, 3));
    }

    #[test]
    fn dot_accessors_and_display() {
        let d = Dot::new(ReplicaId::new(3), 42);
        assert_eq!(d.replica(), ReplicaId::new(3));
        assert_eq!(d.event_no(), 42);
        assert_eq!(d.to_string(), "R3.42");
    }

    #[test]
    fn dot_is_hashable_key() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(Dot::new(ReplicaId::new(0), 1), "a");
        m.insert(Dot::new(ReplicaId::new(0), 2), "b");
        assert_eq!(m.len(), 2);
        assert_eq!(m[&Dot::new(ReplicaId::new(0), 1)], "a");
    }
}
