//! Requests: the unit of client work disseminated between replicas.

use crate::{Dot, Level, ReplicaId, ReqId, Timestamp};
use std::cmp::Ordering;
use std::fmt;

/// A client request as broadcast between replicas (the `Req` struct of
/// Algorithm 1, line 1).
///
/// A request carries the invoking replica's clock reading, the unique
/// [`Dot`] of the invocation, the consistency [`Level`] and the operation
/// itself. Requests are compared by `(timestamp, dot)` (Algorithm 1,
/// lines 2–3), which yields the *tentative* (timestamp-based) total order.
///
/// The ordering deliberately ignores the operation payload and the level:
/// two distinct requests can never compare equal because dots are unique.
///
/// # Examples
///
/// ```
/// use bayou_types::{Dot, Level, ReplicaId, Req, Timestamp};
/// let r1 = Req::new(Timestamp::new(5), Dot::new(ReplicaId::new(0), 1), Level::Weak, "op-a");
/// let r2 = Req::new(Timestamp::new(6), Dot::new(ReplicaId::new(1), 1), Level::Strong, "op-b");
/// assert!(r1 < r2); // lower timestamp wins
/// ```
#[derive(Debug, Clone)]
pub struct Req<Op> {
    /// The invoking replica's local clock reading at invocation.
    pub timestamp: Timestamp,
    /// Unique identifier of the invocation event.
    pub dot: Dot,
    /// Whether the client asked for strong (stable) semantics.
    pub level: Level,
    /// The operation to execute, drawn from `ops(F)`.
    pub op: Op,
}

impl<Op> Req<Op> {
    /// Creates a request.
    pub fn new(timestamp: Timestamp, dot: Dot, level: Level, op: Op) -> Self {
        Req {
            timestamp,
            dot,
            level,
            op,
        }
    }

    /// The request identifier (its dot).
    pub fn id(&self) -> ReqId {
        self.dot
    }

    /// The replica on which the request was invoked.
    pub fn origin(&self) -> ReplicaId {
        self.dot.replica()
    }

    /// The `(timestamp, dot)` sort key used for tentative ordering.
    pub fn sort_key(&self) -> (Timestamp, Dot) {
        (self.timestamp, self.dot)
    }

    /// Drops the payload, keeping only the metadata. Useful for traces.
    pub fn meta(&self) -> ReqMeta {
        ReqMeta {
            timestamp: self.timestamp,
            dot: self.dot,
            level: self.level,
        }
    }

    /// Maps the operation payload, preserving metadata.
    pub fn map_op<Q>(self, f: impl FnOnce(Op) -> Q) -> Req<Q> {
        Req {
            timestamp: self.timestamp,
            dot: self.dot,
            level: self.level,
            op: f(self.op),
        }
    }
}

impl<Op> PartialEq for Req<Op> {
    fn eq(&self, other: &Self) -> bool {
        self.sort_key() == other.sort_key()
    }
}

impl<Op> Eq for Req<Op> {}

impl<Op> PartialOrd for Req<Op> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<Op> Ord for Req<Op> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.sort_key().cmp(&other.sort_key())
    }
}

impl<Op: fmt::Debug> fmt::Display for Req<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Req[{} {} {} {:?}]",
            self.dot, self.timestamp, self.level, self.op
        )
    }
}

/// A reference-counted request, as passed around the replica hot path
/// and the broadcast layer.
///
/// A request is immutable once invoked, but Algorithm 1 moves it through
/// many hands — the tentative and committed lists, the executed list,
/// reliable broadcast, TOB proposal/acceptance/decision state, catch-up
/// batches and retransmission buffers. Sharing one allocation makes
/// every one of those hops an O(1) pointer bump instead of a deep clone
/// of the operation payload.
pub type SharedReq<Op> = std::sync::Arc<Req<Op>>;

/// Request metadata without the operation payload.
///
/// Traces and checker inputs only need to identify requests and know their
/// level and timestamp; carrying the payload everywhere would force `Op`
/// type parameters through the whole checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqMeta {
    /// The invoking replica's local clock reading at invocation.
    pub timestamp: Timestamp,
    /// Unique identifier of the invocation event.
    pub dot: Dot,
    /// Consistency level of the request.
    pub level: Level,
}

impl ReqMeta {
    /// The request identifier (its dot).
    pub fn id(&self) -> ReqId {
        self.dot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(ts: i64, r: u32, n: u64) -> Req<&'static str> {
        Req::new(
            Timestamp::new(ts),
            Dot::new(ReplicaId::new(r), n),
            Level::Weak,
            "x",
        )
    }

    #[test]
    fn ordered_by_timestamp_then_dot() {
        assert!(req(1, 5, 5) < req(2, 0, 0));
        assert!(req(1, 0, 1) < req(1, 0, 2));
        assert!(req(1, 0, 9) < req(1, 1, 1));
    }

    #[test]
    fn equality_ignores_payload_and_level() {
        let a = Req::new(
            Timestamp::new(1),
            Dot::new(ReplicaId::new(0), 1),
            Level::Weak,
            "a",
        );
        let b = Req::new(
            Timestamp::new(1),
            Dot::new(ReplicaId::new(0), 1),
            Level::Strong,
            "b",
        );
        assert_eq!(a, b); // same (timestamp, dot) key
    }

    #[test]
    fn accessors() {
        let r = req(9, 2, 3);
        assert_eq!(r.id(), Dot::new(ReplicaId::new(2), 3));
        assert_eq!(r.origin(), ReplicaId::new(2));
        assert_eq!(r.sort_key(), (Timestamp::new(9), r.dot));
    }

    #[test]
    fn meta_round_trip() {
        let r = req(4, 1, 7);
        let m = r.meta();
        assert_eq!(m.timestamp, r.timestamp);
        assert_eq!(m.dot, r.dot);
        assert_eq!(m.level, r.level);
        assert_eq!(m.id(), r.id());
    }

    #[test]
    fn map_op_preserves_metadata() {
        let r = req(4, 1, 7);
        let mapped = r.clone().map_op(|s| s.len());
        assert_eq!(mapped.op, 1);
        assert_eq!(mapped.dot, r.dot);
        assert_eq!(mapped.timestamp, r.timestamp);
    }

    #[test]
    fn sorting_a_batch_is_deterministic() {
        let mut v = [req(3, 0, 1), req(1, 1, 1), req(1, 0, 2), req(2, 2, 1)];
        v.sort();
        let keys: Vec<_> = v.iter().map(|r| r.timestamp.value()).collect();
        assert_eq!(keys, vec![1, 1, 2, 3]);
        assert!(v[0].dot < v[1].dot);
    }
}
