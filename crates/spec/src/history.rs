//! Histories: the observable behaviour of a run (§3.2).

use crate::relation::Relation;
use bayou_core::{RunTrace, Served};
use bayou_data::DataType;
use bayou_types::{BayouError, Level, ReplicaId, ReqId, Timestamp, Value, VirtualTime};
use std::collections::{BTreeMap, HashSet};

/// One event of a history: an operation invocation with its observed
/// outcome and the auxiliary attributes the witness construction uses.
#[derive(Debug, Clone, PartialEq)]
pub struct HEvent<Op> {
    /// Unique request id (the invocation's dot).
    pub id: ReqId,
    /// The operation (`op(e)`).
    pub op: Op,
    /// The return value (`rval(e)`), `None` for pending (`∇`).
    pub rval: Option<Value>,
    /// The session (`ß`): in this model, the replica.
    pub session: ReplicaId,
    /// The consistency level (`lvl(e)`).
    pub level: Level,
    /// Invocation time (used to derive `rb`).
    pub invoked_at: VirtualTime,
    /// Return time (used to derive `rb`), `None` for pending.
    pub returned_at: Option<VirtualTime>,
    /// The request timestamp (drives `req`-order arbitration).
    pub timestamp: Timestamp,
    /// Whether the request was TOB-cast (`tob(e)`).
    pub tob_cast: bool,
    /// Whether the request was ever TOB-delivered (`tobdel(e)`), with its
    /// delivery index (`tobNo`).
    pub tob_no: Option<usize>,
    /// Whether the operation is read-only in `F`.
    pub read_only: bool,
    /// The recorded `exec(e)` trace (ids executed when the response was
    /// computed), if the event returned.
    pub exec_trace: Option<Vec<ReqId>>,
}

impl<Op> HEvent<Op> {
    /// Whether the event is pending (never returned).
    pub fn is_pending(&self) -> bool {
        self.rval.is_none()
    }

    /// The `(timestamp, dot)` request-order key.
    pub fn req_key(&self) -> (Timestamp, ReqId) {
        (self.timestamp, self.id)
    }
}

/// A history `H = (E, op, rval, rb, ß, lvl)` over operations of a data
/// type, together with the auxiliary per-event attributes recorded from
/// the run (timestamps, TOB flags, execution traces) that the witness
/// construction of Theorems 2/3 uses.
#[derive(Debug, Clone)]
pub struct History<Op> {
    events: Vec<HEvent<Op>>,
}

impl<Op: Clone> History<Op> {
    /// Builds a history from a recorded run trace.
    ///
    /// # Errors
    ///
    /// Returns [`BayouError::MalformedHistory`] if the trace violates
    /// well-formedness: overlapping operations within a session, or an
    /// operation invoked after a pending one in the same session.
    ///
    /// Events answered with [`Served::Retry`] are **not** history events:
    /// the replica refused the session guard and never executed the
    /// operation, so they contribute no `rval`, appear in no execution
    /// trace, and are dropped here.
    pub fn from_trace<F>(trace: &RunTrace<Op>) -> Result<Self, BayouError>
    where
        F: DataType<Op = Op>,
    {
        let events: Vec<HEvent<Op>> = trace
            .events
            .iter()
            .filter(|e| !matches!(e.served, Some(Served::Retry { .. })))
            .map(|e| HEvent {
                id: e.meta.id(),
                op: e.op.clone(),
                rval: e.value.clone(),
                session: e.replica,
                level: e.meta.level,
                invoked_at: e.invoked_at,
                returned_at: e.returned_at,
                timestamp: e.meta.timestamp,
                tob_cast: e.tob_cast,
                tob_no: trace.tob_no(e.meta.id()),
                read_only: F::is_read_only(&e.op),
                exec_trace: e.exec_trace.clone(),
            })
            .collect();
        let h = History { events };
        h.validate()?;
        Ok(h)
    }
}

impl<Op> History<Op> {
    /// Builds a history directly from events (for hand-crafted histories
    /// and the solver tests).
    ///
    /// # Errors
    ///
    /// Returns [`BayouError::MalformedHistory`] on well-formedness
    /// violations.
    pub fn from_events(events: Vec<HEvent<Op>>) -> Result<Self, BayouError> {
        let h = History { events };
        h.validate()?;
        Ok(h)
    }

    /// Checks well-formedness in O(n log n): unique ids (one hash-set
    /// pass), no return before invocation, and per session (grouped in
    /// one pass) sequential operations with nothing after a pending one.
    fn validate(&self) -> Result<(), BayouError> {
        let mut ids = HashSet::with_capacity(self.events.len());
        let mut sessions: BTreeMap<ReplicaId, Vec<&HEvent<Op>>> = BTreeMap::new();
        for e in &self.events {
            if !ids.insert(e.id) {
                return Err(BayouError::MalformedHistory(format!(
                    "duplicate event id {}",
                    e.id
                )));
            }
            if e.returned_at.is_some_and(|ret| ret < e.invoked_at) {
                return Err(BayouError::MalformedHistory(format!(
                    "event {} returned before it was invoked",
                    e.id
                )));
            }
            sessions.entry(e.session).or_default().push(e);
        }
        for (s, mut evs) in sessions {
            evs.sort_by_key(|e| (e.invoked_at, e.id));
            for w in evs.windows(2) {
                match w[0].returned_at {
                    None => {
                        return Err(BayouError::MalformedHistory(format!(
                            "event {} follows pending event {} in session {s}",
                            w[1].id, w[0].id
                        )))
                    }
                    Some(ret) => {
                        if w[1].invoked_at < ret {
                            return Err(BayouError::MalformedHistory(format!(
                                "events {} and {} overlap in session {s}",
                                w[0].id, w[1].id
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The events, indexed by position.
    pub fn events(&self) -> &[HEvent<Op>] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the history has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Index of the event with the given id.
    pub fn index_of(&self, id: ReqId) -> Option<usize> {
        self.events.iter().position(|e| e.id == id)
    }

    /// The distinct sessions, in ascending order.
    pub fn sessions(&self) -> Vec<ReplicaId> {
        let mut s: Vec<ReplicaId> = self.events.iter().map(|e| e.session).collect();
        s.sort();
        s.dedup();
        s
    }

    /// The returns-before relation `rb`: `a → b` iff `a` returned before
    /// `b` was invoked.
    pub fn rb(&self) -> Relation {
        let n = self.events.len();
        let mut r = Relation::new(n);
        for (i, a) in self.events.iter().enumerate() {
            let Some(ret) = a.returned_at else { continue };
            for (j, b) in self.events.iter().enumerate() {
                if i != j && ret <= b.invoked_at {
                    r.add(i, j);
                }
            }
        }
        r
    }

    /// The same-session relation `ß` (symmetric, irreflexive here).
    pub fn same_session(&self) -> Relation {
        let n = self.events.len();
        let mut r = Relation::new(n);
        for i in 0..n {
            for j in 0..n {
                if i != j && self.events[i].session == self.events[j].session {
                    r.add(i, j);
                }
            }
        }
        r
    }

    /// The session order `so = rb ∩ ß`.
    pub fn session_order(&self) -> Relation {
        let rb = self.rb();
        let ss = self.same_session();
        let n = self.events.len();
        let mut r = Relation::new(n);
        for i in 0..n {
            for j in 0..n {
                if rb.contains(i, j) && ss.contains(i, j) {
                    r.add(i, j);
                }
            }
        }
        r
    }

    /// Indices of events at the given level (`L` in the paper).
    pub fn level_indices(&self, level: Level) -> Vec<usize> {
        (0..self.len())
            .filter(|i| self.events[*i].level == level)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayou_types::Dot;

    fn ev(
        replica: u32,
        no: u64,
        invoked_ms: u64,
        returned_ms: Option<u64>,
    ) -> HEvent<&'static str> {
        HEvent {
            id: Dot::new(ReplicaId::new(replica), no),
            op: "op",
            rval: returned_ms.map(|_| Value::Unit),
            session: ReplicaId::new(replica),
            level: Level::Weak,
            invoked_at: VirtualTime::from_millis(invoked_ms),
            returned_at: returned_ms.map(VirtualTime::from_millis),
            timestamp: Timestamp::new(invoked_ms as i64),
            tob_cast: true,
            tob_no: None,
            read_only: false,
            exec_trace: None,
        }
    }

    #[test]
    fn rb_orders_non_overlapping_events() {
        let h = History::from_events(vec![
            ev(0, 1, 0, Some(5)),
            ev(1, 1, 10, Some(15)),
            ev(0, 2, 7, Some(20)),
        ])
        .unwrap();
        let rb = h.rb();
        assert!(rb.contains(0, 1)); // returned 5 ≤ invoked 10
        assert!(rb.contains(0, 2));
        assert!(!rb.contains(1, 2)); // overlap: 2 invoked at 7 < 15
        assert!(!rb.contains(2, 1));
    }

    #[test]
    fn session_order_is_rb_within_session() {
        let h = History::from_events(vec![
            ev(0, 1, 0, Some(5)),
            ev(0, 2, 6, Some(9)),
            ev(1, 1, 1, Some(2)),
        ])
        .unwrap();
        let so = h.session_order();
        assert!(so.contains(0, 1));
        assert!(!so.contains(2, 0), "different session");
        assert_eq!(so.cardinality(), 1);
    }

    #[test]
    fn overlapping_session_ops_rejected() {
        let res = History::from_events(vec![ev(0, 1, 0, Some(10)), ev(0, 2, 5, Some(20))]);
        assert!(matches!(res, Err(BayouError::MalformedHistory(_))));
    }

    #[test]
    fn op_after_pending_rejected() {
        let res = History::from_events(vec![ev(0, 1, 0, None), ev(0, 2, 50, Some(60))]);
        assert!(matches!(res, Err(BayouError::MalformedHistory(_))));
    }

    #[test]
    fn pending_last_op_is_fine() {
        let h = History::from_events(vec![ev(0, 1, 0, Some(5)), ev(0, 2, 6, None)]);
        assert!(h.is_ok());
        let h = h.unwrap();
        assert!(h.events()[1].is_pending());
        assert!(h.rb().successors(1).is_empty());
    }

    #[test]
    fn duplicate_ids_rejected() {
        let res = History::from_events(vec![ev(0, 1, 0, Some(5)), ev(0, 1, 6, Some(9))]);
        assert!(matches!(res, Err(BayouError::MalformedHistory(_))));
    }

    /// Validation is near-linear: a well-formed history of 20 000
    /// events (the size a long DST run records) validates in
    /// milliseconds, where comparing every pair of ids took seconds.
    #[test]
    fn a_large_well_formed_history_validates_quickly() {
        let events: Vec<_> = (0..20_000u64)
            .map(|i| {
                let (replica, k) = ((i % 4) as u32, i / 4);
                ev(replica, k + 1, 10 * k, Some(10 * k + 5))
            })
            .collect();
        let started = std::time::Instant::now();
        let h = History::from_events(events).expect("well-formed");
        let took = started.elapsed();
        assert_eq!(h.len(), 20_000);
        assert_eq!(h.sessions().len(), 4);
        assert!(took.as_millis() < 500, "validation took {took:?}");
    }

    #[test]
    fn lookups() {
        let h = History::from_events(vec![ev(0, 1, 0, Some(5)), ev(1, 7, 6, Some(9))]).unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.index_of(Dot::new(ReplicaId::new(1), 7)), Some(1));
        assert_eq!(h.sessions(), vec![ReplicaId::new(0), ReplicaId::new(1)]);
        assert_eq!(h.level_indices(Level::Weak).len(), 2);
        assert!(h.level_indices(Level::Strong).is_empty());
    }
}
