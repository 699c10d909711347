//! Client-facing input/output types and the recorded run trace.

use bayou_types::{Level, ReplicaId, ReqId, ReqMeta, Value, VirtualTime};

/// A client invocation: one operation at one consistency level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invocation<Op> {
    /// The operation, drawn from `ops(F)`.
    pub op: Op,
    /// Weak (tentative response) or strong (stable response).
    pub level: Level,
    /// Opaque client correlation tag, echoed on the [`Response`].
    ///
    /// A serving front end dispatches many pipelined requests into a
    /// replica whose dots are assigned on arrival, so the sender cannot
    /// predict `Response::meta` — the tag is how it routes a response
    /// back to the connection that asked. Tags are *not* persisted:
    /// responses re-emitted after crash recovery carry `None`, which
    /// tells the front end the original session is gone.
    pub tag: Option<u64>,
    /// Session floor for a weak *read*: the replica serves it only when
    /// it has caught up to the session's writes and previously-observed
    /// commit point, and answers [`Served::Retry`] otherwise. Ignored
    /// for writes and strong operations.
    pub guard: Option<SessionGuard>,
}

impl<Op> Invocation<Op> {
    /// Creates an invocation.
    pub fn new(op: Op, level: Level) -> Self {
        Invocation {
            op,
            level,
            tag: None,
            guard: None,
        }
    }

    /// A weak invocation.
    pub fn weak(op: Op) -> Self {
        Invocation::new(op, Level::Weak)
    }

    /// A strong invocation.
    pub fn strong(op: Op) -> Self {
        Invocation::new(op, Level::Strong)
    }

    /// Attaches a client correlation tag (builder style).
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = Some(tag);
        self
    }

    /// Attaches a session guard (builder style).
    pub fn with_guard(mut self, guard: SessionGuard) -> Self {
        self.guard = Some(guard);
        self
    }
}

/// Session floor carried on a guarded weak read (the replica-channel
/// form of the wire-level `bayou_types::ReadGuard`).
///
/// A replica serves a guarded read only when both floors hold locally;
/// otherwise it refuses with [`Served::Retry`] instead of returning a
/// value that would violate the session's guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionGuard {
    /// The replica the session's writes were invoked on.
    pub origin: ReplicaId,
    /// Read-your-writes floor: the serving replica must have executed
    /// the origin's writes through per-origin counter `min_seq`.
    pub min_seq: u64,
    /// Monotonic-reads floor: the serving replica's committed-operation
    /// count must have reached `min_commit`.
    pub min_commit: u64,
}

/// How a [`Response`] was produced — the provenance a client (and the
/// correctness checkers) need to interpret the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Tentative response computed from speculative state (weak path).
    Speculative,
    /// Stable response emitted at commit (the TOB round).
    Committed,
    /// Strong read served locally from committed state under a held
    /// leader lease; `committed` is the replica's committed-operation
    /// count at serve time — the linearization-point evidence the DST
    /// stale-read checker cross-validates against the TOB order.
    Lease {
        /// Committed operations applied when the read was served.
        committed: u64,
    },
    /// Guarded weak read refused by a lagging replica. The operation was
    /// *not* executed; the cursor tells the client how far this replica
    /// had caught up, so it can retry here later or elsewhere.
    Retry {
        /// The replica's executed high-water for the guard's origin.
        seen_seq: u64,
        /// The replica's committed-operation count.
        committed: u64,
    },
}

impl Served {
    /// Whether the response carries an actual value (a retry does not).
    pub fn is_retry(&self) -> bool {
        matches!(self, Served::Retry { .. })
    }
}

/// The paper's `exec(e)` in the form a replica can afford to attach to
/// every response: the identifiers of the requests executed (and not
/// rolled back) on the replica's state object when the response was
/// computed, starting where that state object was created.
///
/// Copying the whole trace would cost O(lifetime) per response, and the
/// replica does not even keep it. Its leading `stable` entries are
/// committed and executed — nothing ever rolls them back — so they are a
/// stretch of the group's committed order: the `stable` requests
/// delivered from position `from`, where the state object began (its
/// replica's first commit, or the last recovery or baseline install).
/// Only the `tail` after them, the speculation window, is carried by
/// value. [`ExecTrace::resolve`] turns the triple back into the full id
/// list given the committed order, which a caller recording deliveries
/// has (`BayouCluster` does, step by step).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecTrace {
    /// Committed-order position of the stable prefix. 0 once resolved.
    from: u64,
    /// Length of the stable prefix, read from the committed order. 0
    /// once resolved.
    stable: usize,
    /// The ids after the stable prefix, in execution order (the whole
    /// trace once resolved).
    tail: Vec<ReqId>,
}

impl ExecTrace {
    /// A trace whose first `stable` ids are the committed requests at
    /// positions `from..from + stable`.
    pub(crate) fn new(from: u64, stable: usize, tail: Vec<ReqId>) -> Self {
        ExecTrace { from, stable, tail }
    }

    /// A self-contained trace: every id carried in the tail.
    pub fn full(ids: Vec<ReqId>) -> Self {
        ExecTrace::new(0, 0, ids)
    }

    /// Copies the stable prefix in from `committed`, the group's
    /// committed order from its first delivery, leaving a self-contained
    /// trace.
    ///
    /// # Panics
    ///
    /// Panics if `committed` does not reach the end of the stable
    /// prefix: it is not the order the response was computed against.
    pub fn resolve(&mut self, committed: &[ReqId]) {
        if self.stable == 0 {
            return;
        }
        let from = self.from as usize;
        assert!(
            from + self.stable <= committed.len(),
            "exec trace resolved against too short a committed order: needs {}..{}, has {}",
            from,
            from + self.stable,
            committed.len()
        );
        let mut ids = Vec::with_capacity(self.stable + self.tail.len());
        ids.extend_from_slice(&committed[from..from + self.stable]);
        ids.append(&mut self.tail);
        *self = ExecTrace::full(ids);
    }

    /// The ids of a self-contained trace.
    ///
    /// # Panics
    ///
    /// Panics if the stable prefix has not been resolved.
    pub fn ids(&self) -> &[ReqId] {
        assert_eq!(self.stable, 0, "exec trace not resolved");
        &self.tail
    }
}

/// A response returned to the client.
///
/// Per the paper (§2.1 footnote 3), each invocation yields exactly one
/// response: tentative for weak operations, stable for strong ones.
///
/// `exec_trace` is the instrumentation the correctness witness needs: the
/// requests that were executed (and not rolled back) on the replica's
/// state object *at the moment this response was computed* — the paper's
/// `exec(e)` from the proof of Theorem 2. It is genuinely observable
/// information (it is how the response value came to be), not an oracle.
/// It travels as an [`ExecTrace`] — stable prefix by length, speculative
/// tail by value — so producing it costs O(speculation window); a lease-
/// served read carries the committed order in the same form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Metadata of the request being answered.
    pub meta: ReqMeta,
    /// The return value.
    pub value: Value,
    /// The state-object trace used to compute `value`, excluding the
    /// request itself.
    pub exec_trace: ExecTrace,
    /// The client correlation tag of the [`Invocation`], echoed back.
    /// `None` for untagged invocations and for responses re-derived
    /// after a crash restart (tags are in-memory only).
    pub tag: Option<u64>,
    /// How the response was produced (speculative, committed, lease-
    /// served, or a typed session retry).
    pub served: Served,
}

/// One history event: an invocation together with everything observed
/// about it during the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord<Op> {
    /// Request metadata (timestamp, dot, level).
    pub meta: ReqMeta,
    /// The operation.
    pub op: Op,
    /// The replica (session) the operation was invoked on.
    pub replica: ReplicaId,
    /// Virtual time of the invocation.
    pub invoked_at: VirtualTime,
    /// Virtual time the response was returned, or `None` if pending.
    pub returned_at: Option<VirtualTime>,
    /// The returned value, or `None` if pending (the paper's `∇`).
    pub value: Option<Value>,
    /// The `exec(e)` trace captured with the response.
    pub exec_trace: Option<Vec<ReqId>>,
    /// Whether the request was TOB-cast (`tob(e)` in the proofs).
    pub tob_cast: bool,
    /// Provenance of the response ([`Response::served`]), or `None`
    /// while pending.
    pub served: Option<Served>,
}

/// What a replica notes about the invocation it just handled, for a
/// history recorder to take before the next one (the replica keeps no
/// history itself): with the operation, which the recorder already
/// holds as the input it delivered, it makes a pending [`EventRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Invoked {
    /// Request metadata (timestamp, dot, level).
    pub(crate) meta: ReqMeta,
    /// Virtual time of the invocation.
    pub(crate) invoked_at: VirtualTime,
    /// Whether the request was TOB-cast.
    pub(crate) tob_cast: bool,
}

impl<Op> EventRecord<Op> {
    /// The pending record of an invocation made on `replica`.
    pub(crate) fn invoked(inv: Invoked, op: Op, replica: ReplicaId) -> Self {
        EventRecord {
            meta: inv.meta,
            op,
            replica,
            invoked_at: inv.invoked_at,
            returned_at: None,
            value: None,
            exec_trace: None,
            tob_cast: inv.tob_cast,
            served: None,
        }
    }

    /// Whether the operation is pending (never returned in this run).
    pub fn is_pending(&self) -> bool {
        self.value.is_none()
    }
}

/// Everything recorded about one simulated run: the observable history
/// plus the instrumentation needed to build the abstract-execution
/// witness of Theorems 2 and 3.
#[derive(Debug, Clone)]
pub struct RunTrace<Op> {
    /// One record per invocation, in invocation order.
    pub events: Vec<EventRecord<Op>>,
    /// The TOB delivery order (the paper's `tobNo`), identical on all
    /// replicas; request ids in delivery order.
    pub tob_order: Vec<ReqId>,
    /// Virtual time at the end of the run.
    pub end_time: VirtualTime,
    /// Whether the run reached quiescence.
    pub quiescent: bool,
}

impl<Op> RunTrace<Op> {
    /// The paper's `tobNo(m)`: position of a request in the TOB delivery
    /// order, or `None` if never TOB-delivered (`⊥`).
    pub fn tob_no(&self, id: ReqId) -> Option<usize> {
        self.tob_order.iter().position(|r| *r == id)
    }

    /// Whether `tobdel(e)` holds for the request.
    pub fn tob_delivered(&self, id: ReqId) -> bool {
        self.tob_no(id).is_some()
    }

    /// Events that never returned.
    pub fn pending(&self) -> impl Iterator<Item = &EventRecord<Op>> {
        self.events.iter().filter(|e| e.is_pending())
    }

    /// Looks up an event by request id.
    pub fn event(&self, id: ReqId) -> Option<&EventRecord<Op>> {
        self.events.iter().find(|e| e.meta.id() == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayou_types::{Dot, Timestamp};

    fn meta(n: u64) -> ReqMeta {
        ReqMeta {
            timestamp: Timestamp::new(n as i64),
            dot: Dot::new(ReplicaId::new(0), n),
            level: Level::Weak,
        }
    }

    fn record(n: u64, value: Option<Value>) -> EventRecord<&'static str> {
        let served = value.as_ref().map(|_| Served::Speculative);
        EventRecord {
            meta: meta(n),
            op: "op",
            replica: ReplicaId::new(0),
            invoked_at: VirtualTime::from_millis(n),
            returned_at: value.as_ref().map(|_| VirtualTime::from_millis(n + 1)),
            value,
            exec_trace: None,
            tob_cast: true,
            served,
        }
    }

    #[test]
    fn invocation_constructors() {
        assert_eq!(Invocation::weak("x").level, Level::Weak);
        assert_eq!(Invocation::strong("x").level, Level::Strong);
        assert_eq!(Invocation::new("x", Level::Weak), Invocation::weak("x"));
    }

    #[test]
    fn exec_trace_resolves_its_stable_prefix() {
        let committed: Vec<ReqId> = (1..=5).map(|n| meta(n).id()).collect();
        let mut t = ExecTrace::new(0, 3, vec![meta(9).id()]);
        t.resolve(&committed);
        let expected = [committed[0], committed[1], committed[2], meta(9).id()];
        assert_eq!(t.ids(), expected);
        // resolved traces are self-contained: a second resolve is a no-op
        t.resolve(&[]);
        assert_eq!(t.ids(), expected);
        // a state object that began at the third commit
        let mut t = ExecTrace::new(2, 2, Vec::new());
        t.resolve(&committed);
        assert_eq!(t.ids(), [committed[2], committed[3]]);
    }

    #[test]
    #[should_panic(expected = "too short a committed order")]
    fn exec_trace_refuses_a_shorter_committed_order() {
        let mut t = ExecTrace::new(1, 2, Vec::new());
        t.resolve(&[meta(1).id(), meta(2).id()]);
    }

    #[test]
    fn trace_lookups() {
        let trace = RunTrace {
            events: vec![record(1, Some(Value::Unit)), record(2, None)],
            tob_order: vec![meta(1).id()],
            end_time: VirtualTime::from_secs(1),
            quiescent: true,
        };
        assert_eq!(trace.tob_no(meta(1).id()), Some(0));
        assert_eq!(trace.tob_no(meta(2).id()), None);
        assert!(trace.tob_delivered(meta(1).id()));
        assert!(!trace.tob_delivered(meta(2).id()));
        assert_eq!(trace.pending().count(), 1);
        assert!(trace.event(meta(2).id()).unwrap().is_pending());
        assert!(trace.event(meta(9).id()).is_none());
    }
}
