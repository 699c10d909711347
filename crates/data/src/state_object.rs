//! The `StateObject` abstraction of Algorithm 1 and its generic
//! checkpoint-based implementation.

use crate::datatype::DataType;
use bayou_types::ReqId;

/// The `state` object of Algorithm 1: executes requests and can roll back
/// the *most recently executed* not-yet-rolled-back request.
///
/// Bayou's `adjustExecution` only ever revokes a suffix of the executed
/// sequence, popping requests in reverse execution order (the
/// `toBeRolledBack` list is `reverse(outOfOrder)`), so implementations may
/// assume strictly LIFO rollback and should panic on misuse — a rollback
/// of anything but the latest executed request indicates a protocol bug,
/// not a recoverable condition.
///
/// The *current trace* (the paper's `α` in Appendix A.2.2) is the sequence
/// of executed-and-not-rolled-back requests; responses must be consistent
/// with a deterministic serial execution of the trace.
///
/// # The trace is kept above the stable prefix
///
/// A state object holds only the part of its trace that can still
/// change. [`StateObject::truncate_checkpoints`] tells it how long the
/// stable prefix is (requests that are committed and can never roll
/// back); implementations drop those ids together with their rollback
/// bookkeeping and keep only their count, [`StateObject::trace_offset`].
/// [`StateObject::trace`] is the rest: the ids at trace positions
/// `trace_offset()..`. A caller that needs the ids of the stable prefix
/// reads them from the committed order instead — the prefix *is* a
/// stretch of it — which keeps a long-running replica's trace
/// O(speculation window) rather than O(lifetime).
pub trait StateObject<F: DataType> {
    /// Creates a state object whose trace is empty but whose logical
    /// state starts from `state` (bootstrapping from a snapshot, e.g.
    /// state transfer to a fresh replica, or pre-grown bench fixtures).
    fn with_state(state: F::State) -> Self
    where
        Self: Sized;

    /// Creates a state object from a snapshot of a *committed* prefix of
    /// `len` requests: the logical state already reflects all of them,
    /// and none can ever be rolled back, so the object keeps neither
    /// their ids nor any rollback bookkeeping for them — its trace
    /// starts at offset `len`. This is the crash-recovery constructor:
    /// the replica resumes speculating on top of the snapshot exactly as
    /// if it had executed, committed and truncated the prefix itself.
    fn with_committed_prefix(state: F::State, len: usize) -> Self
    where
        Self: Sized;

    /// Executes `op` on behalf of request `id`, mutating the state and
    /// returning the operation's return value.
    fn execute(&mut self, id: ReqId, op: &F::Op) -> bayou_types::Value;

    /// Rolls back request `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the most recently executed request still on
    /// the trace (see the LIFO discipline above).
    fn rollback(&mut self, id: ReqId);

    /// The retained part of the current trace `α`: the
    /// executed-and-not-rolled-back request ids at trace positions
    /// [`StateObject::trace_offset`] onwards, in execution order. The ids
    /// before them form a stable prefix the object was told about and
    /// dropped (see the trait docs).
    fn trace(&self) -> &[ReqId];

    /// How many leading trace ids were dropped: the trace position of
    /// `trace()[0]`. Never exceeds the last stable-prefix length handed
    /// to [`StateObject::truncate_checkpoints`] (or to
    /// [`StateObject::with_committed_prefix`]).
    fn trace_offset(&self) -> usize;

    /// Materialises the current logical state (primarily for tests and
    /// convergence checks).
    fn materialize(&self) -> F::State;

    /// Discards rollback bookkeeping — and the trace ids — for a
    /// committed prefix of the trace.
    ///
    /// Committed requests can never roll back, so their undo records or
    /// pre-state checkpoints are dead weight, and so are their ids; the
    /// replica calls this as its committed list grows. `committed_len`
    /// is the length of the stable trace prefix. Implementations must
    /// remain able to roll back everything *after* that prefix, and may
    /// drop the ids before it (reporting the count through
    /// [`StateObject::trace_offset`]). The default is a no-op (correct,
    /// but leaks memory on long committed runs).
    fn truncate_checkpoints(&mut self, committed_len: usize) {
        let _ = committed_len;
    }

    /// Number of rollback bookkeeping records currently retained
    /// (checkpoints, undo records, …). Exposed so tests can assert that
    /// [`StateObject::truncate_checkpoints`] keeps memory bounded.
    fn retained_records(&self) -> usize {
        0
    }
}

/// A state object's trace, kept above the stable prefix: the ids at
/// positions below `offset` are dropped and only counted. The dropped
/// ids leave the buffer in bulk, once they outnumber the live ones, so
/// dropping costs amortised O(1) per executed request.
#[derive(Debug, Clone, Default)]
pub(crate) struct Trace {
    ids: Vec<ReqId>,
    /// Leading entries of `ids` that are already dropped.
    dead: usize,
    /// Trace position of the first live id.
    offset: usize,
}

impl Trace {
    /// An empty trace whose first id will sit at position `offset`.
    pub(crate) fn starting_at(offset: usize) -> Self {
        Trace {
            offset,
            ..Trace::default()
        }
    }

    /// The live ids, at positions `offset()..`.
    pub(crate) fn live(&self) -> &[ReqId] {
        &self.ids[self.dead..]
    }

    /// Ids dropped so far.
    pub(crate) fn offset(&self) -> usize {
        self.offset
    }

    /// Length of the whole trace, dropped prefix included.
    pub(crate) fn len(&self) -> usize {
        self.offset + self.live().len()
    }

    pub(crate) fn push(&mut self, id: ReqId) {
        self.ids.push(id);
    }

    /// Pops `id`, which must be the most recent live id.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace or a non-LIFO rollback.
    pub(crate) fn pop(&mut self, id: ReqId) {
        let last = self
            .live()
            .last()
            .copied()
            .expect("rollback on an empty trace");
        assert_eq!(
            last, id,
            "non-LIFO rollback: asked to roll back {id} but the most recent request is {last}"
        );
        self.ids.pop();
    }

    /// Drops the ids at positions below `stable_len`.
    pub(crate) fn drop_below(&mut self, stable_len: usize) {
        let k = stable_len
            .saturating_sub(self.offset)
            .min(self.live().len());
        self.dead += k;
        self.offset += k;
        if self.dead >= self.ids.len() - self.dead {
            self.ids.drain(..self.dead);
            self.dead = 0;
        }
    }
}

/// A [`StateObject`] for arbitrary data types, implemented by
/// checkpointing the state before every execute.
///
/// Rollback restores the saved pre-state. Memory use is proportional to
/// the number of outstanding speculative executions, which in Bayou is
/// bounded by the tentative-list length.
///
/// # Examples
///
/// ```
/// use bayou_data::{Counter, CounterOp, ReplayState, StateObject};
/// use bayou_types::{Dot, ReplicaId, Value};
///
/// let mut so = ReplayState::<Counter>::new();
/// let id = Dot::new(ReplicaId::new(0), 1);
/// assert_eq!(so.execute(id, &CounterOp::AddAndGet(5)), Value::Int(5));
/// so.rollback(id);
/// assert_eq!(so.materialize(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct ReplayState<F: DataType> {
    state: F::State,
    /// `(request, pre-state)` for each executed request, oldest first.
    /// Always covers a contiguous *suffix* of `trace` (execute pushes,
    /// rollback pops, truncation drops from the front).
    checkpoints: std::collections::VecDeque<(ReqId, F::State)>,
    trace: Trace,
}

impl<F: DataType> ReplayState<F> {
    /// Creates a state object with the data type's initial state.
    pub fn new() -> Self {
        Self::with_state(F::State::default())
    }

    /// Number of requests on the trace, the dropped stable prefix
    /// included.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read-only view of the current logical state.
    pub fn state(&self) -> &F::State {
        &self.state
    }

    /// Number of pre-state checkpoints currently retained.
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }
}

impl<F: DataType> Default for ReplayState<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: DataType> StateObject<F> for ReplayState<F> {
    fn with_state(state: F::State) -> Self {
        Self::with_committed_prefix(state, 0)
    }

    fn with_committed_prefix(state: F::State, len: usize) -> Self {
        // the prefix is committed: no checkpoints are retained for it
        ReplayState {
            state,
            checkpoints: std::collections::VecDeque::new(),
            trace: Trace::starting_at(len),
        }
    }

    fn execute(&mut self, id: ReqId, op: &F::Op) -> bayou_types::Value {
        self.checkpoints.push_back((id, self.state.clone()));
        self.trace.push(id);
        F::apply(&mut self.state, op)
    }

    fn rollback(&mut self, id: ReqId) {
        self.trace.pop(id);
        let (cid, pre) = self
            .checkpoints
            .pop_back()
            .expect("trace non-empty but no checkpoint available (was it truncated too early?)");
        debug_assert_eq!(cid, id);
        self.state = pre;
    }

    fn trace(&self) -> &[ReqId] {
        self.trace.live()
    }

    fn trace_offset(&self) -> usize {
        self.trace.offset()
    }

    fn materialize(&self) -> F::State {
        self.state.clone()
    }

    fn truncate_checkpoints(&mut self, committed_len: usize) {
        // checkpoints always cover a suffix of the trace, so the ones to
        // drop form a prefix: O(dropped), amortised O(1) per execute
        let covered_from = self.trace.len() - self.checkpoints.len();
        let drop = committed_len
            .saturating_sub(covered_from)
            .min(self.checkpoints.len());
        for _ in 0..drop {
            self.checkpoints.pop_front();
        }
        self.trace.drop_below(committed_len);
    }

    fn retained_records(&self) -> usize {
        self.checkpoints.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppendList, Counter, CounterOp, ListOp};
    use bayou_types::{Dot, ReplicaId, Value};

    fn id(n: u64) -> ReqId {
        Dot::new(ReplicaId::new(0), n)
    }

    #[test]
    fn execute_builds_trace() {
        let mut so = ReplayState::<AppendList>::new();
        so.execute(id(1), &ListOp::append("a"));
        so.execute(id(2), &ListOp::append("b"));
        assert_eq!(so.trace(), &[id(1), id(2)]);
        assert_eq!(so.materialize(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(so.len(), 2);
        assert!(!so.is_empty());
    }

    #[test]
    fn rollback_restores_pre_state() {
        let mut so = ReplayState::<AppendList>::new();
        so.execute(id(1), &ListOp::append("a"));
        let v = so.execute(id(2), &ListOp::Duplicate);
        assert_eq!(v, Value::from("aa"));
        so.rollback(id(2));
        assert_eq!(so.materialize(), vec!["a".to_string()]);
        assert_eq!(so.trace(), &[id(1)]);
    }

    #[test]
    fn execute_rollback_is_identity() {
        let mut so = ReplayState::<Counter>::new();
        so.execute(id(1), &CounterOp::Add(10));
        let snapshot = so.materialize();
        so.execute(id(2), &CounterOp::Add(5));
        so.execute(id(3), &CounterOp::AddAndGet(1));
        so.rollback(id(3));
        so.rollback(id(2));
        assert_eq!(so.materialize(), snapshot);
    }

    #[test]
    #[should_panic(expected = "non-LIFO rollback")]
    fn non_lifo_rollback_panics() {
        let mut so = ReplayState::<Counter>::new();
        so.execute(id(1), &CounterOp::Add(1));
        so.execute(id(2), &CounterOp::Add(2));
        so.rollback(id(1));
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn rollback_on_empty_panics() {
        let mut so = ReplayState::<Counter>::new();
        so.rollback(id(1));
    }

    #[test]
    fn truncate_checkpoints_keeps_rollback_of_suffix_working() {
        let mut so = ReplayState::<Counter>::new();
        so.execute(id(1), &CounterOp::Add(1));
        so.execute(id(2), &CounterOp::Add(2));
        so.execute(id(3), &CounterOp::Add(4));
        so.truncate_checkpoints(2); // ids 1 and 2 committed
        assert_eq!(so.trace(), &[id(3)]);
        so.rollback(id(3));
        assert_eq!(so.materialize(), 3);
        // the stable prefix is counted, not kept
        assert!(so.trace().is_empty());
        assert_eq!(so.trace_offset(), 2);
        assert_eq!(so.len(), 2);
    }

    #[test]
    fn trace_drops_its_stable_prefix_in_bulk() {
        let mut t = Trace::starting_at(5);
        for n in 1..=10 {
            t.push(id(n));
        }
        t.drop_below(9); // positions 5..9: ids 1–4
        assert_eq!(t.live(), &[id(5), id(6), id(7), id(8), id(9), id(10)]);
        assert_eq!((t.offset(), t.len()), (9, 15));
        // the dead ids stay in the buffer until they outnumber the live
        assert_eq!(t.ids.len(), 10);
        t.drop_below(11);
        assert_eq!(t.live(), &[id(7), id(8), id(9), id(10)]);
        assert_eq!(t.ids.len(), 4, "six dead ids against four live: drained");
        // a stable length below the offset drops nothing
        t.drop_below(3);
        assert_eq!(t.offset(), 11);
        t.pop(id(10));
        assert_eq!(t.len(), 14);
    }

    #[test]
    fn truncate_checkpoints_zero_is_noop() {
        let mut so = ReplayState::<Counter>::new();
        so.execute(id(1), &CounterOp::Add(1));
        so.truncate_checkpoints(0);
        so.rollback(id(1));
        assert_eq!(so.materialize(), 0);
    }
}
