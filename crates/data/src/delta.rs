//! Delta-based speculative execution: per-operation undo records instead
//! of checkpoint-per-execute.
//!
//! [`crate::ReplayState`] implements rollback by cloning the **entire**
//! state before every execute — O(state size) per operation, which
//! collapses replica throughput as soon as the state outgrows toy sizes.
//! The paper's Algorithm 3 (Appendix A.2.2) shows the fix for its
//! register-file operation model: record only the pre-images of what an
//! operation overwrote. [`InvertibleDataType`] generalises that
//! discipline to arbitrary data types — each operation produces a compact
//! [`InvertibleDataType::Undo`] record (a KV put records the one
//! displaced binding, a bank transfer two balances, a list append just
//! the old length) — and [`DeltaState`] is the [`StateObject`] built on
//! those records: execute is O(op), rollback is O(op), independent of
//! state size.
//!
//! Operations that cannot produce a compact inverse
//! ([`InvertibleDataType::apply_undoable`] returns `None`) fall back to
//! checkpoints, **amortised**: at most one full snapshot every
//! [`DeltaState::SNAPSHOT_EVERY`] operations; the non-invertible
//! operations in between record only their op and roll back by replaying
//! from the nearest snapshot. All data types shipped by this crate are
//! fully invertible, so the fallback never triggers on the replica hot
//! path — it exists so third-party data types degrade gracefully instead
//! of breaking.

use crate::datatype::DataType;
use crate::state_object::{StateObject, Trace};
use bayou_types::{ReqId, Value};
use std::collections::VecDeque;
use std::fmt;

/// A [`DataType`] whose operations can record compact inverse deltas.
///
/// # Contract
///
/// For every state `s` and operation `op`:
///
/// * if `apply_undoable(&mut s, op)` returns `Some((v, u))`, then `v`
///   and the post-state must equal what [`DataType::apply`] produces,
///   and a subsequent `undo(&mut s, u)` must restore `s` **exactly**
///   (including representation details a `PartialEq` comparison can
///   observe, e.g. zero-balance accounts created en passant);
/// * if it returns `None`, `s` must be left **unmodified** — the caller
///   will checkpoint and run [`DataType::apply`] instead.
///
/// Equivalence with [`crate::ReplayState`] under arbitrary LIFO
/// execute/rollback schedules is enforced for every shipped data type by
/// the property tests in `tests/proptests.rs`.
pub trait InvertibleDataType: DataType {
    /// The per-operation inverse record. Must be small — O(op), never
    /// O(state).
    type Undo: fmt::Debug + Send;

    /// Applies `op`, returning its value and the inverse record, or
    /// `None` (leaving `state` untouched) when no compact inverse
    /// exists.
    fn apply_undoable(state: &mut Self::State, op: &Self::Op) -> Option<(Value, Self::Undo)>;

    /// Reverts the mutation recorded by `undo`.
    fn undo(state: &mut Self::State, undo: Self::Undo);
}

/// Inverse record for operations that change at most one binding of a
/// string-keyed map — the shape shared by [`crate::KvStore`],
/// [`crate::Bank`] and [`crate::Calendar`] undo records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapRestore<V> {
    /// The operation did not change the map (reads, failed conditional
    /// updates).
    Nothing,
    /// Restore `key` to its previous binding (`None` = was absent; an
    /// operation that created the binding en passant must remove it
    /// again for exact state equality).
    Restore(String, Option<V>),
}

impl<V> MapRestore<V> {
    /// Applies the restoration to `map`.
    pub fn apply_to(self, map: &mut std::collections::BTreeMap<String, V>) {
        match self {
            MapRestore::Nothing => {}
            MapRestore::Restore(k, Some(v)) => {
                map.insert(k, v);
            }
            MapRestore::Restore(k, None) => {
                map.remove(&k);
            }
        }
    }
}

enum UndoKind<F: InvertibleDataType> {
    /// Roll back by applying the inverse delta.
    Inverse(F::Undo),
    /// Pre-state snapshot taken immediately before this request ran.
    Snapshot(Box<F::State>),
    /// Roll back by restoring the nearest snapshot below and replaying
    /// the intervening operations.
    Replay,
}

impl<F: InvertibleDataType> fmt::Debug for UndoKind<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UndoKind::Inverse(u) => f.debug_tuple("Inverse").field(u).finish(),
            UndoKind::Snapshot(_) => f.write_str("Snapshot(..)"),
            UndoKind::Replay => f.write_str("Replay"),
        }
    }
}

#[derive(Debug)]
struct LogEntry<F: InvertibleDataType> {
    id: ReqId,
    /// The operation, retained only while a snapshot exists below it in
    /// the log (replay-based rollback may need it). `None` on the pure
    /// inverse-delta fast path.
    op: Option<F::Op>,
    kind: UndoKind<F>,
}

/// A [`StateObject`] that rolls back through inverse deltas.
///
/// The default state object of `BayouReplica`: execute and rollback cost
/// O(operation) instead of [`crate::ReplayState`]'s O(state size), and
/// [`StateObject::truncate_checkpoints`] is amortised O(1).
///
/// # Examples
///
/// ```
/// use bayou_data::{DeltaState, KvOp, KvStore, StateObject};
/// use bayou_types::{Dot, ReplicaId, Value};
///
/// let mut so = DeltaState::<KvStore>::new();
/// let a = Dot::new(ReplicaId::new(0), 1);
/// let b = Dot::new(ReplicaId::new(0), 2);
/// so.execute(a, &KvOp::put("k", 1));
/// assert_eq!(so.execute(b, &KvOp::put("k", 2)), Value::Int(1));
/// so.rollback(b); // restores the displaced binding, no state clone
/// assert_eq!(so.materialize()["k"], 1);
/// ```
#[derive(Debug)]
pub struct DeltaState<F: InvertibleDataType> {
    state: F::State,
    /// Undo records for the trace suffix starting at `log_offset`,
    /// oldest first.
    log: VecDeque<LogEntry<F>>,
    /// Trace position of `log[0]` (everything before it was truncated as
    /// committed).
    log_offset: usize,
    /// Number of `Snapshot` entries currently in `log`.
    snapshots: usize,
    trace: Trace,
}

impl<F: InvertibleDataType> DeltaState<F> {
    /// Non-invertible operations take a full snapshot at most once per
    /// this many log entries; the ones in between roll back by replay.
    pub const SNAPSHOT_EVERY: usize = 32;

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

    /// Number of full-state snapshots currently retained (0 on the pure
    /// inverse-delta path).
    pub fn snapshot_count(&self) -> usize {
        self.snapshots
    }

    /// Distance (in log entries) from the back of the log to the most
    /// recent snapshot, if one lies within `SNAPSHOT_EVERY` entries.
    fn snapshot_within_reach(&self) -> Option<usize> {
        self.log
            .iter()
            .rev()
            .take(Self::SNAPSHOT_EVERY)
            .position(|e| matches!(e.kind, UndoKind::Snapshot(_)))
    }
}

impl<F: InvertibleDataType> Default for DeltaState<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: InvertibleDataType> StateObject<F> for DeltaState<F> {
    fn with_state(state: F::State) -> Self {
        Self::with_committed_prefix(state, 0)
    }

    fn with_committed_prefix(state: F::State, len: usize) -> Self {
        // the committed prefix carries no undo records and no ids; the
        // log and the trace start immediately after it
        DeltaState {
            state,
            log: VecDeque::new(),
            log_offset: len,
            snapshots: 0,
            trace: Trace::starting_at(len),
        }
    }

    fn execute(&mut self, id: ReqId, op: &F::Op) -> bayou_types::Value {
        let (value, kind) = match F::apply_undoable(&mut self.state, op) {
            Some((value, undo)) => (value, UndoKind::Inverse(undo)),
            None => {
                // non-invertible path: snapshot at most once per
                // SNAPSHOT_EVERY entries, replay-from-snapshot otherwise
                let kind = if self.snapshot_within_reach().is_some() {
                    UndoKind::Replay
                } else {
                    self.snapshots += 1;
                    UndoKind::Snapshot(Box::new(self.state.clone()))
                };
                (F::apply(&mut self.state, op), kind)
            }
        };
        // An op is retained only if a future Replay might replay over
        // this entry: Replay bases are always within SNAPSHOT_EVERY
        // entries of the Replay, so only entries with a snapshot in
        // reach below them can fall inside a replay range. Entries
        // beyond that distance — in particular the whole pure
        // inverse-delta path — store none.
        let keep_op = match &kind {
            UndoKind::Snapshot(_) | UndoKind::Replay => true,
            UndoKind::Inverse(_) => self.snapshots > 0 && self.snapshot_within_reach().is_some(),
        };
        let op = keep_op.then(|| op.clone());
        self.log.push_back(LogEntry { id, op, kind });
        self.trace.push(id);
        value
    }

    fn rollback(&mut self, id: ReqId) {
        self.trace.pop(id);
        let entry = self
            .log
            .pop_back()
            .expect("trace non-empty but no undo record (was it truncated too early?)");
        debug_assert_eq!(entry.id, id);
        match entry.kind {
            UndoKind::Inverse(undo) => F::undo(&mut self.state, undo),
            UndoKind::Snapshot(pre) => {
                self.snapshots -= 1;
                self.state = *pre;
            }
            UndoKind::Replay => {
                // restore the nearest snapshot below, then replay the ops
                // between it and the entry being rolled back
                let base = self
                    .log
                    .iter()
                    .rposition(|e| matches!(e.kind, UndoKind::Snapshot(_)))
                    .expect("Replay entry without a snapshot below it");
                let UndoKind::Snapshot(pre) = &self.log[base].kind else {
                    unreachable!()
                };
                self.state = (**pre).clone();
                for i in base..self.log.len() {
                    let op = self.log[i]
                        .op
                        .as_ref()
                        .expect("entry above a snapshot must retain its op");
                    F::apply(&mut self.state, op);
                }
            }
        }
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
        // the ids go whole: unlike undo records, no rollback needs them
        self.trace.drop_below(committed_len);
        let mut cut = committed_len
            .saturating_sub(self.log_offset)
            .min(self.log.len());
        // never separate retained Replay entries from their base
        // snapshot: if the first retained entries depend on one below the
        // cut, keep from that snapshot on. The scan is bounded by
        // SNAPSHOT_EVERY (a Replay entry's base is always within reach).
        // Only the first SNAPSHOT_EVERY retained entries need checking: a
        // Replay entry's base snapshot is always within SNAPSHOT_EVERY
        // entries below it, so anything further up cannot reach below the
        // cut. This keeps the scan O(SNAPSHOT_EVERY), not O(log).
        let depends_below = self.snapshots > 0
            && self
                .log
                .iter()
                .skip(cut)
                .take(Self::SNAPSHOT_EVERY)
                .find_map(|e| match e.kind {
                    UndoKind::Snapshot(_) => Some(false),
                    UndoKind::Replay => Some(true),
                    UndoKind::Inverse(_) => None,
                })
                == Some(true);
        if depends_below {
            cut = self
                .log
                .iter()
                .take(cut)
                .rposition(|e| matches!(e.kind, UndoKind::Snapshot(_)))
                .expect("Replay entry without a snapshot below it");
        }
        for _ in 0..cut {
            if let Some(entry) = self.log.pop_front() {
                if matches!(entry.kind, UndoKind::Snapshot(_)) {
                    self.snapshots -= 1;
                }
            }
        }
        self.log_offset += cut;
    }

    fn retained_records(&self) -> usize {
        self.log.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, CounterOp, KvOp, KvStore, ListOp, ReplayState, Script, ScriptOp};
    use bayou_types::{Dot, ReplicaId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn id(n: u64) -> ReqId {
        Dot::new(ReplicaId::new(0), n)
    }

    #[test]
    fn execute_and_lifo_rollback_match_replay() {
        let mut d = DeltaState::<KvStore>::new();
        let mut r = ReplayState::<KvStore>::new();
        for (i, op) in [
            KvOp::put("a", 1),
            KvOp::put("a", 2),
            KvOp::put_if_absent("a", 3),
            KvOp::remove("a"),
            KvOp::put_if_absent("a", 4),
        ]
        .iter()
        .enumerate()
        {
            assert_eq!(
                d.execute(id(i as u64 + 1), op),
                r.execute(id(i as u64 + 1), op)
            );
            assert_eq!(d.materialize(), r.materialize());
        }
        for i in (1..=5u64).rev() {
            d.rollback(id(i));
            r.rollback(id(i));
            assert_eq!(d.materialize(), r.materialize());
            assert_eq!(d.trace(), r.trace());
        }
        assert!(d.materialize().is_empty());
    }

    #[test]
    fn truncate_is_cheap_and_keeps_suffix_rollbackable() {
        let mut d = DeltaState::<Counter>::new();
        for i in 1..=100u64 {
            d.execute(id(i), &CounterOp::Add(1));
        }
        d.truncate_checkpoints(99);
        assert_eq!(d.retained_records(), 1);
        assert_eq!(d.trace(), &[id(100)], "the stable prefix's ids are gone");
        assert_eq!(d.trace_offset(), 99);
        d.rollback(id(100));
        assert_eq!(d.materialize(), 99);
        assert_eq!(d.len(), 99);
    }

    #[test]
    #[should_panic(expected = "non-LIFO rollback")]
    fn non_lifo_rollback_panics() {
        let mut d = DeltaState::<Counter>::new();
        d.execute(id(1), &CounterOp::Add(1));
        d.execute(id(2), &CounterOp::Add(2));
        d.rollback(id(1));
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn rollback_on_empty_panics() {
        let mut d = DeltaState::<Counter>::new();
        d.rollback(id(1));
    }

    #[test]
    fn no_snapshots_on_the_invertible_path() {
        let mut d = DeltaState::<KvStore>::new();
        for i in 1..=200u64 {
            d.execute(id(i), &KvOp::put(format!("k{}", i % 7), i as i64));
        }
        assert_eq!(d.snapshot_count(), 0, "shipped types never checkpoint");
    }

    // -- the non-invertible fallback, exercised through a test-only type --

    /// A Script whose multi-instruction programs refuse to produce undo
    /// records, forcing DeltaState onto the snapshot/replay path.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    struct Opaque;

    impl DataType for Opaque {
        type State = <Script as DataType>::State;
        type Op = ScriptOp;
        const NAME: &'static str = "opaque-script";
        fn apply(state: &mut Self::State, op: &Self::Op) -> Value {
            Script::apply(state, op)
        }
        fn is_read_only(op: &Self::Op) -> bool {
            Script::is_read_only(op)
        }
    }

    impl InvertibleDataType for Opaque {
        type Undo = <Script as InvertibleDataType>::Undo;
        fn apply_undoable(state: &mut Self::State, op: &Self::Op) -> Option<(Value, Self::Undo)> {
            if op.instrs.len() > 1 {
                return None; // pretend multi-instruction programs are opaque
            }
            Script::apply_undoable(state, op)
        }
        fn undo(state: &mut Self::State, undo: Self::Undo) {
            Script::undo(state, undo)
        }
    }

    #[test]
    fn fallback_snapshots_are_amortized() {
        let mut d = DeltaState::<Opaque>::new();
        let k = DeltaState::<Opaque>::SNAPSHOT_EVERY;
        for i in 0..(3 * k as u64) {
            d.execute(id(i + 1), &ScriptOp::incr("x", 1)); // non-invertible (2 instrs)
        }
        assert!(
            d.snapshot_count() <= 3 + 1,
            "snapshots not amortized: {} for {} opaque ops",
            d.snapshot_count(),
            3 * k
        );
    }

    #[test]
    fn fallback_equals_replay_under_random_lifo_schedules() {
        let mut rng = StdRng::seed_from_u64(0xDE17A);
        for _ in 0..30 {
            let mut d = DeltaState::<Opaque>::new();
            let mut r = ReplayState::<Opaque>::new();
            let mut live: Vec<ReqId> = Vec::new();
            let mut next = 1u64;
            for _ in 0..120 {
                if live.is_empty() || rng.gen_bool(0.6) {
                    let op = <Script as crate::RandomOp>::random_op(&mut rng);
                    let rid = id(next);
                    next += 1;
                    assert_eq!(d.execute(rid, &op), r.execute(rid, &op));
                    live.push(rid);
                } else {
                    let rid = live.pop().unwrap();
                    d.rollback(rid);
                    r.rollback(rid);
                }
                assert_eq!(d.materialize(), r.materialize());
                assert_eq!(d.trace(), r.trace());
            }
        }
    }

    #[test]
    fn truncate_never_strands_a_replay_entry() {
        let mut d = DeltaState::<Opaque>::new();
        // snapshot at entry 0, replay entries after it
        for i in 0..6u64 {
            d.execute(id(i + 1), &ScriptOp::incr("x", 1));
        }
        // a cut through the replay run must be pulled back to the snapshot
        d.truncate_checkpoints(3);
        let snap = d.materialize();
        d.rollback(id(6));
        d.rollback(id(5));
        d.rollback(id(4));
        let mut expect = snap;
        for _ in 0..3 {
            // each incr added 1 to x
            *expect.get_mut("x").unwrap() -= 1;
        }
        assert_eq!(d.materialize(), expect);
    }

    #[test]
    fn mixed_invertible_and_opaque_ops_round_trip() {
        let mut d = DeltaState::<Opaque>::new();
        let mut r = ReplayState::<Opaque>::new();
        let ops = [
            ScriptOp::write("a", 1), // invertible
            ScriptOp::incr("a", 5),  // opaque → snapshot
            ScriptOp::write("b", 2), // invertible, above a snapshot
            ScriptOp::incr("b", 1),  // opaque → replay
            ScriptOp::write("a", 9), // invertible
        ];
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(
                d.execute(id(i as u64 + 1), op),
                r.execute(id(i as u64 + 1), op)
            );
        }
        for i in (1..=ops.len() as u64).rev() {
            d.rollback(id(i));
            r.rollback(id(i));
            assert_eq!(d.materialize(), r.materialize());
        }
    }

    #[test]
    fn works_for_append_list_duplicate() {
        use crate::AppendList;
        let mut d = DeltaState::<AppendList>::new();
        d.execute(id(1), &ListOp::append("a"));
        d.execute(id(2), &ListOp::append("x"));
        let v = d.execute(id(3), &ListOp::Duplicate);
        assert_eq!(v, Value::from("axax"));
        d.rollback(id(3));
        assert_eq!(d.materialize(), vec!["a".to_string(), "x".to_string()]);
        assert_eq!(d.snapshot_count(), 0, "duplicate undoes via truncation");
    }
}
