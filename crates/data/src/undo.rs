//! Algorithm 3: the referential undo-log `StateObject` and its
//! register-file program data type.
//!
//! The paper assumes "each operation can be specified as a composition of
//! read and write operations on registers together with some local
//! computation" (Appendix A.2.2). [`Script`] is exactly that operation
//! model, and [`UndoLogState`] is Algorithm 3 verbatim: a `db` register
//! file plus an `undoLog` that records, per request, the pre-image of
//! every register the request overwrote.

use crate::datatype::{DataType, RandomOp};
use crate::state_object::{StateObject, Trace};
use bayou_types::{ReqId, Value};
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// An expression evaluated during a [`Script`] program.
///
/// `Acc` refers to the value produced by the most recent `Read`
/// instruction of the same program (0 before any read) — the "local
/// computation" of the paper's operation model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A constant.
    Const(i64),
    /// The current value of a register (0 if absent).
    Load(String),
    /// The accumulator (last `Read` result).
    Acc,
    /// Accumulator plus a constant.
    AccPlus(i64),
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Load(k) => write!(f, "load({k})"),
            Expr::Acc => f.write_str("acc"),
            Expr::AccPlus(v) => write!(f, "acc+{v}"),
        }
    }
}

/// One instruction of a [`Script`] program (Algorithm 3's `read`/`write`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Reads a register into the accumulator; the value is also appended
    /// to the program's return list.
    Read(String),
    /// Writes the value of an expression to a register.
    Write(String, Expr),
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Read(k) => write!(f, "read {k}"),
            Instr::Write(k, e) => write!(f, "write {k} := {e}"),
        }
    }
}

/// A register-file *program*: an arbitrary deterministic transaction in
/// the instruction model of Algorithm 3.
///
/// The return value of a program is the list of values its `Read`
/// instructions observed, making execution order fully observable —
/// the adversarial case for temporary operation reordering.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ScriptOp {
    /// The instruction sequence.
    pub instrs: Vec<Instr>,
}

impl ScriptOp {
    /// Creates a program from instructions.
    pub fn new(instrs: Vec<Instr>) -> Self {
        ScriptOp { instrs }
    }

    /// A single blind write `k := v`.
    pub fn write(k: impl Into<String>, v: i64) -> Self {
        ScriptOp::new(vec![Instr::Write(k.into(), Expr::Const(v))])
    }

    /// A single read of `k`.
    pub fn read(k: impl Into<String>) -> Self {
        ScriptOp::new(vec![Instr::Read(k.into())])
    }

    /// A read-modify-write increment `k := k + delta`, returning the old
    /// value.
    pub fn incr(k: impl Into<String>, delta: i64) -> Self {
        let k = k.into();
        ScriptOp::new(vec![
            Instr::Read(k.clone()),
            Instr::Write(k, Expr::AccPlus(delta)),
        ])
    }

    /// A transfer: move `amount` from `src` to `dst` (no balance check),
    /// returning both old values.
    pub fn transfer(src: impl Into<String>, dst: impl Into<String>, amount: i64) -> Self {
        let src = src.into();
        let dst = dst.into();
        ScriptOp::new(vec![
            Instr::Read(src.clone()),
            Instr::Write(src, Expr::AccPlus(-amount)),
            Instr::Read(dst.clone()),
            Instr::Write(dst, Expr::AccPlus(amount)),
        ])
    }
}

impl fmt::Display for ScriptOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, ins) in self.instrs.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{ins}")?;
        }
        f.write_str("}")
    }
}

/// The [`DataType`] whose operations are [`ScriptOp`] programs over an
/// integer register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Script;

fn eval(db: &BTreeMap<String, i64>, acc: i64, e: &Expr) -> i64 {
    match e {
        Expr::Const(v) => *v,
        Expr::Load(k) => db.get(k).copied().unwrap_or(0),
        Expr::Acc => acc,
        Expr::AccPlus(v) => acc + v,
    }
}

impl DataType for Script {
    type State = BTreeMap<String, i64>;
    type Op = ScriptOp;

    const NAME: &'static str = "script";

    fn apply(state: &mut Self::State, op: &Self::Op) -> Value {
        let mut acc = 0i64;
        let mut reads = Vec::new();
        for ins in &op.instrs {
            match ins {
                Instr::Read(k) => {
                    acc = state.get(k).copied().unwrap_or(0);
                    reads.push(acc);
                }
                Instr::Write(k, e) => {
                    let v = eval(state, acc, e);
                    state.insert(k.clone(), v);
                }
            }
        }
        Value::ints(reads)
    }

    fn is_read_only(op: &Self::Op) -> bool {
        op.instrs.iter().all(|i| matches!(i, Instr::Read(_)))
    }
}

const REGS: [&str; 4] = ["r0", "r1", "r2", "r3"];

impl RandomOp for Script {
    fn random_op<R: Rng + ?Sized>(rng: &mut R) -> ScriptOp {
        let k = REGS[rng.gen_range(0..REGS.len())].to_string();
        match rng.gen_range(0..5) {
            0 => ScriptOp::read(k),
            1 | 2 => ScriptOp::write(k, rng.gen_range(0..100)),
            3 => ScriptOp::incr(k, rng.gen_range(1..10)),
            _ => {
                let dst = REGS[rng.gen_range(0..REGS.len())].to_string();
                ScriptOp::transfer(k, dst, rng.gen_range(1..10))
            }
        }
    }
}

/// Algorithm 3, verbatim: a register-file state object with an undo log.
///
/// `execute` records, in the request's `undoMap`, the previous value of
/// each register the *first* time the request overwrites it; `rollback`
/// restores those pre-images and drops the log entry. Rollback is LIFO,
/// as guaranteed by the protocol (see [`StateObject`]).
///
/// # Examples
///
/// ```
/// use bayou_data::{ScriptOp, StateObject, UndoLogState};
/// use bayou_types::{Dot, ReplicaId, Value};
///
/// let mut so = UndoLogState::new();
/// let id = Dot::new(ReplicaId::new(0), 1);
/// so.execute(id, &ScriptOp::write("x", 9));
/// assert_eq!(so.materialize()["x"], 9);
/// so.rollback(id);
/// assert!(so.materialize().get("x").is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct UndoLogState {
    db: BTreeMap<String, i64>,
    /// Pre-images per request: register → value before the request
    /// (or `None` when the register was absent).
    undo_log: BTreeMap<ReqId, BTreeMap<String, Option<i64>>>,
    /// The trace above the committed prefix, whose undo entries and ids
    /// were dropped together.
    trace: Trace,
}

impl UndoLogState {
    /// Creates an empty register file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of undo-log entries currently retained.
    pub fn undo_entries(&self) -> usize {
        self.undo_log.len()
    }

    /// Drops undo information for a request that has committed and can
    /// never be rolled back.
    pub fn forget(&mut self, id: ReqId) {
        self.undo_log.remove(&id);
    }
}

impl StateObject<Script> for UndoLogState {
    fn with_state(state: BTreeMap<String, i64>) -> Self {
        UndoLogState {
            db: state,
            ..Self::default()
        }
    }

    fn with_committed_prefix(state: BTreeMap<String, i64>, len: usize) -> Self {
        UndoLogState {
            db: state,
            undo_log: BTreeMap::new(),
            trace: Trace::starting_at(len),
        }
    }

    fn execute(&mut self, id: ReqId, op: &ScriptOp) -> Value {
        let mut undo_map: BTreeMap<String, Option<i64>> = BTreeMap::new();
        let mut acc = 0i64;
        let mut reads = Vec::new();
        for ins in &op.instrs {
            match ins {
                Instr::Read(k) => {
                    acc = self.db.get(k).copied().unwrap_or(0);
                    reads.push(acc);
                }
                Instr::Write(k, e) => {
                    let v = eval(&self.db, acc, e);
                    undo_map
                        .entry(k.clone())
                        .or_insert_with(|| self.db.get(k).copied());
                    self.db.insert(k.clone(), v);
                }
            }
        }
        self.undo_log.insert(id, undo_map);
        self.trace.push(id);
        Value::ints(reads)
    }

    fn rollback(&mut self, id: ReqId) {
        self.trace.pop(id);
        let undo_map = self
            .undo_log
            .remove(&id)
            .expect("no undo log entry for request being rolled back");
        for (k, pre) in undo_map {
            match pre {
                Some(v) => {
                    self.db.insert(k, v);
                }
                None => {
                    self.db.remove(&k);
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

    fn materialize(&self) -> BTreeMap<String, i64> {
        self.db.clone()
    }

    fn truncate_checkpoints(&mut self, committed_len: usize) {
        let k = committed_len
            .saturating_sub(self.trace.offset())
            .min(self.trace.live().len());
        for id in &self.trace.live()[..k] {
            self.undo_log.remove(id);
        }
        self.trace.drop_below(committed_len);
    }

    fn retained_records(&self) -> usize {
        self.undo_log.len()
    }
}

impl crate::delta::InvertibleDataType for Script {
    /// Register → pre-image (`None` when the register was absent),
    /// first-write-wins within one program — exactly Algorithm 3's
    /// `undoMap` entry.
    type Undo = BTreeMap<String, Option<i64>>;

    fn apply_undoable(state: &mut Self::State, op: &Self::Op) -> Option<(Value, Self::Undo)> {
        let mut undo_map: BTreeMap<String, Option<i64>> = BTreeMap::new();
        let mut acc = 0i64;
        let mut reads = Vec::new();
        for ins in &op.instrs {
            match ins {
                Instr::Read(k) => {
                    acc = state.get(k).copied().unwrap_or(0);
                    reads.push(acc);
                }
                Instr::Write(k, e) => {
                    let v = eval(state, acc, e);
                    undo_map
                        .entry(k.clone())
                        .or_insert_with(|| state.get(k).copied());
                    state.insert(k.clone(), v);
                }
            }
        }
        Some((Value::ints(reads), undo_map))
    }

    fn undo(state: &mut Self::State, undo: Self::Undo) {
        for (k, pre) in undo {
            match pre {
                Some(v) => {
                    state.insert(k, v);
                }
                None => {
                    state.remove(&k);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::replay;
    use crate::state_object::ReplayState;
    use bayou_types::{Dot, ReplicaId};

    fn id(n: u64) -> ReqId {
        Dot::new(ReplicaId::new(0), n)
    }

    #[test]
    fn script_semantics() {
        let (state, vals) = replay::<Script>(&[
            ScriptOp::write("x", 5),
            ScriptOp::incr("x", 3),
            ScriptOp::read("x"),
        ]);
        assert_eq!(state["x"], 8);
        assert_eq!(vals[1], Value::ints([5])); // incr returns the old value
        assert_eq!(vals[2], Value::ints([8]));
    }

    #[test]
    fn transfer_moves_funds() {
        let (state, vals) =
            replay::<Script>(&[ScriptOp::write("a", 10), ScriptOp::transfer("a", "b", 4)]);
        assert_eq!(state["a"], 6);
        assert_eq!(state["b"], 4);
        assert_eq!(vals[1], Value::ints([10, 0]));
    }

    #[test]
    fn read_only_detection() {
        assert!(Script::is_read_only(&ScriptOp::read("x")));
        assert!(!Script::is_read_only(&ScriptOp::write("x", 1)));
        assert!(!Script::is_read_only(&ScriptOp::incr("x", 1)));
    }

    #[test]
    fn undo_restores_overwritten_value() {
        let mut so = UndoLogState::new();
        so.execute(id(1), &ScriptOp::write("x", 1));
        so.execute(id(2), &ScriptOp::write("x", 2));
        so.rollback(id(2));
        assert_eq!(so.materialize()["x"], 1);
    }

    #[test]
    fn undo_removes_freshly_created_register() {
        let mut so = UndoLogState::new();
        so.execute(id(1), &ScriptOp::write("fresh", 7));
        so.rollback(id(1));
        assert!(so.materialize().is_empty());
    }

    #[test]
    fn undo_records_first_preimage_only() {
        // A program that writes the same register twice must restore the
        // value from *before the program*, not the intermediate one.
        let mut so = UndoLogState::new();
        so.execute(id(1), &ScriptOp::write("x", 100));
        let prog = ScriptOp::new(vec![
            Instr::Write("x".into(), Expr::Const(1)),
            Instr::Write("x".into(), Expr::Const(2)),
        ]);
        so.execute(id(2), &prog);
        assert_eq!(so.materialize()["x"], 2);
        so.rollback(id(2));
        assert_eq!(so.materialize()["x"], 100);
    }

    #[test]
    fn undo_log_state_matches_replay_state() {
        // Cross-validation: both StateObject implementations must agree on
        // every return value and on the state after arbitrary LIFO
        // execute/rollback interleavings.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xB105);
        for _ in 0..50 {
            let mut a = UndoLogState::new();
            let mut b = ReplayState::<Script>::new();
            let mut live: Vec<(ReqId, ScriptOp)> = Vec::new();
            let mut next = 1u64;
            for _ in 0..40 {
                if live.is_empty() || rng.gen_bool(0.65) {
                    let op = Script::random_op(&mut rng);
                    let rid = id(next);
                    next += 1;
                    let va = a.execute(rid, &op);
                    let vb = b.execute(rid, &op);
                    assert_eq!(va, vb);
                    live.push((rid, op));
                } else {
                    let (rid, _) = live.pop().unwrap();
                    a.rollback(rid);
                    b.rollback(rid);
                }
                assert_eq!(a.materialize(), b.materialize());
                assert_eq!(a.trace(), b.trace());
            }
        }
    }

    #[test]
    fn forget_drops_undo_entry() {
        let mut so = UndoLogState::new();
        so.execute(id(1), &ScriptOp::write("x", 1));
        assert_eq!(so.undo_entries(), 1);
        so.forget(id(1));
        assert_eq!(so.undo_entries(), 0);
    }

    #[test]
    #[should_panic(expected = "non-LIFO rollback")]
    fn non_lifo_rollback_panics() {
        let mut so = UndoLogState::new();
        so.execute(id(1), &ScriptOp::write("x", 1));
        so.execute(id(2), &ScriptOp::write("x", 2));
        so.rollback(id(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ScriptOp::write("x", 3).to_string(), "{write x := 3}");
        assert_eq!(
            ScriptOp::incr("x", 2).to_string(),
            "{read x; write x := acc+2}"
        );
    }
}
