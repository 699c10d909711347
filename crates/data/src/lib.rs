//! Replicated data types and state objects for the Bayou Revisited
//! reproduction.
//!
//! The paper models system semantics as a replicated data type `F`: a
//! specification that, for every operation and every *operation context*
//! (the set of previously-visible operations plus their arbitration order),
//! defines the correct return value. Because Bayou executes all operations
//! sequentially on every replica, a *sequential* specification suffices
//! (§3.4, footnote 5): the context is always a totally-ordered list of
//! operations, and the correct return value is obtained by replaying that
//! list. The [`DataType`] trait captures exactly this.
//!
//! The crate provides:
//!
//! * a family of concrete data types used throughout the reproduction —
//!   [`AppendList`] (the list of Figures 1 and 2, with `append` and
//!   `duplicate`), [`RwRegister`], [`Counter`], [`KvStore`] (with
//!   `putIfAbsent`, the paper's motivating strong operation),
//!   [`AddRemoveSet`], [`Bank`] and [`Calendar`] (Bayou's original
//!   meeting-scheduler application), and [`Script`] — a register-file
//!   program type matching the instruction model of Algorithm 3;
//! * the [`StateObject`] abstraction of Algorithm 1 (`state.execute` /
//!   `state.rollback`) with three implementations: [`DeltaState`]
//!   (per-operation inverse deltas — the replica's default),
//!   [`ReplayState`] (checkpoint-per-execute, works for arbitrary `F`)
//!   and [`UndoLogState`] (Algorithm 3, verbatim, for [`Script`] only);
//! * helpers to replay contexts and compute specification-prescribed
//!   return values, used by the correctness checkers in `bayou-spec`.
//!
//! # Choosing a `StateObject`
//!
//! All three implementations are interchangeable — the equivalence
//! property tests in `tests/proptests.rs` hold them to identical
//! responses, traces and materialised states under arbitrary LIFO
//! schedules — but their cost profiles differ sharply:
//!
//! | implementation | execute | rollback | memory per speculative op | applies to |
//! |----------------|---------|----------|---------------------------|------------|
//! | [`DeltaState`] (undo deltas) | O(op) | O(op) | O(op) undo record | any [`InvertibleDataType`] |
//! | [`DeltaState`] (fallback path) | amortised O(op + state/K) | O(K·op + state) | O(op), one snapshot per K ops | non-invertible ops |
//! | [`ReplayState`] (checkpoints) | **O(state)** clone | O(1) swap | **O(state)** clone | any [`DataType`] |
//! | [`UndoLogState`] (Algorithm 3) | O(op) | O(op) | O(registers written) | [`Script`] only |
//!
//! `ReplayState` is the simplest possible reference implementation and
//! the yardstick the others are verified against; it is also the only
//! choice for a data type with no [`InvertibleDataType`] impl at all.
//! `DeltaState` is the default everywhere else: on a 10⁴-key
//! [`KvStore`], execute+rollback is orders of magnitude faster than
//! checkpointing (see `crates/bench/benches/state_object.rs` and
//! `BENCH_PR1.json`), and — unlike checkpointing — its cost does not
//! grow as the store grows. `UndoLogState` remains as the paper-faithful
//! register-file original of the idea; [`DeltaState<Script>`] subsumes
//! it.
//!
//! # Examples
//!
//! ```
//! use bayou_data::{AppendList, DataType, ListOp};
//! use bayou_types::Value;
//!
//! let mut s = <AppendList as DataType>::State::default();
//! assert_eq!(AppendList::apply(&mut s, &ListOp::append("a")), Value::from("a"));
//! assert_eq!(AppendList::apply(&mut s, &ListOp::append("x")), Value::from("ax"));
//! assert_eq!(AppendList::apply(&mut s, &ListOp::Duplicate), Value::from("axax"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod calendar;
mod counter;
mod datatype;
mod delta;
mod kv;
mod list;
mod register;
mod set;
mod state_object;
mod undo;
mod wire;

pub use bank::{Bank, BankOp, BankUndo};
pub use calendar::{Calendar, CalendarOp, CalendarUndo};
pub use counter::{Counter, CounterOp};
pub use datatype::{apply_all, commutes, expected_value, replay, DataType, RandomOp};
pub use delta::{DeltaState, InvertibleDataType, MapRestore};
pub use kv::{KvOp, KvStore, KvUndo};
pub use list::{AppendList, ListOp};
pub use register::{RegisterOp, RwRegister};
pub use set::{AddRemoveSet, SetOp, SetUndo};
pub use state_object::{ReplayState, StateObject};
pub use undo::{Expr, Instr, Script, ScriptOp, UndoLogState};
pub use wire::KvOpView;
