//! An add/remove set.

use crate::datatype::{DataType, RandomOp};
use bayou_types::Value;
use rand::Rng;
use std::collections::BTreeSet;
use std::fmt;

/// A replicated set with add/remove/contains, interpreted sequentially.
///
/// The paper (§3.4) notes that genuinely concurrent semantics such as the
/// OR-Set cannot be captured by a sequential specification; Bayou,
/// however, executes all operations sequentially on every replica, so the
/// *sequential* set below is the semantics a Bayou deployment of a set
/// actually provides. Under temporary reordering, an `add` may be
/// observed before the `remove` that the final order places first — which
/// is exactly the class of anomaly the FEC checker quantifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AddRemoveSet;

/// Operations of [`AddRemoveSet`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SetOp {
    /// Adds an element; returns `true` iff it was not already present.
    Add(String),
    /// Removes an element; returns `true` iff it was present.
    Remove(String),
    /// Returns whether the element is present.
    Contains(String),
    /// Returns the sorted elements.
    Elements,
}

impl SetOp {
    /// Convenience constructor for [`SetOp::Add`].
    pub fn add(e: impl Into<String>) -> SetOp {
        SetOp::Add(e.into())
    }

    /// Convenience constructor for [`SetOp::Remove`].
    pub fn remove(e: impl Into<String>) -> SetOp {
        SetOp::Remove(e.into())
    }

    /// Convenience constructor for [`SetOp::Contains`].
    pub fn contains(e: impl Into<String>) -> SetOp {
        SetOp::Contains(e.into())
    }
}

impl fmt::Display for SetOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetOp::Add(e) => write!(f, "add({e})"),
            SetOp::Remove(e) => write!(f, "remove({e})"),
            SetOp::Contains(e) => write!(f, "contains({e})"),
            SetOp::Elements => f.write_str("elements()"),
        }
    }
}

impl DataType for AddRemoveSet {
    type State = BTreeSet<String>;
    type Op = SetOp;

    const NAME: &'static str = "add-remove-set";

    fn apply(state: &mut Self::State, op: &Self::Op) -> Value {
        match op {
            SetOp::Add(e) => Value::Bool(state.insert(e.clone())),
            SetOp::Remove(e) => Value::Bool(state.remove(e)),
            SetOp::Contains(e) => Value::Bool(state.contains(e)),
            SetOp::Elements => Value::strs(state.iter().cloned()),
        }
    }

    fn is_read_only(op: &Self::Op) -> bool {
        matches!(op, SetOp::Contains(_) | SetOp::Elements)
    }
}

/// Inverse record of one [`AddRemoveSet`] operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetUndo {
    /// Membership did not change.
    Nothing,
    /// The element was inserted; undo removes it.
    Uninsert(String),
    /// The element was removed; undo re-inserts it.
    Reinsert(String),
}

impl crate::InvertibleDataType for AddRemoveSet {
    type Undo = SetUndo;

    fn apply_undoable(state: &mut Self::State, op: &Self::Op) -> Option<(Value, Self::Undo)> {
        Some(match op {
            SetOp::Add(e) => {
                if state.insert(e.clone()) {
                    (Value::Bool(true), SetUndo::Uninsert(e.clone()))
                } else {
                    (Value::Bool(false), SetUndo::Nothing)
                }
            }
            SetOp::Remove(e) => {
                if state.remove(e) {
                    (Value::Bool(true), SetUndo::Reinsert(e.clone()))
                } else {
                    (Value::Bool(false), SetUndo::Nothing)
                }
            }
            SetOp::Contains(_) | SetOp::Elements => (Self::apply(state, op), SetUndo::Nothing),
        })
    }

    fn undo(state: &mut Self::State, undo: Self::Undo) {
        match undo {
            SetUndo::Nothing => {}
            SetUndo::Uninsert(e) => {
                state.remove(&e);
            }
            SetUndo::Reinsert(e) => {
                state.insert(e);
            }
        }
    }
}

const ELEMS: [&str; 4] = ["e0", "e1", "e2", "e3"];

impl RandomOp for AddRemoveSet {
    fn random_op<R: Rng + ?Sized>(rng: &mut R) -> SetOp {
        let e = ELEMS[rng.gen_range(0..ELEMS.len())].to_string();
        match rng.gen_range(0..8) {
            0..=3 => SetOp::Add(e),
            4..=5 => SetOp::Remove(e),
            6 => SetOp::Contains(e),
            _ => SetOp::Elements,
        }
    }

    fn random_update<R: Rng + ?Sized>(rng: &mut R) -> SetOp {
        let e = ELEMS[rng.gen_range(0..ELEMS.len())].to_string();
        if rng.gen_bool(0.6) {
            SetOp::Add(e)
        } else {
            SetOp::Remove(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_contains() {
        let mut s = BTreeSet::new();
        assert_eq!(
            AddRemoveSet::apply(&mut s, &SetOp::add("a")),
            Value::Bool(true)
        );
        assert_eq!(
            AddRemoveSet::apply(&mut s, &SetOp::add("a")),
            Value::Bool(false)
        );
        assert_eq!(
            AddRemoveSet::apply(&mut s, &SetOp::contains("a")),
            Value::Bool(true)
        );
        assert_eq!(
            AddRemoveSet::apply(&mut s, &SetOp::remove("a")),
            Value::Bool(true)
        );
        assert_eq!(
            AddRemoveSet::apply(&mut s, &SetOp::remove("a")),
            Value::Bool(false)
        );
    }

    #[test]
    fn elements_sorted() {
        let mut s = BTreeSet::new();
        AddRemoveSet::apply(&mut s, &SetOp::add("z"));
        AddRemoveSet::apply(&mut s, &SetOp::add("a"));
        assert_eq!(
            AddRemoveSet::apply(&mut s, &SetOp::Elements),
            Value::strs(["a", "z"])
        );
    }

    #[test]
    fn add_remove_order_matters() {
        use crate::datatype::commutes;
        assert!(!commutes::<AddRemoveSet>(
            &[],
            &SetOp::add("x"),
            &SetOp::remove("x")
        ));
        assert!(commutes::<AddRemoveSet>(
            &[],
            &SetOp::add("x"),
            &SetOp::add("y")
        ));
    }

    #[test]
    fn read_only_classification() {
        assert!(AddRemoveSet::is_read_only(&SetOp::contains("a")));
        assert!(AddRemoveSet::is_read_only(&SetOp::Elements));
        assert!(!AddRemoveSet::is_read_only(&SetOp::add("a")));
        assert!(!AddRemoveSet::is_read_only(&SetOp::remove("a")));
    }
}
