//! The replicated append-only list of Figures 1 and 2.

use crate::datatype::{DataType, RandomOp};
use bayou_types::Value;
use rand::Rng;
use std::fmt;

/// The replicated list used throughout the paper's examples.
///
/// `append` and `duplicate` return the *modified state of the list* (as in
/// Figure 1: `append(a) → a`, `append(x) → aax`, `duplicate() → axax`),
/// which is what makes temporary operation reordering observable:
/// the return value reveals the whole execution order so far.
///
/// `duplicate()` is equivalent to atomically executing `append(read())`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppendList;

/// Operations of [`AppendList`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ListOp {
    /// Appends an element; returns the resulting list contents.
    Append(String),
    /// Appends the current contents of the list to itself
    /// (`append(read())` executed atomically); returns the result.
    Duplicate,
    /// Returns the list contents without modifying them.
    Read,
    /// Returns the first element, or [`Value::None`] when empty.
    GetFirst,
    /// Returns the number of elements.
    Size,
}

impl ListOp {
    /// Convenience constructor for [`ListOp::Append`].
    ///
    /// # Examples
    ///
    /// ```
    /// use bayou_data::ListOp;
    /// assert_eq!(ListOp::append("a"), ListOp::Append("a".into()));
    /// ```
    pub fn append(s: impl Into<String>) -> ListOp {
        ListOp::Append(s.into())
    }
}

impl fmt::Display for ListOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ListOp::Append(s) => write!(f, "append({s})"),
            ListOp::Duplicate => f.write_str("duplicate()"),
            ListOp::Read => f.write_str("read()"),
            ListOp::GetFirst => f.write_str("getFirst()"),
            ListOp::Size => f.write_str("size()"),
        }
    }
}

fn joined(state: &[String]) -> Value {
    Value::Str(state.concat())
}

impl DataType for AppendList {
    type State = Vec<String>;
    type Op = ListOp;

    const NAME: &'static str = "append-list";

    fn apply(state: &mut Self::State, op: &Self::Op) -> Value {
        match op {
            ListOp::Append(s) => {
                state.push(s.clone());
                joined(state)
            }
            ListOp::Duplicate => {
                let copy = state.clone();
                state.extend(copy);
                joined(state)
            }
            ListOp::Read => joined(state),
            ListOp::GetFirst => state
                .first()
                .map(|s| Value::Str(s.clone()))
                .unwrap_or(Value::None),
            ListOp::Size => Value::Int(state.len() as i64),
        }
    }

    fn is_read_only(op: &Self::Op) -> bool {
        matches!(op, ListOp::Read | ListOp::GetFirst | ListOp::Size)
    }
}

impl crate::InvertibleDataType for AppendList {
    /// The list length before the operation; every [`ListOp`] only ever
    /// appends, so undo truncates back to it (`duplicate` included).
    type Undo = usize;

    fn apply_undoable(state: &mut Self::State, op: &Self::Op) -> Option<(Value, Self::Undo)> {
        let pre_len = state.len();
        Some((Self::apply(state, op), pre_len))
    }

    fn undo(state: &mut Self::State, undo: Self::Undo) {
        state.truncate(undo);
    }
}

const ALPHABET: [&str; 6] = ["a", "b", "c", "x", "y", "z"];

impl RandomOp for AppendList {
    fn random_op<R: Rng + ?Sized>(rng: &mut R) -> ListOp {
        match rng.gen_range(0..10) {
            0..=4 => ListOp::Append(ALPHABET[rng.gen_range(0..ALPHABET.len())].to_string()),
            5 => ListOp::Duplicate,
            6..=7 => ListOp::Read,
            8 => ListOp::GetFirst,
            _ => ListOp::Size,
        }
    }

    fn random_update<R: Rng + ?Sized>(rng: &mut R) -> ListOp {
        if rng.gen_range(0..6) == 0 {
            ListOp::Duplicate
        } else {
            ListOp::Append(ALPHABET[rng.gen_range(0..ALPHABET.len())].to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::replay;

    #[test]
    fn figure_1_return_values() {
        let mut s = Vec::new();
        assert_eq!(
            AppendList::apply(&mut s, &ListOp::append("a")),
            Value::from("a")
        );
        assert_eq!(
            AppendList::apply(&mut s, &ListOp::append("x")),
            Value::from("ax")
        );
        assert_eq!(
            AppendList::apply(&mut s, &ListOp::Duplicate),
            Value::from("axax")
        );
    }

    #[test]
    fn figure_1_tentative_order() {
        // R1's speculative order in Figure 1: append(a), duplicate, append(x)
        // yields the tentative response "aax" for append(x).
        let (_, vals) =
            replay::<AppendList>(&[ListOp::append("a"), ListOp::Duplicate, ListOp::append("x")]);
        assert_eq!(vals[2], Value::from("aax"));
    }

    #[test]
    fn duplicate_equals_append_read() {
        let prefix = [ListOp::append("a"), ListOp::append("b")];
        let (mut s1, _) = replay::<AppendList>(&prefix);
        let (mut s2, _) = replay::<AppendList>(&prefix);

        let v1 = AppendList::apply(&mut s1, &ListOp::Duplicate);
        // append(read()):
        let read = AppendList::apply(&mut s2, &ListOp::Read);
        let v2 = AppendList::apply(&mut s2, &ListOp::Append(read.as_str().unwrap().to_string()));
        assert_eq!(s1.concat(), s2.concat());
        assert_eq!(v1, v2);
    }

    #[test]
    fn read_only_ops_do_not_mutate() {
        let (mut s, _) = replay::<AppendList>(&[ListOp::append("q")]);
        let before = s.clone();
        for op in [ListOp::Read, ListOp::GetFirst, ListOp::Size] {
            assert!(AppendList::is_read_only(&op));
            AppendList::apply(&mut s, &op);
            assert_eq!(s, before);
        }
    }

    #[test]
    fn get_first_and_size() {
        let mut s = Vec::new();
        assert_eq!(AppendList::apply(&mut s, &ListOp::GetFirst), Value::None);
        assert_eq!(AppendList::apply(&mut s, &ListOp::Size), Value::Int(0));
        AppendList::apply(&mut s, &ListOp::append("m"));
        AppendList::apply(&mut s, &ListOp::append("n"));
        assert_eq!(
            AppendList::apply(&mut s, &ListOp::GetFirst),
            Value::from("m")
        );
        assert_eq!(AppendList::apply(&mut s, &ListOp::Size), Value::Int(2));
    }

    #[test]
    fn display() {
        assert_eq!(ListOp::append("a").to_string(), "append(a)");
        assert_eq!(ListOp::Duplicate.to_string(), "duplicate()");
    }

    #[test]
    fn random_update_is_never_read_only() {
        let mut rng = rand::rngs::mock::StepRng::new(0, 0x9E3779B97F4A7C15);
        for _ in 0..64 {
            let op = AppendList::random_update(&mut rng);
            assert!(!AppendList::is_read_only(&op));
        }
    }
}
