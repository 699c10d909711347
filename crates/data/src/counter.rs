//! A replicated counter.

use crate::datatype::{DataType, RandomOp};
use bayou_types::Value;
use rand::Rng;
use std::fmt;

/// A replicated integer counter.
///
/// Additions commute with each other, so a pure-`Add` workload never
/// exhibits observable reordering; mixing in `Read` or `AddAndGet` makes
/// the execution order observable again. Useful for calibrating the
/// anomaly-rate experiments (A3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter;

/// Operations of [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterOp {
    /// Blind increment (may be negative); returns [`Value::Unit`].
    Add(i64),
    /// Increment and return the resulting value.
    AddAndGet(i64),
    /// Returns the current value.
    Read,
}

impl fmt::Display for CounterOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterOp::Add(v) => write!(f, "add({v})"),
            CounterOp::AddAndGet(v) => write!(f, "addAndGet({v})"),
            CounterOp::Read => f.write_str("read()"),
        }
    }
}

impl DataType for Counter {
    type State = i64;
    type Op = CounterOp;

    const NAME: &'static str = "counter";

    fn apply(state: &mut Self::State, op: &Self::Op) -> Value {
        match op {
            CounterOp::Add(v) => {
                *state = state.wrapping_add(*v);
                Value::Unit
            }
            CounterOp::AddAndGet(v) => {
                *state = state.wrapping_add(*v);
                Value::Int(*state)
            }
            CounterOp::Read => Value::Int(*state),
        }
    }

    fn is_read_only(op: &Self::Op) -> bool {
        matches!(op, CounterOp::Read)
    }
}

impl crate::InvertibleDataType for Counter {
    /// The applied increment; undo subtracts it back (wrapping, matching
    /// `apply`).
    type Undo = i64;

    fn apply_undoable(state: &mut Self::State, op: &Self::Op) -> Option<(Value, Self::Undo)> {
        Some(match op {
            CounterOp::Add(v) => {
                *state = state.wrapping_add(*v);
                (Value::Unit, *v)
            }
            CounterOp::AddAndGet(v) => {
                *state = state.wrapping_add(*v);
                (Value::Int(*state), *v)
            }
            CounterOp::Read => (Value::Int(*state), 0),
        })
    }

    fn undo(state: &mut Self::State, undo: Self::Undo) {
        *state = state.wrapping_sub(undo);
    }
}

impl RandomOp for Counter {
    fn random_op<R: Rng + ?Sized>(rng: &mut R) -> CounterOp {
        match rng.gen_range(0..4) {
            0 | 1 => CounterOp::Add(rng.gen_range(1..10)),
            2 => CounterOp::AddAndGet(rng.gen_range(1..10)),
            _ => CounterOp::Read,
        }
    }

    fn random_update<R: Rng + ?Sized>(rng: &mut R) -> CounterOp {
        if rng.gen_bool(0.5) {
            CounterOp::Add(rng.gen_range(1..10))
        } else {
            CounterOp::AddAndGet(rng.gen_range(1..10))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::commutes;

    #[test]
    fn add_then_read() {
        let mut s = 0i64;
        assert_eq!(Counter::apply(&mut s, &CounterOp::Add(3)), Value::Unit);
        assert_eq!(Counter::apply(&mut s, &CounterOp::Read), Value::Int(3));
    }

    #[test]
    fn add_and_get_returns_running_total() {
        let mut s = 0i64;
        assert_eq!(
            Counter::apply(&mut s, &CounterOp::AddAndGet(2)),
            Value::Int(2)
        );
        assert_eq!(
            Counter::apply(&mut s, &CounterOp::AddAndGet(5)),
            Value::Int(7)
        );
    }

    #[test]
    fn blind_adds_commute_observable_adds_do_not() {
        assert!(commutes::<Counter>(
            &[],
            &CounterOp::Add(1),
            &CounterOp::Add(2)
        ));
        assert!(!commutes::<Counter>(
            &[],
            &CounterOp::AddAndGet(1),
            &CounterOp::AddAndGet(2)
        ));
    }

    #[test]
    fn negative_adds_and_wrapping() {
        let mut s = 0i64;
        Counter::apply(&mut s, &CounterOp::Add(-5));
        assert_eq!(s, -5);
        let mut m = i64::MAX;
        Counter::apply(&mut m, &CounterOp::Add(1));
        assert_eq!(m, i64::MIN); // wrapping, never panics
    }

    #[test]
    fn read_only_classification() {
        assert!(Counter::is_read_only(&CounterOp::Read));
        assert!(!Counter::is_read_only(&CounterOp::Add(0)));
        assert!(!Counter::is_read_only(&CounterOp::AddAndGet(0)));
    }
}
