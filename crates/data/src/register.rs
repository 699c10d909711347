//! A read/write register.

use crate::datatype::{DataType, RandomOp};
use bayou_types::Value;
use rand::Rng;
use std::fmt;

/// A single integer read/write register.
///
/// This is the data type for which the paper notes (end of §5) that
/// achieving both `BEC(weak,F)` and `Seq(strong,F)` *is* possible — blind
/// writes return nothing, so temporary reordering of writes is not
/// observable through return values. It serves as the counterpoint to
/// [`crate::AppendList`] in tests of Theorem 1's scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RwRegister;

/// Operations of [`RwRegister`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegisterOp {
    /// Blind write; returns [`Value::Unit`].
    Write(i64),
    /// Returns the current value (0 initially).
    Read,
}

impl fmt::Display for RegisterOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterOp::Write(v) => write!(f, "write({v})"),
            RegisterOp::Read => f.write_str("read()"),
        }
    }
}

impl DataType for RwRegister {
    type State = i64;
    type Op = RegisterOp;

    const NAME: &'static str = "rw-register";

    fn apply(state: &mut Self::State, op: &Self::Op) -> Value {
        match op {
            RegisterOp::Write(v) => {
                *state = *v;
                Value::Unit
            }
            RegisterOp::Read => Value::Int(*state),
        }
    }

    fn is_read_only(op: &Self::Op) -> bool {
        matches!(op, RegisterOp::Read)
    }
}

impl crate::InvertibleDataType for RwRegister {
    /// The register value before the operation.
    type Undo = i64;

    fn apply_undoable(state: &mut Self::State, op: &Self::Op) -> Option<(Value, Self::Undo)> {
        let pre = *state;
        Some((Self::apply(state, op), pre))
    }

    fn undo(state: &mut Self::State, undo: Self::Undo) {
        *state = undo;
    }
}

impl RandomOp for RwRegister {
    fn random_op<R: Rng + ?Sized>(rng: &mut R) -> RegisterOp {
        if rng.gen_bool(0.5) {
            RegisterOp::Write(rng.gen_range(0..100))
        } else {
            RegisterOp::Read
        }
    }

    fn random_update<R: Rng + ?Sized>(rng: &mut R) -> RegisterOp {
        RegisterOp::Write(rng.gen_range(0..100))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read() {
        let mut s = 0i64;
        assert_eq!(
            RwRegister::apply(&mut s, &RegisterOp::Write(7)),
            Value::Unit
        );
        assert_eq!(RwRegister::apply(&mut s, &RegisterOp::Read), Value::Int(7));
    }

    #[test]
    fn last_write_wins() {
        let mut s = 0i64;
        RwRegister::apply(&mut s, &RegisterOp::Write(1));
        RwRegister::apply(&mut s, &RegisterOp::Write(2));
        assert_eq!(RwRegister::apply(&mut s, &RegisterOp::Read), Value::Int(2));
    }

    #[test]
    fn read_is_read_only() {
        assert!(RwRegister::is_read_only(&RegisterOp::Read));
        assert!(!RwRegister::is_read_only(&RegisterOp::Write(0)));
        let mut s = 42i64;
        RwRegister::apply(&mut s, &RegisterOp::Read);
        assert_eq!(s, 42);
    }

    #[test]
    fn blind_writes_hide_reordering() {
        // Two writes executed in either order return the same (Unit) values;
        // only a subsequent read can tell the orders apart. This is why the
        // single register admits BEC(weak)+Seq(strong) per §5.
        use crate::datatype::commutes;
        // Return values equal, final state differs => not commuting...
        assert!(!commutes::<RwRegister>(
            &[],
            &RegisterOp::Write(1),
            &RegisterOp::Write(2)
        ));
        // ...but the *observable* part (return values) is identical:
        let mut s1 = 0i64;
        let mut s2 = 0i64;
        let a1 = RwRegister::apply(&mut s1, &RegisterOp::Write(1));
        let b1 = RwRegister::apply(&mut s1, &RegisterOp::Write(2));
        let b2 = RwRegister::apply(&mut s2, &RegisterOp::Write(2));
        let a2 = RwRegister::apply(&mut s2, &RegisterOp::Write(1));
        assert_eq!((a1, b1), (a2, b2));
    }

    #[test]
    fn display() {
        assert_eq!(RegisterOp::Write(3).to_string(), "write(3)");
        assert_eq!(RegisterOp::Read.to_string(), "read()");
    }
}
