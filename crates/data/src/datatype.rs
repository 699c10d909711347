//! The sequential replicated-data-type specification trait and helpers.

use bayou_types::Value;
use rand::Rng;
use std::fmt::Debug;

/// A replicated data type `F`, given as a deterministic *sequential*
/// specification.
///
/// An implementation defines the state space, the operation alphabet
/// `ops(F)`, the transition function [`DataType::apply`] and the read-only
/// subset `readonlyops(F)` ([`DataType::is_read_only`]).
///
/// Determinism is essential: Bayou replicas replay the same operation
/// sequence and must reach identical states and return values. The
/// checkers in `bayou-spec` recompute return values by replaying contexts
/// through this specification.
///
/// # Contract
///
/// * `apply` must be deterministic (same state + op ⇒ same value and
///   post-state).
/// * If `is_read_only(op)`, then `apply(state, op)` must not change
///   `state`. This is the paper's requirement that read-only operations
///   can be dropped from any context without affecting other return
///   values.
///
/// # Examples
///
/// ```
/// use bayou_data::{Counter, CounterOp, DataType};
/// use bayou_types::Value;
///
/// let mut s = 0i64;
/// Counter::apply(&mut s, &CounterOp::Add(5));
/// assert_eq!(Counter::apply(&mut s, &CounterOp::Read), Value::Int(5));
/// assert!(Counter::is_read_only(&CounterOp::Read));
/// ```
pub trait DataType: 'static {
    /// The state of one logical copy of the object.
    type State: Clone + Debug + Default + PartialEq + Send;
    /// The operation alphabet `ops(F)`.
    ///
    /// `Sync` because requests are shared (`Arc<Req<Op>>`) across the
    /// threads of the live runtime.
    type Op: Clone + Debug + PartialEq + Send + Sync;

    /// Human-readable name of the data type (used in reports).
    const NAME: &'static str;

    /// Executes `op` against `state`, mutating it in place, and returns
    /// the operation's return value.
    fn apply(state: &mut Self::State, op: &Self::Op) -> Value;

    /// Whether `op` belongs to `readonlyops(F)`.
    fn is_read_only(op: &Self::Op) -> bool;
}

/// Data types that can generate random operations for workloads and
/// property-based tests.
pub trait RandomOp: DataType {
    /// Draws a random operation from the type's alphabet.
    fn random_op<R: Rng + ?Sized>(rng: &mut R) -> Self::Op;

    /// Draws a random *updating* (non-read-only) operation.
    ///
    /// The default implementation rejection-samples [`RandomOp::random_op`];
    /// implementations whose alphabets are mostly read-only should
    /// override it.
    fn random_update<R: Rng + ?Sized>(rng: &mut R) -> Self::Op {
        loop {
            let op = Self::random_op(rng);
            if !Self::is_read_only(&op) {
                return op;
            }
        }
    }
}

/// Replays a sequence of operations from the initial state, returning the
/// final state and every return value.
///
/// # Examples
///
/// ```
/// use bayou_data::{replay, Counter, CounterOp};
/// use bayou_types::Value;
///
/// let (state, vals) = replay::<Counter>(&[CounterOp::Add(2), CounterOp::Read]);
/// assert_eq!(state, 2);
/// assert_eq!(vals, vec![Value::Unit, Value::Int(2)]);
/// ```
pub fn replay<F: DataType>(ops: &[F::Op]) -> (F::State, Vec<Value>) {
    let mut state = F::State::default();
    let vals = ops.iter().map(|op| F::apply(&mut state, op)).collect();
    (state, vals)
}

/// Applies a sequence of operations to an existing state, discarding the
/// return values.
pub fn apply_all<F: DataType>(state: &mut F::State, ops: &[F::Op]) {
    for op in ops {
        F::apply(state, op);
    }
}

/// The return value the specification prescribes for `op` when executed
/// after the (totally ordered) `context` of prior operations.
///
/// This is `F(op, C)` for the sequential contexts that arise in Bayou: the
/// checkers call it with either the final arbitration order (for `RVal`)
/// or the perceived order `par(e)` (for `FRVal`).
///
/// # Examples
///
/// ```
/// use bayou_data::{expected_value, AppendList, ListOp};
/// use bayou_types::Value;
///
/// let ctx = vec![ListOp::append("a"), ListOp::append("x")];
/// assert_eq!(
///     expected_value::<AppendList>(&ctx, &ListOp::Duplicate),
///     Value::from("axax")
/// );
/// ```
pub fn expected_value<F: DataType>(context: &[F::Op], op: &F::Op) -> Value {
    let mut state = F::State::default();
    apply_all::<F>(&mut state, context);
    F::apply(&mut state, op)
}

/// Tests whether two operations *commute* when executed after `prefix`:
/// both orders yield the same final state and the same pair of return
/// values.
///
/// Used by tests and benches to quantify how often temporary reordering
/// is actually observable for a given workload.
///
/// # Examples
///
/// ```
/// use bayou_data::{commutes, Counter, CounterOp};
///
/// assert!(commutes::<Counter>(&[], &CounterOp::Add(1), &CounterOp::Add(2)));
/// assert!(!commutes::<Counter>(
///     &[],
///     &CounterOp::Add(1),
///     &CounterOp::Read
/// ));
/// ```
pub fn commutes<F: DataType>(prefix: &[F::Op], a: &F::Op, b: &F::Op) -> bool {
    let mut s1 = F::State::default();
    apply_all::<F>(&mut s1, prefix);
    let mut s2 = s1.clone();

    let a1 = F::apply(&mut s1, a);
    let b1 = F::apply(&mut s1, b);

    let b2 = F::apply(&mut s2, b);
    let a2 = F::apply(&mut s2, a);

    s1 == s2 && a1 == a2 && b1 == b2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppendList, Counter, CounterOp, ListOp};
    use bayou_types::Value;

    #[test]
    fn replay_from_empty() {
        let (s, vals) = replay::<AppendList>(&[ListOp::append("a"), ListOp::Read]);
        assert_eq!(s, vec!["a".to_string()]);
        assert_eq!(vals, vec![Value::from("a"), Value::from("a")]);
    }

    #[test]
    fn expected_value_matches_figure_1() {
        // Figure 1: duplicate() evaluated after [append(a), append(x)] must
        // return "axax".
        let ctx = vec![ListOp::append("a"), ListOp::append("x")];
        assert_eq!(
            expected_value::<AppendList>(&ctx, &ListOp::Duplicate),
            Value::from("axax")
        );
        // ... whereas evaluated after [append(a)] alone it returns "aa".
        assert_eq!(
            expected_value::<AppendList>(&ctx[..1], &ListOp::Duplicate),
            Value::from("aa")
        );
    }

    #[test]
    fn counter_adds_commute_but_read_does_not() {
        assert!(commutes::<Counter>(
            &[CounterOp::Add(3)],
            &CounterOp::Add(1),
            &CounterOp::Add(2)
        ));
        assert!(!commutes::<Counter>(
            &[],
            &CounterOp::Add(1),
            &CounterOp::Read
        ));
    }

    #[test]
    fn appends_do_not_commute() {
        assert!(!commutes::<AppendList>(
            &[],
            &ListOp::append("a"),
            &ListOp::append("b")
        ));
    }

    #[test]
    fn apply_all_is_replay_without_values() {
        let ops = vec![CounterOp::Add(1), CounterOp::Add(41)];
        let mut s = 0i64;
        apply_all::<Counter>(&mut s, &ops);
        let (s2, _) = replay::<Counter>(&ops);
        assert_eq!(s, s2);
        assert_eq!(s, 42);
    }
}
