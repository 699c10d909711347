//! Bank accounts with overdraft protection.

use crate::datatype::{DataType, RandomOp};
use bayou_types::Value;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// A set of bank accounts.
///
/// `withdraw` refuses to overdraw: it returns `false` and leaves the
/// balance untouched when funds are insufficient. Executed as a *weak*
/// operation, a tentatively-successful withdrawal can still be invalidated
/// by the final order (two replicas both spend the same money during a
/// partition); executed as a *strong* operation the response is stable.
/// The `examples/bank.rs` binary demonstrates the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Bank;

/// Operations of [`Bank`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BankOp {
    /// Adds funds to an account (created on first use); returns the new
    /// balance.
    Deposit(String, i64),
    /// Withdraws funds if the balance suffices; returns
    /// [`Value::Bool`]`(success)`.
    Withdraw(String, i64),
    /// Returns the balance (0 for unknown accounts).
    Balance(String),
    /// Returns the sum of all balances.
    Total,
}

impl BankOp {
    /// Convenience constructor for [`BankOp::Deposit`].
    pub fn deposit(acct: impl Into<String>, amount: i64) -> BankOp {
        BankOp::Deposit(acct.into(), amount)
    }

    /// Convenience constructor for [`BankOp::Withdraw`].
    pub fn withdraw(acct: impl Into<String>, amount: i64) -> BankOp {
        BankOp::Withdraw(acct.into(), amount)
    }

    /// Convenience constructor for [`BankOp::Balance`].
    pub fn balance(acct: impl Into<String>) -> BankOp {
        BankOp::Balance(acct.into())
    }
}

impl fmt::Display for BankOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BankOp::Deposit(a, v) => write!(f, "deposit({a}, {v})"),
            BankOp::Withdraw(a, v) => write!(f, "withdraw({a}, {v})"),
            BankOp::Balance(a) => write!(f, "balance({a})"),
            BankOp::Total => f.write_str("total()"),
        }
    }
}

impl DataType for Bank {
    type State = BTreeMap<String, i64>;
    type Op = BankOp;

    const NAME: &'static str = "bank";

    fn apply(state: &mut Self::State, op: &Self::Op) -> Value {
        match op {
            BankOp::Deposit(a, v) => {
                let b = state.entry(a.clone()).or_insert(0);
                *b += v;
                Value::Int(*b)
            }
            BankOp::Withdraw(a, v) => {
                let b = state.entry(a.clone()).or_insert(0);
                if *b >= *v {
                    *b -= v;
                    Value::Bool(true)
                } else {
                    Value::Bool(false)
                }
            }
            BankOp::Balance(a) => Value::Int(state.get(a).copied().unwrap_or(0)),
            BankOp::Total => Value::Int(state.values().sum()),
        }
    }

    fn is_read_only(op: &Self::Op) -> bool {
        matches!(op, BankOp::Balance(_) | BankOp::Total)
    }
}

/// Inverse record of one [`Bank`] operation: the touched account's
/// previous balance (`None` = the account did not exist — `deposit` and
/// `withdraw` create accounts en passant via `entry(..).or_insert(0)`,
/// and undo must remove them again for exact state equality).
pub type BankUndo = crate::delta::MapRestore<i64>;

impl crate::InvertibleDataType for Bank {
    type Undo = BankUndo;

    fn apply_undoable(state: &mut Self::State, op: &Self::Op) -> Option<(Value, Self::Undo)> {
        Some(match op {
            BankOp::Deposit(a, _) | BankOp::Withdraw(a, _) => {
                let prev = state.get(a).copied();
                (Self::apply(state, op), BankUndo::Restore(a.clone(), prev))
            }
            BankOp::Balance(_) | BankOp::Total => (Self::apply(state, op), BankUndo::Nothing),
        })
    }

    fn undo(state: &mut Self::State, undo: Self::Undo) {
        undo.apply_to(state);
    }
}

const ACCOUNTS: [&str; 3] = ["alice", "bob", "carol"];

impl RandomOp for Bank {
    fn random_op<R: Rng + ?Sized>(rng: &mut R) -> BankOp {
        let a = ACCOUNTS[rng.gen_range(0..ACCOUNTS.len())].to_string();
        match rng.gen_range(0..8) {
            0..=2 => BankOp::Deposit(a, rng.gen_range(1..50)),
            3..=5 => BankOp::Withdraw(a, rng.gen_range(1..50)),
            6 => BankOp::Balance(a),
            _ => BankOp::Total,
        }
    }

    fn random_update<R: Rng + ?Sized>(rng: &mut R) -> BankOp {
        let a = ACCOUNTS[rng.gen_range(0..ACCOUNTS.len())].to_string();
        if rng.gen_bool(0.5) {
            BankOp::Deposit(a, rng.gen_range(1..50))
        } else {
            BankOp::Withdraw(a, rng.gen_range(1..50))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deposit_and_balance() {
        let mut s = BTreeMap::new();
        assert_eq!(
            Bank::apply(&mut s, &BankOp::deposit("alice", 100)),
            Value::Int(100)
        );
        assert_eq!(
            Bank::apply(&mut s, &BankOp::deposit("alice", 50)),
            Value::Int(150)
        );
        assert_eq!(
            Bank::apply(&mut s, &BankOp::balance("alice")),
            Value::Int(150)
        );
        assert_eq!(Bank::apply(&mut s, &BankOp::balance("bob")), Value::Int(0));
    }

    #[test]
    fn withdraw_respects_overdraft_protection() {
        let mut s = BTreeMap::new();
        Bank::apply(&mut s, &BankOp::deposit("bob", 30));
        assert_eq!(
            Bank::apply(&mut s, &BankOp::withdraw("bob", 20)),
            Value::Bool(true)
        );
        assert_eq!(
            Bank::apply(&mut s, &BankOp::withdraw("bob", 20)),
            Value::Bool(false)
        );
        assert_eq!(Bank::apply(&mut s, &BankOp::balance("bob")), Value::Int(10));
    }

    #[test]
    fn concurrent_withdrawals_conflict() {
        // the double-spend scenario: two withdrawals of 30 from a balance of
        // 40 cannot both succeed in any order — order decides which one wins.
        use crate::datatype::commutes;
        let prefix = [BankOp::deposit("carol", 40)];
        assert!(!commutes::<Bank>(
            &prefix,
            &BankOp::withdraw("carol", 30),
            &BankOp::withdraw("carol", 30)
        ));
    }

    #[test]
    fn total_sums_accounts() {
        let mut s = BTreeMap::new();
        Bank::apply(&mut s, &BankOp::deposit("a", 5));
        Bank::apply(&mut s, &BankOp::deposit("b", 7));
        assert_eq!(Bank::apply(&mut s, &BankOp::Total), Value::Int(12));
    }

    #[test]
    fn read_only_classification() {
        assert!(Bank::is_read_only(&BankOp::balance("x")));
        assert!(Bank::is_read_only(&BankOp::Total));
        assert!(!Bank::is_read_only(&BankOp::deposit("x", 1)));
        assert!(!Bank::is_read_only(&BankOp::withdraw("x", 1)));
    }
}
