//! A key-value store with `putIfAbsent`.

use crate::datatype::{DataType, RandomOp};
use bayou_types::Value;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// A string-keyed key-value store.
///
/// `putIfAbsent` is the paper's §1 motivating example of an operation that
/// "requires the ability to solve distributed consensus" to be meaningful:
/// executed weakly, two concurrent `putIfAbsent` calls on the same key may
/// *both* tentatively succeed, and one of the success responses will be
/// invalidated by the final execution order. Executed strongly, exactly
/// one succeeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvStore;

/// Operations of [`KvStore`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KvOp {
    /// Returns the value bound to the key, or [`Value::None`].
    Get(String),
    /// Binds the key; returns the previous value or [`Value::None`].
    Put(String, i64),
    /// Binds the key only if currently absent; returns
    /// [`Value::Bool`]`(true)` iff the binding was created.
    PutIfAbsent(String, i64),
    /// Removes the key; returns the removed value or [`Value::None`].
    Remove(String),
    /// Returns the sorted list of keys.
    Keys,
    /// Returns the number of bindings.
    Size,
}

impl KvOp {
    /// Convenience constructor for [`KvOp::Get`].
    pub fn get(k: impl Into<String>) -> KvOp {
        KvOp::Get(k.into())
    }

    /// Convenience constructor for [`KvOp::Put`].
    pub fn put(k: impl Into<String>, v: i64) -> KvOp {
        KvOp::Put(k.into(), v)
    }

    /// Convenience constructor for [`KvOp::PutIfAbsent`].
    pub fn put_if_absent(k: impl Into<String>, v: i64) -> KvOp {
        KvOp::PutIfAbsent(k.into(), v)
    }

    /// Convenience constructor for [`KvOp::Remove`].
    pub fn remove(k: impl Into<String>) -> KvOp {
        KvOp::Remove(k.into())
    }

    /// The key this operation addresses, if it addresses one. Keyless
    /// operations ([`KvOp::Keys`], [`KvOp::Size`]) return `None`; a
    /// sharded deployment pins those to one designated group, so their
    /// answers are per-shard views, not cross-shard aggregates.
    pub fn key(&self) -> Option<&str> {
        match self {
            KvOp::Get(k) | KvOp::Put(k, _) | KvOp::PutIfAbsent(k, _) | KvOp::Remove(k) => Some(k),
            KvOp::Keys | KvOp::Size => None,
        }
    }
}

impl fmt::Display for KvOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvOp::Get(k) => write!(f, "get({k})"),
            KvOp::Put(k, v) => write!(f, "put({k}, {v})"),
            KvOp::PutIfAbsent(k, v) => write!(f, "putIfAbsent({k}, {v})"),
            KvOp::Remove(k) => write!(f, "remove({k})"),
            KvOp::Keys => f.write_str("keys()"),
            KvOp::Size => f.write_str("size()"),
        }
    }
}

impl DataType for KvStore {
    type State = BTreeMap<String, i64>;
    type Op = KvOp;

    const NAME: &'static str = "kv-store";

    fn apply(state: &mut Self::State, op: &Self::Op) -> Value {
        match op {
            KvOp::Get(k) => state.get(k).map(|v| Value::Int(*v)).unwrap_or(Value::None),
            KvOp::Put(k, v) => state
                .insert(k.clone(), *v)
                .map(Value::Int)
                .unwrap_or(Value::None),
            KvOp::PutIfAbsent(k, v) => {
                if state.contains_key(k) {
                    Value::Bool(false)
                } else {
                    state.insert(k.clone(), *v);
                    Value::Bool(true)
                }
            }
            KvOp::Remove(k) => state.remove(k).map(Value::Int).unwrap_or(Value::None),
            KvOp::Keys => Value::strs(state.keys().cloned()),
            KvOp::Size => Value::Int(state.len() as i64),
        }
    }

    fn is_read_only(op: &Self::Op) -> bool {
        matches!(op, KvOp::Get(_) | KvOp::Keys | KvOp::Size)
    }
}

/// Inverse record of one [`KvStore`] operation: at most the one
/// displaced binding.
pub type KvUndo = crate::delta::MapRestore<i64>;

impl crate::InvertibleDataType for KvStore {
    type Undo = KvUndo;

    fn apply_undoable(state: &mut Self::State, op: &Self::Op) -> Option<(Value, Self::Undo)> {
        Some(match op {
            KvOp::Put(k, v) => {
                let prev = state.insert(k.clone(), *v);
                (
                    prev.map(Value::Int).unwrap_or(Value::None),
                    KvUndo::Restore(k.clone(), prev),
                )
            }
            KvOp::PutIfAbsent(k, v) => {
                if state.contains_key(k) {
                    (Value::Bool(false), KvUndo::Nothing)
                } else {
                    state.insert(k.clone(), *v);
                    (Value::Bool(true), KvUndo::Restore(k.clone(), None))
                }
            }
            KvOp::Remove(k) => match state.remove(k) {
                Some(v) => (Value::Int(v), KvUndo::Restore(k.clone(), Some(v))),
                None => (Value::None, KvUndo::Nothing),
            },
            KvOp::Get(_) | KvOp::Keys | KvOp::Size => (Self::apply(state, op), KvUndo::Nothing),
        })
    }

    fn undo(state: &mut Self::State, undo: Self::Undo) {
        undo.apply_to(state);
    }
}

const KEYS: [&str; 5] = ["k0", "k1", "k2", "k3", "k4"];

fn random_key<R: Rng + ?Sized>(rng: &mut R) -> String {
    KEYS[rng.gen_range(0..KEYS.len())].to_string()
}

impl RandomOp for KvStore {
    fn random_op<R: Rng + ?Sized>(rng: &mut R) -> KvOp {
        match rng.gen_range(0..10) {
            0..=2 => KvOp::Get(random_key(rng)),
            3..=5 => KvOp::Put(random_key(rng), rng.gen_range(0..100)),
            6..=7 => KvOp::PutIfAbsent(random_key(rng), rng.gen_range(0..100)),
            8 => KvOp::Remove(random_key(rng)),
            _ => KvOp::Size,
        }
    }

    fn random_update<R: Rng + ?Sized>(rng: &mut R) -> KvOp {
        match rng.gen_range(0..4) {
            0 | 1 => KvOp::Put(random_key(rng), rng.gen_range(0..100)),
            2 => KvOp::PutIfAbsent(random_key(rng), rng.gen_range(0..100)),
            _ => KvOp::Remove(random_key(rng)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove_round_trip() {
        let mut s = BTreeMap::new();
        assert_eq!(KvStore::apply(&mut s, &KvOp::get("a")), Value::None);
        assert_eq!(KvStore::apply(&mut s, &KvOp::put("a", 1)), Value::None);
        assert_eq!(KvStore::apply(&mut s, &KvOp::put("a", 2)), Value::Int(1));
        assert_eq!(KvStore::apply(&mut s, &KvOp::get("a")), Value::Int(2));
        assert_eq!(KvStore::apply(&mut s, &KvOp::remove("a")), Value::Int(2));
        assert_eq!(KvStore::apply(&mut s, &KvOp::get("a")), Value::None);
    }

    #[test]
    fn put_if_absent_succeeds_exactly_once() {
        let mut s = BTreeMap::new();
        assert_eq!(
            KvStore::apply(&mut s, &KvOp::put_if_absent("k", 1)),
            Value::Bool(true)
        );
        assert_eq!(
            KvStore::apply(&mut s, &KvOp::put_if_absent("k", 2)),
            Value::Bool(false)
        );
        assert_eq!(KvStore::apply(&mut s, &KvOp::get("k")), Value::Int(1));
    }

    #[test]
    fn keys_and_size() {
        let mut s = BTreeMap::new();
        KvStore::apply(&mut s, &KvOp::put("b", 2));
        KvStore::apply(&mut s, &KvOp::put("a", 1));
        assert_eq!(KvStore::apply(&mut s, &KvOp::Keys), Value::strs(["a", "b"]));
        assert_eq!(KvStore::apply(&mut s, &KvOp::Size), Value::Int(2));
    }

    #[test]
    fn read_only_classification() {
        assert!(KvStore::is_read_only(&KvOp::get("x")));
        assert!(KvStore::is_read_only(&KvOp::Keys));
        assert!(KvStore::is_read_only(&KvOp::Size));
        assert!(!KvStore::is_read_only(&KvOp::put("x", 0)));
        assert!(!KvStore::is_read_only(&KvOp::put_if_absent("x", 0)));
        assert!(!KvStore::is_read_only(&KvOp::remove("x")));
    }

    #[test]
    fn concurrent_put_if_absent_is_order_sensitive() {
        use crate::datatype::commutes;
        assert!(!commutes::<KvStore>(
            &[],
            &KvOp::put_if_absent("k", 1),
            &KvOp::put_if_absent("k", 2)
        ));
        // but on different keys they commute:
        assert!(commutes::<KvStore>(
            &[],
            &KvOp::put_if_absent("k1", 1),
            &KvOp::put_if_absent("k2", 2)
        ));
    }

    #[test]
    fn display() {
        assert_eq!(KvOp::put("k", 3).to_string(), "put(k, 3)");
        assert_eq!(KvOp::put_if_absent("k", 3).to_string(), "putIfAbsent(k, 3)");
    }
}
