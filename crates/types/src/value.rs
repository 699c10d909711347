//! Dynamic values returned by operations.

use std::collections::BTreeMap;
use std::fmt;

/// A dynamically-typed value returned by an operation of a replicated data
/// type.
///
/// Return values are the *observable* output of the system: the correctness
/// predicates (`RVal`, `FRVal`) compare the values a run returned against
/// the values the sequential specification prescribes, so a single uniform
/// value type across all data types keeps the checker generic.
///
/// `Value` is totally ordered (needed to store values in sets and to sort
/// deterministic test output) and cheap to clone for the sizes that occur
/// in practice.
///
/// # Examples
///
/// ```
/// use bayou_types::Value;
/// let v = Value::List(vec![Value::Int(1), Value::Str("a".into())]);
/// assert_ne!(v, Value::Unit);
/// assert_eq!(Value::from(3i64), Value::Int(3));
/// assert_eq!(Value::from(true), Value::Bool(true));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Value {
    /// No interesting return value (e.g. a blind write).
    #[default]
    Unit,
    /// A boolean, e.g. the success flag of `putIfAbsent`.
    Bool(bool),
    /// A signed integer, e.g. a counter value or an account balance.
    Int(i64),
    /// A string, e.g. the contents of a replicated list joined together.
    Str(String),
    /// An ordered sequence of values.
    List(Vec<Value>),
    /// A string-keyed map of values.
    Map(BTreeMap<String, Value>),
    /// An explicit "absent" marker distinct from `Unit` (e.g. a `get` miss).
    None,
}

impl Value {
    /// Convenience constructor for a list of integers.
    ///
    /// # Examples
    ///
    /// ```
    /// use bayou_types::Value;
    /// assert_eq!(
    ///     Value::ints([1, 2]),
    ///     Value::List(vec![Value::Int(1), Value::Int(2)])
    /// );
    /// ```
    pub fn ints<I: IntoIterator<Item = i64>>(items: I) -> Value {
        Value::List(items.into_iter().map(Value::Int).collect())
    }

    /// Convenience constructor for a list of strings.
    pub fn strs<I: IntoIterator<Item = S>, S: Into<String>>(items: I) -> Value {
        Value::List(items.into_iter().map(|s| Value::Str(s.into())).collect())
    }

    /// Returns the inner integer, if this value is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the inner boolean, if this value is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the inner string, if this value is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the inner list, if this value is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the inner map, if this value is a [`Value::Map`].
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<()> for Value {
    fn from(_: ()) -> Self {
        Value::Unit
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => f.write_str("()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Map(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{k:?}: {v}")?;
                }
                f.write_str("}")
            }
            Value::None => f.write_str("none"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from(false), Value::Bool(false));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::from(String::from("yo")), Value::Str("yo".into()));
        assert_eq!(Value::from(()), Value::Unit);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Unit.as_int(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::ints([1]).as_list(), Some(&[Value::Int(1)][..]));
        assert_eq!(Value::None.as_list(), None);
    }

    #[test]
    fn bulk_constructors() {
        assert_eq!(
            Value::strs(["a", "b"]),
            Value::List(vec![Value::Str("a".into()), Value::Str("b".into())])
        );
        assert_eq!(Value::ints([]), Value::List(vec![]));
    }

    #[test]
    fn ordering_is_total() {
        let mut vs = vec![
            Value::Str("b".into()),
            Value::Int(2),
            Value::Unit,
            Value::Int(1),
        ];
        vs.sort();
        // sorting must not panic and must be deterministic
        let again = {
            let mut c = vs.clone();
            c.sort();
            c
        };
        assert_eq!(vs, again);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::ints([1, 2]).to_string(), "[1, 2]");
        assert_eq!(Value::None.to_string(), "none");
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), Value::Int(1));
        assert_eq!(Value::Map(m).to_string(), "{\"k\": 1}");
    }

    #[test]
    fn default_is_unit() {
        assert_eq!(Value::default(), Value::Unit);
    }
}
