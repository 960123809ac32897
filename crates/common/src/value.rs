//! Runtime values carried by stream tuples.
//!
//! Equi-join predicates compare attribute values for equality, and stores
//! build hash indexes over them, so [`Value`] implements `Eq` + `Hash` for
//! every variant (floating point values are hashed by their bit pattern,
//! which is sufficient for equi-joins where both sides were produced by the
//! same generator or source).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single attribute value.
///
/// Cloning is cheap: strings are reference counted. The variants cover what
/// the evaluation workloads need (TPC-H style keys, flags, prices and
/// dates encoded as integers).
#[derive(Debug, Clone)]
pub enum Value {
    /// Absent value; joins never match on `Null`.
    Null,
    /// Boolean flag.
    Bool(bool),
    /// 64-bit signed integer (keys, dates as epoch days, quantities).
    Int(i64),
    /// 64-bit float (prices, discounts).
    Float(f64),
    /// UTF-8 string (status flags, names, comments).
    Str(Arc<str>),
}

impl Value {
    /// Builds a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Returns the integer payload if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float payload if this is a [`Value::Float`].
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Returns the string payload if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// `true` when the value is `Null`.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate number of heap + inline bytes occupied by this value.
    /// Used by the runtime to account for store memory (Fig. 7c).
    #[inline]
    pub fn approx_size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 16 + s.len(),
        }
    }

    /// Equality as used by join predicates: `Null` never matches anything,
    /// including another `Null` (SQL semantics).
    #[inline]
    pub fn join_eq(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        self == other
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                3u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_and_hash_agree_for_ints_and_strings() {
        assert_eq!(Value::from(42), Value::Int(42));
        assert_eq!(hash_of(&Value::from(42)), hash_of(&Value::Int(42)));
        assert_eq!(Value::str("abc"), Value::from("abc"));
        assert_eq!(hash_of(&Value::str("abc")), hash_of(&Value::from("abc")));
        assert_ne!(Value::Int(1), Value::Int(2));
    }

    #[test]
    fn floats_compare_by_bits() {
        assert_eq!(Value::Float(1.5), Value::Float(1.5));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
        // NaN equals itself under bit comparison, which keeps Hash/Eq consistent.
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    #[test]
    fn join_eq_rejects_null() {
        assert!(!Value::Null.join_eq(&Value::Null));
        assert!(!Value::Int(1).join_eq(&Value::Null));
        assert!(Value::Int(1).join_eq(&Value::Int(1)));
        assert!(!Value::Int(1).join_eq(&Value::str("1")));
    }

    #[test]
    fn cross_type_values_never_equal() {
        assert_ne!(Value::Int(1), Value::Float(1.0));
        assert_ne!(Value::Bool(true), Value::Int(1));
        assert_ne!(Value::str("1"), Value::Int(1));
    }

    #[test]
    fn size_accounting_tracks_string_length() {
        assert_eq!(Value::Int(1).approx_size_bytes(), 8);
        assert!(Value::str("hello").approx_size_bytes() >= 5);
        assert!(
            Value::str("a longer string").approx_size_bytes() > Value::str("a").approx_size_bytes()
        );
    }

    #[test]
    fn accessors_return_expected_payloads() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Int(7).as_str(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::str("ok").to_string(), "ok");
    }
}
