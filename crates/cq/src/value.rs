//! Constant values that may appear in query terms and database tuples.

use std::fmt;

use crate::symbol::Symbol;

/// A constant database value.
///
/// The model deliberately stays small — the paper's examples use identifiers
/// (integers), names and free text. `Text` uses [`Symbol`] (an `Arc<str>`)
/// so values clone cheaply during join processing and annotation
/// propagation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// 64-bit signed integer (identifiers, versions, timestamps).
    Int(i64),
    /// Interned UTF-8 text.
    Text(Symbol),
    /// Boolean flag.
    Bool(bool),
}

impl Value {
    /// Builds a text value.
    pub fn text(s: impl AsRef<str>) -> Self {
        Value::Text(Symbol::new(s))
    }

    /// Builds an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the text payload, if this is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Name of the value's runtime type, for error messages and schemas.
    pub fn type_name(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Text(_) => ValueType::Text,
            Value::Bool(_) => ValueType::Bool,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "{:?}", s.as_str()),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "{}", s.as_str()),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::text(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(Symbol::from(s))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// The type of a [`Value`], used by relation schemas.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Bool,
}

impl std::str::FromStr for ValueType {
    type Err = String;

    /// Reads a type name as [`Display`](fmt::Display) writes it.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "int" => Ok(ValueType::Int),
            "text" => Ok(ValueType::Text),
            "bool" => Ok(ValueType::Bool),
            other => Err(format!("unknown type '{other}'")),
        }
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "int"),
            ValueType::Text => write!(f, "text"),
            ValueType::Bool => write!(f, "bool"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::int(42).as_int(), Some(42));
        assert_eq!(Value::int(42).as_text(), None);
        assert_eq!(Value::text("abc").as_text(), Some("abc"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from(7i32), Value::Int(7));
        assert_eq!(Value::from("x"), Value::text("x"));
        assert_eq!(Value::from(String::from("x")), Value::text("x"));
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::int(1).type_name(), ValueType::Int);
        assert_eq!(Value::text("a").type_name(), ValueType::Text);
        assert_eq!(Value::Bool(false).type_name(), ValueType::Bool);
        assert_eq!(ValueType::Int.to_string(), "int");
        assert_eq!("bool".parse::<ValueType>(), Ok(ValueType::Bool));
        assert!("float".parse::<ValueType>().is_err());
    }

    #[test]
    fn ordering_groups_by_variant() {
        let mut v = vec![
            Value::text("b"),
            Value::int(2),
            Value::int(1),
            Value::text("a"),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Value::int(1),
                Value::int(2),
                Value::text("a"),
                Value::text("b")
            ]
        );
    }

    #[test]
    fn debug_quotes_text_only() {
        assert_eq!(format!("{:?}", Value::int(3)), "3");
        assert_eq!(format!("{:?}", Value::text("hi")), "\"hi\"");
        assert_eq!(format!("{}", Value::text("hi")), "hi");
    }
}
