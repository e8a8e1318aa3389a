//! Tuples: fixed-arity rows of values.

use std::fmt;

use citesys_cq::Value;

/// An immutable database tuple.
///
/// Stored as a boxed slice: two words on the stack instead of `Vec`'s three,
/// and the arity never changes after construction (see the type-size
/// guidance in the Rust Performance Book).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Box<[Value]>);

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: impl Into<Vec<Value>>) -> Self {
        Tuple(values.into().into_boxed_slice())
    }

    /// Arity of the tuple.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Returns the value at `pos`, if in range.
    pub fn get(&self, pos: usize) -> Option<&Value> {
        self.0.get(pos)
    }

    /// Values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Projects the tuple onto the given positions (positions must be in
    /// range; panics otherwise, which indicates a planner bug).
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple(positions.iter().map(|&p| self.0[p].clone()).collect())
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:?}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

/// Builds a tuple from heterogeneous literals, e.g.
/// `tuple![11, "Calcitonin", "C1"]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$(citesys_cq::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = tuple![11, "Calcitonin", "C1"];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), Some(&Value::Int(11)));
        assert_eq!(t.get(1), Some(&Value::text("Calcitonin")));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn projection() {
        let t = tuple![1, "a", true];
        let p = t.project(&[2, 0]);
        assert_eq!(p, tuple![true, 1]);
    }

    #[test]
    fn display_and_debug() {
        let t = tuple![1, "a"];
        assert_eq!(t.to_string(), "(1, a)");
        assert_eq!(format!("{t:?}"), "(1, \"a\")");
    }

    #[test]
    fn from_iterator() {
        let t: Tuple = (1..=3).map(Value::from).collect();
        assert_eq!(t, tuple![1, 2, 3]);
    }
}
