//! Tuples: fixed-arity rows of values.

use std::fmt;

use citesys_cq::{scan_value, write_value, Value};

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

/// Reads a ground atom `Rel(v1, v2, …)` — the form of `insert`/`delete`
/// command lines and of the WAL, changeset and checkpoint text — into
/// its relation name and tuple. Values follow the one literal grammar
/// ([`citesys_cq::literal`]); nothing but whitespace may follow the `)`.
pub fn read_ground_atom(input: &str) -> Result<(&str, Tuple), String> {
    let (name, mut rest) = input
        .split_once('(')
        .ok_or_else(|| format!("expected Rel(values…), got '{input}'"))?;
    let mut values = Vec::new();
    rest = rest.trim_start();
    if let Some(after) = rest.strip_prefix(')') {
        rest = after;
    } else {
        loop {
            let (v, after) = scan_value(rest)?;
            values.push(v);
            let after = after.trim_start();
            if let Some(after) = after.strip_prefix(',') {
                rest = after;
            } else if let Some(after) = after.strip_prefix(')') {
                rest = after;
                break;
            } else if after.is_empty() {
                return Err(format!("missing ')' in '{input}'"));
            } else {
                return Err(format!("expected ',' or ')' before '{after}'"));
            }
        }
    }
    if !rest.trim().is_empty() {
        return Err(format!("unexpected trailing input: '{}'", rest.trim()));
    }
    Ok((name.trim(), Tuple::new(values)))
}

/// Appends `rel(v1, v2, …)` to `out` so that [`read_ground_atom`] reads
/// it back equal: text is single-quoted with `\\`, `\'`, `\n` and `\r`
/// escaped, so the atom always stays on one line.
pub fn write_ground_atom(out: &mut String, rel: &str, t: &Tuple) {
    out.push_str(rel);
    out.push('(');
    for (i, v) in t.values().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Writing into a `String` cannot fail.
        let _ = write_value(out, v);
    }
    out.push(')');
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
    fn ground_atoms_round_trip() {
        let t = tuple![1, "a'b\\c\nd\re\tf, #g", true, -5];
        let mut text = String::new();
        write_ground_atom(&mut text, "R", &t);
        assert_eq!(text, "R(1, 'a\\'b\\\\c\\nd\\re\tf, #g', true, -5)");
        assert_eq!(read_ground_atom(&text).unwrap(), ("R", t));
        assert_eq!(
            read_ground_atom(" Z( ) ").unwrap(),
            ("Z", Tuple::new(Vec::<Value>::new()))
        );
        for bad in [
            "R(1", "R(1 2)", "R('open)", "R(1,)", "R(1) x", "R(bogus)", "R",
        ] {
            assert!(read_ground_atom(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn from_iterator() {
        let t: Tuple = (1..=3).map(Value::from).collect();
        assert_eq!(t, tuple![1, 2, 3]);
    }
}
