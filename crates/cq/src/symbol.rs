//! Cheap, clonable interned-ish strings used for predicate and variable names.
//!
//! A [`Symbol`] wraps an `Arc<str>`, so cloning is a reference-count bump and
//! equality is a pointer check followed by a string compare. Queries are
//! copied heavily during rewriting and containment search, which makes cheap
//! name clones worthwhile (see the heap-allocation guidance in the Rust
//! Performance Book).

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// An immutable, cheaply clonable name (predicate, variable, or attribute).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(Arc<str>);

impl Symbol {
    /// Creates a symbol from anything string-like.
    pub fn new(name: impl AsRef<str>) -> Self {
        Symbol(Arc::from(name.as_ref()))
    }

    /// Returns the underlying string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Returns a symbol suffixed with `_{n}`; used to rename variables apart.
    pub fn with_suffix(&self, n: usize) -> Self {
        Symbol::new(format!("{}_{n}", self.0))
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol(Arc::from(s))
    }
}

impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn construction_and_equality() {
        let a = Symbol::new("Family");
        let b = Symbol::from("Family");
        let c: Symbol = String::from("Committee").into();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "Family");
        assert_eq!(a, "Family");
    }

    #[test]
    fn clone_is_shallow() {
        let a = Symbol::new("FID");
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [Symbol::new("b"), Symbol::new("a"), Symbol::new("c")];
        v.sort();
        let names: Vec<&str> = v.iter().map(Symbol::as_str).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn usable_as_hashmap_key_via_str_borrow() {
        let mut m: HashMap<Symbol, i32> = HashMap::new();
        m.insert(Symbol::new("FName"), 1);
        assert_eq!(m.get("FName"), Some(&1));
    }

    #[test]
    fn with_suffix_renames() {
        let a = Symbol::new("X");
        assert_eq!(a.with_suffix(3).as_str(), "X_3");
    }

    #[test]
    fn display_and_debug() {
        let a = Symbol::new("V1");
        assert_eq!(format!("{a}"), "V1");
        assert_eq!(format!("{a:?}"), "V1");
    }
}
