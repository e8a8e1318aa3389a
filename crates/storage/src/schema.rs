//! Relation schemas and the database catalog.

use citesys_cq::{Symbol, ValueType};

/// A named, typed attribute of a relation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Attribute {
    /// Attribute name (e.g. `FID`).
    pub name: Symbol,
    /// Attribute type.
    pub ty: ValueType,
}

impl Attribute {
    /// Builds an attribute.
    pub fn new(name: impl Into<Symbol>, ty: ValueType) -> Self {
        Attribute {
            name: name.into(),
            ty,
        }
    }
}

/// Schema of one relation: name, typed attributes, and an optional key
/// (attribute positions). The paper's example underlines `FID` in `Family`
/// and `(FID, PName)` in `Committee`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RelationSchema {
    /// Relation name.
    pub name: Symbol,
    /// Attributes in column order.
    pub attributes: Vec<Attribute>,
    /// Positions of the key attributes; empty means no key constraint.
    pub key: Vec<usize>,
}

impl RelationSchema {
    /// Builds a schema; `key` lists attribute positions (must be in range).
    pub fn new(name: impl Into<Symbol>, attributes: Vec<Attribute>, key: Vec<usize>) -> Self {
        let schema = RelationSchema {
            name: name.into(),
            attributes,
            key,
        };
        debug_assert!(
            schema.key.iter().all(|&k| k < schema.attributes.len()),
            "key positions out of range"
        );
        schema
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_parts(name: impl Into<Symbol>, attrs: &[(&str, ValueType)], key: &[usize]) -> Self {
        Self::new(
            name,
            attrs.iter().map(|(n, t)| Attribute::new(*n, *t)).collect(),
            key.to_vec(),
        )
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Position of a named attribute.
    pub fn position_of(&self, attr: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name == attr)
    }

    /// True when the relation declares a key.
    pub fn has_key(&self) -> bool {
        !self.key.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family() -> RelationSchema {
        RelationSchema::from_parts(
            "Family",
            &[
                ("FID", ValueType::Int),
                ("FName", ValueType::Text),
                ("Desc", ValueType::Text),
            ],
            &[0],
        )
    }

    #[test]
    fn accessors() {
        let s = family();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.position_of("FName"), Some(1));
        assert_eq!(s.position_of("Nope"), None);
        assert!(s.has_key());
        assert_eq!(s.key, vec![0]);
    }

    #[test]
    fn composite_key() {
        let s = RelationSchema::from_parts(
            "Committee",
            &[("FID", ValueType::Int), ("PName", ValueType::Text)],
            &[0, 1],
        );
        assert_eq!(s.key.len(), 2);
    }

    #[test]
    fn keyless_relation() {
        let s = RelationSchema::from_parts("Log", &[("Msg", ValueType::Text)], &[]);
        assert!(!s.has_key());
    }
}
