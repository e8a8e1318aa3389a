//! Relation schemas and the database catalog.

use std::fmt;

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

    /// Reads `Name(attr:type, …) [key(i, …)]` — the text of a `schema`
    /// command line and of a checkpoint's schema lines, as
    /// [`Display`](fmt::Display) writes it.
    pub fn parse(text: &str) -> Result<RelationSchema, String> {
        let (name, after) = text
            .split_once('(')
            .ok_or_else(|| format!("expected Name(attr:type, …), got '{text}'"))?;
        let (attrs_str, tail) = after
            .split_once(')')
            .ok_or_else(|| format!("missing ')' in '{text}'"))?;
        let mut attrs = Vec::new();
        for part in attrs_str.split(',') {
            let (n, t) = part
                .trim()
                .split_once(':')
                .ok_or_else(|| format!("attribute '{part}' lacks ':type'"))?;
            attrs.push(Attribute::new(n.trim(), t.trim().parse()?));
        }
        let mut key = Vec::new();
        let tail = tail.trim();
        if let Some(k) = tail.strip_prefix("key(") {
            let inner = k
                .strip_suffix(')')
                .ok_or_else(|| format!("missing ')' in key of '{text}'"))?;
            for idx in inner.split(',') {
                let i: usize = idx
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad key position '{idx}'"))?;
                if i >= attrs.len() {
                    return Err(format!("key position {i} out of range"));
                }
                key.push(i);
            }
        } else if !tail.is_empty() {
            return Err(format!("unexpected trailing input: '{tail}'"));
        }
        Ok(RelationSchema::new(name.trim(), attrs, key))
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attributes.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            write!(f, "{sep}{}:{}", a.name, a.ty)?;
        }
        f.write_str(")")?;
        for (i, k) in self.key.iter().enumerate() {
            let sep = if i > 0 { ", " } else { " key(" };
            write!(f, "{sep}{k}")?;
        }
        if self.has_key() {
            f.write_str(")")?;
        }
        Ok(())
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
    fn text_round_trips() {
        let s = family();
        assert_eq!(
            s.to_string(),
            "Family(FID:int, FName:text, Desc:text) key(0)"
        );
        assert_eq!(RelationSchema::parse(&s.to_string()).unwrap(), s);
        let log = RelationSchema::parse(" Log( Msg : text ) ").unwrap();
        assert_eq!(log.to_string(), "Log(Msg:text)");
        for bad in [
            "R",
            "R(A:int",
            "R(A)",
            "R(A:float)",
            "R(A:int) key(1)",
            "R(A:int) key(0",
            "R(A:int) extra",
        ] {
            assert!(RelationSchema::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn keyless_relation() {
        let s = RelationSchema::from_parts("Log", &[("Msg", ValueType::Text)], &[]);
        assert!(!s.has_key());
    }
}
