//! The database: a catalog of relations.

use std::collections::BTreeMap;

use citesys_cq::Symbol;

use crate::error::StorageError;
use crate::relation::Relation;
use crate::schema::RelationSchema;
use crate::tuple::Tuple;

/// An in-memory relational database.
///
/// A `BTreeMap` catalog keeps relation iteration deterministic, which keeps
/// digests (fixity) and test expectations stable.
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: BTreeMap<Symbol, Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a new relation.
    pub fn create_relation(&mut self, schema: RelationSchema) -> Result<(), StorageError> {
        if self.relations.contains_key(&schema.name) {
            return Err(StorageError::DuplicateRelation {
                name: schema.name.to_string(),
            });
        }
        self.relations
            .insert(schema.name.clone(), Relation::new(schema));
        Ok(())
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Result<&Relation, StorageError> {
        self.relations
            .get(name)
            .ok_or_else(|| StorageError::UnknownRelation {
                name: name.to_string(),
            })
    }

    /// True when the catalog contains `name`.
    pub fn has_relation(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Inserts a tuple into `rel`. Returns whether the database changed.
    pub fn insert(&mut self, rel: &str, t: Tuple) -> Result<bool, StorageError> {
        self.relations
            .get_mut(rel)
            .ok_or_else(|| StorageError::UnknownRelation {
                name: rel.to_string(),
            })?
            .insert(t)
    }

    /// Inserts many tuples into `rel`.
    pub fn insert_all<I>(&mut self, rel: &str, tuples: I) -> Result<usize, StorageError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let r = self
            .relations
            .get_mut(rel)
            .ok_or_else(|| StorageError::UnknownRelation {
                name: rel.to_string(),
            })?;
        let mut n = 0;
        for t in tuples {
            if r.insert(t)? {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Deletes a tuple from `rel`. Returns whether a tuple was removed.
    pub fn delete(&mut self, rel: &str, t: &Tuple) -> Result<bool, StorageError> {
        Ok(self
            .relations
            .get_mut(rel)
            .ok_or_else(|| StorageError::UnknownRelation {
                name: rel.to_string(),
            })?
            .delete(t))
    }

    /// Iterates over `(name, relation)` pairs in name order.
    pub fn relations(&self) -> impl Iterator<Item = (&Symbol, &Relation)> {
        self.relations.iter()
    }

    /// Names of all relations, in order.
    pub fn relation_names(&self) -> Vec<Symbol> {
        self.relations.keys().cloned().collect()
    }

    /// Total number of live tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use citesys_cq::ValueType;

    fn db() -> Database {
        let mut d = Database::new();
        d.create_relation(RelationSchema::from_parts(
            "Family",
            &[
                ("FID", ValueType::Int),
                ("FName", ValueType::Text),
                ("Desc", ValueType::Text),
            ],
            &[0],
        ))
        .unwrap();
        d.create_relation(RelationSchema::from_parts(
            "Committee",
            &[("FID", ValueType::Int), ("PName", ValueType::Text)],
            &[0, 1],
        ))
        .unwrap();
        d
    }

    #[test]
    fn create_and_insert() {
        let mut d = db();
        assert!(d.insert("Family", tuple![11, "Calcitonin", "C1"]).unwrap());
        assert_eq!(d.relation("Family").unwrap().len(), 1);
        assert_eq!(d.total_tuples(), 1);
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut d = db();
        let e = d
            .create_relation(RelationSchema::from_parts(
                "Family",
                &[("X", ValueType::Int)],
                &[],
            ))
            .unwrap_err();
        assert!(matches!(e, StorageError::DuplicateRelation { .. }));
    }

    #[test]
    fn unknown_relation_errors() {
        let mut d = db();
        assert!(matches!(
            d.insert("Nope", tuple![1]),
            Err(StorageError::UnknownRelation { .. })
        ));
        assert!(d.relation("Nope").is_err());
        assert!(!d.has_relation("Nope"));
    }

    #[test]
    fn insert_all_counts_changes() {
        let mut d = db();
        let n = d
            .insert_all(
                "Committee",
                vec![tuple![11, "Alice"], tuple![11, "Bob"], tuple![11, "Alice"]],
            )
            .unwrap();
        assert_eq!(n, 2, "duplicate not counted");
    }

    #[test]
    fn delete_roundtrip() {
        let mut d = db();
        d.insert("Family", tuple![11, "Calcitonin", "C1"]).unwrap();
        assert!(d.delete("Family", &tuple![11, "Calcitonin", "C1"]).unwrap());
        assert_eq!(d.total_tuples(), 0);
    }

    #[test]
    fn relation_names_sorted() {
        let d = db();
        let names: Vec<String> = d.relation_names().iter().map(ToString::to_string).collect();
        assert_eq!(names, ["Committee", "Family"]);
    }
}
