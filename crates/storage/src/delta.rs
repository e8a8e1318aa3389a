//! Delta evaluation for materialized conjunctive-query views.
//!
//! A materialized view is a relation computed once from a base database.
//! When a single tuple is inserted into (or deleted from) a base relation,
//! recomputing every view from scratch wastes the work that produced the
//! still-valid rows. This module implements the standard semi-naive delta
//! rules for select-project-join views under **set semantics**:
//!
//! * **Insertion** of `t` into `R`: the new view rows are exactly the rows
//!   derivable with `t` substituted into *some* body atom over `R` — the
//!   union, over every occurrence of `R` in the view body, of the view
//!   evaluated with that atom bound to `t` ([`insert_delta`]). Evaluating
//!   over the post-insertion database makes derivations that use `t` in
//!   several positions at once come out of a single bound evaluation.
//! * **Deletion** of `t` from `R`: rows that used `t` in some derivation
//!   *may* lose support, but set semantics means an alternative derivation
//!   can keep them alive. [`delete_candidates`] enumerates the at-risk rows
//!   over the pre-deletion database; [`still_derivable`] re-checks each one
//!   over the post-deletion database, and only unsupported rows are removed.
//!
//! **Batch (multi-tuple) updates** generalize both rules: a transaction
//! mixing inserts and deletes is first *normalized* against the
//! pre-batch database into its net effect ([`Changeset::net`] — ops that
//! cancel out, re-insert a present tuple, or delete an absent one
//! contribute no delta work at all), then
//!
//! * [`insert_delta_batch`] binds **each net-inserted tuple once** and
//!   unions the bound evaluations over the single post-batch database
//!   (derivations joining two freshly inserted tuples are found because
//!   both are present in that database), and
//! * [`delete_candidates_batch`] unions the at-risk rows of each
//!   net-deleted tuple over the single pre-batch database; the caller
//!   re-checks every candidate with [`still_derivable`] against the
//!   single **post-batch** database — not per-tuple intermediates — so a
//!   row that loses one support but gains another inside the same batch
//!   is kept.
//!
//! The functions are pure with respect to the database they are given; the
//! caller (the service-layer view cache) decides which snapshot plays the
//! "before" and "after" role.

use std::collections::{BTreeMap, BTreeSet};

use citesys_cq::{ConjunctiveQuery, Substitution, Symbol, Term};

use crate::database::Database;
use crate::error::StorageError;
use crate::eval::evaluate;
use crate::tuple::Tuple;
use crate::versioned::Op;

/// Binds body atom `idx` of `view` to the ground tuple `t`, returning the
/// specialized query (every variable of the atom replaced by the matching
/// constant throughout the view). Returns `None` when the atom cannot
/// match `t` at all — arity mismatch, a constant position that disagrees,
/// or a repeated variable bound to two different values.
pub fn bind_atom(view: &ConjunctiveQuery, idx: usize, t: &Tuple) -> Option<ConjunctiveQuery> {
    let atom = view.body.get(idx)?;
    if atom.arity() != t.arity() {
        return None;
    }
    let mut subst = Substitution::new();
    for (term, v) in atom.terms.iter().zip(t.values()) {
        match term {
            Term::Const(c) => {
                if c != v {
                    return None;
                }
            }
            Term::Var(var) => match subst.get(var) {
                Some(Term::Const(prev)) if prev == v => {}
                Some(_) => return None,
                None => subst.bind(var.clone(), Term::Const(v.clone())),
            },
        }
    }
    Some(view.apply(&subst))
}

/// Union of the view evaluated with each `rel`-occurrence bound to `t`,
/// accumulated into `out` — the shared core of [`insert_delta`],
/// [`delete_candidates`] and their batch variants.
fn bound_rows_into(
    db: &Database,
    view: &ConjunctiveQuery,
    rel: &str,
    t: &Tuple,
    out: &mut BTreeSet<Tuple>,
) -> Result<(), StorageError> {
    for idx in 0..view.body.len() {
        if view.body[idx].predicate.as_str() != rel {
            continue;
        }
        let Some(bound) = bind_atom(view, idx, t) else {
            continue;
        };
        let ans = evaluate(db, &bound)?;
        out.extend(ans.rows.into_iter().map(|r| r.tuple));
    }
    Ok(())
}

/// [`bound_rows_into`] for a single tuple, returning the sorted rows.
fn bound_rows(
    db: &Database,
    view: &ConjunctiveQuery,
    rel: &str,
    t: &Tuple,
) -> Result<Vec<Tuple>, StorageError> {
    let mut out: BTreeSet<Tuple> = BTreeSet::new();
    bound_rows_into(db, view, rel, t, &mut out)?;
    Ok(out.into_iter().collect())
}

/// Rows added to `view`'s materialization by inserting `t` into `rel`.
/// `db_after` must be the database **after** the insertion (so joins
/// between `t` and itself are found). Rows already present in the
/// materialization may be returned; set-semantics insertion makes
/// re-adding them a no-op.
pub fn insert_delta(
    db_after: &Database,
    view: &ConjunctiveQuery,
    rel: &str,
    t: &Tuple,
) -> Result<Vec<Tuple>, StorageError> {
    bound_rows(db_after, view, rel, t)
}

/// Rows of `view`'s materialization that *may* lose support when `t` is
/// deleted from `rel`, evaluated over `db_before` — the database **before**
/// the deletion (afterwards the supporting derivations are gone). Each
/// candidate must be re-checked with [`still_derivable`] over the
/// post-deletion database; an alternative derivation keeps the row alive.
pub fn delete_candidates(
    db_before: &Database,
    view: &ConjunctiveQuery,
    rel: &str,
    t: &Tuple,
) -> Result<Vec<Tuple>, StorageError> {
    bound_rows(db_before, view, rel, t)
}

/// True when `row` is (still) an output of `view` over `db`: the view head
/// is bound to the row's constants and the specialized query is checked
/// for non-emptiness.
pub fn still_derivable(
    db: &Database,
    view: &ConjunctiveQuery,
    row: &Tuple,
) -> Result<bool, StorageError> {
    if view.head.terms.len() != row.arity() {
        return Ok(false);
    }
    let mut subst = Substitution::new();
    for (term, v) in view.head.terms.iter().zip(row.values()) {
        match term {
            Term::Const(c) => {
                if c != v {
                    return Ok(false);
                }
            }
            Term::Var(var) => match subst.get(var) {
                Some(Term::Const(prev)) if prev == v => {}
                Some(_) => return Ok(false),
                None => subst.bind(var.clone(), Term::Const(v.clone())),
            },
        }
    }
    let bound = view.apply(&subst);
    Ok(!evaluate(db, &bound)?.rows.is_empty())
}

/// Rows added to `view`'s materialization by a batch of insertions.
/// `db_after` must be the single **post-batch** database; each inserted
/// tuple is bound once and the bound evaluations are unioned, so a
/// derivation joining two tuples inserted by the same batch is found
/// (both are present in `db_after`). Rows already present in the
/// materialization may be returned; set-semantics insertion makes
/// re-adding them a no-op.
pub fn insert_delta_batch(
    db_after: &Database,
    view: &ConjunctiveQuery,
    inserted: &[(Symbol, Tuple)],
) -> Result<Vec<Tuple>, StorageError> {
    let mut out: BTreeSet<Tuple> = BTreeSet::new();
    for (rel, t) in inserted {
        bound_rows_into(db_after, view, rel.as_str(), t, &mut out)?;
    }
    Ok(out.into_iter().collect())
}

/// Rows of `view`'s materialization that *may* lose support under a
/// batch of deletions, evaluated over the single **pre-batch** database.
/// Re-check every candidate with [`still_derivable`] against the single
/// post-batch database (never per-tuple intermediates): a row whose
/// support migrates from a deleted tuple to one inserted by the same
/// batch stays alive.
pub fn delete_candidates_batch(
    db_before: &Database,
    view: &ConjunctiveQuery,
    deleted: &[(Symbol, Tuple)],
) -> Result<Vec<Tuple>, StorageError> {
    let mut out: BTreeSet<Tuple> = BTreeSet::new();
    for (rel, t) in deleted {
        bound_rows_into(db_before, view, rel.as_str(), t, &mut out)?;
    }
    Ok(out.into_iter().collect())
}

// ---------------------------------------------------------------------------
// Changesets: ordered multi-tuple transactions
// ---------------------------------------------------------------------------

/// An ordered batch of insert/delete operations applied as one
/// transaction: [`apply`](Changeset::apply) is all-or-nothing (failed
/// batches are rolled back), and [`net`](Changeset::net) normalizes the
/// sequence into the net inserted/deleted tuples the delta rules need —
/// a delete-then-reinsert of the same tuple, an insert of an
/// already-present tuple, or a delete of an absent one all net to
/// nothing and cost no delta work.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Changeset {
    ops: Vec<Op>,
}

/// The net effect of a [`Changeset`] against a specific pre-batch
/// database: which tuples end up inserted and which end up deleted once
/// in-batch cancellations and no-ops are removed.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct NetChanges {
    /// Tuples present after the batch that were absent before.
    pub inserts: Vec<(Symbol, Tuple)>,
    /// Tuples absent after the batch that were present before.
    pub deletes: Vec<(Symbol, Tuple)>,
}

impl NetChanges {
    /// True when the batch leaves the database unchanged.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// The relations actually changed by the batch.
    pub fn relations(&self) -> BTreeSet<&str> {
        self.inserts
            .iter()
            .chain(self.deletes.iter())
            .map(|(rel, _)| rel.as_str())
            .collect()
    }
}

impl Changeset {
    /// An empty changeset.
    pub fn new() -> Self {
        Changeset::default()
    }

    /// A changeset over pre-recorded operations in application order
    /// (e.g. a versioned store's pending log, replayed as one batch for
    /// delta maintenance).
    pub fn from_ops(ops: Vec<Op>) -> Self {
        Changeset { ops }
    }

    /// Appends an insertion; ops apply in append order.
    pub fn insert(&mut self, rel: &str, t: Tuple) -> &mut Self {
        self.ops.push(Op::Insert(Symbol::new(rel), t));
        self
    }

    /// Appends a deletion; ops apply in append order.
    pub fn delete(&mut self, rel: &str, t: Tuple) -> &mut Self {
        self.ops.push(Op::Delete(Symbol::new(rel), t));
        self
    }

    /// The buffered operations in application order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of buffered operations (not the net change count).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations are buffered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Normalizes the op sequence against `db_before` (the database the
    /// batch will be applied to) into its net effect. Presence is
    /// simulated per tuple in op order, so sequential semantics hold:
    /// `delete R(t); insert R(t)` nets to nothing, and only tuples whose
    /// final presence differs from their initial presence appear in the
    /// result. Unknown relations are treated as absent (the subsequent
    /// [`apply`](Changeset::apply) is what validates and fails).
    pub fn net(&self, db_before: &Database) -> NetChanges {
        let mut state: BTreeMap<(&Symbol, &Tuple), (bool, bool)> = BTreeMap::new();
        for op in &self.ops {
            let (rel, t, inserts) = match op {
                Op::Insert(rel, t) => (rel, t, true),
                Op::Delete(rel, t) => (rel, t, false),
            };
            let entry = state.entry((rel, t)).or_insert_with(|| {
                let present = db_before
                    .relation(rel.as_str())
                    .map(|r| r.contains(t))
                    .unwrap_or(false);
                (present, present)
            });
            entry.1 = inserts;
        }
        let mut net = NetChanges::default();
        for ((rel, t), (was, is)) in state {
            match (was, is) {
                (false, true) => net.inserts.push((rel.clone(), t.clone())),
                (true, false) => net.deletes.push((rel.clone(), t.clone())),
                _ => {}
            }
        }
        net
    }

    /// Applies the batch to `db` **atomically**: ops run in order, and on
    /// the first failure (unknown relation, key violation, …) every
    /// already-applied op is undone in reverse order before the error is
    /// returned, leaving `db` exactly as it was. Returns the effective
    /// ops — those that actually changed the database — for the caller's
    /// log (set-semantics no-ops are skipped, mirroring
    /// [`VersionedDatabase`](crate::versioned::VersionedDatabase)).
    pub fn apply(&self, db: &mut Database) -> Result<Vec<Op>, StorageError> {
        let mut applied: Vec<Op> = Vec::new();
        for op in &self.ops {
            let changed = match op {
                Op::Insert(rel, t) => db.insert(rel.as_str(), t.clone()),
                Op::Delete(rel, t) => db.delete(rel.as_str(), t),
            };
            match changed {
                Ok(true) => applied.push(op.clone()),
                Ok(false) => {}
                Err(e) => {
                    undo(db, &applied);
                    return Err(e);
                }
            }
        }
        Ok(applied)
    }
}

/// Undoes `applied` — effective ops that were applied to `db`, in order
/// — in reverse order, leaving `db` as it was before the first of them.
pub(crate) fn undo(db: &mut Database, applied: &[Op]) {
    for op in applied.iter().rev() {
        match op {
            Op::Insert(rel, t) => {
                db.delete(rel.as_str(), t).expect("undo of applied insert");
            }
            Op::Delete(rel, t) => {
                db.insert(rel.as_str(), t.clone())
                    .expect("undo of applied delete");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tuple;
    use citesys_cq::{parse_query, ValueType};

    fn edge_db(edges: &[(i64, i64)]) -> Database {
        let mut db = Database::new();
        db.create_relation(RelationSchema::from_parts(
            "E",
            &[("A", ValueType::Int), ("B", ValueType::Int)],
            &[],
        ))
        .unwrap();
        for &(a, b) in edges {
            db.insert("E", tuple![a, b]).unwrap();
        }
        db
    }

    fn materialize(db: &Database, view: &ConjunctiveQuery) -> BTreeSet<Tuple> {
        evaluate(db, view)
            .unwrap()
            .rows
            .into_iter()
            .map(|r| r.tuple)
            .collect()
    }

    #[test]
    fn bind_atom_substitutes_throughout() {
        let v = parse_query("V(X, Z) :- E(X, Y), E(Y, Z)").unwrap();
        let bound = bind_atom(&v, 0, &tuple![1, 2]).unwrap();
        assert_eq!(bound.to_string(), "V(1, Z) :- E(1, 2), E(2, Z)");
    }

    #[test]
    fn bind_atom_rejects_impossible_matches() {
        let v = parse_query("V(X) :- E(X, 5)").unwrap();
        assert!(bind_atom(&v, 0, &tuple![1, 6]).is_none(), "constant clash");
        assert!(bind_atom(&v, 0, &tuple![1]).is_none(), "arity mismatch");
        let rep = parse_query("V(X) :- E(X, X)").unwrap();
        assert!(bind_atom(&rep, 0, &tuple![1, 2]).is_none(), "repeated var");
        assert!(bind_atom(&rep, 0, &tuple![3, 3]).is_some());
    }

    #[test]
    fn insert_delta_matches_recompute() {
        // Two-hop view over a growing edge relation.
        let v = parse_query("V(X, Z) :- E(X, Y), E(Y, Z)").unwrap();
        let mut db = edge_db(&[(1, 2)]);
        let mut mat = materialize(&db, &v);
        for &(a, b) in &[(2, 3), (3, 1), (2, 2), (1, 2)] {
            db.insert("E", tuple![a, b]).unwrap();
            for row in insert_delta(&db, &v, "E", &tuple![a, b]).unwrap() {
                mat.insert(row);
            }
            assert_eq!(mat, materialize(&db, &v), "after inserting ({a},{b})");
        }
    }

    #[test]
    fn insert_delta_self_join_single_tuple() {
        // A self-loop derives (4,4) using the new tuple at BOTH atoms; the
        // post-insertion evaluation finds it from either binding.
        let v = parse_query("V(X, Z) :- E(X, Y), E(Y, Z)").unwrap();
        let mut db = edge_db(&[]);
        db.insert("E", tuple![4, 4]).unwrap();
        let delta = insert_delta(&db, &v, "E", &tuple![4, 4]).unwrap();
        assert_eq!(delta, vec![tuple![4, 4]]);
    }

    #[test]
    fn delete_keeps_rows_with_alternative_support() {
        // (1,3) is derivable via Y=2 and Y=5; deleting one path keeps it.
        let v = parse_query("V(X, Z) :- E(X, Y), E(Y, Z)").unwrap();
        let mut db = edge_db(&[(1, 2), (2, 3), (1, 5), (5, 3)]);
        let mut mat = materialize(&db, &v);
        let gone = tuple![1, 2];
        let candidates = delete_candidates(&db, &v, "E", &gone).unwrap();
        assert!(candidates.contains(&tuple![1, 3]));
        db.delete("E", &gone).unwrap();
        for c in candidates {
            if !still_derivable(&db, &v, &c).unwrap() {
                mat.remove(&c);
            }
        }
        assert_eq!(mat, materialize(&db, &v), "alternative derivation kept");
        assert!(mat.contains(&tuple![1, 3]));
    }

    #[test]
    fn delete_removes_unsupported_rows() {
        let v = parse_query("V(X, Z) :- E(X, Y), E(Y, Z)").unwrap();
        let mut db = edge_db(&[(1, 2), (2, 3)]);
        let mut mat = materialize(&db, &v);
        assert!(mat.contains(&tuple![1, 3]));
        let gone = tuple![2, 3];
        let candidates = delete_candidates(&db, &v, "E", &gone).unwrap();
        db.delete("E", &gone).unwrap();
        for c in candidates {
            if !still_derivable(&db, &v, &c).unwrap() {
                mat.remove(&c);
            }
        }
        assert_eq!(mat, materialize(&db, &v));
        assert!(mat.is_empty());
    }

    #[test]
    fn still_derivable_respects_head_constants_and_repeats() {
        let db = edge_db(&[(1, 1), (1, 2)]);
        let v = parse_query("V(X, X) :- E(X, X)").unwrap();
        assert!(still_derivable(&db, &v, &tuple![1, 1]).unwrap());
        assert!(!still_derivable(&db, &v, &tuple![1, 2]).unwrap());
        assert!(!still_derivable(&db, &v, &tuple![1]).unwrap());
    }

    #[test]
    fn unrelated_relation_yields_empty_delta() {
        let v = parse_query("V(X) :- E(X, Y)").unwrap();
        let db = edge_db(&[(1, 2)]);
        assert!(insert_delta(&db, &v, "F", &tuple![9, 9])
            .unwrap()
            .is_empty());
    }

    /// Applies the batch delta rules for `changes` to `mat` the way the
    /// view cache does: candidates over the pre-batch db, recheck and
    /// insert delta over the single post-batch db.
    fn batch_maintain(
        db: &mut Database,
        v: &ConjunctiveQuery,
        mat: &mut BTreeSet<Tuple>,
        changes: &Changeset,
    ) {
        let net = changes.net(db);
        let candidates = delete_candidates_batch(db, v, &net.deletes).unwrap();
        changes.apply(db).unwrap();
        for c in candidates {
            if !still_derivable(db, v, &c).unwrap() {
                mat.remove(&c);
            }
        }
        for row in insert_delta_batch(db, v, &net.inserts).unwrap() {
            mat.insert(row);
        }
    }

    #[test]
    fn batch_mixed_inserts_and_deletes_match_recompute() {
        let v = parse_query("V(X, Z) :- E(X, Y), E(Y, Z)").unwrap();
        let mut db = edge_db(&[(1, 2), (2, 3), (3, 4)]);
        let mut mat = materialize(&db, &v);
        // One transaction: drop the 2→3 hop, add two new edges that form a
        // join among themselves (5→6→1) and re-route 2→4.
        let mut changes = Changeset::new();
        changes
            .delete("E", tuple![2, 3])
            .insert("E", tuple![5, 6])
            .insert("E", tuple![6, 1])
            .insert("E", tuple![2, 4]);
        batch_maintain(&mut db, &v, &mut mat, &changes);
        assert_eq!(mat, materialize(&db, &v));
        // (5,1) joins two tuples inserted by the same batch.
        assert!(mat.contains(&tuple![5, 1]));
        // (1,3) lost its only support; (1,4) gained one.
        assert!(!mat.contains(&tuple![1, 3]));
        assert!(mat.contains(&tuple![1, 4]));
    }

    #[test]
    fn batch_support_migration_within_one_batch() {
        // (1,3) is supported by E(2,3); the batch deletes that support and
        // inserts E(5,3) + E(1,5), re-deriving (1,3) via the new path. The
        // recheck against the single post-batch database keeps the row.
        let v = parse_query("V(X, Z) :- E(X, Y), E(Y, Z)").unwrap();
        let mut db = edge_db(&[(1, 2), (2, 3)]);
        let mut mat = materialize(&db, &v);
        assert!(mat.contains(&tuple![1, 3]));
        let mut changes = Changeset::new();
        changes
            .delete("E", tuple![2, 3])
            .insert("E", tuple![1, 5])
            .insert("E", tuple![5, 3]);
        batch_maintain(&mut db, &v, &mut mat, &changes);
        assert_eq!(mat, materialize(&db, &v));
        assert!(mat.contains(&tuple![1, 3]), "support migrated, row kept");
    }

    #[test]
    fn net_cancels_delete_then_reinsert() {
        let db = edge_db(&[(1, 2)]);
        let mut changes = Changeset::new();
        changes.delete("E", tuple![1, 2]).insert("E", tuple![1, 2]);
        let net = changes.net(&db);
        assert!(net.is_empty(), "delete-then-reinsert nets to nothing");
        // And the batch-maintained materialization matches recompute.
        let v = parse_query("V(X) :- E(X, Y)").unwrap();
        let mut db = db;
        let mut mat = materialize(&db, &v);
        batch_maintain(&mut db, &v, &mut mat, &changes);
        assert_eq!(mat, materialize(&db, &v));
    }

    #[test]
    fn net_skips_noop_ops() {
        let db = edge_db(&[(1, 2)]);
        let mut changes = Changeset::new();
        changes
            .insert("E", tuple![1, 2]) // already present: no-op
            .delete("E", tuple![9, 9]) // never existed: no-op
            .insert("E", tuple![3, 4]) // effective
            .insert("F", tuple![7]); // unknown relation: treated absent
        let net = changes.net(&db);
        assert_eq!(net.deletes, vec![]);
        assert_eq!(
            net.inserts,
            vec![
                (Symbol::new("E"), tuple![3, 4]),
                (Symbol::new("F"), tuple![7]),
            ]
        );
        assert_eq!(net.relations(), ["E", "F"].into_iter().collect());
        // insert-then-delete inside the batch also cancels.
        let mut cancel = Changeset::new();
        cancel.insert("E", tuple![5, 5]).delete("E", tuple![5, 5]);
        assert!(cancel.net(&db).is_empty());
    }

    #[test]
    fn apply_rolls_back_on_failure() {
        let mut db = edge_db(&[(1, 2)]);
        let mut changes = Changeset::new();
        changes
            .insert("E", tuple![3, 4])
            .delete("E", tuple![1, 2])
            .insert("Nope", tuple![0]); // fails: unknown relation
        let before: BTreeSet<Tuple> = db.relation("E").unwrap().scan().cloned().collect();
        assert!(changes.apply(&mut db).is_err());
        let after: BTreeSet<Tuple> = db.relation("E").unwrap().scan().cloned().collect();
        assert_eq!(before, after, "failed batch fully rolled back");
    }

    #[test]
    fn apply_reports_effective_ops_only() {
        let mut db = edge_db(&[(1, 2)]);
        let mut changes = Changeset::new();
        changes
            .insert("E", tuple![1, 2]) // duplicate: not effective
            .insert("E", tuple![3, 4])
            .delete("E", tuple![9, 9]); // miss: not effective
        let applied = changes.apply(&mut db).unwrap();
        assert_eq!(applied, vec![Op::Insert(Symbol::new("E"), tuple![3, 4])]);
        assert_eq!(changes.len(), 3);
        assert!(!changes.is_empty());
    }
}
