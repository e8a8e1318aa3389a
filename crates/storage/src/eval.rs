//! Conjunctive-query evaluation over the in-memory store.
//!
//! The evaluator returns not just the output tuples but **every binding**
//! (valuation of the query's variables) that produced each tuple — this is
//! exactly what Definitions 2.1/2.2 of the paper need: a citation is built
//! per binding, then bindings for the same output tuple are combined with
//! the alternative operator `+`.
//!
//! [`evaluate`] compiles the query ([`crate::plan::CompiledQuery`]) and runs
//! it. The compiled plan numbers the variables into slots in `Symbol` order,
//! fixes the join order (most bound positions first, smaller relations on a
//! tie) and each atom's hash-index probe column once, and joins over flat
//! rows of slot values. A [`Binding`] is one such row beside the answer's
//! shared variable table.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use citesys_cq::{ConjunctiveQuery, Symbol, Term, Value};

use crate::database::Database;
use crate::error::StorageError;
use crate::plan::CompiledQuery;
use crate::tuple::Tuple;

/// A valuation of query variables: one value per variable, the variables
/// in `Symbol` order. All bindings of one answer share one variable table,
/// so a variable's slot — the index of its value in [`Binding::values`] —
/// is the same in every binding of the answer.
///
/// Bindings compare as their `(variable, value)` sequences do.
#[derive(Clone)]
pub struct Binding {
    vars: Arc<[Symbol]>,
    values: Box<[Value]>,
}

impl Binding {
    /// A binding of `vars` (sorted, distinct) to `values`, slot for slot.
    pub(crate) fn from_slots(vars: Arc<[Symbol]>, values: Box<[Value]>) -> Self {
        debug_assert_eq!(vars.len(), values.len());
        Binding { vars, values }
    }

    /// Looks up a variable.
    pub fn get(&self, var: &Symbol) -> Option<&Value> {
        let slot = self.vars.binary_search(var).ok()?;
        Some(&self.values[slot])
    }

    /// The values, one per variable in `Symbol` order: a variable's value
    /// is at its slot ([`crate::plan::CompiledQuery::slot`]).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates `(var, value)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Symbol, &Value)> {
        self.vars.iter().zip(self.values.iter())
    }

    /// Applies the binding to a term; unbound variables return `None`.
    pub fn eval_term(&self, t: &Term) -> Option<Value> {
        match t {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => self.get(v).cloned(),
        }
    }

    /// Projects the binding onto a list of variables, in order.
    /// Returns `None` if any variable is unbound.
    pub fn project(&self, vars: &[Symbol]) -> Option<Tuple> {
        vars.iter().map(|v| self.get(v).cloned()).collect()
    }
}

impl PartialEq for Binding {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Binding {}

impl PartialOrd for Binding {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Binding {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.vars, &other.vars) {
            self.values.cmp(&other.values)
        } else {
            self.iter().cmp(other.iter())
        }
    }
}

impl fmt::Debug for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// One distinct output tuple together with all bindings that produced it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AnswerRow {
    /// The output tuple (projection of the head terms).
    pub tuple: Tuple,
    /// Every binding of the query body that yields `tuple`
    /// (the set `β_t` of Definition 2.2).
    pub bindings: Vec<Binding>,
}

/// The full answer of a conjunctive query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryAnswer {
    /// Distinct output tuples in deterministic (sorted) order.
    pub rows: Vec<AnswerRow>,
}

impl QueryAnswer {
    /// Number of distinct output tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the answer is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over the distinct output tuples.
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter().map(|r| &r.tuple)
    }

    /// Total number of bindings across all rows.
    pub fn total_bindings(&self) -> usize {
        self.rows.iter().map(|r| r.bindings.len()).sum()
    }
}

/// Evaluates a conjunctive query over the database, returning distinct
/// output tuples with their bindings. λ-parameters do not affect
/// evaluation (they are ordinary head variables at this level).
///
/// ```
/// use citesys_cq::{parse_query, ValueType};
/// use citesys_storage::{evaluate, tuple, Database, RelationSchema};
///
/// let mut db = Database::new();
/// db.create_relation(RelationSchema::from_parts(
///     "E", &[("A", ValueType::Int), ("B", ValueType::Int)], &[])).unwrap();
/// db.insert("E", tuple![1, 2]).unwrap();
/// db.insert("E", tuple![2, 3]).unwrap();
///
/// let q = parse_query("Q(X, Z) :- E(X, Y), E(Y, Z)").unwrap();
/// let answer = evaluate(&db, &q).unwrap();
/// assert_eq!(answer.len(), 1);
/// assert_eq!(answer.rows[0].tuple, tuple![1, 3]);
/// // Every binding that produced the tuple is reported (here just one).
/// assert_eq!(answer.rows[0].bindings.len(), 1);
/// ```
pub fn evaluate(db: &Database, q: &ConjunctiveQuery) -> Result<QueryAnswer, StorageError> {
    Ok(CompiledQuery::compile(db, q)?.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tuple;
    use citesys_cq::{parse_query, ValueType};

    /// The paper's §2 instance: two families named Calcitonin.
    fn paper_db() -> Database {
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
        d.create_relation(RelationSchema::from_parts(
            "FamilyIntro",
            &[("FID", ValueType::Int), ("Text", ValueType::Text)],
            &[0],
        ))
        .unwrap();
        d.insert("Family", tuple![11, "Calcitonin", "C1"]).unwrap();
        d.insert("Family", tuple![12, "Calcitonin", "C2"]).unwrap();
        d.insert("Family", tuple![13, "Dopamine", "D1"]).unwrap();
        d.insert("FamilyIntro", tuple![11, "1st"]).unwrap();
        d.insert("FamilyIntro", tuple![12, "2nd"]).unwrap();
        d.insert("Committee", tuple![11, "Alice"]).unwrap();
        d.insert("Committee", tuple![11, "Bob"]).unwrap();
        d.insert("Committee", tuple![12, "Carol"]).unwrap();
        d
    }

    #[test]
    fn single_atom_scan() {
        let db = paper_db();
        let q = parse_query("Q(FID, FName, Desc) :- Family(FID, FName, Desc)").unwrap();
        let a = evaluate(&db, &q).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.total_bindings(), 3);
    }

    #[test]
    fn paper_join_query_duplicated_name() {
        // Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)
        // Two families share the name Calcitonin ⇒ one output tuple with
        // two bindings (the paper's β_t for t = (Calcitonin)).
        let db = paper_db();
        let q =
            parse_query("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)").unwrap();
        let a = evaluate(&db, &q).unwrap();
        assert_eq!(a.len(), 1, "Dopamine has no intro");
        let row = &a.rows[0];
        assert_eq!(row.tuple, tuple!["Calcitonin"]);
        assert_eq!(row.bindings.len(), 2);
        let fids: Vec<i64> = row
            .bindings
            .iter()
            .map(|b| b.get(&Symbol::new("FID")).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(fids, vec![11, 12]);
    }

    #[test]
    fn constants_filter() {
        let db = paper_db();
        let q = parse_query("Q(D) :- Family(11, N, D)").unwrap();
        let a = evaluate(&db, &q).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a.rows[0].tuple, tuple!["C1"]);
    }

    #[test]
    fn repeated_variable_in_atom() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::from_parts(
            "E",
            &[("A", ValueType::Int), ("B", ValueType::Int)],
            &[],
        ))
        .unwrap();
        db.insert("E", tuple![1, 1]).unwrap();
        db.insert("E", tuple![1, 2]).unwrap();
        let q = parse_query("Q(X) :- E(X, X)").unwrap();
        let a = evaluate(&db, &q).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a.rows[0].tuple, tuple![1]);
    }

    #[test]
    fn empty_body_constant_query() {
        let db = paper_db();
        let q = parse_query("C('IUPHAR') :- true").unwrap();
        let a = evaluate(&db, &q).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a.rows[0].tuple, tuple!["IUPHAR"]);
        assert_eq!(a.rows[0].bindings.len(), 1);
        assert!(a.rows[0].bindings[0].is_empty());
    }

    #[test]
    fn empty_result_when_no_match() {
        let db = paper_db();
        let q = parse_query("Q(N) :- Family(99, N, D)").unwrap();
        let a = evaluate(&db, &q).unwrap();
        assert!(a.is_empty());
    }

    #[test]
    fn three_way_join() {
        let db = paper_db();
        let q = parse_query(
            "Q(FName, PName) :- Family(FID, FName, Desc), Committee(FID, PName), FamilyIntro(FID, T)",
        )
        .unwrap();
        let a = evaluate(&db, &q).unwrap();
        // (Calcitonin, Alice), (Calcitonin, Bob), (Calcitonin, Carol)
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn projection_dedupes_tuples() {
        let db = paper_db();
        let q = parse_query("Q(FName) :- Family(FID, FName, Desc)").unwrap();
        let a = evaluate(&db, &q).unwrap();
        assert_eq!(a.len(), 2); // Calcitonin, Dopamine
        let calc = a
            .rows
            .iter()
            .find(|r| r.tuple == tuple!["Calcitonin"])
            .unwrap();
        assert_eq!(calc.bindings.len(), 2);
    }

    #[test]
    fn cartesian_product_without_join_vars() {
        let db = paper_db();
        let q = parse_query("Q(N, T) :- Family(F1, N, D), FamilyIntro(F2, T)").unwrap();
        let a = evaluate(&db, &q).unwrap();
        // 2 distinct names × 2 intro texts = 4 tuples; 3 families × 2 intros = 6 bindings.
        assert_eq!(a.len(), 4);
        assert_eq!(a.total_bindings(), 6);
    }

    #[test]
    fn unknown_relation_is_error() {
        let db = paper_db();
        let q = parse_query("Q(X) :- Nope(X)").unwrap();
        assert!(matches!(
            evaluate(&db, &q),
            Err(StorageError::UnknownRelation { .. })
        ));
    }

    #[test]
    fn wrong_arity_is_error() {
        let db = paper_db();
        let q = parse_query("Q(X) :- Family(X)").unwrap();
        assert!(matches!(
            evaluate(&db, &q),
            Err(StorageError::QueryArityMismatch { .. })
        ));
    }

    #[test]
    fn binding_projection_helper() {
        let db = paper_db();
        let q = parse_query("Q(FID, FName) :- Family(FID, FName, D)").unwrap();
        let a = evaluate(&db, &q).unwrap();
        let b = &a.rows[0].bindings[0];
        let p = b.project(&[Symbol::new("FID")]).unwrap();
        assert_eq!(p.arity(), 1);
        assert!(b.project(&[Symbol::new("Missing")]).is_none());
    }

    #[test]
    fn bindings_share_one_variable_table() {
        let db = paper_db();
        let q = parse_query("Q(PName) :- Committee(FID, PName), FamilyIntro(F2, T)").unwrap();
        let a = evaluate(&db, &q).unwrap();
        let first = &a.rows[0].bindings[0];
        let vars: Vec<&str> = first.iter().map(|(v, _)| v.as_str()).collect();
        assert_eq!(vars, ["F2", "FID", "PName", "T"]);
        for b in a.rows.iter().flat_map(|r| &r.bindings) {
            assert!(Arc::ptr_eq(&b.vars, &first.vars));
        }
    }

    #[test]
    fn results_are_deterministic() {
        let db = paper_db();
        let q = parse_query("Q(PName) :- Committee(FID, PName)").unwrap();
        let a1 = evaluate(&db, &q).unwrap();
        let a2 = evaluate(&db, &q).unwrap();
        assert_eq!(a1, a2);
        let names: Vec<String> = a1.tuples().map(|t| t.get(0).unwrap().to_string()).collect();
        assert_eq!(names, ["Alice", "Bob", "Carol"]);
    }
}
