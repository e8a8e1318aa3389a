//! Conjunctive-query evaluation over the in-memory store.
//!
//! The evaluator returns not just the output tuples but **every binding**
//! (valuation of the query's variables) that produced each tuple — this is
//! exactly what Definitions 2.1/2.2 of the paper need: a citation is built
//! per binding, then bindings for the same output tuple are combined with
//! the alternative operator `+`.
//!
//! Join processing is a straightforward bind-and-probe loop with a greedy
//! join order (most bound variables first, smaller relations preferred) and
//! per-column hash-index probes.

use std::collections::BTreeMap;

use citesys_cq::{ConjunctiveQuery, Symbol, Term, Value};

use crate::database::Database;
use crate::error::StorageError;
use crate::relation::Relation;
use crate::tuple::Tuple;

/// A valuation of query variables (deterministically ordered).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct Binding {
    map: BTreeMap<Symbol, Value>,
}

impl Binding {
    /// The empty binding.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a variable.
    pub fn get(&self, var: &Symbol) -> Option<&Value> {
        self.map.get(var)
    }

    /// Binds a variable (overwrites).
    pub fn bind(&mut self, var: Symbol, v: Value) {
        self.map.insert(var, v);
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(var, value)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Symbol, &Value)> {
        self.map.iter()
    }

    /// Applies the binding to a term; unbound variables return `None`.
    pub fn eval_term(&self, t: &Term) -> Option<Value> {
        match t {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => self.map.get(v).cloned(),
        }
    }

    /// Projects the binding onto a list of variables, in order.
    /// Returns `None` if any variable is unbound.
    pub fn project(&self, vars: &[Symbol]) -> Option<Tuple> {
        vars.iter()
            .map(|v| self.map.get(v).cloned())
            .collect::<Option<Vec<Value>>>()
            .map(Tuple::new)
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
    // Arity validation up front: clearer errors than empty results.
    for atom in &q.body {
        let rel = db.relation(atom.predicate.as_str())?;
        if rel.schema().arity() != atom.arity() {
            return Err(StorageError::QueryArityMismatch {
                relation: atom.predicate.to_string(),
                expected: rel.schema().arity(),
                got: atom.arity(),
            });
        }
    }

    let mut bindings = vec![Binding::new()];
    let mut remaining: Vec<usize> = (0..q.body.len()).collect();

    while !remaining.is_empty() {
        // Greedy choice: maximize bound terms, tie-break on relation size.
        let (pick, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &ai)| {
                let atom = &q.body[ai];
                let bound = atom
                    .terms
                    .iter()
                    .filter(|t| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => bindings.first().is_some_and(|b| b.get(v).is_some()),
                    })
                    .count();
                let size = db
                    .relation(atom.predicate.as_str())
                    .map(Relation::len)
                    .unwrap_or(usize::MAX);
                (i, (usize::MAX - bound, size))
            })
            .min_by_key(|&(_, k)| k)
            .expect("remaining is non-empty");
        let atom_idx = remaining.swap_remove(pick);
        let atom = &q.body[atom_idx];
        let rel = db.relation(atom.predicate.as_str())?;

        let mut next = Vec::with_capacity(bindings.len());
        for b in &bindings {
            // Pick a probe column: a position whose term evaluates under b.
            let probe = atom
                .terms
                .iter()
                .enumerate()
                .find_map(|(i, t)| b.eval_term(t).map(|v| (i, v)));
            match probe {
                Some((col, v)) => {
                    for t in rel.lookup(col, &v) {
                        if let Some(b2) = extend(b, atom, t) {
                            next.push(b2);
                        }
                    }
                }
                None => {
                    for t in rel.scan() {
                        if let Some(b2) = extend(b, atom, t) {
                            next.push(b2);
                        }
                    }
                }
            }
        }
        bindings = next;
        if bindings.is_empty() {
            break;
        }
    }

    // Project and group by output tuple.
    let mut grouped: BTreeMap<Tuple, Vec<Binding>> = BTreeMap::new();
    for b in bindings {
        let out: Option<Vec<Value>> = q.head.terms.iter().map(|t| b.eval_term(t)).collect();
        let out = out.expect("safe query: every head var is bound by the body");
        grouped.entry(Tuple::new(out)).or_default().push(b);
    }
    let rows = grouped
        .into_iter()
        .map(|(tuple, mut bindings)| {
            bindings.sort();
            bindings.dedup();
            AnswerRow { tuple, bindings }
        })
        .collect();
    Ok(QueryAnswer { rows })
}

/// Tries to extend binding `b` so that `atom` matches stored tuple `t`.
fn extend(b: &Binding, atom: &citesys_cq::Atom, t: &Tuple) -> Option<Binding> {
    let mut out = b.clone();
    for (term, v) in atom.terms.iter().zip(t.values()) {
        match term {
            Term::Const(c) => {
                if c != v {
                    return None;
                }
            }
            Term::Var(var) => match out.get(var) {
                Some(bound) => {
                    if bound != v {
                        return None;
                    }
                }
                None => out.bind(var.clone(), v.clone()),
            },
        }
    }
    Some(out)
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
