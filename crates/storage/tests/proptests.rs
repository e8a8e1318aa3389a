//! Property-based tests for the storage layer.

use std::collections::{BTreeMap, BTreeSet};

use citesys_cq::{parse_query, Atom, ConjunctiveQuery, Symbol, Term, Value, ValueType};
use citesys_storage::{
    digest_database, evaluate, sha256, Database, RelationSchema, Sha256, Tuple, VersionedDatabase,
};
use proptest::prelude::*;

fn r_schema() -> RelationSchema {
    RelationSchema::from_parts("R", &[("A", ValueType::Int), ("B", ValueType::Int)], &[])
}

fn small_tuple() -> impl Strategy<Value = Tuple> {
    (0i64..8, 0i64..8).prop_map(|(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)]))
}

/// A mutation script: true = insert, false = delete.
fn script() -> impl Strategy<Value = Vec<(bool, Tuple)>> {
    prop::collection::vec((any::<bool>(), small_tuple()), 0..60)
}

/// The relations of the differential test: name, column types.
const REL: [(&str, &[ValueType]); 3] = [
    ("R", &[ValueType::Int, ValueType::Int]),
    ("S", &[ValueType::Int, ValueType::Int, ValueType::Int]),
    ("T", &[ValueType::Int, ValueType::Text]),
];

/// Variable names whose `Symbol` order differs from first-use order.
const VARS: [&str; 4] = ["Z", "B", "X", "A"];

/// A value of `ty` from a small domain, so that joins and constants hit.
fn value(ty: ValueType, pick: u8) -> Value {
    match ty {
        ValueType::Text => Value::text(["a", "b", "c"][usize::from(pick % 3)]),
        _ => Value::Int(i64::from(pick % 3)),
    }
}

/// A term drawn from `pick`: one of the four variables or a constant.
fn term(ty: ValueType, pick: u8) -> Term {
    match pick {
        0..=3 => Term::Var(Symbol::new(VARS[usize::from(pick)])),
        _ => Term::Const(value(ty, pick)),
    }
}

/// A random CQ over [`REL`]: `atoms` is (relation, term picks) per body
/// atom; `head` picks the head terms among the body's variables and
/// constants, so the query is always safe.
fn random_query(atoms: &[(usize, Vec<u8>)], head: &[u8]) -> ConjunctiveQuery {
    let body: Vec<Atom> = atoms
        .iter()
        .map(|(rel, picks)| {
            let (name, types) = REL[*rel];
            Atom::new(
                name,
                types
                    .iter()
                    .zip(picks)
                    .map(|(&ty, &p)| term(ty, p))
                    .collect(),
            )
        })
        .collect();
    let body_vars: Vec<&Symbol> = body.iter().flat_map(Atom::vars).collect();
    let head = head
        .iter()
        .map(|&pick| match body_vars.get(usize::from(pick)) {
            Some(v) => Term::Var((*v).clone()),
            None => Term::Const(value(ValueType::Int, pick)),
        })
        .collect();
    ConjunctiveQuery::new(Atom::new("Q", head), body, Vec::new()).unwrap()
}

/// One answer row as plain data: the tuple, then each binding as its
/// `(variable, value)` list, in the order the evaluator reports them.
type PlainRow = (Tuple, Vec<Vec<(String, Value)>>);

/// The answer by nested loops over every combination of stored tuples:
/// bindings as maps, rows grouped and ordered by a `BTreeMap`.
fn nested_loops(db: &Database, q: &ConjunctiveQuery) -> Vec<PlainRow> {
    let mut bindings = vec![BTreeMap::<String, Value>::new()];
    for atom in &q.body {
        let rel = db.relation(atom.predicate.as_str()).unwrap();
        let mut next = Vec::new();
        for b in &bindings {
            'tuple: for t in rel.scan() {
                let mut b = b.clone();
                for (term, v) in atom.terms.iter().zip(t.values()) {
                    let fits = match term {
                        Term::Const(c) => c == v,
                        Term::Var(x) => b.entry(x.to_string()).or_insert_with(|| v.clone()) == v,
                    };
                    if !fits {
                        continue 'tuple;
                    }
                }
                next.push(b);
            }
        }
        bindings = next;
    }
    let mut rows: BTreeMap<Tuple, BTreeSet<Vec<(String, Value)>>> = BTreeMap::new();
    for b in bindings {
        let tuple = q
            .head
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(c) => c.clone(),
                Term::Var(x) => b[x.as_str()].clone(),
            })
            .collect();
        rows.entry(tuple)
            .or_default()
            .insert(b.into_iter().collect());
    }
    rows.into_iter()
        .map(|(t, bs)| (t, bs.into_iter().collect()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The relation behaves like a set under arbitrary insert/delete
    /// scripts: `contains`, `len` and `scan` all agree with a model
    /// `BTreeSet`.
    #[test]
    fn relation_matches_set_model(ops in script()) {
        let mut db = Database::new();
        db.create_relation(r_schema()).unwrap();
        let mut model = std::collections::BTreeSet::new();
        for (is_insert, t) in ops {
            if is_insert {
                db.insert("R", t.clone()).unwrap();
                model.insert(t);
            } else {
                db.delete("R", &t).unwrap();
                model.remove(&t);
            }
        }
        let rel = db.relation("R").unwrap();
        prop_assert_eq!(rel.len(), model.len());
        let mut scanned: Vec<Tuple> = rel.scan().cloned().collect();
        scanned.sort();
        let expected: Vec<Tuple> = model.iter().cloned().collect();
        prop_assert_eq!(scanned, expected);
        for t in &model {
            prop_assert!(rel.contains(t));
        }
    }

    /// Index lookups agree with filtered scans on every column.
    #[test]
    fn index_agrees_with_scan(ops in script(), col in 0usize..2, key in 0i64..8) {
        let mut db = Database::new();
        db.create_relation(r_schema()).unwrap();
        for (is_insert, t) in ops {
            if is_insert {
                db.insert("R", t).unwrap();
            } else {
                db.delete("R", &t).unwrap();
            }
        }
        let rel = db.relation("R").unwrap();
        let v = Value::Int(key);
        let mut via_index: Vec<Tuple> = rel.lookup(col, &v).cloned().collect();
        let mut via_scan: Vec<Tuple> =
            rel.scan().filter(|t| t.get(col) == Some(&v)).cloned().collect();
        via_index.sort();
        via_scan.sort();
        prop_assert_eq!(via_index, via_scan);
    }

    /// A full single-atom query returns exactly the stored tuples.
    #[test]
    fn single_atom_query_is_scan(ops in script()) {
        let mut db = Database::new();
        db.create_relation(r_schema()).unwrap();
        for (is_insert, t) in ops {
            if is_insert { db.insert("R", t).unwrap(); } else { db.delete("R", &t).unwrap(); }
        }
        let q = parse_query("Q(A, B) :- R(A, B)").unwrap();
        let a = evaluate(&db, &q).unwrap();
        let mut expected: Vec<Tuple> = db.relation("R").unwrap().scan().cloned().collect();
        expected.sort();
        let got: Vec<Tuple> = a.tuples().cloned().collect();
        prop_assert_eq!(got, expected);
        // Exactly one binding per tuple for a full projection.
        prop_assert!(a.rows.iter().all(|r| r.bindings.len() == 1));
    }

    /// Join results match a nested-loop reference implementation.
    #[test]
    fn join_matches_nested_loops(ops1 in script(), ops2 in script()) {
        let mut db = Database::new();
        db.create_relation(r_schema()).unwrap();
        db.create_relation(RelationSchema::from_parts(
            "S", &[("A", ValueType::Int), ("B", ValueType::Int)], &[])).unwrap();
        for (is_insert, t) in ops1 {
            if is_insert { db.insert("R", t).unwrap(); } else { db.delete("R", &t).unwrap(); }
        }
        for (is_insert, t) in ops2 {
            if is_insert { db.insert("S", t).unwrap(); } else { db.delete("S", &t).unwrap(); }
        }
        let q = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)").unwrap();
        let a = evaluate(&db, &q).unwrap();
        // Reference: nested loops with dedup.
        let mut expected = std::collections::BTreeSet::new();
        for r in db.relation("R").unwrap().scan() {
            for s in db.relation("S").unwrap().scan() {
                if r.get(1) == s.get(0) {
                    expected.insert(Tuple::new(vec![
                        r.get(0).unwrap().clone(),
                        s.get(1).unwrap().clone(),
                    ]));
                }
            }
        }
        let got: std::collections::BTreeSet<Tuple> = a.tuples().cloned().collect();
        prop_assert_eq!(got, expected);
    }

    /// Snapshot at the latest version equals the committed working state.
    #[test]
    fn snapshot_latest_equals_current(ops in script()) {
        let mut v = VersionedDatabase::new(vec![r_schema()]).unwrap();
        for (is_insert, t) in ops {
            if is_insert { v.insert("R", t).unwrap(); } else { v.delete("R", &t).unwrap(); }
        }
        let ver = v.commit();
        let snap = v.snapshot(ver).unwrap();
        prop_assert_eq!(digest_database(snap.as_ref()), digest_database(v.current()));
    }

    /// Historical snapshots are immutable: later commits never change an
    /// earlier version's digest.
    #[test]
    fn snapshots_immutable(ops1 in script(), ops2 in script()) {
        let mut v = VersionedDatabase::new(vec![r_schema()]).unwrap();
        for (is_insert, t) in ops1 {
            if is_insert { v.insert("R", t).unwrap(); } else { v.delete("R", &t).unwrap(); }
        }
        let v1 = v.commit();
        let d1 = v.digest_at(v1).unwrap();
        for (is_insert, t) in ops2 {
            if is_insert { v.insert("R", t).unwrap(); } else { v.delete("R", &t).unwrap(); }
        }
        v.commit();
        prop_assert_eq!(v.digest_at(v1).unwrap(), d1);
    }

    /// SHA-256 over arbitrary chunkings equals the one-shot hash.
    #[test]
    fn sha256_chunking_invariant(data in prop::collection::vec(any::<u8>(), 0..300),
                                 cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6)) {
        let mut points: Vec<usize> = cuts.iter().map(|i| i.index(data.len() + 1)).collect();
        points.push(0);
        points.push(data.len());
        points.sort_unstable();
        let mut h = Sha256::new();
        for w in points.windows(2) {
            h.update(&data[w[0]..w[1]]);
        }
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// Delta-maintained materializations equal from-scratch recomputation
    /// after every step of an arbitrary insert/delete script, for a panel
    /// of view shapes (projection, self-join, repeated variable, pinned
    /// constant — including a view that never mentions the updated
    /// relation and must stay byte-identical without recomputation).
    #[test]
    fn delta_maintenance_matches_recompute(ops in script()) {
        use citesys_storage::delta;
        let views = [
            parse_query("V1(A, B) :- R(A, B)").unwrap(),
            parse_query("V2(A) :- R(A, B)").unwrap(),
            parse_query("V3(A, C) :- R(A, B), R(B, C)").unwrap(),
            parse_query("V4(A) :- R(A, A)").unwrap(),
            parse_query("V5(B) :- R(3, B)").unwrap(),
            parse_query("V6(X) :- S(X)").unwrap(),
        ];
        let mut db = Database::new();
        db.create_relation(r_schema()).unwrap();
        db.create_relation(RelationSchema::from_parts("S", &[("X", ValueType::Int)], &[]))
            .unwrap();
        db.insert("S", Tuple::new(vec![Value::Int(7)])).unwrap();

        let materialize = |db: &Database, v: &citesys_cq::ConjunctiveQuery| {
            evaluate(db, v)
                .unwrap()
                .rows
                .into_iter()
                .map(|r| r.tuple)
                .collect::<std::collections::BTreeSet<Tuple>>()
        };
        let mut mats: Vec<std::collections::BTreeSet<Tuple>> =
            views.iter().map(|v| materialize(&db, v)).collect();

        for (is_insert, t) in ops {
            if is_insert {
                // Candidates need nothing for inserts; mutate, then delta.
                db.insert("R", t.clone()).unwrap();
                for (v, mat) in views.iter().zip(mats.iter_mut()) {
                    for row in delta::insert_delta(&db, v, "R", &t).unwrap() {
                        mat.insert(row);
                    }
                }
            } else {
                let candidates: Vec<Vec<Tuple>> = views
                    .iter()
                    .map(|v| delta::delete_candidates(&db, v, "R", &t).unwrap())
                    .collect();
                db.delete("R", &t).unwrap();
                for ((v, mat), cands) in views.iter().zip(mats.iter_mut()).zip(candidates) {
                    for row in cands {
                        if !delta::still_derivable(&db, v, &row).unwrap() {
                            mat.remove(&row);
                        }
                    }
                }
            }
            for (v, mat) in views.iter().zip(mats.iter()) {
                prop_assert_eq!(mat, &materialize(&db, v), "view {} diverged", v.name());
            }
        }
    }

    /// Batch delta maintenance equals recomputation: the same arbitrary
    /// scripts, chopped into transactions of mixed inserts and deletes and
    /// applied as one `Changeset` each — net normalization, one
    /// `delete_candidates_batch` over the pre-batch database, one
    /// `insert_delta_batch` + recheck over the single post-batch database.
    #[test]
    fn batch_delta_maintenance_matches_recompute(
        (ops, chunk) in (script(), 1usize..9)
    ) {
        use citesys_storage::{delta, Changeset};
        let views = [
            parse_query("V1(A, B) :- R(A, B)").unwrap(),
            parse_query("V2(A) :- R(A, B)").unwrap(),
            parse_query("V3(A, C) :- R(A, B), R(B, C)").unwrap(),
            parse_query("V4(A) :- R(A, A)").unwrap(),
            parse_query("V5(B) :- R(3, B)").unwrap(),
            parse_query("V6(X) :- S(X)").unwrap(),
        ];
        let mut db = Database::new();
        db.create_relation(r_schema()).unwrap();
        db.create_relation(RelationSchema::from_parts("S", &[("X", ValueType::Int)], &[]))
            .unwrap();
        db.insert("S", Tuple::new(vec![Value::Int(7)])).unwrap();

        let materialize = |db: &Database, v: &citesys_cq::ConjunctiveQuery| {
            evaluate(db, v)
                .unwrap()
                .rows
                .into_iter()
                .map(|r| r.tuple)
                .collect::<std::collections::BTreeSet<Tuple>>()
        };
        let mut mats: Vec<std::collections::BTreeSet<Tuple>> =
            views.iter().map(|v| materialize(&db, v)).collect();

        for batch in ops.chunks(chunk) {
            let mut changes = Changeset::new();
            for (is_insert, t) in batch {
                if *is_insert {
                    changes.insert("R", t.clone());
                } else {
                    changes.delete("R", t.clone());
                }
            }
            let net = changes.net(&db);
            let candidates: Vec<Vec<Tuple>> = views
                .iter()
                .map(|v| delta::delete_candidates_batch(&db, v, &net.deletes).unwrap())
                .collect();
            changes.apply(&mut db).unwrap();
            for ((v, mat), cands) in views.iter().zip(mats.iter_mut()).zip(candidates) {
                for row in cands {
                    if !delta::still_derivable(&db, v, &row).unwrap() {
                        mat.remove(&row);
                    }
                }
                for row in delta::insert_delta_batch(&db, v, &net.inserts).unwrap() {
                    mat.insert(row);
                }
            }
            for (v, mat) in views.iter().zip(mats.iter()) {
                prop_assert_eq!(mat, &materialize(&db, v), "view {} diverged", v.name());
            }
        }
    }

    /// `evaluate` gives exactly the nested-loop answer — the same tuples
    /// in the same order, each with the same bindings in the same order —
    /// for random CQs: constants, repeated variables, cross products,
    /// constant heads and the empty body.
    #[test]
    fn evaluate_matches_nested_loops(
        rows in (
            prop::collection::vec((0u8..6, 0u8..6), 0..8),
            prop::collection::vec((0u8..6, 0u8..6, 0u8..6), 0..8),
            prop::collection::vec((0u8..6, 0u8..6), 0..8),
        ),
        atoms in prop::collection::vec((0usize..3, prop::collection::vec(0u8..7, 3..4)), 0..4),
        head in prop::collection::vec(0u8..9, 0..4),
    ) {
        let mut db = Database::new();
        for (name, types) in REL {
            let attrs: Vec<(String, ValueType)> =
                types.iter().enumerate().map(|(i, &ty)| (format!("C{i}"), ty)).collect();
            let attrs: Vec<(&str, ValueType)> =
                attrs.iter().map(|(a, ty)| (a.as_str(), *ty)).collect();
            db.create_relation(RelationSchema::from_parts(name, &attrs, &[])).unwrap();
        }
        let (r, s, t) = rows;
        let ints = |picks: &[u8]| Tuple::new(picks.iter().map(|&p| value(ValueType::Int, p)).collect::<Vec<_>>());
        for (a, b) in r {
            db.insert("R", ints(&[a, b])).unwrap();
        }
        for (a, b, c) in s {
            db.insert("S", ints(&[a, b, c])).unwrap();
        }
        for (a, b) in t {
            db.insert("T", Tuple::new(vec![value(ValueType::Int, a), value(ValueType::Text, b)])).unwrap();
        }
        let q = random_query(&atoms, &head);
        let got: Vec<PlainRow> = evaluate(&db, &q)
            .unwrap()
            .rows
            .into_iter()
            .map(|row| {
                let bindings = row.bindings.iter().map(|b| {
                    b.iter().map(|(v, x)| (v.to_string(), x.clone())).collect()
                });
                (row.tuple, bindings.collect())
            })
            .collect();
        prop_assert_eq!(got, nested_loops(&db, &q), "query {}", q);
    }
}
