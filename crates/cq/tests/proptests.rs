//! Property-based tests for the conjunctive-query layer.

use citesys_cq::{
    are_equivalent, is_contained_in, minimize, parse_query, write_value, Atom, ConjunctiveQuery,
    Substitution, Symbol, Term, Value,
};
use citesys_net::protocol::{parse_command, Command};
use citesys_storage::{Changeset, Tuple};
use proptest::prelude::*;

/// Strategy for a small pool of variable names.
fn var_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["X", "Y", "Z", "W", "U", "V"]).prop_map(str::to_string)
}

/// Strategy for a constant value.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-20i64..20).prop_map(Value::Int),
        prop::sample::select(vec!["a", "b", "c"]).prop_map(Value::text),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// Strategy for any constant, text drawn from the characters the literal
/// grammar treats specially (quotes, escapes, comment and clause marks,
/// control characters) plus a few ordinary and non-ASCII ones.
fn literal_value() -> impl Strategy<Value = Value> {
    let chars = vec![
        'a', 'Z', '0', ' ', '\'', '"', '\\', '\n', '\r', '\t', '#', '|', ',', '(', ')', '@', '%',
        'n', 't', 'é', 'λ',
    ];
    prop_oneof![
        1 => any::<i64>().prop_map(Value::Int),
        1 => any::<bool>().prop_map(Value::Bool),
        3 => prop::collection::vec(prop::sample::select(chars), 0..12)
            .prop_map(|cs| Value::text(cs.into_iter().collect::<String>())),
    ]
}

/// Strategy for a term: mostly variables, some constants.
fn term() -> impl Strategy<Value = Term> {
    prop_oneof![
        3 => var_name().prop_map(Term::var),
        1 => value().prop_map(Term::Const),
    ]
}

/// Strategy for a body atom over a fixed vocabulary (R/2, S/2, T/3, E/2).
fn body_atom() -> impl Strategy<Value = Atom> {
    prop_oneof![
        (term(), term()).prop_map(|(a, b)| Atom::new("R", vec![a, b])),
        (term(), term()).prop_map(|(a, b)| Atom::new("S", vec![a, b])),
        (term(), term(), term()).prop_map(|(a, b, c)| Atom::new("T", vec![a, b, c])),
        (term(), term()).prop_map(|(a, b)| Atom::new("E", vec![a, b])),
    ]
}

/// Strategy for a safe conjunctive query: the head projects a subset of the
/// body's variables.
fn cq() -> impl Strategy<Value = ConjunctiveQuery> {
    (
        prop::collection::vec(body_atom(), 1..5),
        any::<prop::sample::Index>(),
    )
        .prop_map(|(body, idx)| {
            let vars: Vec<Symbol> = {
                let mut seen = std::collections::BTreeSet::new();
                body.iter()
                    .flat_map(|a| a.vars().cloned())
                    .filter(|v| seen.insert(v.clone()))
                    .collect()
            };
            let head_terms: Vec<Term> = if vars.is_empty() {
                Vec::new()
            } else {
                // Project a prefix of the variables, at least one.
                let k = 1 + idx.index(vars.len());
                vars.iter().take(k).cloned().map(Term::Var).collect()
            };
            ConjunctiveQuery::new(Atom::new("Q", head_terms), body, vec![])
                .expect("generated query is safe by construction")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Printing a query and re-parsing it yields the same query.
    #[test]
    fn parse_display_round_trip(q in cq()) {
        let printed = q.to_string();
        let reparsed = parse_query(&printed).expect("printed query parses");
        prop_assert_eq!(q, reparsed);
    }

    /// Any value the shared writer prints reads back equal through every
    /// text that carries one: an `insert` line, a query constant and
    /// changeset (WAL) text.
    #[test]
    fn written_values_read_back_everywhere(v in literal_value()) {
        let mut lit = String::new();
        write_value(&mut lit, &v).unwrap();
        match parse_command(&format!("insert R({lit}, 1) # note")) {
            Ok(Some(Command::Insert { rel, tuple })) => {
                prop_assert_eq!(rel, "R");
                prop_assert_eq!(tuple.values(), &[v.clone(), Value::Int(1)][..]);
            }
            other => prop_assert!(false, "insert R({lit}, 1): {other:?}"),
        }
        let q = parse_query(&format!("Q(X) :- R({lit}, X)")).expect("query constant parses");
        prop_assert_eq!(&q.body[0].terms[0], &Term::Const(v.clone()));
        let mut c = Changeset::new();
        c.insert("R", Tuple::new(vec![v.clone()]));
        let text = c.to_text();
        prop_assert!(text.ends_with(&format!("i R({lit})\n")), "{text:?}");
        prop_assert_eq!(Changeset::from_text(&text).unwrap(), c);
    }

    /// Containment is reflexive.
    #[test]
    fn containment_reflexive(q in cq()) {
        prop_assert!(is_contained_in(&q, &q));
    }

    /// Minimization preserves equivalence.
    #[test]
    fn minimize_preserves_equivalence(q in cq()) {
        let m = minimize(&q);
        prop_assert!(are_equivalent(&q, &m));
        prop_assert!(m.body.len() <= q.body.len());
    }

    /// Minimization is idempotent.
    #[test]
    fn minimize_idempotent(q in cq()) {
        let m = minimize(&q);
        let mm = minimize(&m);
        prop_assert_eq!(m.body.len(), mm.body.len());
    }

    /// Adding a body atom that duplicates an existing one never changes the
    /// query's meaning.
    #[test]
    fn duplicate_atom_is_redundant(q in cq()) {
        let mut fat = q.clone();
        fat.body.push(q.body[0].clone());
        prop_assert!(are_equivalent(&q, &fat));
    }

    /// α-renaming all variables yields an equivalent query with an equal
    /// canonical form.
    #[test]
    fn canonical_alpha_invariant(q in cq()) {
        let s = Substitution::from_pairs(
            q.vars().into_iter().map(|v| {
                let renamed = Term::Var(Symbol::new(format!("Fresh{}", v.as_str())));
                (v, renamed)
            })
        );
        let r = q.apply(&s);
        prop_assert!(are_equivalent(&q, &r));
        prop_assert_eq!(q.canonical(), r.canonical());
    }

    /// Specializing a query by grounding one variable keeps it contained in
    /// the original.
    #[test]
    fn grounding_specializes(q in cq(), n in -20i64..20) {
        let vars = q.vars();
        prop_assume!(!vars.is_empty());
        let s = Substitution::from_pairs([(vars[0].clone(), Term::constant(n))]);
        let grounded = q.apply(&s);
        // Grounding a head variable may make the head unsafe-by-constant,
        // which is fine for containment checks.
        prop_assert!(is_contained_in(&grounded, &q));
    }

    /// Containment is transitive on sampled triples (weak spot-check: we
    /// verify the implication rather than searching for counterexamples).
    #[test]
    fn containment_transitive(q1 in cq(), q2 in cq(), q3 in cq()) {
        if is_contained_in(&q1, &q2) && is_contained_in(&q2, &q3) {
            prop_assert!(is_contained_in(&q1, &q3));
        }
    }

    /// rename_apart produces a query equivalent to the original.
    #[test]
    fn rename_apart_equivalent(q in cq(), n in 0usize..100) {
        let r = q.rename_apart(n);
        prop_assert!(are_equivalent(&q, &r));
    }

    /// α-acyclicity is invariant under variable renaming and body-atom
    /// permutation (the hypergraph ignores both).
    #[test]
    fn acyclicity_alpha_invariant(q in cq()) {
        use citesys_cq::is_acyclic;
        let a1 = is_acyclic(&q);
        let renamed = q.rename_apart(3);
        prop_assert_eq!(a1, is_acyclic(&renamed));
        let mut shuffled = q.clone();
        shuffled.body.reverse();
        prop_assert_eq!(a1, is_acyclic(&shuffled));
    }

    /// Adding an edge covering ALL variables makes any query α-acyclic
    /// (the covering edge is a valid join-tree root).
    #[test]
    fn covering_edge_makes_acyclic(q in cq()) {
        use citesys_cq::is_acyclic;
        let vars: Vec<Term> = q.vars().into_iter().map(Term::Var).collect();
        prop_assume!(!vars.is_empty());
        let mut fat = q.clone();
        fat.body.push(Atom::new("Cover", vars));
        prop_assert!(is_acyclic(&fat));
    }

    /// Chains of any length are acyclic; cycles of length ≥ 3 are not.
    #[test]
    fn chains_acyclic_cycles_not(n in 3usize..8) {
        use citesys_cq::{is_acyclic, parse_query};
        let chain_body: Vec<String> =
            (0..n).map(|i| format!("E(X{i}, X{})", i + 1)).collect();
        let chain = parse_query(
            &format!("Q(X0, X{n}) :- {}", chain_body.join(", "))).unwrap();
        prop_assert!(is_acyclic(&chain));
        let mut cycle_body: Vec<String> =
            (0..n - 1).map(|i| format!("E(X{i}, X{})", i + 1)).collect();
        cycle_body.push(format!("E(X{}, X0)", n - 1));
        let cycle = parse_query(
            &format!("Q(X0) :- {}", cycle_body.join(", "))).unwrap();
        prop_assert!(!is_acyclic(&cycle));
    }
}
