//! Property-based tests for the citation engine and its algebra.
//!
//! Random small GtoPdb-shaped instances (families with controlled name
//! duplication, intros for a subset) are cited under both engine modes and
//! several policies; the tests assert the semantic invariants of §2.
//! Random `CiteExpr`s check the algebra's laws: syntactic ones on
//! `normalize`, and semantic ones on its interpretation under each policy.

use std::collections::BTreeSet;

use citesys_core::paper;
use citesys_core::policy::{atoms_for_tuple, choose_rewriting};
use citesys_core::{
    AltPolicy, CitationMode, CitationService, CiteAtom, CiteExpr, EngineOptions, PolicySet,
    RewritePolicy, RewritingChoice,
};
use citesys_cq::Value;
use citesys_storage::{evaluate, Database, Tuple};
use proptest::prelude::*;

fn service(db: &Database, options: EngineOptions) -> CitationService {
    CitationService::builder()
        .database(db.clone())
        .registry(paper::paper_registry())
        .options(options)
        .build()
        .unwrap()
}

/// Random instance: families (id, name index, desc index) and which ids
/// get an intro. Small name pool forces duplicate names (multi-binding
/// tuples).
#[derive(Clone, Debug)]
struct Instance {
    families: Vec<(i64, u8, u8)>,
    intros: Vec<i64>,
}

fn instance() -> impl Strategy<Value = Instance> {
    (
        prop::collection::btree_map(0i64..12, (0u8..4, 0u8..6), 1..10),
        prop::collection::btree_set(0i64..12, 0..10),
    )
        .prop_map(|(fams, intros)| Instance {
            families: fams.into_iter().map(|(id, (n, d))| (id, n, d)).collect(),
            intros: intros.into_iter().collect(),
        })
}

fn build_db(inst: &Instance) -> Database {
    let mut db = Database::new();
    for s in paper::paper_schemas() {
        db.create_relation(s).unwrap();
    }
    for &(id, n, d) in &inst.families {
        db.insert(
            "Family",
            Tuple::new(vec![
                Value::Int(id),
                Value::from(format!("Name{n}")),
                Value::from(format!("Desc{d}")),
            ]),
        )
        .unwrap();
        db.insert(
            "Committee",
            Tuple::new(vec![
                Value::Int(id),
                Value::from(format!("Person{}", id % 5)),
            ]),
        )
        .unwrap();
    }
    for &id in &inst.intros {
        if inst.families.iter().any(|&(f, _, _)| f == id) {
            db.insert(
                "FamilyIntro",
                Tuple::new(vec![Value::Int(id), Value::from(format!("Intro{id}"))]),
            )
            .unwrap();
        }
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cited answer always equals direct evaluation, in both modes.
    #[test]
    fn cited_answer_matches_direct_eval(inst in instance()) {
        let db = build_db(&inst);
        let q = paper::paper_query();
        let direct = evaluate(&db, &q).unwrap();
        for mode in [CitationMode::Formal, CitationMode::CostPruned] {
            let svc = service(&db, EngineOptions { mode, ..Default::default() });
            let cited = svc.cite(&q).unwrap();
            prop_assert_eq!(&cited.answer, &direct);
            prop_assert_eq!(cited.tuples.len(), direct.len());
        }
    }

    /// Cost-pruned mode is an *estimate*: it may pick a different (but
    /// never smaller-than-formal-min-size) rewriting. The guarantee is
    /// one-sided: formal min-size produces the true minimum-size
    /// aggregate citation.
    #[test]
    fn formal_min_size_never_worse_than_pruned(inst in instance()) {
        let db = build_db(&inst);
        let q = paper::paper_query();
        let formal = service(&db,
            EngineOptions { mode: CitationMode::Formal, ..Default::default() })
            .cite(&q).unwrap();
        let pruned = service(&db,
            EngineOptions { mode: CitationMode::CostPruned, ..Default::default() })
            .cite(&q).unwrap();
        let f = formal.aggregate.unwrap().atoms.len();
        let p = pruned.aggregate.unwrap().atoms.len();
        prop_assert!(f <= p, "formal min-size {f} > pruned {p}");
    }

    /// Every answer tuple gets a non-empty citation (full coverage) and
    /// every atom references a registered view with correct param count.
    #[test]
    fn citations_are_well_formed(inst in instance()) {
        let db = build_db(&inst);
        let q = paper::paper_query();
        let svc = service(&db,
            EngineOptions { mode: CitationMode::Formal, ..Default::default() });
        let cited = svc.cite(&q).unwrap();
        for t in &cited.tuples {
            prop_assert!(!t.atoms.is_empty());
            for a in &t.atoms {
                let cv = svc.registry().get(a.view.as_str()).expect("registered view");
                prop_assert_eq!(a.params.len(), cv.view.params.len());
            }
            prop_assert_eq!(t.snippets.len(), t.atoms.len());
        }
    }

    /// Min-size never produces more aggregate atoms than union, and the
    /// chosen branch's atoms appear in the union result.
    #[test]
    fn min_size_subset_of_union(inst in instance()) {
        let db = build_db(&inst);
        let q = paper::paper_query();
        let run = |rp: RewritePolicy| {
            service(&db, EngineOptions {
                mode: CitationMode::Formal,
                policies: PolicySet { rewritings: rp, ..Default::default() },
                ..Default::default()
            }).cite(&q).unwrap()
        };
        let min = run(RewritePolicy::MinSize);
        let all = run(RewritePolicy::Union);
        let min_agg = min.aggregate.unwrap().atoms;
        let all_agg = all.aggregate.unwrap().atoms;
        prop_assert!(min_agg.is_subset(&all_agg));
    }

    /// The symbolic expression per tuple is stable: one branch per
    /// rewriting, each binding contributing a product with one atom per
    /// view atom of that rewriting.
    #[test]
    fn expression_structure(inst in instance()) {
        let db = build_db(&inst);
        let q = paper::paper_query();
        let svc = service(&db,
            EngineOptions { mode: CitationMode::Formal, ..Default::default() });
        let cited = svc.cite(&q).unwrap();
        for (row, t) in cited.answer.rows.iter().zip(&cited.tuples) {
            prop_assert_eq!(t.branches.len(), cited.rewritings.len());
            for (branch, rw) in t.branches.iter().zip(&cited.rewritings) {
                // Each branch's atom count ≤ bindings × view atoms.
                let max_atoms = row.bindings.len() * rw.body.len();
                prop_assert!(branch.atoms().len() <= max_atoms);
                // Branch is never the zero citation for a real tuple
                // (equivalent rewritings derive every tuple).
                prop_assert_ne!(branch, &CiteExpr::zero());
            }
        }
    }
}

/// A citation atom over three views, unparameterized or with one small
/// int parameter.
fn atom(view: u8, param: i64) -> CiteExpr {
    let params = (param >= 0).then_some(Value::Int(param)).into_iter();
    CiteExpr::Atom(CiteAtom::new(
        ["A", "B", "C"][usize::from(view)],
        params.collect(),
    ))
}

/// Raw (un-normalized) expressions up to depth 3: atoms, `0` and `1` at
/// the leaves; `·` and `+` nodes, and `+R` nodes when `alt_r` is set.
fn expr_with(alt_r: bool) -> BoxedStrategy<CiteExpr> {
    let leaf = prop_oneof![
        6 => (0u8..3, -1i64..3).prop_map(|(v, p)| atom(v, p)),
        1 => Just(CiteExpr::zero()),
        1 => Just(CiteExpr::one()),
    ];
    leaf.prop_recursive(3, 24, 4, move |inner| {
        let node = |f: fn(Vec<CiteExpr>) -> CiteExpr| {
            prop::collection::vec(inner.clone(), 0..4).prop_map(f)
        };
        if alt_r {
            prop_oneof![
                node(CiteExpr::Prod),
                node(CiteExpr::Sum),
                node(CiteExpr::AltR)
            ]
            .boxed()
        } else {
            prop_oneof![node(CiteExpr::Prod), node(CiteExpr::Sum)].boxed()
        }
    })
}

fn expr() -> BoxedStrategy<CiteExpr> {
    expr_with(true)
}

/// Expressions without `+R`: what one rewriting's branch looks like.
fn term() -> BoxedStrategy<CiteExpr> {
    expr_with(false)
}

/// `rows × width` branch matrices, width 1..=3.
fn matrix() -> impl Strategy<Value = Vec<Vec<CiteExpr>>> {
    (
        prop::collection::vec(prop::collection::vec(term(), 3), 0..5),
        1usize..4,
    )
        .prop_map(|(mut rows, width)| {
            rows.iter_mut().for_each(|r| r.truncate(width));
            rows
        })
}

/// The atoms `e` cites under the `+` policy `alt`.
fn interp(alt: AltPolicy, e: &CiteExpr) -> BTreeSet<CiteAtom> {
    let policies = PolicySet {
        alt,
        ..Default::default()
    };
    atoms_for_tuple(&policies, std::slice::from_ref(e), RewritingChoice::All)
}

fn union(e: &CiteExpr) -> BTreeSet<CiteAtom> {
    interp(AltPolicy::Union, e)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn normalize_is_idempotent(e in expr()) {
        let n = e.normalize();
        prop_assert_eq!(n.normalize(), n);
    }

    #[test]
    fn sum_and_prod_are_commutative_associative_idempotent(
        a in expr(), b in expr(), c in expr()
    ) {
        for op in [CiteExpr::sum, CiteExpr::prod] {
            prop_assert_eq!(op(vec![a.clone(), b.clone()]), op(vec![b.clone(), a.clone()]));
            prop_assert_eq!(
                op(vec![op(vec![a.clone(), b.clone()]), c.clone()]),
                op(vec![a.clone(), op(vec![b.clone(), c.clone()])])
            );
            prop_assert_eq!(op(vec![a.clone(), a.clone()]), a.normalize());
        }
    }

    #[test]
    fn zero_and_one_are_identities(a in expr()) {
        prop_assert_eq!(CiteExpr::sum(vec![a.clone(), CiteExpr::zero()]), a.normalize());
        prop_assert_eq!(CiteExpr::prod(vec![a.clone(), CiteExpr::one()]), a.normalize());
    }

    #[test]
    fn alt_r_is_associative_and_idempotent(a in expr(), b in expr(), c in expr()) {
        prop_assert_eq!(
            CiteExpr::alt_r(vec![CiteExpr::alt_r(vec![a.clone(), b.clone()]), c.clone()]),
            CiteExpr::alt_r(vec![a.clone(), CiteExpr::alt_r(vec![b, c])])
        );
        prop_assert_eq!(CiteExpr::alt_r(vec![a.clone(), a.clone()]), a.normalize());
    }

    /// The `+R` contract: alternatives stay in rewriting order, so `+R`
    /// is deliberately not commutative.
    #[test]
    fn alt_r_keeps_rewriting_order(a in term(), b in term()) {
        let (na, nb) = (a.normalize(), b.normalize());
        prop_assume!(na != nb);
        let ab = CiteExpr::alt_r(vec![a.clone(), b.clone()]);
        prop_assert_eq!(ab.rewriting_branches(), vec![&na, &nb]);
        prop_assert_ne!(ab, CiteExpr::alt_r(vec![b, a]));
    }

    #[test]
    fn union_reading_is_a_homomorphism(a in expr(), b in expr(), c in expr()) {
        let both: BTreeSet<CiteAtom> = union(&a).union(&union(&b)).cloned().collect();
        prop_assert_eq!(union(&CiteExpr::sum(vec![a.clone(), b.clone()])), both.clone());
        prop_assert_eq!(union(&CiteExpr::prod(vec![a.clone(), b.clone()])), both);
        prop_assert_eq!(union(&a.normalize()), union(&a));
        prop_assert_eq!(
            union(&CiteExpr::prod(vec![a.clone(), CiteExpr::sum(vec![b.clone(), c.clone()])])),
            union(&CiteExpr::sum(vec![
                CiteExpr::prod(vec![a.clone(), b]),
                CiteExpr::prod(vec![a.clone(), c]),
            ]))
        );
        prop_assert_eq!(a.estimated_size(), union(&a).len());
    }

    /// `AltPolicy::First` cites a subset of the union, independent of the
    /// order bindings arrive in ("deterministic: bindings are sorted").
    #[test]
    fn alt_first_is_a_deterministic_subset(a in expr(), b in expr()) {
        prop_assert!(interp(AltPolicy::First, &a).is_subset(&union(&a)));
        prop_assert_eq!(
            interp(AltPolicy::First, &CiteExpr::sum(vec![a.clone(), b.clone()])),
            interp(AltPolicy::First, &CiteExpr::sum(vec![b, a]))
        );
    }

    /// `MinSize` picks a branch whose atom union over all rows is minimal,
    /// the lowest such index, whatever order the rows come in.
    #[test]
    fn min_size_picks_lowest_minimal_branch(m in matrix(), shift in 0usize..5) {
        let choice = choose_rewriting(RewritePolicy::MinSize, &m);
        let width = m.first().map_or(0, Vec::len);
        let sizes: Vec<usize> = (0..width)
            .map(|r| m.iter().flat_map(|row| union(&row[r])).collect::<BTreeSet<_>>().len())
            .collect();
        let lowest_min = sizes.iter().enumerate().min_by_key(|&(_, s)| s).map_or(0, |(i, _)| i);
        prop_assert_eq!(choice, RewritingChoice::Index(lowest_min));
        let mut permuted = m.clone();
        permuted.reverse();
        permuted.rotate_left(shift % m.len().max(1));
        prop_assert_eq!(choose_rewriting(RewritePolicy::MinSize, &permuted), choice);
        prop_assert_eq!(choose_rewriting(RewritePolicy::Union, &m), RewritingChoice::All);
        prop_assert_eq!(choose_rewriting(RewritePolicy::First, &m), RewritingChoice::Index(0));
    }
}

/// Pinned non-law: under the union policy `·` and `+` are the same join,
/// so `0` is the identity of `+` but does not annihilate `·`.
#[test]
fn zero_does_not_annihilate_prod() {
    let a = atom(0, 1);
    let a_times_zero = CiteExpr::prod(vec![a.clone(), CiteExpr::zero()]);
    assert_ne!(a_times_zero, CiteExpr::zero());
    assert_eq!(union(&a_times_zero), union(&a));
}

/// Pinned non-law: `AltPolicy::First` keeps the first summand in sorted
/// order, and distributing `·` over `+` changes which summand sorts first.
#[test]
fn alt_first_does_not_distribute() {
    let (a, b) = (atom(1, -1), atom(2, -1));
    let c = CiteExpr::prod(vec![atom(0, -1), atom(0, 1)]);
    let factored = CiteExpr::prod(vec![a.clone(), CiteExpr::sum(vec![b.clone(), c.clone()])]);
    let expanded = CiteExpr::sum(vec![
        CiteExpr::prod(vec![a.clone(), b]),
        CiteExpr::prod(vec![a, c]),
    ]);
    assert_eq!(union(&factored), union(&expanded));
    assert_ne!(
        interp(AltPolicy::First, &factored),
        interp(AltPolicy::First, &expanded)
    );
}
