//! Differential test of the annotation step: the engine (interned atom
//! ids, a row-indexed branch matrix, snippets rendered once and shared)
//! against the per-tuple reference below, which builds `CiteAtom`
//! expressions per binding, keys them by tuple and renders per tuple.
//!
//! Random small instances of the paper's schema are cited under every
//! combination of mode, `+R`, `+` and `·` policy and partial fallback.
//! The two must agree on each tuple's expression, atoms and snippets, the
//! `+R` choice, the coverage, the aggregate and the formatted bytes in
//! every citation format. The proptest shim does not shrink, so every
//! assertion prints the instance beside the shim's seed.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::sync::Arc;

use citesys_core::paper;
use citesys_core::policy::{atoms_for_tuple, choose_rewriting};
use citesys_core::{
    format_citation, AggPolicy, AltPolicy, CitationFormat, CitationFunction, CitationMode,
    CitationQuery, CitationRegistry, CitationService, CitationSnippet, CitationView, CiteAtom,
    CiteExpr, CitedAnswer, Coverage, EngineOptions, JointPolicy, PolicySet, RewritePolicy,
    RewritingChoice,
};
use citesys_cq::{parse_query, ConjunctiveQuery, Symbol, Value};
use citesys_storage::{evaluate, Database, Tuple};
use proptest::prelude::*;

const FORMATS: [CitationFormat; 6] = [
    CitationFormat::Text,
    CitationFormat::BibTex,
    CitationFormat::Ris,
    CitationFormat::Xml,
    CitationFormat::Json,
    CitationFormat::CslJson,
];

/// The instance shape of `proptests.rs` — families (id, name index, desc
/// index) over a small name pool, intros for a subset — plus committee
/// memberships, so a family can have several members.
#[derive(Clone, Debug)]
struct Instance {
    families: Vec<(i64, u8, u8)>,
    intros: Vec<i64>,
    members: Vec<(i64, u8)>,
}

fn instance() -> impl Strategy<Value = Instance> {
    (
        prop::collection::btree_map(0i64..12, (0u8..4, 0u8..6), 1..10),
        prop::collection::btree_set(0i64..12, 0..10),
        prop::collection::btree_set((0i64..12, 0u8..5), 0..14),
    )
        .prop_map(|(fams, intros, members)| Instance {
            families: fams.into_iter().map(|(id, (n, d))| (id, n, d)).collect(),
            intros: intros.into_iter().collect(),
            members: members.into_iter().collect(),
        })
}

fn build_db(inst: &Instance) -> Database {
    let mut db = Database::new();
    for s in paper::paper_schemas() {
        db.create_relation(s).unwrap();
    }
    for &(id, n, d) in &inst.families {
        let row = vec![
            Value::Int(id),
            Value::from(format!("Name{n}")),
            Value::from(format!("Desc{d}")),
        ];
        db.insert("Family", Tuple::new(row)).unwrap();
    }
    for &id in &inst.intros {
        let row = vec![Value::Int(id), Value::from(format!("Intro{id}"))];
        db.insert("FamilyIntro", Tuple::new(row)).unwrap();
    }
    for &(id, p) in &inst.members {
        let row = vec![Value::Int(id), Value::from(format!("Person{p}"))];
        db.insert("Committee", Tuple::new(row)).unwrap();
    }
    db
}

fn view(def: &str, cites: &[&str]) -> CitationView {
    let cites = cites
        .iter()
        .map(|c| CitationQuery::new(parse_query(c).unwrap()))
        .collect();
    CitationView::new(parse_query(def).unwrap(), cites, CitationFunction::new()).unwrap()
}

/// The paper's V1–V3 plus `VC`, a two-parameter λ view over Committee.
fn full_registry() -> CitationRegistry {
    let mut reg = paper::paper_registry();
    reg.add(view(
        "λ FID, PName. VC(FID, PName) :- Committee(FID, PName)",
        &["λ FID, PName. CVC(FID, PName) :- Committee(FID, PName)"],
    ))
    .unwrap();
    reg
}

/// Families are citable only when they have an intro: queries over all
/// families have contained rewritings only.
fn narrow_registry() -> CitationRegistry {
    let mut reg = CitationRegistry::new();
    reg.add(view(
        "λ FID. VN(FID, FName) :- Family(FID, FName, D), FamilyIntro(FID, T)",
        &["λ FID. CVN(FID, T) :- FamilyIntro(FID, T)"],
    ))
    .unwrap();
    reg.add(view(
        "λ FID, PName. VC(FID, PName) :- Committee(FID, PName)",
        &["λ FID, PName. CVC(FID, PName) :- Committee(FID, PName)"],
    ))
    .unwrap();
    reg
}

/// (registry, query) cases. `VC` is used twice in the rewriting of the
/// committee self-join.
fn cases() -> Vec<(CitationRegistry, ConjunctiveQuery)> {
    let q = |s: &str| parse_query(s).unwrap();
    vec![
        (full_registry(), paper::paper_query()),
        (
            full_registry(),
            q("Q(FID, FName, D) :- Family(FID, FName, D)"),
        ),
        (
            full_registry(),
            q("Q(FName, P) :- Family(F, FName, D), Committee(F, P)"),
        ),
        (
            full_registry(),
            q("Q(P1, P2) :- Committee(F, P1), Committee(F, P2)"),
        ),
        (narrow_registry(), q("Q(FName) :- Family(F, FName, D)")),
        (
            narrow_registry(),
            q("Q(FName, P) :- Family(F, FName, D), Committee(F, P)"),
        ),
    ]
}

/// What the per-tuple reference produces for one cite.
#[derive(Debug)]
struct Reference {
    choice: RewritingChoice,
    coverage: Coverage,
    tuples: Vec<(Tuple, CiteExpr, BTreeSet<CiteAtom>, Vec<CitationSnippet>)>,
    aggregate: Option<(BTreeSet<CiteAtom>, Vec<CitationSnippet>)>,
}

/// Per-tuple annotation: evaluate each rewriting over the views, build
/// `CV1(B1)·…·CVn(Bn)` per binding and `+` per tuple keyed by the tuple,
/// apply the policies and render each tuple's snippets.
fn reference(
    db: &Database,
    view_db: &Database,
    registry: &CitationRegistry,
    options: &EngineOptions,
    q: &ConjunctiveQuery,
    rewritings: &[ConjunctiveQuery],
    partial: bool,
) -> Reference {
    let answer = evaluate(db, q).unwrap();
    let mut branch_map: BTreeMap<Tuple, Vec<CiteExpr>> = answer
        .rows
        .iter()
        .map(|row| (row.tuple.clone(), vec![CiteExpr::zero(); rewritings.len()]))
        .collect();
    for (ri, rw) in rewritings.iter().enumerate() {
        for row in evaluate(view_db, rw).unwrap().rows {
            let summands = row.bindings.iter().map(|b| {
                let factors = rw.body.iter().map(|atom| {
                    let cv = registry.get(atom.predicate.as_str()).unwrap();
                    let params = cv.view.param_positions();
                    let params = params.iter().map(|(_, pos)| b.eval_term(&atom.terms[*pos]));
                    let params = params.collect::<Option<_>>().unwrap();
                    CiteExpr::Atom(CiteAtom::new(atom.predicate.clone(), params))
                });
                CiteExpr::prod(factors.collect())
            });
            branch_map
                .get_mut(&row.tuple)
                .expect("rewriting tuple in the answer")[ri] = CiteExpr::sum(summands.collect());
        }
    }
    let matrix: Vec<Vec<CiteExpr>> = answer.tuples().map(|t| branch_map[t].clone()).collect();
    let choice = match (partial, options.mode) {
        (true, _) => RewritingChoice::All,
        (false, CitationMode::CostPruned) => RewritingChoice::Index(0),
        (false, CitationMode::Formal) => choose_rewriting(options.policies.rewritings, &matrix),
    };
    let mut cache = BTreeMap::new();
    let mut agg = BTreeSet::new();
    let mut tuples = Vec::new();
    for (t, branches) in answer.tuples().zip(matrix) {
        let atoms = atoms_for_tuple(&options.policies, &branches, choice);
        agg.extend(atoms.iter().cloned());
        let snippets = render(db, registry, options, &atoms, &mut cache);
        tuples.push((t.clone(), CiteExpr::alt_r(branches), atoms, snippets));
    }
    let coverage = match partial {
        true => Coverage::Partial {
            uncited: tuples.iter().filter(|t| t.2.is_empty()).count(),
        },
        false => Coverage::Full,
    };
    let aggregate = (options.policies.agg == AggPolicy::Union).then(|| {
        let snippets = render(db, registry, options, &agg, &mut cache);
        (agg, snippets)
    });
    Reference {
        choice,
        coverage,
        tuples,
        aggregate,
    }
}

fn render(
    db: &Database,
    registry: &CitationRegistry,
    options: &EngineOptions,
    atoms: &BTreeSet<CiteAtom>,
    cache: &mut BTreeMap<CiteAtom, CitationSnippet>,
) -> Vec<CitationSnippet> {
    let mut snippets: Vec<CitationSnippet> = atoms
        .iter()
        .map(|a| {
            let rendered = cache.entry(a.clone()).or_insert_with(|| {
                let cv = registry.get(a.view.as_str()).unwrap();
                let answers: Vec<(&[String], _)> = cv
                    .citation_queries
                    .iter()
                    .map(|cq| {
                        let inst = cq.query.instantiate(&a.params).unwrap();
                        (cq.fields.as_slice(), evaluate(db, &inst).unwrap())
                    })
                    .collect();
                let borrowed: Vec<_> = answers.iter().map(|(f, ans)| (*f, ans)).collect();
                cv.function.render(&a.view, &a.params, &borrowed)
            });
            rendered.clone()
        })
        .collect();
    if options.policies.joint == JointPolicy::Join && snippets.len() > 1 {
        let mut merged = snippets[0].clone();
        for s in &snippets[1..] {
            merged.absorb(s);
        }
        merged.view = Symbol::new("joined");
        merged.params = Vec::new();
        snippets = vec![merged];
    }
    snippets
}

/// Every mode × `+R` × `+` × `·` policy combination.
fn option_grid(allow_partial: bool) -> Vec<EngineOptions> {
    let mut grid = Vec::new();
    for mode in [CitationMode::Formal, CitationMode::CostPruned] {
        for rewritings in [
            RewritePolicy::MinSize,
            RewritePolicy::Union,
            RewritePolicy::First,
        ] {
            for alt in [AltPolicy::Union, AltPolicy::First] {
                for joint in [JointPolicy::Union, JointPolicy::Join] {
                    grid.push(EngineOptions {
                        mode,
                        policies: PolicySet {
                            joint,
                            alt,
                            rewritings,
                            ..Default::default()
                        },
                        allow_partial,
                        ..Default::default()
                    });
                }
            }
        }
    }
    grid
}

fn formatted<S: Borrow<CitationSnippet>>(snippets: &[S]) -> Vec<String> {
    FORMATS
        .iter()
        .map(|&f| format_citation(snippets, None, f))
        .collect()
}

fn shared(snippets: &[Arc<CitationSnippet>]) -> Vec<&CitationSnippet> {
    snippets.iter().map(|s| &**s).collect()
}

fn same<T: PartialEq + Debug>(what: &str, engine: T, reference: T) -> Result<(), String> {
    if engine == reference {
        return Ok(());
    }
    Err(format!(
        "{what} differs\n   engine: {engine:?}\nreference: {reference:?}"
    ))
}

/// The first place where the engine's cite and the reference differ.
fn compare(cited: &CitedAnswer, expect: &Reference) -> Result<(), String> {
    same("unmatched tuple count", cited.unmatched_tuples, 0)?;
    same("+R choice", cited.choice, expect.choice)?;
    same("coverage", cited.coverage, expect.coverage)?;
    same("tuple count", cited.tuples.len(), expect.tuples.len())?;
    for (t, (tuple, expr, atoms, snippets)) in cited.tuples.iter().zip(&expect.tuples) {
        same("tuple", &t.tuple, tuple)?;
        same(&format!("expression of {tuple}"), &t.expr(), expr)?;
        same(&format!("atoms of {tuple}"), &t.atoms, atoms)?;
        let want: Vec<&CitationSnippet> = snippets.iter().collect();
        same(&format!("snippets of {tuple}"), shared(&t.snippets), want)?;
        let bytes = formatted(&t.snippets);
        same(&format!("formatted {tuple}"), bytes, formatted(snippets))?;
    }
    match (&cited.aggregate, &expect.aggregate) {
        (Some(agg), Some((atoms, snippets))) => {
            same("aggregate atoms", &agg.atoms, atoms)?;
            let want: Vec<&CitationSnippet> = snippets.iter().collect();
            same("aggregate snippets", shared(&agg.snippets), want)?;
            same(
                "formatted aggregate",
                formatted(&agg.snippets),
                formatted(snippets),
            )
        }
        (engine, reference) => same("aggregate presence", engine.is_some(), reference.is_some()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_annotation_matches_per_tuple_reference(inst in instance()) {
        let db = build_db(&inst);
        for (registry, q) in cases() {
            for allow_partial in [false, true] {
                let base = CitationService::builder()
                    .database(db.clone())
                    .registry(registry.clone())
                    .options(EngineOptions { allow_partial, ..Default::default() })
                    .build()
                    .unwrap();
                let ctx = format!("query {q}, allow_partial {allow_partial}, instance {inst:?}");
                let partial = match base.prepare(&q) {
                    Ok(prepared) => prepared.plan().partial,
                    Err(_) => {
                        prop_assert!(base.cite(&q).is_err(), "{}", ctx);
                        continue;
                    }
                };
                for options in option_grid(allow_partial) {
                    let service = base.with_options(options).unwrap();
                    let cited = service.cite(&q).unwrap();
                    let expect = reference(
                        &db,
                        &service.materialized_views(),
                        &registry,
                        &options,
                        &q,
                        &cited.rewritings,
                        partial,
                    );
                    if let Err(diff) = compare(&cited, &expect) {
                        prop_assert!(false, "{}\n{}, options {:?}", diff, ctx, options);
                    }
                }
            }
        }
    }
}
