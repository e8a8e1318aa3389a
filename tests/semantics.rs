//! Cross-crate semantic consistency: the citation algebra agrees with the
//! why-provenance of the same computation, and evolution (a store's
//! delta-maintained caches) never changes results.

use std::collections::BTreeSet;

use citesys::core::paper;
use citesys::core::{
    Changeset, CitationMode, CitationService, CitedAnswer, EngineOptions, PolicySet, RewritePolicy,
    SpanSet, Store,
};
use citesys::cq::ConjunctiveQuery;
use citesys::cq::{parse_query, Symbol, Value};
use citesys::gtopdb::{generate, GtopdbConfig};
use citesys::storage::{evaluate, tuple};

fn formal() -> EngineOptions {
    EngineOptions {
        mode: CitationMode::Formal,
        ..Default::default()
    }
}

/// With identity views, the citation expression of a tuple under one
/// rewriting mirrors the why-provenance of the tuple: one `·`-product per
/// witness, one `+`-summand per derivation.
#[test]
fn citation_expression_mirrors_why_provenance() {
    let db = paper::paper_database();
    let registry = paper::paper_registry();
    let q = paper::paper_query();

    // Why-provenance of the (Calcitonin) tuple over base relations: the
    // distinct sets of base tuples its bindings ground the body to.
    let answer = evaluate(&db, &q).unwrap();
    assert_eq!(answer.len(), 1);
    let witnesses: BTreeSet<BTreeSet<(Symbol, Vec<Value>)>> = answer.rows[0]
        .bindings
        .iter()
        .map(|b| {
            q.body
                .iter()
                .map(|atom| {
                    let ground = atom.terms.iter().map(|t| b.eval_term(t).unwrap());
                    (atom.predicate.clone(), ground.collect())
                })
                .collect()
        })
        .collect();
    // Two witnesses: {Family(11,…), FamilyIntro(11,…)} and {Family(12,…), …}.
    assert_eq!(witnesses.len(), 2);

    // Citation via the parameterized rewriting (V1⋈V3): the Q1 branch has
    // exactly one summand per witness.
    let engine = CitationService::builder()
        .database(db.clone())
        .registry(registry.clone())
        .options(formal())
        .build()
        .unwrap();
    let cited = engine.cite(&q).unwrap();
    let q1_branch = cited.tuples[0]
        .branches
        .iter()
        .find(|b| b.atoms().iter().any(|a| a.view.as_str() == "V1"))
        .expect("parameterized branch present");
    match q1_branch {
        citesys::core::CiteExpr::Sum(summands) => {
            assert_eq!(summands.len(), witnesses.len());
        }
        other => panic!("expected a sum of bindings, got {other}"),
    }
}

/// The number of citation-expression summands equals the number of
/// bindings the evaluator reports (Definition 2.2's β_t).
#[test]
fn summands_equal_bindings_at_scale() {
    let db = generate(&GtopdbConfig {
        scale: 2,
        dup_name_rate: 0.5,
        ..Default::default()
    });
    let registry = citesys::gtopdb::full_registry();
    let q = parse_query("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)").unwrap();
    let engine = CitationService::builder()
        .database(db.clone())
        .registry(registry.clone())
        .options(formal())
        .build()
        .unwrap();
    let cited = engine.cite(&q).unwrap();
    for (row, tc) in cited.answer.rows.iter().zip(&cited.tuples) {
        // Find the V1 (parameterized) branch: distinct parameter values =
        // distinct bindings on FID.
        let v1_branch = tc
            .branches
            .iter()
            .find(|b| b.atoms().iter().any(|a| a.view.as_str() == "V1"))
            .expect("V1 branch");
        let distinct_fids: std::collections::BTreeSet<_> = row
            .bindings
            .iter()
            .map(|b| b.get(&Symbol::new("FID")).unwrap().clone())
            .collect();
        let v1_params: std::collections::BTreeSet<_> = v1_branch
            .atoms()
            .into_iter()
            .filter(|a| a.view.as_str() == "V1")
            .map(|a| a.params[0].clone())
            .collect();
        assert_eq!(distinct_fids, v1_params, "tuple {}", row.tuple);
    }
}

/// Cites `q` on the store's service at its latest version.
fn cite(store: &mut Store, q: &ConjunctiveQuery, options: EngineOptions) -> CitedAnswer {
    let version = store.latest_version();
    let (service, _) = store.service_at(version, options).unwrap();
    service.cite(q).unwrap()
}

/// The store's delta-maintained service returns byte-identical
/// citations to a fresh engine after a commit of mixed updates.
#[test]
fn incremental_engine_consistent_with_fresh() {
    let cfg = GtopdbConfig {
        scale: 1,
        ..Default::default()
    };
    let registry = citesys::gtopdb::full_registry();
    let q = parse_query("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)").unwrap();

    let mut store = Store::from_database(&generate(&cfg), registry.clone()).unwrap();
    // Warm the caches, commit updates, re-cite.
    cite(&mut store, &q, formal());
    let mut changes = Changeset::new();
    changes
        .insert("Family", tuple![900, "Novel receptor", "N1"])
        .insert("FamilyIntro", tuple![900, "fresh intro"])
        .delete("FamilyIntro", tuple![0, "Introductory text for family 0"]);
    store.apply(&changes).unwrap();
    assert!(store.seal(&mut SpanSet::disabled()).unwrap().swapped);
    let incremental = cite(&mut store, &q, formal());

    // Fresh engine over an identically mutated database.
    let mut db2 = generate(&cfg);
    changes.apply(&mut db2).unwrap();
    let fresh = CitationService::builder()
        .database(db2)
        .registry(registry)
        .options(formal())
        .build()
        .unwrap()
        .cite(&q)
        .unwrap();

    assert_eq!(incremental.answer, fresh.answer);
    for (a, b) in incremental.tuples.iter().zip(&fresh.tuples) {
        assert_eq!(a.atoms, b.atoms);
        assert_eq!(a.snippets, b.snippets);
    }
}

/// Caching statistics behave: plan hits accumulate, an irrelevant delta
/// leaves the views it cannot touch verbatim, a relevant one is carried
/// into exactly the views that read its relation.
#[test]
fn incremental_cache_behaviour() {
    let db = generate(&GtopdbConfig::default());
    let mut store = Store::from_database(&db, citesys::gtopdb::full_registry()).unwrap();
    let q_fam = parse_query("Q(FID, FName, D) :- Family(FID, FName, D)").unwrap();
    let q_lig = parse_query("Q(LID, LName, T) :- Ligand(LID, LName, T)").unwrap();
    let options = EngineOptions::default();
    cite(&mut store, &q_fam, options);
    cite(&mut store, &q_lig, options);
    let warm = store.view_cache_stats().unwrap();

    // A Ligand insert is carried into the ligand view only.
    let mut changes = Changeset::new();
    changes.insert("Ligand", tuple![900, "novel-ligand", "peptide"]);
    store.apply(&changes).unwrap();
    store.seal(&mut SpanSet::disabled()).unwrap();
    let s = store.view_cache_stats().unwrap();
    assert_eq!(s.deltas_applied - warm.deltas_applied, 1, "{s:?}");
    assert!(s.untouched > warm.untouched, "{s:?}");
    assert_eq!(s.materializations, warm.materializations, "{s:?}");

    let again = cite(&mut store, &q_fam, options);
    assert_eq!(again.rewrite_stats.plan_cache_hits, 1);
    assert!(store.plan_cache_stats().hits >= 1);
}

/// Policy monotonicity at scale: every tuple's min-size citation is a
/// subset of its union citation.
#[test]
fn per_tuple_min_size_subset_of_union() {
    let db = generate(&GtopdbConfig {
        scale: 2,
        dup_name_rate: 0.4,
        ..Default::default()
    });
    let registry = citesys::gtopdb::full_registry();
    let q = parse_query("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)").unwrap();
    let run = |rp: RewritePolicy| {
        CitationService::builder()
            .database(db.clone())
            .registry(registry.clone())
            .options(EngineOptions {
                mode: CitationMode::Formal,
                policies: PolicySet {
                    rewritings: rp,
                    ..Default::default()
                },
                ..Default::default()
            })
            .build()
            .unwrap()
            .cite(&q)
            .unwrap()
    };
    let min = run(RewritePolicy::MinSize);
    let all = run(RewritePolicy::Union);
    for (m, u) in min.tuples.iter().zip(&all.tuples) {
        assert!(m.atoms.is_subset(&u.atoms), "tuple {}", m.tuple);
    }
}
