//! Failure injection: every layer's error path surfaces cleanly through
//! the public API (no panics, no silent corruption).

use citesys::core::paper;
use citesys::core::{
    CitationFunction, CitationQuery, CitationRegistry, CitationService, CitationView, CiteError,
    EngineOptions, Store,
};
use citesys::cq::parse_query;
use citesys::rewrite::RewriteOptions;
use citesys::storage::Database;

/// A view whose citation query references a relation the database does not
/// have: the error surfaces at citation time, typed as a storage error.
#[test]
fn citation_query_over_missing_relation() {
    let db = paper::paper_database();
    let mut reg = CitationRegistry::new();
    reg.add(
        CitationView::new(
            parse_query("V2(FID, FName, Desc) :- Family(FID, FName, Desc)").unwrap(),
            vec![CitationQuery::new(
                parse_query("CVX(N) :- GhostRelation(N)").unwrap(),
            )],
            CitationFunction::new(),
        )
        .unwrap(),
    )
    .unwrap();
    let engine = CitationService::builder()
        .database(db.clone())
        .registry(reg.clone())
        .options(EngineOptions::default())
        .build()
        .unwrap();
    let q = parse_query("Q(N) :- Family(F, N, D)").unwrap();
    let err = engine.cite(&q).unwrap_err();
    assert!(matches!(err, CiteError::Storage(_)), "{err}");
}

/// A view whose *body* references a missing relation: caught when the view
/// is materialized.
#[test]
fn view_body_over_missing_relation() {
    let db = paper::paper_database();
    let mut reg = CitationRegistry::new();
    reg.add(
        CitationView::new(
            parse_query("VG(X) :- Ghost(X)").unwrap(),
            vec![CitationQuery::with_fields(
                parse_query("CVG(D) :- D = 'x'").unwrap(),
                vec!["citation".to_string()],
            )
            .unwrap()],
            CitationFunction::new(),
        )
        .unwrap(),
    )
    .unwrap();
    let engine = CitationService::builder()
        .database(db.clone())
        .registry(reg.clone())
        .options(EngineOptions::default())
        .build()
        .unwrap();
    let q = parse_query("Q(X) :- Ghost(X)").unwrap();
    let err = engine.cite(&q).unwrap_err();
    // Either schema inference or materialization reports the problem.
    assert!(
        matches!(
            err,
            CiteError::Storage(_) | CiteError::BadCitationView { .. }
        ),
        "{err}"
    );
}

/// A candidate budget that is too small propagates as a rewrite error
/// instead of silently truncating results.
#[test]
fn rewrite_budget_propagates() {
    let db = paper::paper_database();
    let reg = paper::paper_registry();
    let engine = CitationService::builder()
        .database(db.clone())
        .registry(reg.clone())
        .options(EngineOptions {
            rewrite: RewriteOptions {
                max_candidates: 1,
                ..Default::default()
            },
            ..Default::default()
        })
        .build()
        .unwrap();
    let err = engine.cite(&paper::paper_query()).unwrap_err();
    assert!(matches!(err, CiteError::Rewrite(_)), "{err}");
}

/// A store's plan cache stays consistent when a cite fails: the failing
/// query does not disturb the cached plan of a good one.
#[test]
fn incremental_engine_error_does_not_poison_cache() {
    let mut store =
        Store::from_database(&paper::paper_database(), paper::paper_registry()).unwrap();
    let (service, _) = store.service_at(1, EngineOptions::default()).unwrap();
    // Good query caches its plan.
    service.cite(&paper::paper_query()).unwrap();
    // Uncoverable query errors…
    let bad = parse_query("Q(P) :- Committee(F, P)").unwrap();
    assert!(service.cite(&bad).is_err());
    // …and the good query is still served from the cache, on the next
    // service the store hands out too.
    let (service, built) = store.service_at(1, EngineOptions::default()).unwrap();
    assert!(!built);
    let again = service.cite(&paper::paper_query()).unwrap();
    assert_eq!(again.rewrite_stats.plan_cache_hits, 1);
    assert_eq!(store.plan_cache_stats().hits, 1);
}

/// Arity mismatches between a query and the catalog are typed errors.
#[test]
fn query_arity_mismatch_reported() {
    let db = paper::paper_database();
    let reg = paper::paper_registry();
    let engine = CitationService::builder()
        .database(db.clone())
        .registry(reg.clone())
        .options(EngineOptions::default())
        .build()
        .unwrap();
    // Family used with arity 2 — caught before any citation work. The
    // query itself is well-formed, so this must come from the catalog.
    let q = parse_query("Q(A) :- Family(A, B)").unwrap();
    let err = engine.cite(&q).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("arity") || msg.contains("no equivalent rewriting"),
        "{msg}"
    );
}

/// Type violations on insert never reach storage.
#[test]
fn type_checked_inserts() {
    let mut db = Database::new();
    for s in paper::paper_schemas() {
        db.create_relation(s).unwrap();
    }
    let err = db
        .insert("Family", citesys::storage::tuple!["not-an-int", "x", "y"])
        .unwrap_err();
    assert!(err.to_string().contains("expected int"));
    assert_eq!(db.relation("Family").unwrap().len(), 0);
}

/// Script interpreter: every failure carries its line and leaves the
/// interpreter reusable.
#[test]
fn script_failures_are_recoverable() {
    let mut interp = citesys::script::Interpreter::new();
    let err = interp
        .run("schema R(A:int)\ninsert R('wrong-type')\n")
        .unwrap_err();
    assert_eq!(err.line, 2);
    // The same interpreter keeps working afterwards.
    let out = interp.run("insert R(1)\ntables\n").unwrap();
    assert!(out.contains("R: 1 tuples"));
}
