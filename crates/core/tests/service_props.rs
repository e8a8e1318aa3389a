//! Property tests for plan-cache invalidation: a service/store that
//! caches rewrite plans and materialized views must never serve a stale
//! result — after any interleaving of prepares, cites, commits and view
//! registrations, `cite()` must equal a from-scratch computation over
//! the current state.

use citesys_core::paper;
use citesys_core::{
    Changeset, CitationFunction, CitationQuery, CitationRegistry, CitationService, CitationView,
    CitedAnswer, EngineOptions, SpanSet, Store,
};
use citesys_cq::parse_query;
use citesys_storage::{tuple, Database, Tuple};
use proptest::prelude::*;

/// One step of a randomized session.
#[derive(Clone, Debug)]
enum Op {
    /// Insert `Family(id, Name{n}, Desc)` (idempotent on duplicates).
    InsertFamily(i64, u8),
    /// Insert `FamilyIntro(id, Intro)`.
    InsertIntro(i64),
    /// Delete `FamilyIntro(id, Intro)`.
    DeleteIntro(i64),
    /// Insert `Committee(id, Person)` — affects citations through CV1's
    /// citation query, not the answer.
    InsertCommittee(i64, u8),
    /// Cite the paper query (exercises both caches).
    Cite,
    /// Register the λ-parameterized V1 view (changes the rewriting space;
    /// only the first registration succeeds, later ones are ignored).
    RegisterV1,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..6, 0u8..3).prop_map(|(id, n)| Op::InsertFamily(id, n)),
        (0i64..6).prop_map(Op::InsertIntro),
        (0i64..6).prop_map(Op::DeleteIntro),
        (0i64..6, 0u8..4).prop_map(|(id, n)| Op::InsertCommittee(id, n)),
        Just(Op::Cite),
        Just(Op::RegisterV1),
    ]
}

/// Registry without V1 — RegisterV1 later enlarges the rewriting space.
fn base_registry() -> CitationRegistry {
    let full = paper::paper_registry();
    let mut reg = CitationRegistry::new();
    reg.add(full.get("V2").unwrap().clone()).unwrap();
    reg.add(full.get("V3").unwrap().clone()).unwrap();
    reg
}

fn v1_view() -> CitationView {
    paper::paper_registry().get("V1").unwrap().clone()
}

fn committee_view() -> CitationView {
    CitationView::new(
        parse_query("VC(F, P) :- Committee(F, P)").unwrap(),
        vec![CitationQuery::new(
            parse_query("CVC(D) :- D = 'committee'").unwrap(),
        )],
        CitationFunction::new(),
    )
    .unwrap()
}

/// The paper's data committed as version 1 under `registry`.
fn paper_store(registry: CitationRegistry) -> Store {
    Store::from_database(&paper::paper_database(), registry).unwrap()
}

/// The store's service at its latest version.
fn service(store: &mut Store) -> CitationService {
    let version = store.latest_version();
    store
        .service_at(version, EngineOptions::default())
        .unwrap()
        .0
}

/// Commits one insert or delete; `false` when the store refused it.
fn commit(store: &mut Store, insert: bool, rel: &str, t: Tuple) -> bool {
    let mut changes = Changeset::new();
    if insert {
        changes.insert(rel, t);
    } else {
        changes.delete(rel, t);
    }
    let accepted = store.apply(&changes).is_ok();
    if accepted {
        store.seal(&mut SpanSet::disabled()).unwrap();
    }
    accepted
}

/// From-scratch reference: a fresh service (empty caches) over a copy of
/// the current database and registry.
fn fresh_cite(db: &Database, registry: &CitationRegistry) -> CitedAnswer {
    CitationService::builder()
        .database(db.clone())
        .registry(registry.clone())
        .options(EngineOptions::default())
        .build()
        .unwrap()
        .cite(&paper::paper_query())
        .unwrap()
}

fn assert_equivalent(cached: &CitedAnswer, fresh: &CitedAnswer) -> Result<(), TestCaseError> {
    prop_assert_eq!(&cached.answer, &fresh.answer, "answers diverged");
    prop_assert_eq!(cached.tuples.len(), fresh.tuples.len());
    for (c, f) in cached.tuples.iter().zip(&fresh.tuples) {
        prop_assert_eq!(&c.atoms, &f.atoms, "citation atoms diverged");
        prop_assert_eq!(&c.snippets, &f.snippets, "snippets diverged");
    }
    prop_assert_eq!(
        &cached.rewritings,
        &fresh.rewritings,
        "selected rewritings diverged"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline invariant: prepared-then-updated equals fresh.
    /// After ANY op sequence, the store (warm plan cache, delta-maintained
    /// views) agrees with a from-scratch service on the current data.
    #[test]
    fn incremental_engine_never_serves_stale_results(ops in prop::collection::vec(op(), 1..25)) {
        let mut store = paper_store(base_registry());
        // Mirror of the store's state for the from-scratch reference.
        let mut mirror_db = paper::paper_database();
        let mut mirror_reg = base_registry();
        let mut v1_registered = false;

        // Warm both caches before any update.
        service(&mut store).cite(&paper::paper_query()).unwrap();

        for op in ops {
            match op {
                Op::InsertFamily(id, n) => {
                    // Family's key on FID rejects a second name for the
                    // same id — the store and the mirror must agree on
                    // acceptance either way.
                    let t = tuple![id, format!("Name{n}"), "Desc"];
                    let accepted = commit(&mut store, true, "Family", t.clone());
                    let mirrored = mirror_db.insert("Family", t).is_ok();
                    prop_assert_eq!(accepted, mirrored, "key-violation disagreement");
                }
                Op::InsertIntro(id) => {
                    let t = tuple![id, "Intro"];
                    prop_assert!(commit(&mut store, true, "FamilyIntro", t.clone()));
                    mirror_db.insert("FamilyIntro", t).unwrap();
                }
                Op::DeleteIntro(id) => {
                    let t = tuple![id, "Intro"];
                    prop_assert!(commit(&mut store, false, "FamilyIntro", t.clone()));
                    mirror_db.delete("FamilyIntro", &t).unwrap();
                }
                Op::InsertCommittee(id, n) => {
                    let t = tuple![id, format!("Person{n}")];
                    prop_assert!(commit(&mut store, true, "Committee", t.clone()));
                    mirror_db.insert("Committee", t).unwrap();
                }
                Op::Cite => {
                    let cached = service(&mut store).cite(&paper::paper_query()).unwrap();
                    let fresh = fresh_cite(&mirror_db, &mirror_reg);
                    assert_equivalent(&cached, &fresh)?;
                }
                Op::RegisterV1 => {
                    if !v1_registered {
                        store.register_view(v1_view(), &mut SpanSet::disabled()).unwrap();
                        mirror_reg.add(v1_view()).unwrap();
                        v1_registered = true;
                    }
                }
            }
            // The invariant must hold after EVERY op, not just explicit
            // cites — this is what catches a stale plan or view.
            let cached = service(&mut store).cite(&paper::paper_query()).unwrap();
            let fresh = fresh_cite(&mirror_db, &mirror_reg);
            assert_equivalent(&cached, &fresh)?;
        }
    }

    /// Prepared handles are snapshots: executing one after updates equals
    /// a fresh computation over the snapshot it was prepared against, and
    /// a handle re-prepared after the update equals a fresh computation
    /// over the NEW state (the shared plan cache must not leak staleness
    /// across a view registration).
    #[test]
    fn prepared_handles_respect_snapshots(intros in prop::collection::btree_set(0i64..6, 0..5)) {
        let mut store = paper_store(base_registry());
        let old_db = paper::paper_database();
        let prepared = service(&mut store).prepare(&paper::paper_query()).unwrap();

        for id in &intros {
            prop_assert!(commit(&mut store, true, "FamilyIntro", tuple![*id, "Intro"]));
        }
        store.register_view(v1_view(), &mut SpanSet::disabled()).unwrap();

        // The old handle still answers over the old snapshot.
        let old_fresh = fresh_cite(&old_db, &base_registry());
        let via_handle = prepared.execute().unwrap();
        prop_assert_eq!(&via_handle.answer, &old_fresh.answer);
        prop_assert_eq!(via_handle.rewrite_stats.search_effort(), 0);

        // A new handle sees the new data AND the new view.
        let new_handle = service(&mut store).prepare(&paper::paper_query()).unwrap();
        let current = store.database().unwrap().current();
        let new_fresh = fresh_cite(current, &paper::paper_registry());
        let via_new = new_handle.execute().unwrap();
        assert_equivalent(&via_new, &new_fresh)?;
        prop_assert_eq!(
            via_new.rewritings.len(), new_fresh.rewritings.len(),
            "stale plan would miss the V1 rewriting"
        );
    }

    /// λ-parameterized plan transfer is exact: for every family constant,
    /// the plan-cached service agrees with a cold service.
    #[test]
    fn constant_transfer_matches_fresh(fids in prop::collection::vec(0i64..16, 1..12)) {
        let db = paper::paper_database();
        let registry = paper::paper_registry();
        let warm = CitationService::builder()
            .database(db.clone())
            .registry(registry.clone())
            .build()
            .unwrap();
        for fid in fids {
            let q = parse_query(&format!(
                "Q(N) :- Family({fid}, N, D), FamilyIntro({fid}, T)"
            ))
            .unwrap();
            let from_warm = warm.cite(&q).unwrap();
            let from_cold = CitationService::builder()
                .database(db.clone())
                .registry(registry.clone())
                .build()
                .unwrap()
                .cite(&q)
                .unwrap();
            assert_equivalent(&from_warm, &from_cold)?;
        }
    }
}

#[test]
fn stale_service_clone_cannot_poison_the_plan_cache() {
    // Regression: a service clone taken BEFORE register_view must not be
    // able to write its old-registry plans back into the cache the store
    // now reads (they share an Arc only until the view registration
    // swaps in a fresh cache).
    let mut store = paper_store(base_registry());
    let q = parse_query("Q(P) :- Committee(F, P)").unwrap();
    let old_svc = service(&mut store);
    assert!(old_svc.cite(&q).is_err(), "uncoverable before the view");
    store
        .register_view(committee_view(), &mut SpanSet::disabled())
        .unwrap();
    // The old clone re-runs the uncoverable query, re-caching the empty
    // plan — into ITS cache, which the store no longer reads.
    assert!(old_svc.cite(&q).is_err(), "old snapshot stays uncoverable");
    assert!(old_svc.cite(&q).is_err());
    // The store must still see the new view.
    assert_eq!(service(&mut store).cite(&q).unwrap().answer.len(), 4);
}

#[test]
fn register_view_unlocks_previously_uncoverable_query() {
    // Deterministic companion to the properties above: an uncoverable
    // query must become coverable after the covering view arrives, even
    // though the failure (empty plan) was cached.
    let mut store = paper_store(base_registry());
    let q = parse_query("Q(P) :- Committee(F, P)").unwrap();
    assert!(service(&mut store).cite(&q).is_err());
    store
        .register_view(committee_view(), &mut SpanSet::disabled())
        .unwrap();
    assert_eq!(service(&mut store).cite(&q).unwrap().answer.len(), 4);
}
