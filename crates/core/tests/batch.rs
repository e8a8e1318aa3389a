//! Transactional batch updates through the service stack: a mixed
//! insert/delete changeset lands in **one** snapshot swap with
//! delta-maintained caches, is atomic under failure, and the delta
//! edge cases (delete-then-reinsert, re-insert of a present tuple,
//! delete of an absent tuple) are all equivalent to full recomputation
//! and cost no delta work when they net to nothing.

use citesys_core::paper;
use citesys_core::{
    Changeset, CitationMode, CitationService, CitedAnswer, EngineOptions, SpanSet, Store,
    StoreError,
};
use citesys_cq::ConjunctiveQuery;
use citesys_storage::tuple;

fn engine() -> Store {
    Store::from_database(&paper::paper_database(), paper::paper_registry()).unwrap()
}

/// Cites `q` (formal mode) on the store's service at its latest version.
fn cite(e: &mut Store, q: &ConjunctiveQuery) -> CitedAnswer {
    let options = EngineOptions {
        mode: CitationMode::Formal,
        ..Default::default()
    };
    let version = e.latest_version();
    e.service_at(version, options).unwrap().0.cite(q).unwrap()
}

/// Applies `changes` as one transaction and seals it as one version;
/// returns how many ops changed data.
fn commit(e: &mut Store, changes: &Changeset) -> Result<usize, StoreError> {
    let applied = e.apply(changes)?;
    e.seal(&mut SpanSet::disabled())?;
    Ok(applied)
}

fn total_tuples(e: &Store) -> usize {
    e.database().unwrap().current().total_tuples()
}

/// Cites `q` with a cold service over the store's current database —
/// the full-recompute ground truth a delta-maintained answer must match.
fn recompute(e: &Store, q: &ConjunctiveQuery) -> CitedAnswer {
    CitationService::builder()
        .database(e.database().unwrap().current().clone())
        .registry(e.registry().clone())
        .mode(CitationMode::Formal)
        .build()
        .unwrap()
        .cite(q)
        .unwrap()
}

fn assert_matches_recompute(e: &mut Store, q: &ConjunctiveQuery) {
    let cached = cite(e, q);
    let fresh = recompute(e, q);
    assert_eq!(cached.answer, fresh.answer);
    let cached_exprs: Vec<String> = cached.tuples.iter().map(|t| t.expr().to_string()).collect();
    let fresh_exprs: Vec<String> = fresh.tuples.iter().map(|t| t.expr().to_string()).collect();
    assert_eq!(cached_exprs, fresh_exprs);
}

#[test]
fn mixed_batch_is_one_snapshot_swap() {
    let mut e = engine();
    let q = paper::paper_query();
    cite(&mut e, &q);
    let warm = e.view_cache_stats().unwrap();
    assert_eq!(warm.materializations, 3, "{warm:?}");

    // One transaction touching FamilyIntro twice (insert + delete) and
    // Committee once: V3 (FamilyIntro body) must be carried by exactly
    // ONE delta application — not one per tuple — and V1/V2 exactly once
    // as untouched, proving the whole batch produced a single swap.
    let mut changes = Changeset::new();
    changes
        .insert("FamilyIntro", tuple![13, "3rd"])
        .delete("FamilyIntro", tuple![12, "2nd"])
        .insert("Committee", tuple![13, "Dan"]);
    assert_eq!(commit(&mut e, &changes).unwrap(), 3);

    let s = e.view_cache_stats().unwrap();
    assert_eq!(s.materializations, 3, "nothing re-materialized: {s:?}");
    assert_eq!(s.deltas_applied - warm.deltas_applied, 1, "{s:?}");
    assert_eq!(s.untouched - warm.untouched, 2, "{s:?}");
    assert_eq!(s.drops, 0, "{s:?}");

    // The maintained answer equals full recomputation, and the plan
    // survived the swap.
    assert_matches_recompute(&mut e, &q);
    let cited = cite(&mut e, &q);
    assert_eq!(cited.answer.len(), 2, "Dopamine in, Calcitonin-2nd out");
}

#[test]
fn transaction_builder_commits_as_one_batch() {
    let mut e = engine();
    let q = paper::paper_query();
    cite(&mut e, &q);
    let before = e.view_cache_stats().unwrap();

    let mut txn = Changeset::new();
    txn.insert("FamilyIntro", tuple![13, "3rd"])
        .delete("Committee", tuple![12, "Carol"]);
    assert_eq!(txn.len(), 2);
    assert_eq!(commit(&mut e, &txn).unwrap(), 2);

    let s = e.view_cache_stats().unwrap();
    assert_eq!(s.deltas_applied - before.deltas_applied, 1, "{s:?}");
    assert_matches_recompute(&mut e, &q);

    // An applied but unsealed transaction is invisible to cites, and
    // discarding it restores the committed state.
    let total = total_tuples(&e);
    let mut txn = Changeset::new();
    txn.insert("Committee", tuple![11, "Never"]);
    e.apply(&txn).unwrap();
    assert!(e.committed_version().is_err(), "pending ops block cites");
    e.database_mut().unwrap().discard_pending();
    assert_eq!(total_tuples(&e), total);
}

#[test]
fn delete_then_reinsert_in_one_batch_nets_to_nothing() {
    let mut e = engine();
    let q = paper::paper_query();
    cite(&mut e, &q);
    let before = e.view_cache_stats().unwrap();

    // FamilyIntro(11, '1st') exists: delete + reinsert inside one batch
    // must leave the database — and the materializations — untouched,
    // with zero delta work (every view counted `untouched`).
    let mut changes = Changeset::new();
    changes
        .delete("FamilyIntro", tuple![11, "1st"])
        .insert("FamilyIntro", tuple![11, "1st"]);
    assert_eq!(
        commit(&mut e, &changes).unwrap(),
        2,
        "both ops were effective"
    );

    let s = e.view_cache_stats().unwrap();
    assert_eq!(s.deltas_applied, before.deltas_applied, "no delta: {s:?}");
    assert_eq!(s.untouched - before.untouched, 3, "all views verbatim");
    assert_eq!(s.materializations, before.materializations);
    assert_matches_recompute(&mut e, &q);
}

#[test]
fn insert_of_present_tuple_is_a_noop_without_delta_work() {
    let mut e = engine();
    let q = paper::paper_query();
    cite(&mut e, &q);
    let before = e.view_cache_stats().unwrap();

    // The tuple is already there: the batch nets to nothing, so even the
    // views whose bodies mention FamilyIntro are carried verbatim.
    let mut changes = Changeset::new();
    changes.insert("FamilyIntro", tuple![11, "1st"]);
    assert_eq!(commit(&mut e, &changes).unwrap(), 0, "set-semantics no-op");

    let s = e.view_cache_stats().unwrap();
    assert_eq!(s.deltas_applied, before.deltas_applied, "{s:?}");
    assert_eq!(s.untouched - before.untouched, 3, "{s:?}");
    assert_matches_recompute(&mut e, &q);

    // Same again as its own commit.
    assert_eq!(commit(&mut e, &changes).unwrap(), 0);
    let s2 = e.view_cache_stats().unwrap();
    assert_eq!(s2.deltas_applied, s.deltas_applied, "{s2:?}");
    assert_matches_recompute(&mut e, &q);
}

#[test]
fn delete_of_absent_tuple_is_a_noop_without_delta_work() {
    let mut e = engine();
    let q = paper::paper_query();
    cite(&mut e, &q);
    let before = e.view_cache_stats().unwrap();

    let mut changes = Changeset::new();
    changes.delete("FamilyIntro", tuple![99, "ghost"]);
    assert_eq!(commit(&mut e, &changes).unwrap(), 0);

    let s = e.view_cache_stats().unwrap();
    assert_eq!(s.deltas_applied, before.deltas_applied, "{s:?}");
    assert_eq!(s.untouched - before.untouched, 3, "{s:?}");
    assert_matches_recompute(&mut e, &q);
}

#[test]
fn failed_batch_rolls_back_and_keeps_engine_usable() {
    let mut e = engine();
    let q = paper::paper_query();
    cite(&mut e, &q);
    let total = total_tuples(&e);

    // Second op violates Family's key: the first (valid) op must be
    // rolled back with it.
    let mut changes = Changeset::new();
    changes
        .insert("FamilyIntro", tuple![13, "3rd"])
        .insert("Family", tuple![11, "Clash", "X"]);
    assert!(commit(&mut e, &changes).is_err());
    assert_eq!(total_tuples(&e), total, "batch fully rolled back");
    assert_eq!(e.latest_version(), 1, "no version cut");

    // The store still cites correctly against the unchanged data.
    assert_matches_recompute(&mut e, &q);
    assert_eq!(cite(&mut e, &q).answer.len(), 1);
}

#[test]
fn batch_equals_sequence_of_single_updates() {
    // The same mixed workload applied (a) as one transaction and (b) as
    // N single-tuple updates must converge to identical citations; (a)
    // does it with one delta application per affected view instead of N.
    let q = paper::paper_query();

    let mut batched = engine();
    cite(&mut batched, &q);
    let mut changes = Changeset::new();
    changes
        .insert("FamilyIntro", tuple![13, "3rd"])
        .insert("Family", tuple![14, "Ghrelin", "G1"])
        .insert("FamilyIntro", tuple![14, "4th"])
        .delete("Committee", tuple![11, "Bob"]);
    commit(&mut batched, &changes).unwrap();

    let mut sequential = engine();
    cite(&mut sequential, &q);
    for op in changes.ops() {
        commit(&mut sequential, &Changeset::from_ops(vec![op.clone()])).unwrap();
    }

    let a = cite(&mut batched, &q);
    let b = cite(&mut sequential, &q);
    assert_eq!(a.answer, b.answer);
    let ax: Vec<String> = a.tuples.iter().map(|t| t.expr().to_string()).collect();
    let bx: Vec<String> = b.tuples.iter().map(|t| t.expr().to_string()).collect();
    assert_eq!(ax, bx);

    // Fewer delta applications for the batch: one per affected view
    // (V1/V2 via Family, V3 via FamilyIntro = 3) versus one per affected
    // view per update for the sequence.
    let sb = batched.view_cache_stats().unwrap();
    let ss = sequential.view_cache_stats().unwrap();
    assert_eq!(sb.deltas_applied, 3, "{sb:?}");
    assert!(ss.deltas_applied > sb.deltas_applied, "{ss:?} vs {sb:?}");
}
