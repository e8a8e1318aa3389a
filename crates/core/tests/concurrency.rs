//! Concurrency and cache-warmth tests for the scaled service: cites
//! racing data updates must see one consistent snapshot (old or new,
//! never a mix), and a data update must keep both the plan cache and the
//! materializations of unaffected views warm.

use std::sync::{Arc, Mutex};

use citesys_core::paper;
use citesys_core::{
    Changeset, CitationMode, CitationService, CitedAnswer, EngineOptions, SpanSet, Store,
};
use citesys_cq::{parse_query, ConjunctiveQuery};
use citesys_storage::{tuple, Tuple};

fn engine() -> Store {
    Store::from_database(&paper::paper_database(), paper::paper_registry()).unwrap()
}

/// The store's (formal-mode) service at its latest version — what a
/// server hands its readers.
fn service(e: &mut Store) -> CitationService {
    let options = EngineOptions {
        mode: CitationMode::Formal,
        ..Default::default()
    };
    let version = e.latest_version();
    e.service_at(version, options).unwrap().0
}

fn cite(e: &mut Store, q: &ConjunctiveQuery) -> CitedAnswer {
    service(e).cite(q).unwrap()
}

/// Commits `ops` — `(insert?, relation, tuple)` — as one transaction.
fn commit(e: &mut Store, ops: &[(bool, &str, Tuple)]) {
    let mut changes = Changeset::new();
    for (insert, rel, t) in ops {
        if *insert {
            changes.insert(rel, t.clone());
        } else {
            changes.delete(rel, t.clone());
        }
    }
    e.apply(&changes).unwrap();
    e.seal(&mut SpanSet::disabled()).unwrap();
}

/// Readers cite the latest published snapshot service while the writer
/// flips `txn` in and out, one commit at a time, republishing the
/// delta-maintained service after each. Every observed answer must be
/// exactly one of the two valid states — one tuple (no intro for
/// Dopamine) or two tuples — and every answer tuple must carry a complete
/// citation. A reader that mixed an old view materialization with a new
/// base snapshot (or vice versa), or saw half a transaction, would get a
/// citation-less tuple or tuple/citation counts that disagree.
fn assert_readers_see_whole_commits(commits: usize, txn: &[(&str, Tuple)]) {
    let mut engine = engine();
    let q = paper::paper_query();
    cite(&mut engine, &q);
    let published: Arc<Mutex<CitationService>> = Arc::new(Mutex::new(service(&mut engine)));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..4 {
            let published = Arc::clone(&published);
            let stop = Arc::clone(&stop);
            let q = q.clone();
            readers.push(scope.spawn(move || {
                let mut observed = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let svc = published.lock().unwrap().clone();
                    let cited = svc.cite(&q).expect("coverable in every snapshot");
                    assert_eq!(cited.tuples.len(), cited.answer.len());
                    for t in &cited.tuples {
                        assert!(
                            !t.atoms.is_empty() && !t.snippets.is_empty(),
                            "tuple {:?} lost its citation: old views with new data?",
                            t.tuple
                        );
                    }
                    assert!(
                        matches!(cited.answer.len(), 1 | 2),
                        "impossible answer size {}: not a snapshot state",
                        cited.answer.len()
                    );
                    observed += 1;
                }
                observed
            }));
        }

        for i in 0..commits {
            let ops: Vec<_> = txn
                .iter()
                .map(|(rel, t)| (i % 2 == 0, *rel, t.clone()))
                .collect();
            commit(&mut engine, &ops);
            *published.lock().unwrap() = service(&mut engine);
            std::thread::yield_now();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            assert!(
                r.join().expect("reader panicked") > 0,
                "reader observed nothing"
            );
        }
    });
}

#[test]
fn cite_racing_update_sees_old_or_new_never_a_mix() {
    assert_readers_see_whole_commits(60, &[("FamilyIntro", tuple![13, "3rd"])]);
}

/// The transactional edition: each commit flips a (Family intro,
/// Committee membership) pair, so each publish is exactly one snapshot
/// swap covering both tuples — never a half-applied batch.
#[test]
fn cite_racing_batch_updates_sees_whole_transactions() {
    assert_readers_see_whole_commits(
        40,
        &[
            ("FamilyIntro", tuple![13, "3rd"]),
            ("Committee", tuple![13, "Eve"]),
        ],
    );
}

/// The acceptance assertion for the delta-maintained caches, via
/// `RewriteStats` and the cache counters: a data update keeps serving
/// plan-cache hits (`plan_cache_hits` is not zeroed) and does not force
/// re-materialization of unaffected views (the `materializations` counter
/// stays flat; unaffected views are counted `untouched`, affected ones
/// `deltas_applied`; nothing is dropped).
#[test]
fn data_update_keeps_plans_and_unaffected_views_warm() {
    let mut e = engine();
    let q = paper::paper_query();
    cite(&mut e, &q);
    // Formal mode evaluates both rewritings: V1, V2, V3 all materialized.
    let warm = e.view_cache_stats().unwrap();
    assert_eq!(warm.materializations, 3, "{warm:?}");
    assert_eq!(warm.drops, 0);

    // Committee appears in no view *body* (only in CV1's citation query):
    // the update touches no materialized view.
    commit(&mut e, &[(true, "Committee", tuple![11, "Eve"])]);
    let cited = cite(&mut e, &q);
    assert_eq!(
        cited.rewrite_stats.plan_cache_hits, 1,
        "data update must not zero plan_cache_hits"
    );
    assert_eq!(cited.rewrite_stats.search_effort(), 0);
    let s = e.view_cache_stats().unwrap();
    assert_eq!(
        s.materializations, 3,
        "no view re-materialized by the update: {s:?}"
    );
    assert_eq!(s.untouched, 3, "all three views carried verbatim: {s:?}");
    assert_eq!(s.deltas_applied, 0, "{s:?}");
    assert_eq!(s.drops, 0, "{s:?}");

    // FamilyIntro is V3's body: that one view gets delta rows, the other
    // two are again untouched — still zero re-materializations.
    commit(&mut e, &[(true, "FamilyIntro", tuple![13, "3rd"])]);
    let cited = cite(&mut e, &q);
    assert_eq!(cited.answer.len(), 2, "new intro visible through the delta");
    assert_eq!(cited.rewrite_stats.plan_cache_hits, 1);
    let s = e.view_cache_stats().unwrap();
    assert_eq!(s.materializations, 3, "{s:?}");
    assert_eq!(s.deltas_applied, 1, "V3 delta-maintained: {s:?}");
    assert_eq!(s.untouched, 5, "{s:?}");
    assert_eq!(s.drops, 0, "{s:?}");

    // Plan-cache hit counters accumulate across updates too.
    assert!(e.plan_cache_stats().hits >= 2);
}

/// Deletions are delta-maintained as well, including rows kept alive by
/// an alternative derivation elsewhere in the base data.
#[test]
fn delete_delta_maintains_views() {
    let mut e = engine();
    let q = paper::paper_query();
    assert_eq!(cite(&mut e, &q).answer.len(), 1);
    commit(&mut e, &[(true, "FamilyIntro", tuple![13, "3rd"])]);
    assert_eq!(cite(&mut e, &q).answer.len(), 2);
    commit(&mut e, &[(false, "FamilyIntro", tuple![13, "3rd"])]);
    let cited = cite(&mut e, &q);
    assert_eq!(cited.answer.len(), 1, "deletion visible through the delta");
    assert_eq!(cited.rewrite_stats.plan_cache_hits, 1);
    let s = e.view_cache_stats().unwrap();
    assert_eq!(s.materializations, 3, "never re-materialized: {s:?}");
    assert_eq!(s.deltas_applied, 2, "insert + delete deltas on V3: {s:?}");
}

/// Hammer the sharded plan cache from many threads over many distinct
/// query shapes: counters must balance (every lookup is a hit or a miss)
/// and every shape must end up cached at most once (α-equivalent repeats
/// share one signature).
#[test]
fn sharded_plan_cache_counters_balance_under_contention() {
    let svc = CitationService::builder()
        .database(paper::paper_database())
        .registry(paper::paper_registry())
        .mode(CitationMode::Formal)
        .build()
        .unwrap();
    // 6 distinct shapes (different constant equality patterns), cited by
    // 6 threads 20 times each.
    let shapes: Vec<_> = (0..6)
        .map(|i| match i {
            0 => paper::paper_query(),
            1 => parse_query("Q(N) :- Family(11, N, D), FamilyIntro(11, T)").unwrap(),
            2 => parse_query("Q(N) :- Family(11, N, D), FamilyIntro(12, T)").unwrap(),
            3 => parse_query("Q(N, T) :- Family(F, N, D), FamilyIntro(F, T)").unwrap(),
            4 => parse_query("Q(F) :- Family(F, N, D)").unwrap(),
            _ => parse_query("Q(T) :- FamilyIntro(F, T)").unwrap(),
        })
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let svc = svc.clone();
            let shapes = shapes.clone();
            scope.spawn(move || {
                for _ in 0..20 {
                    for q in &shapes {
                        svc.cite(q).expect("coverable");
                    }
                }
            });
        }
    });
    let stats = svc.plan_cache_stats();
    let lookups = 6 * 20 * 6;
    assert_eq!(stats.hits + stats.misses, lookups as u64, "{stats:?}");
    // Concurrent first-misses may compute a plan twice, but the cache
    // holds exactly one entry per signature afterwards.
    assert_eq!(svc.plan_cache().len(), shapes.len());
    assert!(stats.misses >= shapes.len() as u64);
    // The per-shard breakdown sums to the aggregate.
    let per_shard = svc.plan_cache().shard_stats();
    assert_eq!(
        per_shard.iter().map(|s| s.hits).sum::<u64>(),
        stats.hits,
        "{per_shard:?}"
    );
}
