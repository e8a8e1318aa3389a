//! E7 — citation evolution: incremental recomputation vs recompute-all
//! (§3: "how to compute citations in an incremental manner").
//!
//! A workload of queries is cited once, warming the store's plan cache
//! and materialized views; then `k` *localized* updates hit only the
//! `Ligand` relation, committed as one transaction, and every query is
//! cited again. The store carries its service across the commit by delta
//! maintenance — only the view over `Ligand` takes delta rows, the rest
//! are carried untouched, and every plan is served from the cache — while
//! the baseline recomputes every citation on a cold service. Expected:
//! incremental time ≪ full recompute time.

use std::time::Duration;

use citesys_core::{
    Changeset, CitationService, CitedAnswer, EngineOptions, SpanSet, Store, ViewCacheStats,
};
use citesys_cq::{parse_query, ConjunctiveQuery, Value};
use citesys_gtopdb::{full_registry, generate, GtopdbConfig};
use citesys_storage::Tuple;

use crate::table::{ms, timed, Table};

/// The cited workload: two ligand-dependent queries, four independent.
pub fn workload() -> Vec<ConjunctiveQuery> {
    vec![
        parse_query("Q1(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)").expect("ok"),
        parse_query("Q2(FID, FName, Desc) :- Family(FID, FName, Desc)").expect("ok"),
        parse_query("Q3(PName) :- Committee(FID, PName)").expect("ok"),
        parse_query("Q4(TName, FID) :- Target(TID, TName, FID)").expect("ok"),
        parse_query("Q5(LID, LName, LType) :- Ligand(LID, LName, LType)").expect("ok"),
        parse_query("Q6(TName, LID) :- Target(TID, TName, F), Interaction(TID, LID, A)")
            .expect("ok"),
    ]
}

/// `k` new ligands as one transaction.
fn ligand_inserts(k: usize) -> Changeset {
    let mut changes = Changeset::new();
    for i in 0..k {
        changes.insert(
            "Ligand",
            Tuple::new(vec![
                Value::Int(2_000_000 + i as i64),
                Value::from(format!("delta-ligand-{i}")),
                Value::from("peptide"),
            ]),
        );
    }
    changes
}

/// Cites every query on the store's service at its latest version.
fn cite_all(store: &mut Store, queries: &[ConjunctiveQuery]) -> Vec<CitedAnswer> {
    let version = store.latest_version();
    let (service, _) = store
        .service_at(version, EngineOptions::default())
        .expect("service");
    queries
        .iter()
        .map(|q| service.cite(q).expect("coverable"))
        .collect()
}

/// A store over `cfg`'s database with every query cited once, then the
/// `k`-ligand commit and the re-cite, timed. Returns the re-cited
/// answers and the view-cache counters before and after.
fn incremental(
    cfg: &GtopdbConfig,
    k: usize,
    queries: &[ConjunctiveQuery],
) -> (Vec<CitedAnswer>, ViewCacheStats, ViewCacheStats, Duration) {
    let mut store = Store::from_database(&generate(cfg), full_registry()).expect("store");
    cite_all(&mut store, queries);
    let before = store.view_cache_stats().expect("warm");
    let changes = ligand_inserts(k);
    let (cited, wall) = timed(|| {
        store.apply(&changes).expect("valid");
        store.seal(&mut SpanSet::disabled()).expect("sealed");
        cite_all(&mut store, queries)
    });
    let after = store.view_cache_stats().expect("carried");
    (cited, before, after, wall)
}

/// One row: `k` ligand inserts, incremental vs full recompute.
pub fn run(k: usize) -> Vec<String> {
    let cfg = GtopdbConfig {
        scale: 2,
        ..Default::default()
    };
    let queries = workload();
    let (_, before, after, inc_time) = incremental(&cfg, k, &queries);

    // Baseline: a cold service recomputes every query after the same
    // updates.
    let mut db = generate(&cfg);
    let (_, full_time) = timed(|| {
        ligand_inserts(k).apply(&mut db).expect("valid");
        let engine = CitationService::builder()
            .database(db.clone())
            .registry(full_registry())
            .options(EngineOptions::default())
            .build()
            .unwrap();
        for q in &queries {
            engine.cite(q).expect("coverable");
        }
    });

    vec![
        k.to_string(),
        (after.deltas_applied - before.deltas_applied).to_string(),
        (after.untouched - before.untouched).to_string(),
        ms(inc_time),
        ms(full_time),
        format!(
            "{:.1}×",
            full_time.as_secs_f64() / inc_time.as_secs_f64().max(1e-9)
        ),
    ]
}

/// Builds the E7 table.
pub fn table(quick: bool) -> Table {
    let ks: &[usize] = if quick { &[1, 8] } else { &[1, 8, 64, 256] };
    let rows = ks.iter().map(|&k| run(k)).collect();
    Table {
        id: "E7",
        title: "Citation evolution: delta-maintained re-cite vs recompute-all (k ligand inserts, one commit)",
        expectation: "only the ligand view takes a delta; incremental beats full recompute",
        headers: vec![
            "updates k".into(),
            "deltas_applied".into(),
            "untouched".into(),
            "incremental ms".into(),
            "recompute-all ms".into(),
            "speedup".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_ligand_queries_invalidate() {
        let queries = workload();
        let (cited, before, after, _) = incremental(&GtopdbConfig::default(), 1, &queries);
        // Only VL reads Ligand: one view takes the delta, every other
        // materialized view is carried verbatim, nothing is rebuilt.
        assert_eq!(after.deltas_applied - before.deltas_applied, 1);
        assert!(after.untouched > before.untouched, "{after:?}");
        assert_eq!(after.materializations, before.materializations);
        assert_eq!(after.recomputes + after.drops, 0, "{after:?}");
        // Every re-cite was served by a cached plan.
        for c in &cited {
            assert_eq!(c.rewrite_stats.plan_cache_hits, 1);
        }
    }

    #[test]
    fn run_produces_speedup_column() {
        let row = run(1);
        assert_eq!(row.len(), 6);
        assert!(row[5].ends_with('×'));
    }
}
