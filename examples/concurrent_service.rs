//! Concurrent serving: one warm `CitationService` cloned across worker
//! threads, with a writer committing data updates through a `Store`
//! while readers keep citing.
//!
//! Run with: `cargo run --example concurrent_service`
//!
//! Demonstrates the scaled cache architecture (see ARCHITECTURE.md):
//!
//! * clones share the **sharded plan cache** — only the first cite of a
//!   query shape pays for the rewriting search, and read hits take only
//!   a shard's shared lock;
//! * each commit **delta-maintains the materialized views** — unaffected
//!   views are carried over verbatim and the plan-cache hit counters keep
//!   climbing instead of resetting;
//! * readers racing an update always observe one consistent snapshot
//!   (old or new), never a mix.

use std::sync::{Arc, Mutex};

use citesys::core::paper;
use citesys::core::{Changeset, CitationMode, CitationService, EngineOptions, SpanSet, Store};
use citesys::storage::tuple;

fn main() {
    let mut store = Store::from_database(&paper::paper_database(), paper::paper_registry())
        .expect("the paper's data commits");
    let options = EngineOptions {
        mode: CitationMode::Formal,
        ..Default::default()
    };
    // The service over the latest version, carried across every commit.
    let service = |store: &mut Store| {
        let version = store.latest_version();
        store.service_at(version, options).expect("service").0
    };
    let q = paper::paper_query();
    service(&mut store).cite(&q).expect("coverable");

    // Publish a snapshot service for the reader threads; the writer
    // replaces it after every commit.
    let published: Arc<Mutex<CitationService>> = Arc::new(Mutex::new(service(&mut store)));

    const READERS: usize = 4;
    const CITES_PER_READER: usize = 200;
    const UPDATES: usize = 20;

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for id in 0..READERS {
            let published = Arc::clone(&published);
            let q = q.clone();
            handles.push(scope.spawn(move || {
                let mut hits = 0usize;
                for _ in 0..CITES_PER_READER {
                    let svc = published.lock().unwrap().clone();
                    let cited = svc.cite(&q).expect("coverable");
                    hits += cited.rewrite_stats.plan_cache_hits;
                    // Snapshot consistency: every answer tuple is cited.
                    assert!(cited.tuples.iter().all(|t| !t.atoms.is_empty()));
                }
                (id, hits)
            }));
        }

        // The writer: flip Dopamine's intro in and out. Each commit is
        // delta-maintained — no view is re-materialized from scratch.
        for i in 0..UPDATES {
            let mut changes = Changeset::new();
            if i % 2 == 0 {
                changes.insert("FamilyIntro", tuple![13, "3rd"]);
            } else {
                changes.delete("FamilyIntro", tuple![13, "3rd"]);
            }
            store.apply(&changes).unwrap();
            store.seal(&mut SpanSet::disabled()).unwrap();
            *published.lock().unwrap() = service(&mut store);
        }

        for h in handles {
            let (id, hits) = h.join().expect("reader panicked");
            println!("reader {id}: {hits}/{CITES_PER_READER} cites served from the plan cache");
        }
    });

    let service = service(&mut store);
    let plans = service.plan_cache_stats();
    let views = service.view_cache_stats();
    println!("\n== after {UPDATES} updates ==");
    println!(
        "plan cache: {} hits, {} misses across {} shard(s) — updates did not reset it",
        plans.hits,
        plans.misses,
        service.plan_cache().shard_count()
    );
    println!(
        "view cache: {} materializations, {} delta carries, {} untouched carries, {} drops",
        views.materializations, views.deltas_applied, views.untouched, views.drops
    );
    assert_eq!(views.drops, 0, "no update dropped the view cache");
}
