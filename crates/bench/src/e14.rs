//! E14 — concurrent service throughput: N threads cloning one warm
//! service, plus a mixed cite/update workload.
//!
//! The ROADMAP's north star is serving citation traffic from many clients
//! at once, which stresses exactly the state PR 1 centralized: the shared
//! plan cache and the shared materialized-view cache. This experiment
//! clones one [`CitationService`] across `N` threads and measures
//!
//! * **cached cites** — every thread re-cites warm λ-parameterized query
//!   shapes; with the lock-striped plan cache and read-lock view access
//!   this should scale with cores (flat on a single-core host), and
//! * **mixed cite/update** — one writer applies single-tuple updates
//!   through an [`IncrementalEngine`] while reader threads cite against
//!   the published snapshot services; delta-maintained view caches keep
//!   both plans and materializations warm across every update.
//!
//! The table reports total throughput and the speedup over one thread.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use citesys_core::{
    CitationMode, CitationRegistry, CitationService, EngineOptions, IncrementalEngine,
};
use citesys_cq::ConjunctiveQuery;
use citesys_gtopdb::{full_registry, generate, GtopdbConfig};
use citesys_storage::{tuple, SharedDatabase};

use crate::e13::parameterized_workload;
use crate::table::{timed, Table};

/// Spawns `threads` workers over clones of `service`, each citing the
/// whole workload `rounds` times. Returns total cites performed.
pub fn concurrent_cites(
    service: &CitationService,
    workload: &[ConjunctiveQuery],
    threads: usize,
    rounds: usize,
) -> usize {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let svc = service.clone();
                scope.spawn(move || {
                    let mut done = 0usize;
                    for _ in 0..rounds {
                        for q in workload {
                            svc.cite(q).expect("coverable");
                            done += 1;
                        }
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .sum()
    })
}

/// One writer applying `updates` single-tuple inserts through an
/// [`IncrementalEngine`] (publishing a fresh snapshot service after each)
/// while `readers` threads cite the latest published service. Returns
/// `(cites, plan_cache_hits_at_end)`.
pub fn mixed_cite_update(
    db: &SharedDatabase,
    registry: &Arc<CitationRegistry>,
    workload: &[ConjunctiveQuery],
    readers: usize,
    updates: usize,
) -> (usize, u64) {
    let mut engine = IncrementalEngine::new(
        db.as_ref().clone(),
        registry.as_ref().clone(),
        EngineOptions {
            mode: CitationMode::CostPruned,
            ..Default::default()
        },
    );
    // Warm plans + views, then publish the snapshot service for readers.
    for q in workload {
        engine.cite(q).expect("coverable");
    }
    let published = Arc::new(Mutex::new(engine.snapshot_service()));
    let total = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let published = Arc::clone(&published);
                scope.spawn(move || {
                    let mut done = 0usize;
                    // Two passes over the workload per published snapshot
                    // keeps readers busy across the writer's updates.
                    for _ in 0..2 * updates.max(1) {
                        let svc = published.lock().expect("not poisoned").clone();
                        for q in workload {
                            svc.cite(q).expect("coverable");
                            done += 1;
                        }
                    }
                    done
                })
            })
            .collect();
        // The writer: single-tuple inserts into a relation the citation
        // views join against, republished after every update.
        for i in 0..updates {
            engine
                .insert("Committee", tuple![1, format!("e14-member-{i}")])
                .expect("insertable");
            *published.lock().expect("not poisoned") = engine.snapshot_service();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .sum()
    });
    let hits = engine.snapshot_service().plan_cache_stats().hits;
    (total, hits)
}

/// Throughput of one configuration in cites/second.
fn rate(cites: usize, wall: Duration) -> f64 {
    cites as f64 / wall.as_secs_f64().max(1e-9)
}

/// Builds the E14 table.
pub fn table(quick: bool) -> Table {
    let cfg = GtopdbConfig {
        scale: 2,
        ..Default::default()
    };
    let db = generate(&cfg).into_shared();
    let registry = Arc::new(full_registry());
    let workload = parameterized_workload(&cfg, if quick { 8 } else { 16 });
    let rounds = if quick { 4 } else { 16 };

    let service = CitationService::builder()
        .database(Arc::clone(&db))
        .registry(Arc::clone(&registry))
        .options(EngineOptions {
            mode: CitationMode::CostPruned,
            ..Default::default()
        })
        .build()
        .expect("complete builder");
    for q in &workload {
        service.cite(q).expect("warmup");
    }

    let mut rows = Vec::new();
    let mut base_rate = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let (cites, wall) = timed(|| concurrent_cites(&service, &workload, threads, rounds));
        let r = rate(cites, wall);
        if threads == 1 {
            base_rate = r;
        }
        rows.push(vec![
            format!("cached cites × {threads} thread(s)"),
            cites.to_string(),
            format!("{:.0}", r),
            format!("{:.2}×", r / base_rate.max(1e-9)),
        ]);
    }

    let updates = if quick { 4 } else { 16 };
    let ((cites, hits), wall) = timed(|| mixed_cite_update(&db, &registry, &workload, 4, updates));
    rows.push(vec![
        format!("mixed: 4 readers + {updates} updates"),
        cites.to_string(),
        format!("{:.0}", rate(cites, wall)),
        format!("{hits} plan hits kept"),
    ]);

    Table {
        id: "E14",
        title: "concurrent service: cached cites scale across threads; updates keep caches warm",
        expectation: "throughput grows with threads on multi-core hosts (the shared caches are \
                      read-dominated); the mixed workload keeps serving plan-cache hits across \
                      every data update",
        headers: vec![
            "configuration".into(),
            "cites".into(),
            "cites/s".into(),
            "scaling / note".into(),
        ],
        rows,
    }
}
