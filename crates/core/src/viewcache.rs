//! The materialized-view cache: cross-query, cross-update reuse of
//! citation-view materializations.
//!
//! Rewritings are queries over *view* predicates, so before evaluating one
//! the service materializes the needed views into a scratch database. This
//! module owns that scratch database and keeps it warm in two directions:
//!
//! * **across queries** — a view is materialized once and reused by every
//!   later cite/batch that needs it (the service grows the cache on
//!   demand; see the publication scheme below);
//! * **across data updates** — instead of dropping the whole cache on a
//!   snapshot swap, an insert/delete **changeset** is carried into the
//!   materializations by the semi-naive delta rules of
//!   [`citesys_storage::delta`]. Views whose bodies do not mention any
//!   changed relation are kept verbatim; affected views get delta rows
//!   applied; only failures (or registry changes, which alter view
//!   *definitions*) fall back to dropping a view for lazy recomputation.
//!
//! **Lock-free reads.** The materializations are a *published snapshot*:
//! an [`arc_swap::ArcSwap`] pointer to an immutable `Database`. A reader
//! ([`CitationService::cite`](crate::CitationService::cite) evaluating a
//! rewriting) performs one atomic pointer load — no lock, no
//! reference-count traffic — and keeps citing the snapshot it loaded even
//! if a writer publishes a successor mid-evaluation. Only writers pay:
//! growing the cache clones the current snapshot, materializes into the
//! clone, and publishes it (serialized by a writer gate; a publication
//! that fails mid-materialization is simply not published, so readers
//! never observe a half-built view).
//!
//! Updates are staged in two phases because deletion deltas need the
//! database **before** the change while insertion deltas need it **after**:
//! [`CitationService::stage_batch`](crate::CitationService::stage_batch)
//! normalizes the
//! changeset against the pre-update state into its net effect and captures
//! the at-risk view rows, the caller mutates the base database, and
//! [`CitationService::with_database_delta`](crate::CitationService::with_database_delta)
//! finishes the job against the single post-batch database — one snapshot
//! swap for the whole transaction. The staged snapshot also gives update
//! isolation: services handed out before the update keep their own (old)
//! cache, so a cite racing an update always sees one consistent snapshot
//! pairing.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use arc_swap::ArcSwap;
use citesys_cq::Symbol;
use citesys_storage::{delta, Changeset, Database, NetChanges, Tuple};
use parking_lot::Mutex;

use crate::error::CiteError;
use crate::registry::CitationRegistry;

/// Counter snapshot for a service's materialized-view cache. Counters are
/// carried across delta-maintained snapshot swaps (successor caches share
/// them), so they describe the whole update lineage, not one snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ViewCacheStats {
    /// Views materialized from scratch (first demand, or re-demand after a
    /// drop).
    pub materializations: u64,
    /// Views carried across a data update by applying insert/delete delta
    /// rows (counted once per view per batch, however many tuples the
    /// batch changed).
    pub deltas_applied: u64,
    /// Views carried across a data update verbatim — the update could not
    /// affect them (their bodies do not mention any net-changed relation;
    /// a batch that nets to nothing counts every view here).
    pub untouched: u64,
    /// Views dropped for lazy recomputation because delta maintenance was
    /// not applicable (e.g. a delta evaluation failed).
    pub recomputes: u64,
    /// Whole-cache drops: non-delta snapshot swaps and registry/schema
    /// changes, which invalidate every materialization at once.
    pub drops: u64,
}

/// Shared, lock-free counters behind [`ViewCacheStats`].
#[derive(Debug, Default)]
struct Counters {
    materializations: AtomicU64,
    deltas_applied: AtomicU64,
    untouched: AtomicU64,
    recomputes: AtomicU64,
    drops: AtomicU64,
}

/// The scratch database of materialized citation views a
/// [`CitationService`](crate::CitationService) shares across clones.
///
/// Readers take **no lock**: the materializations live behind a published
/// [`ArcSwap`] snapshot pointer, and a read is one atomic load. Growing
/// the cache copies-on-write and republishes under a writer gate (see
/// the module docs).
#[derive(Debug)]
pub struct ViewCache {
    /// The published snapshot of materialized views. Each publication is
    /// retained until the cache drops (the arc-swap shim's retire-list),
    /// which is bounded: a cache republishes at most once per registered
    /// view, and every data update produces a *successor* cache.
    published: ArcSwap<Database>,
    /// Serializes writers so concurrent on-demand materializations cannot
    /// publish over each other.
    write_gate: Mutex<()>,
    counters: Arc<Counters>,
}

impl Default for ViewCache {
    fn default() -> Self {
        ViewCache {
            published: ArcSwap::from_pointee(Database::new()),
            write_gate: Mutex::new(()),
            counters: Arc::default(),
        }
    }
}

impl ViewCache {
    /// An empty cache with fresh counters.
    pub fn new() -> Self {
        ViewCache::default()
    }

    /// A cache pre-seeded with already-materialized views (checkpoint
    /// recovery): the seeded views are published immediately and count
    /// as neither materializations nor deltas — the work was paid in a
    /// previous process.
    pub(crate) fn with_published(views: Database) -> Self {
        ViewCache {
            published: ArcSwap::from_pointee(views),
            write_gate: Mutex::new(()),
            counters: Arc::default(),
        }
    }

    /// An empty cache that keeps accumulating into this cache's counters —
    /// used when a snapshot swap must drop all materializations (non-delta
    /// [`with_database`](crate::CitationService::with_database)).
    pub(crate) fn fresh_linked(&self) -> ViewCache {
        self.counters.drops.fetch_add(1, Ordering::Relaxed);
        ViewCache {
            published: ArcSwap::from_pointee(Database::new()),
            write_gate: Mutex::new(()),
            counters: Arc::clone(&self.counters),
        }
    }

    /// Lock-free read access to the published materializations: one
    /// atomic pointer load. The guard keeps observing the snapshot it
    /// loaded even if a writer republishes concurrently.
    pub(crate) fn read(&self) -> arc_swap::Guard<'_, Database> {
        self.published.load()
    }

    /// Materializes the views in `needed` that the published snapshot is
    /// missing, copy-on-write, and publishes the grown snapshot. Readers
    /// are never blocked and never see a partially materialized view: on
    /// error nothing is published. Returns how many views were newly
    /// materialized (0 when a racing writer already provided them).
    pub(crate) fn materialize_missing(
        &self,
        base: &Database,
        registry: &CitationRegistry,
        needed: &BTreeSet<&Symbol>,
    ) -> Result<usize, CiteError> {
        let _gate = self.write_gate.lock();
        let current = self.published.load();
        let missing = needed
            .iter()
            .filter(|n| !current.has_relation(n.as_str()))
            .count();
        if missing == 0 {
            return Ok(0);
        }
        let mut next = Database::clone(&current);
        crate::engine::materialize_views_into(base, registry, needed, &mut next)?;
        self.published.store(Arc::new(next));
        self.note_materialized(missing);
        Ok(missing)
    }

    /// Records `n` from-scratch view materializations.
    pub(crate) fn note_materialized(&self, n: usize) {
        if n > 0 {
            self.counters
                .materializations
                .fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ViewCacheStats {
        ViewCacheStats {
            materializations: self.counters.materializations.load(Ordering::Relaxed),
            deltas_applied: self.counters.deltas_applied.load(Ordering::Relaxed),
            untouched: self.counters.untouched.load(Ordering::Relaxed),
            recomputes: self.counters.recomputes.load(Ordering::Relaxed),
            drops: self.counters.drops.load(Ordering::Relaxed),
        }
    }

    /// Phase one of a delta-maintained snapshot swap for a whole
    /// changeset: normalizes the ops against `db_before` into their net
    /// effect, clones the current materializations, and — for net
    /// deletions — computes the at-risk view rows over `db_before` (they
    /// are unrecoverable once the tuples are gone). A view whose
    /// candidate computation fails is excluded from the clone and will be
    /// lazily rematerialized.
    pub(crate) fn stage_batch(
        &self,
        registry: &CitationRegistry,
        db_before: &Database,
        changes: &Changeset,
    ) -> PendingViewDelta {
        let net = changes.net(db_before);
        let mut views = Database::clone(&self.read());
        let mut candidates = Vec::new();
        let deleted_rels: BTreeSet<&str> =
            net.deletes.iter().map(|(rel, _)| rel.as_str()).collect();
        let names: Vec<String> = views
            .relation_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        for name in names {
            let Some(cv) = registry.get(&name) else {
                // Not a registered view (cannot happen through the service;
                // defensive): drop it rather than guess at maintenance.
                let _ = views_remove(&mut views, &name);
                self.counters.recomputes.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            let delete_affected = cv
                .view
                .body
                .iter()
                .any(|a| deleted_rels.contains(a.predicate.as_str()));
            if !delete_affected {
                continue;
            }
            match delta::delete_candidates_batch(db_before, &cv.view, &net.deletes) {
                Ok(rows) => candidates.push((name, rows)),
                Err(_) => {
                    let _ = views_remove(&mut views, &name);
                    self.counters.recomputes.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        PendingViewDelta {
            net,
            views,
            candidates,
            counters: Arc::clone(&self.counters),
        }
    }
}

/// Removes a relation from a scratch database by rebuilding without it
/// (the catalog has no remove primitive; view caches are small).
fn views_remove(views: &mut Database, name: &str) -> bool {
    if !views.has_relation(name) {
        return false;
    }
    let mut rebuilt = Database::new();
    for (n, rel) in views.relations() {
        if n.as_str() == name {
            continue;
        }
        rebuilt
            .create_relation(rel.schema().clone())
            .expect("names unique in source catalog");
        for t in rel.scan() {
            rebuilt
                .insert(n.as_str(), t.clone())
                .expect("tuples valid in source relation");
        }
    }
    *views = rebuilt;
    true
}

/// A staged view-cache update: the pre-update materializations, the
/// changeset's net effect, and whatever had to be computed before the
/// base database changed. Finish it with
/// [`CitationService::with_database_delta`](crate::CitationService::with_database_delta) —
/// the whole batch lands in **one** snapshot swap.
#[derive(Debug)]
pub struct PendingViewDelta {
    /// The changeset normalized against the pre-batch database.
    net: NetChanges,
    views: Database,
    /// For net deletions: per-view rows that may have lost support.
    candidates: Vec<(String, Vec<Tuple>)>,
    counters: Arc<Counters>,
}

impl PendingViewDelta {
    /// The net inserted/deleted tuples this staged delta carries (what
    /// the batch actually changes once in-batch cancellations and no-ops
    /// are normalized away).
    pub fn net(&self) -> &NetChanges {
        &self.net
    }

    /// Phase two: applies the whole net delta against the single
    /// post-batch database and returns the successor cache (sharing the
    /// original's counters).
    pub(crate) fn apply(mut self, registry: &CitationRegistry, db_after: &Database) -> ViewCache {
        let changed_rels: BTreeSet<String> = self
            .net
            .relations()
            .into_iter()
            .map(|s| s.to_string())
            .collect();
        let names: Vec<String> = self
            .views
            .relation_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        for name in names {
            let Some(cv) = registry.get(&name) else {
                views_remove(&mut self.views, &name);
                self.counters.recomputes.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            let affected = cv
                .view
                .body
                .iter()
                .any(|a| changed_rels.contains(a.predicate.as_str()));
            if !affected {
                self.counters.untouched.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let rows = self
                .candidates
                .iter()
                .find(|(n, _)| n == &name)
                .map(|(_, rows)| rows.as_slice())
                .unwrap_or(&[]);
            if apply_batch(&mut self.views, db_after, &cv.view, &name, &self.net, rows) {
                self.counters.deltas_applied.fetch_add(1, Ordering::Relaxed);
            } else {
                views_remove(&mut self.views, &name);
                self.counters.recomputes.fetch_add(1, Ordering::Relaxed);
            }
        }
        ViewCache {
            published: ArcSwap::from_pointee(self.views),
            write_gate: Mutex::new(()),
            counters: self.counters,
        }
    }
}

/// Carries one view across the batch: re-checks each at-risk row against
/// the post-batch database and removes the unsupported ones, then adds
/// the net-insertion delta rows. False on any evaluation/storage failure
/// (the caller then drops the view for lazy recomputation).
fn apply_batch(
    views: &mut Database,
    db_after: &Database,
    view: &citesys_cq::ConjunctiveQuery,
    name: &str,
    net: &NetChanges,
    candidates: &[Tuple],
) -> bool {
    for row in candidates {
        match delta::still_derivable(db_after, view, row) {
            Ok(true) => {}
            Ok(false) => {
                if views.delete(name, row).is_err() {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    match delta::insert_delta_batch(db_after, view, &net.inserts) {
        Ok(rows) => rows.into_iter().all(|row| views.insert(name, row).is_ok()),
        Err(_) => false,
    }
}
