//! The citation store: the one owner of the write path.
//!
//! A [`Store`] holds everything a reproducible citation depends on — the
//! versioned database, the relation schemas, the citation-view registry,
//! the rewrite-plan caches, the cached per-version [`CitationService`]
//! and, when durable, the [`DurableHandle`] — and it is the only code
//! that cuts a version. Every version boundary runs one routine
//! (`seal_pending`), in one order:
//!
//! 1. append the pending ops to the write-ahead log and fsync (durable
//!    stores only) — on failure the ops are undone, so the working state
//!    is the last committed version again and nothing is acknowledged;
//! 2. commit: the pending ops become version `n + 1`;
//! 3. snapshot `n + 1` and carry the cached service onto it by batch
//!    delta maintenance — one snapshot swap, views and plans warm.
//!
//! Three paths reach it: [`Store::seal`] (a local commit: solo, inline
//! or one group-commit window), [`Store::apply_replicated`] (a follower
//! applying a shipped `wal` frame) and WAL replay at open
//! ([`CitationService::open_with`], which [`Store::open`] runs).
//! Checkpoint sections are assembled in one place as well, for
//! [`Store::write_checkpoint`], the replication `ckpt` frame
//! ([`Store::checkpoint_data`]) and [`CitationService::checkpoint`].

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use citesys_obs::{SpanSet, SpanTimer};
use citesys_storage::durability::{database_to_text, versioned_to_text};
use citesys_storage::{
    Changeset, CheckpointData, Database, RelationSchema, StorageError, VersionedDatabase,
};

use crate::durable::{
    rebuild_from_checkpoint, DurableHandle, SECTION_DATABASE, SECTION_PLANS, SECTION_REGISTRY,
    SECTION_VIEWS,
};
use crate::engine::EngineOptions;
use crate::error::CiteError;
use crate::registry::{CitationRegistry, CitationView};
use crate::service::{CitationService, PlanCache, PlanCacheStats, DEFAULT_PLAN_CACHE_CAPACITY};
use crate::viewcache::ViewCacheStats;

/// Why a [`Store`] operation was refused. `Display` is the message the
/// serving layer reports.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StoreError {
    /// The operation is out of order: data before any schema, a schema
    /// after data.
    Usage(String),
    /// A data, durability or citation operation failed.
    Failed(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Usage(m) | StoreError::Failed(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for StoreError {}

fn failed(e: impl fmt::Display) -> StoreError {
    StoreError::Failed(e.to_string())
}

/// What carrying a commit across a version boundary did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Sealed {
    /// The version just cut.
    pub version: u64,
    /// Whether the cached service was carried onto it (one snapshot
    /// swap); `false` when no service was cached yet.
    pub swapped: bool,
}

/// Where a read of a committed version comes from.
#[derive(Debug)]
pub enum AsOf {
    /// The in-memory op log still holds the version.
    Memory(Arc<Database>),
    /// Compacted from memory but covered by a retained durable anchor:
    /// the snapshot rebuilt from it, with the registry that governed it.
    Anchor(Arc<Database>, CitationRegistry),
    /// Compacted everywhere.
    Compacted {
        /// The oldest version a read can still reach.
        oldest: u64,
    },
}

/// The versioned database with its registry, plan caches, cached service
/// and durability backend — see the [module docs](self).
pub struct Store {
    db: Option<VersionedDatabase>,
    schemas: Vec<RelationSchema>,
    registry: CitationRegistry,
    /// Rewrite-plan caches: one for strict cites, one for cites with the
    /// `partial` fallback (the two can cache different plans for the
    /// same query). Replaced — never cleared — when the registry changes.
    plans_strict: Arc<PlanCache>,
    plans_partial: Arc<PlanCache>,
    /// `(version, partial, service)`: a service over a committed
    /// snapshot, built on the first cite and carried across commits.
    service: Option<(u64, bool, CitationService)>,
    /// Bumped whenever the registry is replaced or extended — half of
    /// [`replication_generation`](Self::replication_generation).
    setup_generation: u64,
    /// Every version is WAL-logged before it is cut; DDL and explicit
    /// checkpoints write the four sections under one manifest.
    durability: Option<DurableHandle>,
    /// Auto-checkpoint threshold in WAL records (`None` disables).
    checkpoint_every: Option<u64>,
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

impl Store {
    /// An empty in-memory store with no schema.
    pub fn new() -> Self {
        Store {
            db: None,
            schemas: Vec::new(),
            registry: CitationRegistry::new(),
            plans_strict: new_plan_cache(),
            plans_partial: new_plan_cache(),
            service: None,
            setup_generation: 0,
            durability: None,
            checkpoint_every: None,
        }
    }

    /// An in-memory store holding `db` as version 1 under `registry`:
    /// an existing database put behind the write path in one commit.
    pub fn from_database(db: &Database, registry: CitationRegistry) -> Result<Self, StoreError> {
        let mut store = Store::new();
        store.schemas = db.relations().map(|(_, r)| r.schema().clone()).collect();
        store.registry = registry;
        let mut changes = Changeset::new();
        for (name, rel) in db.relations() {
            for t in rel.scan() {
                changes.insert(name.as_str(), t.clone());
            }
        }
        store.apply(&changes)?;
        store.seal(&mut SpanSet::disabled())?;
        Ok(store)
    }

    /// Opens a durable store over `handle`: recovers the newest
    /// checkpoint (schemas, data, registry, materialized views, plans)
    /// and replays the WAL to the last acknowledged version through the
    /// same routine a live commit takes, so views and plans come back
    /// warm. A fresh backend yields an empty durable store.
    pub fn open(handle: DurableHandle) -> Result<Self, CiteError> {
        let (handle, recovered) = CitationService::open_with(handle)?;
        let mut store = Store::new();
        if let Some(rec) = recovered {
            store.adopt(rec.store, rec.service);
        }
        store.durability = Some(handle);
        Ok(store)
    }

    /// Takes over a recovered or shipped `(database, service)` pair.
    fn adopt(&mut self, db: VersionedDatabase, service: CitationService) {
        self.schemas = db.schemas().to_vec();
        self.registry = service.registry().as_ref().clone();
        // The service owns the recovered plan cache; the strict cache
        // must be the same object so the next checkpoint exports it.
        self.plans_strict = Arc::clone(service.plan_cache());
        self.plans_partial = new_plan_cache();
        self.service = Some((db.latest_version(), false, service));
        self.db = Some(db);
    }

    /// Arms record-based auto-checkpointing: once a commit (local or
    /// replicated) leaves `n` or more WAL records,
    /// [`checkpoint_if_due`](Self::checkpoint_if_due) writes a
    /// checkpoint. `None` disables (the default).
    pub fn set_checkpoint_every(&mut self, n: Option<u64>) {
        self.checkpoint_every = n;
    }

    /// The durable backend's data directory (`None` in memory) — where
    /// the dataset manifest and audit log live by default.
    pub fn data_dir(&self) -> Option<&Path> {
        self.durability.as_ref()?.data_dir()
    }

    /// WAL records since the last checkpoint (0 in memory).
    pub fn wal_records(&self) -> usize {
        self.durability
            .as_ref()
            .map_or(0, DurableHandle::wal_records)
    }

    /// Checkpoints the durable backend holds: the live one plus every
    /// retained time-travel anchor (0 in memory).
    pub fn checkpoints_retained(&self) -> usize {
        self.durability
            .as_ref()
            .map_or(0, DurableHandle::checkpoints_retained)
    }

    /// The oldest version `cite … @ <version>` can serve: the in-memory
    /// op-log base, lowered to the durable backend's retained-history
    /// floor when anchors reach further back.
    pub fn history_base_version(&self) -> u64 {
        let mem = self.base_version();
        match self
            .durability
            .as_ref()
            .and_then(DurableHandle::history_floor)
        {
            Some(floor) => floor.min(mem),
            None => mem,
        }
    }

    /// Latest committed version (0 before any commit).
    pub fn latest_version(&self) -> u64 {
        self.db
            .as_ref()
            .map_or(0, VersionedDatabase::latest_version)
    }

    /// Oldest version of the in-memory op log — versions below it were
    /// compacted and cannot be tailed.
    pub fn base_version(&self) -> u64 {
        self.db.as_ref().map_or(0, VersionedDatabase::base_version)
    }

    /// The versioned database, once any data command initialized it.
    pub fn database(&self) -> Option<&VersionedDatabase> {
        self.db.as_ref()
    }

    /// The versioned database, initialized from the declared schemas on
    /// first use. Ops applied to it directly stay pending until the next
    /// [`seal`](Self::seal).
    pub fn database_mut(&mut self) -> Result<&mut VersionedDatabase, StoreError> {
        if self.db.is_none() {
            if self.schemas.is_empty() {
                return Err(StoreError::Usage("no schema declared".to_string()));
            }
            self.db = Some(VersionedDatabase::new(self.schemas.clone()).map_err(failed)?);
        }
        Ok(self.db.as_mut().expect("just initialized"))
    }

    /// The citation-view registry.
    pub fn registry(&self) -> &CitationRegistry {
        &self.registry
    }

    /// Counters of the strict (non-partial) plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans_strict.stats()
    }

    /// Materialized-view counters of the cached service, once the first
    /// cite built one.
    pub fn view_cache_stats(&self) -> Option<ViewCacheStats> {
        self.service
            .as_ref()
            .map(|(_, _, svc)| svc.view_cache_stats())
    }

    /// The strict plan cache in the `citesys-plan-cache v1` text form —
    /// the checkpoint's plan section.
    pub fn export_plans(&self) -> String {
        self.plans_strict.to_text()
    }

    /// Loads plans serialized by [`export_plans`](Self::export_plans)
    /// into the strict plan cache, returning how many were loaded. A
    /// later view registration replaces the cache, so an import cannot
    /// outlive the registry it was computed under.
    pub fn import_plans(&self, text: &str) -> Result<usize, StoreError> {
        self.plans_strict.load_text(text).map_err(failed)
    }

    /// Declares a relation — only before any data command: older
    /// versions replay from the schema set, so a late declaration would
    /// drift their fixity digests. DDL cannot ride the WAL, so a durable
    /// store checkpoints.
    pub fn declare_relation(
        &mut self,
        schema: RelationSchema,
        spans: &mut SpanSet,
    ) -> Result<(), StoreError> {
        if self.db.is_some() {
            return Err(StoreError::Usage(
                "schema must be declared before any data command".to_string(),
            ));
        }
        self.schemas.push(schema);
        self.checkpoint_after_ddl(spans)
    }

    /// Admits a header-declared relation for a bulk load: it must match
    /// the declared (or live) schema, and is declared — with the DDL
    /// checkpoint — while the store holds no data yet, the same window
    /// [`declare_relation`](Self::declare_relation) has.
    pub fn ensure_relation(
        &mut self,
        schema: &RelationSchema,
        spans: &mut SpanSet,
    ) -> Result<(), StoreError> {
        let name = schema.name.as_str();
        let existing = match &self.db {
            Some(db) => db.schemas().iter().find(|s| s.name == schema.name),
            None => self.schemas.iter().find(|s| s.name == schema.name),
        };
        match existing {
            Some(ex) if ex.attributes != schema.attributes => Err(failed(format!(
                "relation {name}: header columns do not match the declared schema"
            ))),
            Some(_) => Ok(()),
            None if self.db.is_some() => Err(failed(format!(
                "relation {name} is not declared and the store already holds data: \
                 declare schemas before any data command"
            ))),
            None => self.declare_relation(schema.clone(), spans),
        }
    }

    /// Registers a citation view. The rewriting space changed, so the
    /// cached service is dropped and both plan caches are replaced (new
    /// `Arc`s: a service clone holding an old cache cannot leak
    /// old-registry plans back in). A durable store checkpoints.
    pub fn register_view(
        &mut self,
        cv: CitationView,
        spans: &mut SpanSet,
    ) -> Result<(), StoreError> {
        self.registry.add(cv).map_err(failed)?;
        self.plans_strict = new_plan_cache();
        self.plans_partial = new_plan_cache();
        self.service = None;
        self.setup_generation += 1;
        self.checkpoint_after_ddl(spans)
    }

    /// Applies one transaction to the working state atomically (a failing
    /// op rolls the whole changeset back) and returns how many ops changed
    /// data. Nothing is visible to cites until [`seal`](Self::seal).
    pub fn apply(&mut self, changes: &Changeset) -> Result<usize, StoreError> {
        self.database_mut()?
            .apply_changeset(changes)
            .map_err(|e| failed(format!("transaction rolled back: {e}")))
    }

    /// Seals everything pending — any number of applied transactions plus
    /// ops inserted directly — as one new version, WAL-logged before it
    /// is cut, and carries the cached service onto it. Records the
    /// `wal_fsync` and `snapshot_swap` spans. On a failed append the
    /// pending ops are undone: nothing is acknowledged and nothing leaks
    /// into the next version. Auto-checkpointing is the caller's next
    /// step ([`checkpoint_if_due`](Self::checkpoint_if_due)).
    pub fn seal(&mut self, spans: &mut SpanSet) -> Result<Sealed, StoreError> {
        let latest = self.database_mut()?.latest_version();
        let db = self.db.as_mut().expect("initialized above");
        let carry = self.service.as_ref().filter(|(v, _, _)| *v == latest);
        let partial = carry.is_some_and(|(_, partial, _)| *partial);
        let (version, carried) = seal_pending(
            db,
            carry.map(|(_, _, svc)| svc),
            self.durability.as_mut(),
            spans,
        )
        .map_err(|e| failed(format!("write-ahead log: {e}")))?;
        let swapped = carried.is_some();
        self.service = carried.map(|svc| (version, partial, svc));
        Ok(Sealed { version, swapped })
    }

    /// Applies one `wal` frame shipped by a primary: the stream must be
    /// gapless (`version` is exactly the local latest + 1), and the
    /// changeset is applied and sealed like a local commit.
    pub fn apply_replicated(
        &mut self,
        version: u64,
        changes: &Changeset,
        spans: &mut SpanSet,
    ) -> Result<Sealed, StoreError> {
        let expected = self.latest_version() + 1;
        if version != expected {
            return Err(failed(format!(
                "replication stream out of order: got version {version}, expected {expected}"
            )));
        }
        self.database_mut()?
            .apply_changeset(changes)
            .map_err(failed)?;
        self.seal(spans)
    }

    /// Installs a `ckpt` frame shipped by a primary: rebuilds the
    /// database, registry, plans and warm views from its sections and
    /// persists it to the local backend (if any) so a restart resumes
    /// from it. Refuses a checkpoint behind the local version — the
    /// histories diverged, which re-streaming cannot fix.
    pub fn install_checkpoint(&mut self, data: &CheckpointData) -> Result<u64, StoreError> {
        let local = self.latest_version();
        if data.version < local {
            return Err(failed(format!(
                "primary checkpoint at version {} is behind local version {local}: \
                 histories diverged",
                data.version
            )));
        }
        let (db, service) = rebuild_from_checkpoint(data).map_err(failed)?;
        self.adopt(db, service);
        self.setup_generation += 1;
        if let Some(handle) = &mut self.durability {
            handle.write_checkpoint(data).map_err(failed)?;
        }
        Ok(data.version)
    }

    /// The committed state as checkpoint sections, assembled in memory:
    /// the payload of [`write_checkpoint`](Self::write_checkpoint) and of
    /// the replication `ckpt` frame (so a primary replicates even without
    /// a data directory). Pending ops are excluded.
    pub fn checkpoint_data(&self) -> Result<CheckpointData, StoreError> {
        let empty;
        let db = match &self.db {
            Some(db) => db,
            None => {
                // No data yet: checkpoint the declared schemas at v0 so a
                // restart can still replay later WAL records.
                empty = VersionedDatabase::new(self.schemas.clone()).map_err(failed)?;
                &empty
            }
        };
        let version = db.latest_version();
        let views = self
            .service
            .as_ref()
            .filter(|(v, partial, _)| *v == version && !*partial)
            .map(|(_, _, svc)| svc.materialized_views())
            .unwrap_or_default();
        checkpoint_sections(db, &self.registry, &views, &self.plans_strict).map_err(failed)
    }

    /// Checkpoints the durable backend — committed database, registry,
    /// materialized views and plan cache under one manifest — then
    /// resets the WAL. Records the `checkpoint` span. Errors without a
    /// durable backend.
    pub fn write_checkpoint(&mut self, spans: &mut SpanSet) -> Result<u64, StoreError> {
        if self.durability.is_none() {
            return Err(failed(
                "no durable data directory (start with serve --data-dir <path>)",
            ));
        }
        let timer = SpanTimer::start(spans.enabled());
        let data = self.checkpoint_data()?;
        let handle = self.durability.as_mut().expect("durable: checked above");
        handle.write_checkpoint(&data).map_err(failed)?;
        spans.record_micros("checkpoint", timer.elapsed_micros());
        Ok(data.version)
    }

    /// Writes a checkpoint when auto-checkpointing is armed and the WAL
    /// has reached the threshold. Runs after a version is cut, so a
    /// failure here cannot lose it: the data stays replayable from the
    /// WAL.
    pub fn checkpoint_if_due(&mut self, spans: &mut SpanSet) -> Result<(), StoreError> {
        match self.checkpoint_every {
            Some(every) if self.durability.is_some() && self.wal_records() as u64 >= every => {
                self.write_checkpoint(spans).map(drop)
            }
            _ => Ok(()),
        }
    }

    fn checkpoint_after_ddl(&mut self, spans: &mut SpanSet) -> Result<(), StoreError> {
        if self.durability.is_some() {
            self.write_checkpoint(spans)?;
        }
        Ok(())
    }

    /// Trims queryable history to the newest `window` versions: write a
    /// checkpoint (folding the WAL; the superseded checkpoint becomes an
    /// anchor under the retention policy), drop durable anchors below the
    /// replay base for the new floor, and compact the in-memory op log.
    /// Returns `(floor, anchors pruned)`.
    pub fn compact(
        &mut self,
        window: u64,
        spans: &mut SpanSet,
    ) -> Result<(u64, usize), StoreError> {
        let floor = self.latest_version().saturating_sub(window);
        let mut pruned = 0;
        if self.durability.is_some() {
            // Checkpoint first so coverage stays contiguous.
            self.write_checkpoint(spans)?;
            let handle = self.durability.as_mut().expect("durable: checked above");
            pruned = handle.prune_history(floor).map_err(failed)?;
        }
        if let Some(db) = &mut self.db {
            db.compact_to(floor).map_err(failed)?;
        }
        Ok((floor, pruned))
    }

    /// The latest committed version, for a read that must not see
    /// uncommitted ops: refuses while any are pending.
    pub fn committed_version(&mut self) -> Result<u64, StoreError> {
        let db = self.database_mut()?;
        if db.has_pending() {
            return Err(failed("uncommitted changes: run 'commit' before 'cite'"));
        }
        Ok(db.latest_version())
    }

    /// A service over the snapshot of `version` with `options`, sharing
    /// the store's plan caches. The cached service is reused — with this
    /// call's mode and policies — when it serves `version` with the same
    /// partial flag (mode and policies do not affect plans); otherwise a
    /// service is built cold and cached. The flag says it was built.
    pub fn service_at(
        &mut self,
        version: u64,
        options: EngineOptions,
    ) -> Result<(CitationService, bool), StoreError> {
        if let Some((v, partial, svc)) = &self.service {
            if *v == version && *partial == options.allow_partial {
                return Ok((svc.with_options(options).map_err(failed)?, false));
            }
        }
        let snapshot = self.database_mut()?.snapshot(version).map_err(failed)?;
        let plans = if options.allow_partial {
            Arc::clone(&self.plans_partial)
        } else {
            Arc::clone(&self.plans_strict)
        };
        let svc = CitationService::builder()
            .database(snapshot)
            .registry(self.registry.clone())
            .options(options)
            .shared_plan_cache(plans)
            .build()
            .map_err(failed)?;
        self.service = Some((version, options.allow_partial, svc.clone()));
        Ok((svc, true))
    }

    /// Resolves a read of committed `version`: from the in-memory op log
    /// when it still holds it, else rebuilt from the nearest retained
    /// durable anchor (with the registry that governed it), else
    /// compacted.
    pub fn as_of(&mut self, version: u64) -> Result<AsOf, StoreError> {
        match self.database_mut()?.snapshot(version) {
            Ok(snapshot) => Ok(AsOf::Memory(snapshot)),
            Err(StorageError::CompactedVersion { .. }) => {
                let handle = self.durability.as_ref();
                let anchored = handle.map(|h| h.database_at(version)).transpose();
                Ok(match anchored.map_err(failed)?.flatten() {
                    Some((snapshot, registry)) => AsOf::Anchor(snapshot, registry),
                    None => AsOf::Compacted {
                        oldest: self.history_base_version(),
                    },
                })
            }
            Err(e) => Err(failed(e)),
        }
    }

    /// Fingerprint of the replication setup — schemas + registry. A
    /// follower sends it in its hello; a mismatch gets a full `ckpt`
    /// bootstrap instead of incremental `wal` frames.
    pub fn setup_digest(&self) -> String {
        let mut text = format!("{:?}", self.schemas);
        text.push('\x1f');
        text.push_str(&self.registry.to_text());
        citesys_storage::sha256(text.as_bytes()).to_hex()
    }

    /// Changes whenever DDL changes the replication setup mid-stream
    /// (schema declared, view registered, checkpoint installed): feeds
    /// compare it between batches and re-bootstrap their follower.
    pub fn replication_generation(&self) -> (u64, usize) {
        (self.setup_generation, self.schemas.len())
    }

    /// The changeset committed as `version`, from the in-memory op log
    /// (`None` for version 0, unknown versions and compacted ones).
    pub fn changes_in(&self, version: u64) -> Option<Changeset> {
        let ops = self.db.as_ref()?.ops_of(version)?;
        Some(Changeset::from_ops(ops.to_vec()))
    }
}

fn new_plan_cache() -> Arc<PlanCache> {
    Arc::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY))
}

/// Carries everything pending in `db` across one version boundary — the
/// only code that cuts a version of a served database. In order: append
/// the pending ops to `wal` (fsynced; recorded as the `wal_fsync` span),
/// commit, then carry `service` — a service over the previous version —
/// onto the new snapshot by batch delta maintenance (the `snapshot_swap`
/// span). On a failed append the pending ops are undone and the error is
/// returned with nothing committed. Returns the new version and the
/// carried service (`None` when none was given).
pub(crate) fn seal_pending(
    db: &mut VersionedDatabase,
    service: Option<&CitationService>,
    wal: Option<&mut DurableHandle>,
    spans: &mut SpanSet,
) -> Result<(u64, Option<CitationService>), CiteError> {
    let changes = Changeset::from_ops(db.pending_ops().to_vec());
    if let Some(wal) = wal {
        let fsync = SpanTimer::start(spans.enabled());
        if let Err(e) = wal.log_commit(db.latest_version() + 1, &changes) {
            db.discard_pending();
            return Err(e);
        }
        spans.record_micros("wal_fsync", fsync.elapsed_micros());
    }
    let version = db.commit();
    let carried = service.and_then(|svc| {
        let snapshot = db.snapshot(version).ok()?;
        Some(spans.time("snapshot_swap", || {
            let pending = svc.stage_batch(&changes);
            svc.with_database_delta(snapshot, pending)
        }))
    });
    Ok((version, carried))
}

/// Assembles the four checkpoint sections — versioned database,
/// registry, materialized views, plan cache — the one place a checkpoint
/// payload is built.
pub(crate) fn checkpoint_sections(
    db: &VersionedDatabase,
    registry: &CitationRegistry,
    views: &Database,
    plans: &PlanCache,
) -> Result<CheckpointData, String> {
    Ok(CheckpointData {
        version: db.latest_version(),
        sections: vec![
            (SECTION_DATABASE.to_string(), versioned_to_text(db)?),
            (SECTION_REGISTRY.to_string(), registry.to_text()),
            (SECTION_VIEWS.to_string(), database_to_text(views)),
            (SECTION_PLANS.to_string(), plans.to_text()),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CitedAnswer;
    use crate::paper;
    use citesys_cq::{parse_query, ConjunctiveQuery, ValueType};
    use citesys_storage::{tuple, DurableStore, FailingAppends, MemStore};

    fn paper_store() -> Store {
        Store::from_database(&paper::paper_database(), paper::paper_registry()).unwrap()
    }

    fn cite(store: &mut Store, q: &ConjunctiveQuery) -> Result<CitedAnswer, CiteError> {
        let version = store.committed_version().unwrap();
        let (service, _) = store.service_at(version, EngineOptions::default()).unwrap();
        service.cite(q)
    }

    fn commit(store: &mut Store, changes: &Changeset) -> Result<Sealed, StoreError> {
        store.apply(changes)?;
        store.seal(&mut SpanSet::disabled())
    }

    fn insert(rel: &str, t: citesys_storage::Tuple) -> Changeset {
        let mut changes = Changeset::new();
        changes.insert(rel, t);
        changes
    }

    #[test]
    fn installed_checkpoint_replaces_plans() {
        // A schema change on a live store arrives as a whole checkpoint
        // (a replica installing its primary's): the plans cached for the
        // old setup must not survive it.
        let mut store = paper_store();
        cite(&mut store, &paper::paper_query()).unwrap();
        assert!(store.plan_cache_stats().misses > 0);
        let mut db = paper::paper_database();
        db.create_relation(RelationSchema::from_parts(
            "Extra",
            &[("X", ValueType::Int)],
            &[],
        ))
        .unwrap();
        let primary = Store::from_database(&db, paper::paper_registry()).unwrap();
        let digest = store.setup_digest();
        store
            .install_checkpoint(&primary.checkpoint_data().unwrap())
            .unwrap();
        assert_ne!(store.setup_digest(), digest, "schemas changed");
        assert_eq!(store.plan_cache_stats(), PlanCacheStats::default());
        let (service, built) = store.service_at(1, EngineOptions::default()).unwrap();
        assert!(!built, "the installed service is served");
        assert_eq!(service.plan_cache().len(), 0);
    }

    #[test]
    fn failed_mutation_leaves_service_usable() {
        // A rejected transaction (unknown relation / key violation) rolls
        // back whole and leaves the cached service serving real data.
        let mut store = paper_store();
        cite(&mut store, &paper::paper_query()).unwrap();
        assert!(store.apply(&insert("NoSuchRelation", tuple![1])).is_err());
        let e = store
            .apply(&insert("Family", tuple![11, "Clash", "X"]))
            .unwrap_err();
        assert!(e.to_string().starts_with("transaction rolled back"), "{e}");
        assert!(!store.database().unwrap().has_pending());
        let q = parse_query("Q2(T) :- FamilyIntro(F, T)").unwrap();
        assert_eq!(cite(&mut store, &q).unwrap().answer.len(), 2);
    }

    #[test]
    fn updates_mutate_in_place() {
        // Commits apply to the store's working state in place and carry
        // the cached service onto the store's own snapshot: no service
        // holds a copy of its own.
        let mut store = paper_store();
        cite(&mut store, &paper::paper_query()).unwrap();
        for i in 0..100 {
            commit(
                &mut store,
                &insert("Committee", tuple![11, format!("P{i}")]),
            )
            .unwrap();
        }
        let latest = store.latest_version();
        let (service, built) = store.service_at(latest, EngineOptions::default()).unwrap();
        assert!(!built, "carried across every commit, never rebuilt");
        let snapshot = store.database().unwrap().snapshot(latest).unwrap();
        assert!(Arc::ptr_eq(service.database(), &snapshot));
    }

    #[test]
    fn failed_wal_append_rolls_the_commit_back() {
        let backend = MemStore::new();
        backend
            .reopen()
            .checkpoint(&paper_store().checkpoint_data().unwrap())
            .unwrap();
        let failing = FailingAppends {
            inner: backend.reopen(),
            failures: 1,
        };
        let mut store = Store::open(DurableHandle::new(Box::new(failing))).unwrap();
        let q = paper::paper_query();
        cite(&mut store, &q).unwrap();
        let committed = store.database().unwrap().digest_at(1).unwrap();

        let e = commit(&mut store, &insert("FamilyIntro", tuple![13, "3rd"])).unwrap_err();
        assert!(e.to_string().contains("write-ahead log"), "{e}");
        assert!(e.to_string().contains("injected"), "{e}");
        // Nothing pending, nothing cut: an immediate cite answers at v1.
        assert_eq!(store.committed_version(), Ok(1));
        let db = store.database().unwrap();
        assert_eq!(citesys_storage::digest_database(db.current()), committed);
        assert_eq!(cite(&mut store, &q).unwrap().answer.len(), 1);

        // The next commit seals only its own op.
        let sealed = commit(&mut store, &insert("Family", tuple![14, "Ghrelin", "G1"])).unwrap();
        assert_eq!(sealed.version, 2);
        assert_eq!(store.database().unwrap().ops_in(2), Some(1));
        let intro = tuple![13, "3rd"];
        let has_intro = |s: &Store| {
            s.database()
                .unwrap()
                .current()
                .relation("FamilyIntro")
                .unwrap()
                .contains(&intro)
        };
        assert!(!has_intro(&store));
        // Nor did the refused op reach the backend.
        let recovered = Store::open(DurableHandle::new(Box::new(backend.reopen()))).unwrap();
        assert_eq!(recovered.latest_version(), 2);
        assert!(!has_intro(&recovered));
    }
}
