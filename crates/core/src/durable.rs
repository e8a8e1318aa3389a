//! Service-level durability: checkpoint and recover a whole citation
//! stack — database, registry, materialized views and plan cache —
//! through one [`DurableStore`] backend.
//!
//! The storage layer ([`citesys_storage::durability`]) owns the files:
//! the write-ahead log, the manifest, the digested sections. This module
//! owns the *meaning* of the sections and the recovery algorithm:
//!
//! 1. [`CitationService::open`] reads the newest checkpoint, rebuilds a
//!    warm service over it (views pre-published, plans pre-loaded), then
//!    **replays the WAL through the routine a live commit takes** (see
//!    [`crate::store`]) — each logged changeset is applied, committed and
//!    carried by delta maintenance, so the recovered service reaches the
//!    last acknowledged version with its materializations still warm
//!    (zero re-materializations).
//! 2. [`CitationService::checkpoint`] snapshots all four components
//!    **together** under one manifest, so a recovered stack is always
//!    internally consistent (plans are sound for the recovered registry,
//!    views match the recovered snapshot).
//! 3. [`DurableHandle::log_commit`] is the per-commit hook: callers log
//!    every sealed changeset *before* acknowledging it.

use std::path::Path;
use std::sync::Arc;

use citesys_obs::SpanSet;
use citesys_storage::durability::{database_from_text, versioned_from_text};
use citesys_storage::{
    Changeset, CheckpointData, Database, DurableStore, FileStore, Recovery, VersionedDatabase,
    WalRecord,
};

use crate::error::CiteError;
use crate::registry::CitationRegistry;
use crate::service::{CitationService, PlanCache, DEFAULT_PLAN_CACHE_CAPACITY};
use crate::store::{checkpoint_sections, seal_pending};

/// Manifest section holding the versioned database (schemas + tuples).
pub const SECTION_DATABASE: &str = "database";
/// Manifest section holding the citation-view registry.
pub const SECTION_REGISTRY: &str = "registry";
/// Manifest section holding the materialized view cache.
pub const SECTION_VIEWS: &str = "views";
/// Manifest section holding the rewrite-plan cache.
pub const SECTION_PLANS: &str = "plans";

fn derr(message: impl Into<String>) -> CiteError {
    CiteError::Durability {
        message: message.into(),
    }
}

/// A handle on a durability backend, used by the serving layer to log
/// commits and write checkpoints. Backend-agnostic: the default is the
/// file store, tests use the in-memory one.
pub struct DurableHandle {
    backend: Box<dyn DurableStore + Send>,
}

impl std::fmt::Debug for DurableHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableHandle")
            .field("wal_records", &self.backend.wal_records())
            .finish()
    }
}

impl DurableHandle {
    /// Wraps any backend.
    pub fn new(backend: Box<dyn DurableStore + Send>) -> Self {
        DurableHandle { backend }
    }

    /// Opens (creating if needed) the default file backend at `dir`.
    pub fn file(dir: impl AsRef<Path>) -> Result<Self, CiteError> {
        Ok(DurableHandle::new(Box::new(FileStore::open(dir.as_ref())?)))
    }

    /// [`file`](Self::file) with a checkpoint retention policy: each
    /// checkpoint archives the superseded one (plus the WAL segment it
    /// anchors) as a **time-travel anchor**, keeping the newest
    /// `retain` anchors. `retain = 0` keeps none (the historical
    /// behavior).
    pub fn file_with_retention(dir: impl AsRef<Path>, retain: usize) -> Result<Self, CiteError> {
        Ok(DurableHandle::new(Box::new(
            FileStore::open_with_retention(dir.as_ref(), retain)?,
        )))
    }

    /// Durably logs one committed changeset. Call **before** the commit
    /// is acknowledged: the backend fsyncs before returning.
    pub fn log_commit(&mut self, version: u64, changes: &Changeset) -> Result<(), CiteError> {
        Ok(self.backend.log_changeset(version, changes)?)
    }

    /// WAL records appended since the last checkpoint.
    pub fn wal_records(&self) -> usize {
        self.backend.wal_records()
    }

    /// The backend's on-disk data directory (`None` for in-memory
    /// backends) — where sibling files like the dataset manifest live.
    pub fn data_dir(&self) -> Option<&Path> {
        self.backend.data_dir()
    }

    /// The backend's recovery state (consumed once at open).
    pub fn take_recovery(&mut self) -> Recovery {
        self.backend.take_recovery()
    }

    /// Writes a raw checkpoint (the serving layer normally goes through
    /// [`CitationService::checkpoint`], which assembles the sections).
    pub fn write_checkpoint(&mut self, data: &CheckpointData) -> Result<(), CiteError> {
        Ok(self.backend.checkpoint(data)?)
    }

    /// The oldest version reconstructible from this backend's retained
    /// history (`None` before any checkpoint exists).
    pub fn history_floor(&self) -> Option<u64> {
        self.backend.history_floor()
    }

    /// How many checkpoints (live + archived anchors) the backend holds.
    pub fn checkpoints_retained(&self) -> usize {
        self.backend.checkpoints_retained()
    }

    /// Drops retained history below `floor`, keeping the newest anchor
    /// at or below it as the replay base for `floor` itself. Returns the
    /// number of anchors removed.
    pub fn prune_history(&mut self, floor: u64) -> Result<usize, CiteError> {
        Ok(self.backend.prune_history(floor)?)
    }

    /// Reconstructs the database **as of** `version` from the nearest
    /// retained checkpoint at or below it plus WAL replay, together with
    /// the citation-view registry that governed that version. Returns
    /// `Ok(None)` when no retained checkpoint covers `version` — the
    /// point-in-time read path's fallback for versions older than the
    /// in-memory store's base (e.g. after a restart truncated the
    /// in-memory log to the latest checkpoint).
    pub fn database_at(
        &self,
        version: u64,
    ) -> Result<Option<(Arc<Database>, CitationRegistry)>, CiteError> {
        let Some((checkpoint, tail)) = self.backend.checkpoint_at(version)? else {
            return Ok(None);
        };
        let (mut store, registry) = decode(&checkpoint)?;
        replay(&mut store, &tail, None)?;
        if store.latest_version() != version {
            return Err(derr(format!(
                "anchor replay reached version {} but {} was requested",
                store.latest_version(),
                version
            )));
        }
        let snapshot = store.snapshot(version)?;
        Ok(Some((snapshot, registry)))
    }
}

/// Rebuilds a warm `(store, service)` pair from one checkpoint's
/// sections — the versioned database, the registry, the plan cache and
/// the pre-materialized views — without touching any backend.
///
/// This is the section-decoding half of recovery, shared by
/// [`CitationService::open_with`] (which then replays the local WAL on
/// top) and by replication followers (which install a checkpoint
/// shipped over the wire and then apply streamed changesets).
pub fn rebuild_from_checkpoint(
    checkpoint: &CheckpointData,
) -> Result<(VersionedDatabase, CitationService), CiteError> {
    let (store, registry) = decode(checkpoint)?;
    let plans = Arc::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY));
    if let Some(text) = checkpoint.section(SECTION_PLANS) {
        plans
            .load_text(text)
            .map_err(|e| derr(format!("checkpointed plan cache: {e}")))?;
    }
    let snapshot = store.snapshot(checkpoint.version)?;
    let mut builder = CitationService::builder()
        .database(snapshot)
        .registry(registry)
        .shared_plan_cache(Arc::clone(&plans));
    if let Some(text) = checkpoint.section(SECTION_VIEWS) {
        builder = builder.warm_views(
            database_from_text(text).map_err(|e| derr(format!("checkpointed views: {e}")))?,
        );
    }
    let service = builder.build()?;
    Ok((store, service))
}

/// Decodes a checkpoint's versioned-database and registry sections.
fn decode(checkpoint: &CheckpointData) -> Result<(VersionedDatabase, CitationRegistry), CiteError> {
    let database_text = checkpoint
        .section(SECTION_DATABASE)
        .ok_or_else(|| derr("checkpoint lacks its database section"))?;
    let store = versioned_from_text(database_text).map_err(derr)?;
    if store.latest_version() != checkpoint.version {
        return Err(derr(format!(
            "checkpoint claims version {} but its database section is at {}",
            checkpoint.version,
            store.latest_version()
        )));
    }
    let registry = match checkpoint.section(SECTION_REGISTRY) {
        Some(text) => CitationRegistry::from_text(text)?,
        None => CitationRegistry::new(),
    };
    Ok((store, registry))
}

/// Replays logged records onto `store` through the routine a live commit
/// takes (see [`crate::store`]), carrying `service` — a service over the
/// store's latest version — across every one of them.
fn replay(
    store: &mut VersionedDatabase,
    records: &[WalRecord],
    mut service: Option<CitationService>,
) -> Result<Option<CitationService>, CiteError> {
    for record in records {
        let expected = store.latest_version() + 1;
        if record.version != expected {
            return Err(derr(format!(
                "WAL record for version {} but the store is at {} (expected {expected})",
                record.version,
                store.latest_version()
            )));
        }
        store.apply_changeset(&record.changes)?;
        let spans = &mut SpanSet::disabled();
        service = seal_pending(store, service.as_ref(), None, spans)?.1;
    }
    Ok(service)
}

/// The outcome of opening a durable directory that held state: the
/// warm-restarted store and service, plus recovery telemetry.
#[derive(Debug)]
pub struct RecoveredService {
    /// The versioned store, replayed to the last acknowledged commit.
    pub store: VersionedDatabase,
    /// A warm service over the store's latest snapshot: views seeded
    /// from the checkpoint and carried across the WAL replay by delta
    /// maintenance, plans loaded from the checkpoint.
    pub service: CitationService,
    /// How many WAL records were replayed on top of the checkpoint.
    pub replayed: usize,
    /// True when a torn final WAL record was truncated during open.
    pub wal_truncated: bool,
}

impl CitationService {
    /// Opens a durable directory (the default file backend), recovering
    /// the checkpointed stack and replaying the WAL. Returns the handle
    /// plus `Some(recovered)` when the directory held state, `None` for
    /// a fresh directory.
    pub fn open(
        dir: impl AsRef<Path>,
    ) -> Result<(DurableHandle, Option<RecoveredService>), CiteError> {
        Self::open_with(DurableHandle::file(dir)?)
    }

    /// [`open`](Self::open) over an already-constructed backend handle
    /// (e.g. [`MemStore`](citesys_storage::MemStore) in tests).
    pub fn open_with(
        mut handle: DurableHandle,
    ) -> Result<(DurableHandle, Option<RecoveredService>), CiteError> {
        let recovery = handle.take_recovery();
        let Some(checkpoint) = recovery.checkpoint else {
            if !recovery.wal.is_empty() {
                return Err(derr(
                    "WAL records without a checkpoint: the schemas needed to replay \
                     them were never persisted",
                ));
            }
            return Ok((handle, None));
        };
        let (mut store, service) = rebuild_from_checkpoint(&checkpoint)?;
        // Replay the WAL through the routine a live commit takes: the
        // recovered service crosses every logged commit exactly like the
        // live one did, keeping its materializations warm.
        let service = replay(&mut store, &recovery.wal, Some(service))?
            .ok_or_else(|| derr("replayed version has no snapshot"))?;
        let replayed = recovery.wal.len();
        Ok((
            handle,
            Some(RecoveredService {
                store,
                service,
                replayed,
                wal_truncated: recovery.wal_truncated,
            }),
        ))
    }

    /// Checkpoints the whole stack — the store's committed state, this
    /// service's registry, its published materialized views and its plan
    /// cache — as one atomic manifest, then resets the WAL. The service
    /// must be the one serving `store`'s latest version (the normal
    /// serving-layer invariant); pending (uncommitted) ops are *not*
    /// checkpointed.
    pub fn checkpoint(
        &self,
        store: &VersionedDatabase,
        handle: &mut DurableHandle,
    ) -> Result<u64, CiteError> {
        let data = checkpoint_sections(
            store,
            self.registry(),
            &self.materialized_views(),
            self.plan_cache(),
        )
        .map_err(derr)?;
        handle.write_checkpoint(&data)?;
        Ok(data.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use crate::store::Store;
    use citesys_storage::MemStore;

    /// The paper's store + service with its data committed as v1.
    fn paper_stack() -> (VersionedDatabase, CitationService) {
        let store = Store::from_database(&paper::paper_database(), paper::paper_registry());
        rebuild_from_checkpoint(&store.unwrap().checkpoint_data().unwrap()).unwrap()
    }

    #[test]
    fn checkpoint_recover_round_trip_is_warm() {
        let (store, service) = paper_stack();
        // Warm the caches: one cite materializes views and caches a plan.
        service.cite(&paper::paper_query()).unwrap();
        let warm = service.view_cache_stats();
        assert!(warm.materializations > 0);

        let backend = MemStore::new();
        let mut handle = DurableHandle::new(Box::new(backend.reopen()));
        assert_eq!(service.checkpoint(&store, &mut handle).unwrap(), 1);

        // "Restart": recover through a fresh handle on the same state.
        let (_, recovered) =
            CitationService::open_with(DurableHandle::new(Box::new(backend.reopen()))).unwrap();
        let recovered = recovered.expect("state recovered");
        assert_eq!(recovered.store.latest_version(), 1);
        assert_eq!(recovered.replayed, 0);

        // Same answers, zero re-materialization, plan served from disk.
        let cited = recovered.service.cite(&paper::paper_query()).unwrap();
        let expected = service.cite(&paper::paper_query()).unwrap();
        assert_eq!(cited.answer, expected.answer);
        assert_eq!(cited.rewrite_stats.plan_cache_hits, 1, "plan recovered");
        let stats = recovered.service.view_cache_stats();
        assert_eq!(stats.materializations, 0, "views recovered warm: {stats:?}");
        // Fixity carries across the restart.
        assert_eq!(
            recovered.store.digest_at(1).unwrap(),
            store.digest_at(1).unwrap()
        );
    }

    #[test]
    fn wal_replay_delta_maintains_the_recovered_service() {
        let (mut store, mut service) = paper_stack();
        service.cite(&paper::paper_query()).unwrap();
        let backend = MemStore::new();
        let mut handle = DurableHandle::new(Box::new(backend.reopen()));
        service.checkpoint(&store, &mut handle).unwrap();

        // Two post-checkpoint commits through the serving layer's
        // routine: WAL append before the version is cut.
        for (fid, name) in [(14, "Ghrelin"), (15, "Orexin")] {
            let mut changes = Changeset::new();
            changes
                .insert("Family", citesys_storage::tuple![fid, name, "D"])
                .insert("FamilyIntro", citesys_storage::tuple![fid, "intro"]);
            store.apply_changeset(&changes).unwrap();
            let spans = &mut SpanSet::disabled();
            let (_, carried) =
                seal_pending(&mut store, Some(&service), Some(&mut handle), spans).unwrap();
            service = carried.unwrap();
        }
        let expected = service.cite(&paper::paper_query()).unwrap();

        let (_, recovered) =
            CitationService::open_with(DurableHandle::new(Box::new(backend.reopen()))).unwrap();
        let recovered = recovered.expect("state recovered");
        assert_eq!(recovered.store.latest_version(), 3);
        assert_eq!(recovered.replayed, 2);
        let cited = recovered.service.cite(&paper::paper_query()).unwrap();
        assert_eq!(
            cited.answer, expected.answer,
            "replay reaches the acked state"
        );
        let stats = recovered.service.view_cache_stats();
        assert_eq!(stats.materializations, 0, "replay stayed warm: {stats:?}");
        assert!(stats.deltas_applied > 0, "{stats:?}");
    }

    #[test]
    fn fresh_backend_recovers_nothing() {
        let (_, recovered) =
            CitationService::open_with(DurableHandle::new(Box::new(MemStore::new()))).unwrap();
        assert!(recovered.is_none());
    }

    #[test]
    fn wal_without_checkpoint_is_rejected() {
        let mut backend = MemStore::new();
        let mut c = Changeset::new();
        c.insert("R", citesys_storage::tuple![1]);
        backend.log_changeset(1, &c).unwrap();
        let e =
            CitationService::open_with(DurableHandle::new(Box::new(backend.reopen()))).unwrap_err();
        assert!(e.to_string().contains("without a checkpoint"), "{e}");
    }
}
