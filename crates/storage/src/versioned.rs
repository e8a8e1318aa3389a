//! Multi-version storage for citation fixity (§3 of the paper).
//!
//! "Data may evolve over time, and a citation should bring back the data as
//! seen at the time it was cited." The [`VersionedDatabase`] keeps an
//! append-only operation log; committing produces a new immutable version
//! number, and any historical version can be materialized as a snapshot.
//! Citations store `(version, query, digest)` and are re-executable against
//! the snapshot (see `citesys-core::fixity`).

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use citesys_cq::Symbol;

use crate::database::Database;
use crate::error::StorageError;
use crate::fixity::{digest_database, Digest};
use crate::schema::RelationSchema;
use crate::tuple::Tuple;

/// A logged mutation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Op {
    /// Insert a tuple into a relation.
    Insert(Symbol, Tuple),
    /// Delete a tuple from a relation.
    Delete(Symbol, Tuple),
}

/// A versioned database: current state plus the history since its base
/// version.
///
/// A fresh store starts at base version 0 (the empty database, schema
/// only). Each [`commit`] produces version `n+1`. A **warm restart**
/// ([`restore`]) starts at a non-zero base version — the state a
/// checkpoint captured — with the history before it compacted away:
/// snapshots of compacted versions return
/// [`StorageError::CompactedVersion`]. Snapshots are materialized by
/// replaying the log from the nearest cached snapshot; the cache is
/// behind a `Mutex` so snapshotting works through a shared reference.
///
/// [`commit`]: VersionedDatabase::commit
/// [`restore`]: VersionedDatabase::restore
#[derive(Debug)]
pub struct VersionedDatabase {
    schemas: Vec<RelationSchema>,
    current: Database,
    /// Version the store (re)started from; history before it is gone.
    base_version: u64,
    /// `log[i]` = ops committed in version `base_version + i + 1`.
    log: Vec<Vec<Op>>,
    pending: Vec<Op>,
    snapshot_cache: Mutex<BTreeMap<u64, Arc<Database>>>,
}

impl VersionedDatabase {
    /// Creates a versioned database with the given relation schemas
    /// (version 0 = empty).
    pub fn new(schemas: Vec<RelationSchema>) -> Result<Self, StorageError> {
        let mut db = Database::new();
        for s in &schemas {
            db.create_relation(s.clone())?;
        }
        Ok(VersionedDatabase {
            schemas,
            current: db,
            base_version: 0,
            log: Vec::new(),
            pending: Vec::new(),
            snapshot_cache: Mutex::new(BTreeMap::new()),
        })
    }

    /// Warm-restarts a store from checkpointed state: `base` **is**
    /// version `base_version`, and history before it is compacted away
    /// (snapshots of earlier versions fail with
    /// [`StorageError::CompactedVersion`]). The recovered state replays
    /// forward exactly like a store that never restarted: the next
    /// commit seals `base_version + 1`.
    pub fn restore(
        schemas: Vec<RelationSchema>,
        base: Database,
        base_version: u64,
    ) -> Result<Self, StorageError> {
        // Validate that the base honours the schemas (a checkpoint
        // written by this crate always does; a hand-edited one may not).
        for s in &schemas {
            base.relation(s.name.as_str())?;
        }
        let seed = Arc::new(base.clone());
        Ok(VersionedDatabase {
            schemas,
            current: base,
            base_version,
            log: Vec::new(),
            pending: Vec::new(),
            snapshot_cache: Mutex::new(BTreeMap::from([(base_version, seed)])),
        })
    }

    /// The latest committed version number.
    pub fn latest_version(&self) -> u64 {
        self.base_version + self.log.len() as u64
    }

    /// The version this store (re)started from — 0 for a fresh store,
    /// the checkpoint version after a [`restore`](Self::restore).
    /// Versions before it are compacted and cannot be snapshotted.
    pub fn base_version(&self) -> u64 {
        self.base_version
    }

    /// True if there are uncommitted operations.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Read access to the working state (pending ops included).
    pub fn current(&self) -> &Database {
        &self.current
    }

    /// Inserts into the working state. No-op inserts (set semantics) are not
    /// logged.
    pub fn insert(&mut self, rel: &str, t: Tuple) -> Result<bool, StorageError> {
        let changed = self.current.insert(rel, t.clone())?;
        if changed {
            self.pending.push(Op::Insert(Symbol::new(rel), t));
        }
        Ok(changed)
    }

    /// Deletes from the working state. Misses are not logged.
    pub fn delete(&mut self, rel: &str, t: &Tuple) -> Result<bool, StorageError> {
        let changed = self.current.delete(rel, t)?;
        if changed {
            self.pending.push(Op::Delete(Symbol::new(rel), t.clone()));
        }
        Ok(changed)
    }

    /// Applies a whole [`Changeset`](crate::delta::Changeset) to the
    /// working state **atomically**: either every op lands (effective ops
    /// are logged for the next commit; no-ops are skipped, as with
    /// [`insert`](Self::insert)/[`delete`](Self::delete)) or, on the
    /// first failure, the working state is rolled back to exactly what it
    /// was and nothing is logged. Returns how many ops changed the data.
    pub fn apply_changeset(
        &mut self,
        changes: &crate::delta::Changeset,
    ) -> Result<usize, StorageError> {
        let applied = changes.apply(&mut self.current)?;
        let n = applied.len();
        self.pending.extend(applied);
        Ok(n)
    }

    /// The operations recorded since the last [`commit`](Self::commit),
    /// in application order — what the next commit will seal into a
    /// version (and what a delta-maintained service downstream should
    /// carry into its materializations).
    pub fn pending_ops(&self) -> &[Op] {
        &self.pending
    }

    /// Undoes every pending operation, in reverse order, so the working
    /// state equals the latest committed version again — what a commit
    /// whose write-ahead-log append failed must leave behind.
    pub fn discard_pending(&mut self) {
        crate::delta::undo(&mut self.current, &std::mem::take(&mut self.pending));
    }

    /// Commits pending operations as a new version; returns its number.
    /// Committing with no pending ops still creates a (data-identical)
    /// version, mirroring how curated releases are cut on a schedule.
    pub fn commit(&mut self) -> u64 {
        self.log.push(std::mem::take(&mut self.pending));
        self.latest_version()
    }

    /// Materializes the database as of `version`.
    ///
    /// Pending (uncommitted) operations are never part of a snapshot.
    /// Snapshots are cached; repeated requests for the same or later
    /// versions replay only the missing suffix of the log.
    ///
    /// ```
    /// use citesys_cq::ValueType;
    /// use citesys_storage::{tuple, RelationSchema, VersionedDatabase};
    ///
    /// let schema = RelationSchema::from_parts(
    ///     "R", &[("A", ValueType::Int)], &[0]);
    /// let mut vdb = VersionedDatabase::new(vec![schema]).unwrap();
    /// vdb.insert("R", tuple![1]).unwrap();
    /// let v1 = vdb.commit();
    /// vdb.insert("R", tuple![2]).unwrap();
    /// let v2 = vdb.commit();
    ///
    /// assert_eq!(vdb.snapshot(v1).unwrap().total_tuples(), 1);
    /// assert_eq!(vdb.snapshot(v2).unwrap().total_tuples(), 2);
    /// ```
    pub fn snapshot(&self, version: u64) -> Result<Arc<Database>, StorageError> {
        if version > self.latest_version() {
            return Err(StorageError::UnknownVersion {
                version,
                latest: self.latest_version(),
            });
        }
        if version < self.base_version {
            return Err(StorageError::CompactedVersion {
                version,
                oldest: self.base_version,
            });
        }
        let mut cache = self.snapshot_cache.lock();
        if let Some(hit) = cache.get(&version) {
            return Ok(Arc::clone(hit));
        }
        // Start from the nearest earlier cached snapshot (or empty; a
        // restored store always finds its seeded base snapshot here).
        let (replay_from, mut db) = cache
            .range(..version)
            .next_back()
            .map(|(&v, d)| (v, (**d).clone()))
            .unwrap_or_else(|| {
                let mut fresh = Database::new();
                for s in &self.schemas {
                    fresh
                        .create_relation(s.clone())
                        .expect("schemas validated at construction");
                }
                (self.base_version, fresh)
            });
        let lo = (replay_from - self.base_version) as usize;
        let hi = (version - self.base_version) as usize;
        for ops in &self.log[lo..hi] {
            for op in ops {
                match op {
                    Op::Insert(rel, t) => {
                        db.insert(rel.as_str(), t.clone())
                            .expect("replay of validated op");
                    }
                    Op::Delete(rel, t) => {
                        db.delete(rel.as_str(), t).expect("replay of validated op");
                    }
                }
            }
        }
        let arc = Arc::new(db);
        cache.insert(version, Arc::clone(&arc));
        Ok(arc)
    }

    /// Fixity digest of the database at `version`.
    pub fn digest_at(&self, version: u64) -> Result<Digest, StorageError> {
        Ok(digest_database(self.snapshot(version)?.as_ref()))
    }

    /// Number of operations committed in `version` (1-based; `None` for
    /// version 0, unknown versions, and versions compacted away by a
    /// [`restore`](Self::restore)).
    pub fn ops_in(&self, version: u64) -> Option<usize> {
        if version <= self.base_version || version > self.latest_version() {
            return None;
        }
        Some(self.log[(version - self.base_version - 1) as usize].len())
    }

    /// The operations committed in `version`, in commit order (`None`
    /// under exactly the conditions of [`ops_in`](Self::ops_in)).
    ///
    /// This is the primary-side tailing read for replication: a feed
    /// that knows a follower is at version `v` re-materializes the
    /// changeset of `v + 1` from the in-memory log instead of
    /// re-reading the on-disk WAL.
    pub fn ops_of(&self, version: u64) -> Option<&[Op]> {
        if version <= self.base_version || version > self.latest_version() {
            return None;
        }
        Some(&self.log[(version - self.base_version - 1) as usize])
    }

    /// Compacts in-memory history up to `floor`: the state at `floor`
    /// becomes the new base version, the op-log entries it subsumes are
    /// dropped, and snapshots of versions before `floor` fail with
    /// [`StorageError::CompactedVersion`] from then on. `floor` is
    /// clamped to the latest committed version; a floor at or below the
    /// current base is a no-op. Pending (uncommitted) operations are
    /// untouched. Returns the new base version.
    pub fn compact_to(&mut self, floor: u64) -> Result<u64, StorageError> {
        let floor = floor.min(self.latest_version());
        if floor <= self.base_version {
            return Ok(self.base_version);
        }
        let base = (*self.snapshot(floor)?).clone();
        let drop = (floor - self.base_version) as usize;
        self.log.drain(..drop);
        self.base_version = floor;
        let mut cache = self.snapshot_cache.lock();
        *cache = cache.split_off(&floor);
        cache.insert(floor, Arc::new(base));
        Ok(floor)
    }

    /// The schemas this store was created with.
    pub fn schemas(&self) -> &[RelationSchema] {
        &self.schemas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use citesys_cq::ValueType;

    fn schemas() -> Vec<RelationSchema> {
        vec![RelationSchema::from_parts(
            "Family",
            &[("FID", ValueType::Int), ("FName", ValueType::Text)],
            &[0],
        )]
    }

    #[test]
    fn version_zero_is_empty() {
        let v = VersionedDatabase::new(schemas()).unwrap();
        assert_eq!(v.latest_version(), 0);
        let s = v.snapshot(0).unwrap();
        assert_eq!(s.total_tuples(), 0);
    }

    #[test]
    fn commit_creates_versions() {
        let mut v = VersionedDatabase::new(schemas()).unwrap();
        v.insert("Family", tuple![11, "Calcitonin"]).unwrap();
        assert!(v.has_pending());
        assert_eq!(v.commit(), 1);
        assert!(!v.has_pending());
        v.insert("Family", tuple![12, "Dopamine"]).unwrap();
        assert_eq!(v.commit(), 2);
        assert_eq!(v.snapshot(1).unwrap().total_tuples(), 1);
        assert_eq!(v.snapshot(2).unwrap().total_tuples(), 2);
    }

    #[test]
    fn pending_excluded_from_snapshots() {
        let mut v = VersionedDatabase::new(schemas()).unwrap();
        v.insert("Family", tuple![11, "Calcitonin"]).unwrap();
        v.commit();
        v.insert("Family", tuple![12, "Dopamine"]).unwrap(); // not committed
        assert_eq!(v.snapshot(1).unwrap().total_tuples(), 1);
        assert_eq!(v.current().total_tuples(), 2);
    }

    #[test]
    fn deletes_replay() {
        let mut v = VersionedDatabase::new(schemas()).unwrap();
        v.insert("Family", tuple![11, "Calcitonin"]).unwrap();
        v.commit(); // v1
        v.delete("Family", &tuple![11, "Calcitonin"]).unwrap();
        v.commit(); // v2
        assert_eq!(v.snapshot(1).unwrap().total_tuples(), 1);
        assert_eq!(v.snapshot(2).unwrap().total_tuples(), 0);
    }

    #[test]
    fn unknown_version_rejected() {
        let v = VersionedDatabase::new(schemas()).unwrap();
        assert!(matches!(
            v.snapshot(5),
            Err(StorageError::UnknownVersion {
                version: 5,
                latest: 0
            })
        ));
    }

    #[test]
    fn snapshot_cache_consistent() {
        let mut v = VersionedDatabase::new(schemas()).unwrap();
        for i in 0..10 {
            v.insert("Family", tuple![i, format!("F{i}")]).unwrap();
            v.commit();
        }
        // Ask for version 10 first (cold), then 5 (replays from scratch),
        // then 7 (starts from cached 5).
        assert_eq!(v.snapshot(10).unwrap().total_tuples(), 10);
        assert_eq!(v.snapshot(5).unwrap().total_tuples(), 5);
        assert_eq!(v.snapshot(7).unwrap().total_tuples(), 7);
        // Same Arc returned on a cache hit.
        let a = v.snapshot(7).unwrap();
        let b = v.snapshot(7).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn digests_differ_across_versions() {
        let mut v = VersionedDatabase::new(schemas()).unwrap();
        v.insert("Family", tuple![11, "Calcitonin"]).unwrap();
        v.commit();
        v.insert("Family", tuple![12, "Dopamine"]).unwrap();
        v.commit();
        let d1 = v.digest_at(1).unwrap();
        let d2 = v.digest_at(2).unwrap();
        assert_ne!(d1, d2);
        // Digest is reproducible.
        assert_eq!(d1, v.digest_at(1).unwrap());
    }

    #[test]
    fn changeset_commit_is_atomic() {
        let mut v = VersionedDatabase::new(schemas()).unwrap();
        v.insert("Family", tuple![11, "Calcitonin"]).unwrap();
        v.commit();
        // A failing batch leaves no trace: no data change, no pending ops.
        let mut bad = crate::delta::Changeset::new();
        bad.insert("Family", tuple![12, "Dopamine"])
            .insert("Nope", tuple![0]);
        assert!(v.apply_changeset(&bad).is_err());
        assert!(!v.has_pending());
        assert_eq!(v.current().total_tuples(), 1);
        // A good batch logs only its effective ops and seals as one version.
        let mut good = crate::delta::Changeset::new();
        good.insert("Family", tuple![11, "Calcitonin"]) // duplicate: no-op
            .insert("Family", tuple![12, "Dopamine"])
            .delete("Family", tuple![11, "Calcitonin"]);
        assert_eq!(v.apply_changeset(&good).unwrap(), 2);
        assert_eq!(v.pending_ops().len(), 2);
        let ver = v.commit();
        assert_eq!(v.ops_in(ver), Some(2));
        assert_eq!(v.snapshot(ver).unwrap().total_tuples(), 1);
    }

    #[test]
    fn discard_pending_restores_the_committed_state() {
        let mut v = VersionedDatabase::new(schemas()).unwrap();
        v.insert("Family", tuple![11, "Calcitonin"]).unwrap();
        v.commit();
        v.delete("Family", &tuple![11, "Calcitonin"]).unwrap();
        v.insert("Family", tuple![11, "Renamed"]).unwrap();
        v.insert("Family", tuple![12, "Dopamine"]).unwrap();
        v.discard_pending();
        assert!(!v.has_pending());
        assert_eq!(digest_database(v.current()), v.digest_at(1).unwrap());
        assert_eq!(v.commit(), 2);
        assert_eq!(v.ops_in(2), Some(0), "nothing discarded leaks forward");
    }

    #[test]
    fn noop_mutations_not_logged() {
        let mut v = VersionedDatabase::new(schemas()).unwrap();
        v.insert("Family", tuple![11, "Calcitonin"]).unwrap();
        v.insert("Family", tuple![11, "Calcitonin"]).unwrap(); // duplicate
        v.delete("Family", &tuple![99, "Nope"]).unwrap(); // miss
        let ver = v.commit();
        assert_eq!(v.ops_in(ver), Some(1));
    }

    #[test]
    fn restore_continues_the_version_line() {
        let mut original = VersionedDatabase::new(schemas()).unwrap();
        original.insert("Family", tuple![11, "Calcitonin"]).unwrap();
        original.commit(); // v1
        original.insert("Family", tuple![12, "Dopamine"]).unwrap();
        original.commit(); // v2

        // Warm restart at v2 from the materialized state.
        let base = (*original.snapshot(2).unwrap()).clone();
        let mut restored = VersionedDatabase::restore(schemas(), base, 2).unwrap();
        assert_eq!(restored.base_version(), 2);
        assert_eq!(restored.latest_version(), 2);
        assert_eq!(
            restored.digest_at(2).unwrap(),
            original.digest_at(2).unwrap()
        );
        // Compacted history is rejected, not silently wrong.
        assert!(matches!(
            restored.snapshot(1),
            Err(StorageError::CompactedVersion {
                version: 1,
                oldest: 2
            })
        ));
        assert_eq!(restored.ops_in(1), None);
        assert_eq!(restored.ops_in(2), None, "checkpoint seals no op list");
        // The version line continues exactly where it left off.
        restored.insert("Family", tuple![13, "Ghrelin"]).unwrap();
        assert_eq!(restored.commit(), 3);
        assert_eq!(restored.ops_in(3), Some(1));
        assert_eq!(restored.snapshot(3).unwrap().total_tuples(), 3);
        assert_eq!(restored.snapshot(2).unwrap().total_tuples(), 2);
    }

    #[test]
    fn compact_to_trims_history_and_preserves_the_window() {
        let mut v = VersionedDatabase::new(schemas()).unwrap();
        for i in 0..10 {
            v.insert("Family", tuple![i, format!("F{i}")]).unwrap();
            v.commit();
        }
        let d7 = v.digest_at(7).unwrap();
        let d10 = v.digest_at(10).unwrap();
        assert_eq!(v.compact_to(7).unwrap(), 7);
        assert_eq!(v.base_version(), 7);
        assert_eq!(v.latest_version(), 10);
        // Window [7, 10] still serves, byte-identical digests.
        assert_eq!(v.digest_at(7).unwrap(), d7);
        assert_eq!(v.digest_at(10).unwrap(), d10);
        assert_eq!(v.snapshot(8).unwrap().total_tuples(), 8);
        // Pre-floor history is a compaction error, not silently wrong.
        assert!(matches!(
            v.snapshot(6),
            Err(StorageError::CompactedVersion {
                version: 6,
                oldest: 7
            })
        ));
        assert_eq!(v.ops_in(7), None, "the new base seals no op list");
        assert_eq!(v.ops_in(8), Some(1));
        // Floors at/below base and above latest are clamped no-ops.
        assert_eq!(v.compact_to(3).unwrap(), 7);
        assert_eq!(v.compact_to(99).unwrap(), 10);
        assert_eq!(v.latest_version(), 10);
        // The version line continues.
        v.insert("Family", tuple![100, "New"]).unwrap();
        assert_eq!(v.commit(), 11);
        assert_eq!(v.snapshot(11).unwrap().total_tuples(), 11);
    }

    #[test]
    fn compact_to_keeps_pending_ops() {
        let mut v = VersionedDatabase::new(schemas()).unwrap();
        v.insert("Family", tuple![1, "A"]).unwrap();
        v.commit();
        v.insert("Family", tuple![2, "B"]).unwrap(); // pending
        v.compact_to(1).unwrap();
        assert!(v.has_pending());
        assert_eq!(v.commit(), 2);
        assert_eq!(v.snapshot(2).unwrap().total_tuples(), 2);
    }

    #[test]
    fn restore_rejects_base_missing_schema_relations() {
        let base = Database::new(); // lacks the Family relation
        assert!(VersionedDatabase::restore(schemas(), base, 1).is_err());
    }

    #[test]
    fn empty_commit_allowed() {
        let mut v = VersionedDatabase::new(schemas()).unwrap();
        let ver = v.commit();
        assert_eq!(ver, 1);
        assert_eq!(v.ops_in(1), Some(0));
        assert_eq!(v.digest_at(0).unwrap(), v.digest_at(1).unwrap());
    }
}
