//! The durability layer: one versioned on-disk API for everything the
//! system must bring back after a restart.
//!
//! Before this module, persistence was an ad-hoc scatter — plan caches
//! had their own text format, data loaded from CSV with no write path,
//! and materialized views evaporated on exit. The paper's premise (a
//! citation must keep resolving against a **persistent, versioned**
//! database) demands better. This module defines the common substrate:
//!
//! * a [`DurableStore`] trait — the contract every backend (the default
//!   [`FileStore`], an in-memory [`MemStore`] for tests, and future
//!   sharded/replicated backends) implements: log changesets, write
//!   checkpoints, recover;
//! * a **write-ahead log** ([`Wal`]) of [`Changeset`]s: every committed
//!   transaction is appended and fsynced *before* the commit is
//!   acknowledged, and replayed on open. A torn final record (the
//!   classic crash-mid-write) is detected and truncated cleanly; a
//!   damaged record in the *middle* of the log — which a torn write
//!   cannot produce — is reported as corruption instead of silently
//!   dropping acknowledged commits;
//! * **checkpoints**: a manifest ([`CheckpointData`]) of named text
//!   sections (database, registry, materialized views, plan cache), each
//!   content-digested with SHA-256, written atomically (temp files +
//!   manifest rename) and gated by a format version so a newer on-disk
//!   layout fails loudly instead of mis-parsing.
//!
//! Text codecs for the storage-owned types live here too:
//! [`Changeset::to_text`]/[`Changeset::from_text`] (shared by the WAL
//! and the `citesys wal dump` debug command) and
//! [`database_to_text`]/[`database_from_text`] (shared by the database
//! and materialized-view checkpoint sections). All of them tolerate
//! CRLF line endings and trailing blank lines, matching
//! `RewritePlan::from_text`.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::database::Database;
use crate::delta::Changeset;
use crate::fixity::{sha256, Digest};
use crate::schema::RelationSchema;
use crate::tuple::{read_ground_atom, write_ground_atom, Tuple};
use crate::versioned::{Op, VersionedDatabase};

/// The on-disk format version this build reads and writes. Bump it when
/// any file layout changes incompatibly; older builds then refuse the
/// directory with [`DurabilityError::FormatVersion`] instead of
/// guessing.
pub const FORMAT_VERSION: u32 = 1;

/// Name of the manifest file inside a durable directory.
pub const MANIFEST_FILE: &str = "manifest";

/// Name of the write-ahead log file inside a durable directory.
pub const WAL_FILE: &str = "wal.log";

/// Name of the directory (inside a durable directory) holding retained
/// superseded checkpoints — the time-travel anchors.
pub const ANCHORS_DIR: &str = "anchors";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// What can go wrong opening, reading or writing durable state.
#[derive(Debug)]
pub enum DurabilityError {
    /// An underlying filesystem operation failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
    /// On-disk content is structurally damaged (not a torn tail).
    Corrupt {
        /// The file involved.
        path: PathBuf,
        /// What was wrong.
        message: String,
    },
    /// The directory was written by an incompatible format version.
    FormatVersion {
        /// Version found on disk.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            DurabilityError::Corrupt { path, message } => {
                write!(f, "{}: corrupt durable state: {message}", path.display())
            }
            DurabilityError::FormatVersion { found, supported } => write!(
                f,
                "durable format v{found} is not supported (this build reads v{supported})"
            ),
        }
    }
}

impl std::error::Error for DurabilityError {}

fn io_err(path: impl Into<PathBuf>) -> impl FnOnce(io::Error) -> DurabilityError {
    let path = path.into();
    move |source| DurabilityError::Io { path, source }
}

fn corrupt(path: impl Into<PathBuf>, message: impl Into<String>) -> DurabilityError {
    DurabilityError::Corrupt {
        path: path.into(),
        message: message.into(),
    }
}

/// Fsyncs the directory containing `path`, making renames and file
/// creations inside it durable (file-data syncs alone do not order
/// against directory-entry updates). No-op on platforms where
/// directories cannot be opened for syncing.
fn sync_parent_dir(path: &Path) -> Result<(), DurabilityError> {
    #[cfg(unix)]
    if let Some(dir) = path.parent() {
        let d = File::open(dir).map_err(io_err(dir))?;
        d.sync_all().map_err(io_err(dir))?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

// ---------------------------------------------------------------------------
// Changeset text codec (the WAL and `citesys wal dump`)
// ---------------------------------------------------------------------------

/// Trims one trailing carriage return (CRLF tolerance, mirroring
/// `citesys_rewrite::trim_cr`).
fn trim_cr(line: &str) -> &str {
    line.strip_suffix('\r').unwrap_or(line)
}

/// Appends one `i Rel(v, …)` / `d Rel(v, …)` line.
fn write_op(out: &mut String, op: &Op) {
    let (tag, rel, t) = match op {
        Op::Insert(rel, t) => ("i ", rel, t),
        Op::Delete(rel, t) => ("d ", rel, t),
    };
    out.push_str(tag);
    write_ground_atom(out, rel.as_str(), t);
    out.push('\n');
}

fn parse_op(line: &str) -> Result<Op, String> {
    let (tag, rest) = line
        .split_once(' ')
        .ok_or_else(|| format!("bad op line '{line}'"))?;
    let (rel, t) = read_ground_atom(rest)?;
    match tag {
        "i" => Ok(Op::Insert(citesys_cq::Symbol::new(rel), t)),
        "d" => Ok(Op::Delete(citesys_cq::Symbol::new(rel), t)),
        other => Err(format!("unknown op tag '{other}'")),
    }
}

impl Changeset {
    /// Serializes the changeset to a line-oriented text form shared by
    /// the WAL and the `citesys wal dump` debug command.
    pub fn to_text(&self) -> String {
        let mut out = String::from("citesys-changeset v1\n");
        for op in self.ops() {
            write_op(&mut out, op);
        }
        out
    }

    /// Parses text produced by [`to_text`](Self::to_text). Tolerant of
    /// CRLF line endings and trailing blank lines, like
    /// `RewritePlan::from_text`.
    pub fn from_text(text: &str) -> Result<Changeset, String> {
        let mut lines = text.lines().map(trim_cr);
        match lines.next() {
            Some("citesys-changeset v1") => {}
            other => return Err(format!("bad changeset header: {other:?}")),
        }
        let mut ops = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            ops.push(parse_op(line)?);
        }
        Ok(Changeset::from_ops(ops))
    }
}

// ---------------------------------------------------------------------------
// Database text codec (checkpoint sections)
// ---------------------------------------------------------------------------

/// Serializes a database — schemas and tuples — to the line-oriented
/// text form [`database_from_text`] reads back. Used for both the base
/// database and the materialized-view checkpoint sections.
pub fn database_to_text(db: &Database) -> String {
    let mut out = String::from("citesys-database v1\n");
    for (_, rel) in db.relations() {
        let _ = writeln!(out, "schema {}", rel.schema());
    }
    write_tuples(&mut out, db);
    out
}

/// Parses text produced by [`database_to_text`]. CRLF/trailing-blank
/// tolerant.
pub fn database_from_text(text: &str) -> Result<Database, String> {
    let mut lines = text.lines().map(trim_cr);
    match lines.next() {
        Some("citesys-database v1") => {}
        other => return Err(format!("bad database header: {other:?}")),
    }
    let mut db = Database::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("schema ") {
            db.create_relation(RelationSchema::parse(rest)?)
                .map_err(|e| e.to_string())?;
        } else if let Some(rest) = line.strip_prefix("t ") {
            let (rel, t) = read_ground_atom(rest)?;
            db.insert(rel, t).map_err(|e| e.to_string())?;
        } else {
            return Err(format!("unexpected database line '{line}'"));
        }
    }
    Ok(db)
}

/// Serializes a versioned store's **committed** state (pending ops are
/// deliberately excluded: a checkpoint covers acknowledged commits only)
/// plus its version number.
pub fn versioned_to_text(store: &VersionedDatabase) -> Result<String, String> {
    let version = store.latest_version();
    let snapshot = store.snapshot(version).map_err(|e| e.to_string())?;
    let mut out = format!("citesys-versioned v1\nversion {version}\n");
    // Schemas come from the store, not the snapshot: they are the
    // creation-order source of truth (and cover relations the snapshot
    // may render empty).
    for s in store.schemas() {
        let _ = writeln!(out, "schema {s}");
    }
    write_tuples(&mut out, &snapshot);
    Ok(out)
}

/// Appends one `t Rel(v, …)` line per stored tuple.
fn write_tuples(out: &mut String, db: &Database) {
    for (name, rel) in db.relations() {
        for t in rel.scan() {
            out.push_str("t ");
            write_ground_atom(out, name.as_str(), t);
            out.push('\n');
        }
    }
}

/// Parses text produced by [`versioned_to_text`] into a warm-restarted
/// [`VersionedDatabase`]: the checkpointed state becomes the store's
/// base version (history before it is compacted away).
pub fn versioned_from_text(text: &str) -> Result<VersionedDatabase, String> {
    let mut lines = text.lines().map(trim_cr);
    match lines.next() {
        Some("citesys-versioned v1") => {}
        other => return Err(format!("bad versioned header: {other:?}")),
    }
    let version: u64 = lines
        .next()
        .and_then(|l| l.strip_prefix("version "))
        .ok_or_else(|| "missing version line".to_string())?
        .trim()
        .parse()
        .map_err(|_| "bad version number".to_string())?;
    let mut schemas = Vec::new();
    let mut tuples: Vec<(&str, Tuple)> = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("schema ") {
            schemas.push(RelationSchema::parse(rest)?);
        } else if let Some(rest) = line.strip_prefix("t ") {
            tuples.push(read_ground_atom(rest)?);
        } else {
            return Err(format!("unexpected versioned line '{line}'"));
        }
    }
    let mut base = Database::new();
    for s in &schemas {
        base.create_relation(s.clone()).map_err(|e| e.to_string())?;
    }
    for (rel, t) in tuples {
        base.insert(rel, t).map_err(|e| e.to_string())?;
    }
    VersionedDatabase::restore(schemas, base, version).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Checkpoint data
// ---------------------------------------------------------------------------

/// One checkpoint: the database version it covers plus named text
/// sections (database, registry, views, plans — higher layers choose the
/// names and payloads; the storage layer stores and digests them).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CheckpointData {
    /// The committed version this checkpoint captures.
    pub version: u64,
    /// `(name, payload)` pairs in write order.
    pub sections: Vec<(String, String)>,
}

impl CheckpointData {
    /// The payload of a named section, if present.
    pub fn section(&self, name: &str) -> Option<&str> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.as_str())
    }
}

/// One replayed write-ahead-log record: the version a commit sealed and
/// the changeset it applied.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WalRecord {
    /// The version the commit produced.
    pub version: u64,
    /// The ops the commit applied.
    pub changes: Changeset,
}

/// Everything a backend recovered at open time.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The newest checkpoint, if one was ever written.
    pub checkpoint: Option<CheckpointData>,
    /// WAL records appended after that checkpoint, in commit order.
    pub wal: Vec<WalRecord>,
    /// True when a torn final WAL record was truncated during open.
    pub wal_truncated: bool,
}

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// The contract between the citation system and a durability backend.
///
/// The protocol is the classic WAL + checkpoint pair:
///
/// 1. every committed changeset is passed to
///    [`log_changeset`](Self::log_changeset) **before** the commit is
///    acknowledged (the backend must make it durable — fsync for files —
///    before returning);
/// 2. [`checkpoint`](Self::checkpoint) atomically replaces the stored
///    snapshot and resets the log (records up to the checkpoint version
///    are superseded);
/// 3. [`take_recovery`](Self::take_recovery) yields the newest
///    checkpoint plus the logged records after it, exactly once, at
///    open time.
pub trait DurableStore {
    /// Durably appends one committed changeset. Must not return until
    /// the record would survive a crash.
    fn log_changeset(&mut self, version: u64, changes: &Changeset) -> Result<(), DurabilityError>;

    /// Atomically replaces the checkpoint and resets the log.
    fn checkpoint(&mut self, data: &CheckpointData) -> Result<(), DurabilityError>;

    /// The state recovered at open time (consumed; later calls return an
    /// empty recovery).
    fn take_recovery(&mut self) -> Recovery;

    /// Number of log records appended since the last checkpoint
    /// (including recovered ones).
    fn wal_records(&self) -> usize;

    /// The oldest version reconstructable from this backend's retained
    /// checkpoints (anchors plus the live one) — the floor of the
    /// `@ version` range the durable state can serve. `None` when no
    /// checkpoint was ever written.
    fn history_floor(&self) -> Option<u64> {
        None
    }

    /// How many checkpoints the backend currently retains (the live one
    /// plus any superseded anchors kept by the retention policy).
    fn checkpoints_retained(&self) -> usize {
        0
    }

    /// The nearest retained checkpoint at or below `version`, plus the
    /// logged records needed to roll it forward to exactly `version`
    /// (records with `checkpoint.version < v <= version`, in commit
    /// order). `Ok(None)` when no retained checkpoint covers `version`
    /// — the caller reports the history as compacted.
    fn checkpoint_at(
        &self,
        _version: u64,
    ) -> Result<Option<(CheckpointData, Vec<WalRecord>)>, DurabilityError> {
        Ok(None)
    }

    /// Drops retained anchors no longer needed to serve versions at or
    /// above `floor` (the greatest anchor at or below `floor` is kept —
    /// it is the replay base for `floor` itself). Returns how many
    /// anchors were pruned.
    fn prune_history(&mut self, _floor: u64) -> Result<usize, DurabilityError> {
        Ok(0)
    }

    /// The on-disk directory this backend persists into, when it has
    /// one — the anchor for sibling files like the dataset manifest.
    /// `None` for purely in-memory backends.
    fn data_dir(&self) -> Option<&Path> {
        None
    }
}

// ---------------------------------------------------------------------------
// The write-ahead log
// ---------------------------------------------------------------------------

/// Append-only, fsynced log of committed changesets.
///
/// File layout (line-oriented):
///
/// ```text
/// citesys-wal v1
/// record <version> <n-ops>
/// i Family(11, 'Calcitonin')
/// d Family(12, 'X')
/// end <version>
/// ```
///
/// The `end <version>` trailer is the commit marker: a record without it
/// (a crash mid-append) is a **torn tail** and is truncated on open. A
/// structurally damaged record *followed by* another complete record
/// cannot be produced by a torn write and is reported as corruption.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    records: usize,
}

impl Wal {
    const HEADER: &'static str = "citesys-wal v1";

    /// Opens (creating if needed) the log at `path`, replaying existing
    /// records. Returns the log handle, the replayed records, and
    /// whether a torn final record was truncated.
    pub fn open(path: impl Into<PathBuf>) -> Result<(Wal, Vec<WalRecord>, bool), DurabilityError> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(io_err(&path))?;
        let mut text = String::new();
        file.read_to_string(&mut text).map_err(io_err(&path))?;
        if text.is_empty() {
            writeln!(file, "{}", Self::HEADER).map_err(io_err(&path))?;
            file.sync_data().map_err(io_err(&path))?;
            // The log file's directory entry must survive a crash too.
            sync_parent_dir(&path)?;
            return Ok((
                Wal {
                    path,
                    file,
                    records: 0,
                },
                Vec::new(),
                false,
            ));
        }
        let (records, good_bytes, truncated) = Self::parse(&path, &text)?;
        if truncated {
            file.set_len(good_bytes as u64).map_err(io_err(&path))?;
            file.sync_data().map_err(io_err(&path))?;
        }
        file.seek(SeekFrom::End(0)).map_err(io_err(&path))?;
        let n = records.len();
        Ok((
            Wal {
                path,
                file,
                records: n,
            },
            records,
            truncated,
        ))
    }

    /// Parses the log text, returning the complete records, the byte
    /// length of the well-formed prefix, and whether a torn tail was
    /// dropped. A damaged record that is *not* the final one is
    /// corruption, not tearing.
    fn parse(path: &Path, text: &str) -> Result<(Vec<WalRecord>, usize, bool), DurabilityError> {
        Self::parse_after(path, text, 0)
    }

    /// [`parse`](Self::parse) with a version floor: records with
    /// `version <= after` are structurally validated (line counts and
    /// `end` trailers still guard torn-tail detection) but their op
    /// lines are skipped without parsing or materializing changesets,
    /// so tailing a long log for its suffix stays cheap.
    fn parse_after(
        path: &Path,
        text: &str,
        after: u64,
    ) -> Result<(Vec<WalRecord>, usize, bool), DurabilityError> {
        // Walk lines keeping byte offsets so a torn tail can be cut at
        // the exact end of the last complete record.
        let mut offset = 0usize;
        let mut lines = Vec::new(); // (start_offset, line)
        for line in text.split_inclusive('\n') {
            lines.push((offset, trim_cr(line.trim_end_matches('\n'))));
            offset += line.len();
        }
        let mut it = lines.iter().peekable();
        match it.next() {
            Some((_, l)) if *l == Self::HEADER => {}
            Some((_, l)) if l.starts_with("citesys-wal v") => {
                let found: u32 = l
                    .trim_start_matches("citesys-wal v")
                    .trim()
                    .parse()
                    .unwrap_or(0);
                return Err(DurabilityError::FormatVersion {
                    found,
                    supported: FORMAT_VERSION,
                });
            }
            other => {
                return Err(corrupt(
                    path,
                    format!("bad WAL header: {:?}", other.map(|(_, l)| *l)),
                ))
            }
        }
        let mut records = Vec::new();
        let mut good_bytes = text.len();
        let mut torn_at: Option<usize> = None;
        'records: while let Some(&&(start, line)) = it.peek() {
            if line.trim().is_empty() {
                it.next();
                continue;
            }
            let header = match line
                .strip_prefix("record ")
                .and_then(|r| r.split_once(' '))
                .and_then(|(v, n)| Some((v.parse::<u64>().ok()?, n.parse::<usize>().ok()?)))
            {
                Some(h) => h,
                None => {
                    torn_at = Some(start);
                    break 'records;
                }
            };
            it.next();
            let (version, n_ops) = header;
            let keep = version > after;
            let mut ops = Vec::with_capacity(if keep { n_ops } else { 0 });
            for _ in 0..n_ops {
                match it.next() {
                    Some((_, op_line)) if !keep => {
                        // Skipped record: walk its lines for structure
                        // only. An op line can never start with "end ",
                        // so a short record still tears at the trailer
                        // check below.
                        let _ = op_line;
                    }
                    Some((_, op_line)) => match parse_op(op_line) {
                        Ok(op) => ops.push(op),
                        Err(_) => {
                            torn_at = Some(start);
                            break 'records;
                        }
                    },
                    None => {
                        torn_at = Some(start);
                        break 'records;
                    }
                }
            }
            match it.next() {
                Some((end_start, end_line)) if *end_line == format!("end {version}") => {
                    good_bytes = end_start + end_line.len() + 1; // + '\n'
                    if keep {
                        records.push(WalRecord {
                            version,
                            changes: Changeset::from_ops(ops),
                        });
                    }
                }
                _ => {
                    torn_at = Some(start);
                    break 'records;
                }
            }
        }
        let Some(torn_at) = torn_at else {
            return Ok((records, good_bytes.min(text.len()), false));
        };
        // Tearing can only damage the tail: if a *complete* record
        // trailer appears after the damage, acknowledged commits would
        // be silently dropped — refuse instead.
        let remainder = &text[torn_at..];
        if remainder
            .lines()
            .map(trim_cr)
            .skip(1)
            .any(|l| l.starts_with("end "))
        {
            return Err(corrupt(
                path,
                format!("damaged record before intact ones (byte {torn_at})"),
            ));
        }
        Ok((records, good_bytes.min(torn_at), true))
    }

    /// Appends one record and syncs it to stable storage. Returns only
    /// once the record would survive a crash.
    pub fn append(&mut self, version: u64, changes: &Changeset) -> Result<(), DurabilityError> {
        let mut buf = format!("record {version} {}\n", changes.len());
        for op in changes.ops() {
            write_op(&mut buf, op);
        }
        buf.push_str(&format!("end {version}\n"));
        self.file
            .write_all(buf.as_bytes())
            .map_err(io_err(&self.path))?;
        self.file.sync_data().map_err(io_err(&self.path))?;
        self.records += 1;
        Ok(())
    }

    /// Resets the log to just its header (called after a checkpoint
    /// supersedes the records).
    pub fn reset(&mut self) -> Result<(), DurabilityError> {
        self.file.set_len(0).map_err(io_err(&self.path))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(io_err(&self.path))?;
        writeln!(self.file, "{}", Self::HEADER).map_err(io_err(&self.path))?;
        self.file.sync_data().map_err(io_err(&self.path))?;
        self.records = 0;
        Ok(())
    }

    /// Records appended (or recovered) since the last reset.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// **Read-only** inspection of a log file (`citesys wal dump`):
    /// parses the records and reports a torn tail without creating,
    /// truncating or otherwise touching the file — safe to run against
    /// a live server's log. Returns the complete records and whether a
    /// torn final record was detected (and left in place).
    pub fn read(path: impl AsRef<Path>) -> Result<(Vec<WalRecord>, bool), DurabilityError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(io_err(path))?;
        if text.is_empty() {
            return Ok((Vec::new(), false));
        }
        let (records, _, truncated) = Self::parse(path, &text)?;
        Ok((records, truncated))
    }

    /// [`read`](Self::read) restricted to records **after** a version:
    /// returns only records with `version > after_version`, skipping the
    /// op-parse (and changeset materialization) for everything at or
    /// below the floor. Torn-tail detection is unchanged — earlier
    /// records are still walked structurally. This backs replication
    /// tailing and `citesys wal dump --since <v>`.
    pub fn read_from(
        path: impl AsRef<Path>,
        after_version: u64,
    ) -> Result<(Vec<WalRecord>, bool), DurabilityError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(io_err(path))?;
        if text.is_empty() {
            return Ok((Vec::new(), false));
        }
        let (records, _, truncated) = Self::parse_after(path, &text, after_version)?;
        Ok((records, truncated))
    }
}

// ---------------------------------------------------------------------------
// The default file backend
// ---------------------------------------------------------------------------

/// The default [`DurableStore`]: one directory holding a manifest, one
/// file per checkpoint section, and the WAL.
///
/// ```text
/// data/
///   manifest          citesys-durable v1 / version / section lines
///   database.section  ← one file per manifest section, SHA-256 digested
///   registry.section
///   …
///   wal.log
/// ```
///
/// Checkpoints are atomic: sections are written to `*.tmp` files and
/// renamed, the manifest is written last (also via rename), and only
/// then is the WAL reset — a crash at any point leaves either the old
/// or the new checkpoint fully intact.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    wal: Wal,
    recovery: Option<Recovery>,
    /// How many superseded checkpoints to keep as time-travel anchors.
    retain_anchors: usize,
    /// Version of the live checkpoint (the manifest), if one exists.
    ckpt_version: Option<u64>,
    /// Versions of retained anchors, ascending.
    anchors: Vec<u64>,
}

impl FileStore {
    /// Opens (creating if needed) the durable directory, verifying the
    /// format version and section digests and replaying the WAL. No
    /// superseded checkpoints are retained; see
    /// [`open_with_retention`](Self::open_with_retention).
    pub fn open(dir: impl Into<PathBuf>) -> Result<FileStore, DurabilityError> {
        Self::open_with_retention(dir, 0)
    }

    /// [`open`](Self::open) with a retention policy: each checkpoint
    /// archives the one it supersedes (manifest, sections, and the WAL
    /// segment it covered) under `anchors/<version>/`, keeping the
    /// newest `retain` anchors as time-travel replay bases. Anchors
    /// already on disk are available regardless of `retain` — the
    /// policy bounds future growth, it does not trim on open.
    pub fn open_with_retention(
        dir: impl Into<PathBuf>,
        retain: usize,
    ) -> Result<FileStore, DurabilityError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(io_err(&dir))?;
        let checkpoint = Self::read_manifest(&dir)?;
        let (wal, records, truncated) = Wal::open(dir.join(WAL_FILE))?;
        // Records at or below the checkpoint version were superseded by
        // the checkpoint (e.g. a crash between manifest rename and WAL
        // reset); drop them from the replay.
        let floor = checkpoint.as_ref().map(|c| c.version).unwrap_or(0);
        let wal_records = records.into_iter().filter(|r| r.version > floor).collect();
        let ckpt_version = checkpoint.as_ref().map(|c| c.version);
        let anchors = Self::list_anchors(&dir)?;
        Ok(FileStore {
            dir,
            wal,
            recovery: Some(Recovery {
                checkpoint,
                wal: wal_records,
                wal_truncated: truncated,
            }),
            retain_anchors: retain,
            ckpt_version,
            anchors,
        })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Anchor versions currently on disk, ascending.
    fn list_anchors(dir: &Path) -> Result<Vec<u64>, DurabilityError> {
        let root = dir.join(ANCHORS_DIR);
        let entries = match std::fs::read_dir(&root) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(&root)(e)),
        };
        let mut versions = Vec::new();
        for entry in entries {
            let entry = entry.map_err(io_err(&root))?;
            if let Some(v) = entry.file_name().to_str().and_then(|n| n.parse().ok()) {
                // A half-written anchor (crash mid-archive) has no
                // manifest yet; it is unreadable, so don't offer it.
                if entry.path().join(MANIFEST_FILE).exists() {
                    versions.push(v);
                }
            }
        }
        versions.sort_unstable();
        Ok(versions)
    }

    /// Archives the live checkpoint (manifest + sections) and the WAL
    /// segment it anchors — the records between its version and the
    /// superseding checkpoint's — under `anchors/<version>/`. Called
    /// before the superseding checkpoint overwrites either.
    fn archive_anchor(&mut self, old: &CheckpointData) -> Result<(), DurabilityError> {
        let adir = self.dir.join(ANCHORS_DIR).join(old.version.to_string());
        std::fs::create_dir_all(&adir).map_err(io_err(&adir))?;
        let mut manifest = format!(
            "citesys-durable v{FORMAT_VERSION}\nversion {}\n",
            old.version
        );
        for (name, payload) in &old.sections {
            let file = format!("{name}.section");
            write_atomic_in(&adir, &file, payload)?;
            manifest.push_str(&format!(
                "section {name} {file} {}\n",
                sha256(payload.as_bytes()).to_hex()
            ));
        }
        // The live WAL currently holds exactly the records this anchor
        // needs to roll forward: everything committed after `old`.
        let wal_text = std::fs::read_to_string(self.wal.path()).map_err(io_err(self.wal.path()))?;
        write_atomic_in(&adir, WAL_FILE, &wal_text)?;
        // Manifest last: its presence marks the anchor complete.
        write_atomic_in(&adir, MANIFEST_FILE, &manifest)?;
        self.anchors.push(old.version);
        self.anchors.sort_unstable();
        Ok(())
    }

    fn remove_anchor(&mut self, version: u64) -> Result<(), DurabilityError> {
        let adir = self.dir.join(ANCHORS_DIR).join(version.to_string());
        std::fs::remove_dir_all(&adir).map_err(io_err(&adir))?;
        self.anchors.retain(|&v| v != version);
        Ok(())
    }

    fn read_manifest(dir: &Path) -> Result<Option<CheckpointData>, DurabilityError> {
        let path = dir.join(MANIFEST_FILE);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path)(e)),
        };
        let mut lines = text.lines().map(trim_cr);
        match lines.next() {
            Some(l) if l == format!("citesys-durable v{FORMAT_VERSION}") => {}
            Some(l) if l.starts_with("citesys-durable v") => {
                let found: u32 = l
                    .trim_start_matches("citesys-durable v")
                    .trim()
                    .parse()
                    .unwrap_or(0);
                return Err(DurabilityError::FormatVersion {
                    found,
                    supported: FORMAT_VERSION,
                });
            }
            other => return Err(corrupt(&path, format!("bad manifest header: {other:?}"))),
        }
        let version: u64 = lines
            .next()
            .and_then(|l| l.strip_prefix("version "))
            .ok_or_else(|| corrupt(&path, "missing version line"))?
            .trim()
            .parse()
            .map_err(|_| corrupt(&path, "bad version number"))?;
        let mut sections = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let rest = line
                .strip_prefix("section ")
                .ok_or_else(|| corrupt(&path, format!("unexpected manifest line '{line}'")))?;
            let mut parts = rest.split_whitespace();
            let (name, file, digest) = match (parts.next(), parts.next(), parts.next()) {
                (Some(n), Some(f), Some(d)) => (n, f, d),
                _ => return Err(corrupt(&path, format!("bad section line '{line}'"))),
            };
            let expected = Digest::from_hex(digest)
                .ok_or_else(|| corrupt(&path, format!("bad digest for section '{name}'")))?;
            let section_path = dir.join(file);
            let payload = std::fs::read_to_string(&section_path).map_err(io_err(&section_path))?;
            if sha256(payload.as_bytes()) != expected {
                return Err(corrupt(
                    &section_path,
                    format!("section '{name}' does not match its manifest digest"),
                ));
            }
            sections.push((name.to_string(), payload));
        }
        Ok(Some(CheckpointData { version, sections }))
    }

    fn write_atomic(&self, name: &str, content: &str) -> Result<(), DurabilityError> {
        write_atomic_in(&self.dir, name, content)
    }
}

/// Reads just the `version` line of a durable directory's manifest —
/// the cheap "how much history did checkpoints fold away?" probe used
/// by `citesys wal dump --since` to refuse a compacted floor without
/// loading (or digest-verifying) any section. `Ok(None)` when no
/// checkpoint was ever written.
pub fn manifest_version(dir: &Path) -> Result<Option<u64>, DurabilityError> {
    let path = dir.join(MANIFEST_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(&path)(e)),
    };
    let mut lines = text.lines().map(trim_cr);
    match lines.next() {
        Some(l) if l == format!("citesys-durable v{FORMAT_VERSION}") => {}
        Some(l) if l.starts_with("citesys-durable v") => {
            let found: u32 = l
                .trim_start_matches("citesys-durable v")
                .trim()
                .parse()
                .unwrap_or(0);
            return Err(DurabilityError::FormatVersion {
                found,
                supported: FORMAT_VERSION,
            });
        }
        other => return Err(corrupt(&path, format!("bad manifest header: {other:?}"))),
    }
    let version = lines
        .next()
        .and_then(|l| l.strip_prefix("version "))
        .ok_or_else(|| corrupt(&path, "missing version line"))?
        .trim()
        .parse()
        .map_err(|_| corrupt(&path, "bad version number"))?;
    Ok(Some(version))
}

/// Writes `dir/name` atomically: temp file, fsync, rename, directory
/// fsync. The directory fsync matters — the rename itself is a
/// directory-entry update: without it, a power cut after `checkpoint()`
/// returns could surface the OLD manifest next to an already-reset WAL,
/// losing acked commits.
fn write_atomic_in(dir: &Path, name: &str, content: &str) -> Result<(), DurabilityError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let path = dir.join(name);
    let mut f = File::create(&tmp).map_err(io_err(&tmp))?;
    f.write_all(content.as_bytes()).map_err(io_err(&tmp))?;
    f.sync_data().map_err(io_err(&tmp))?;
    std::fs::rename(&tmp, &path).map_err(io_err(&path))?;
    sync_parent_dir(&path)
}

impl DurableStore for FileStore {
    fn log_changeset(&mut self, version: u64, changes: &Changeset) -> Result<(), DurabilityError> {
        self.wal.append(version, changes)
    }

    fn checkpoint(&mut self, data: &CheckpointData) -> Result<(), DurabilityError> {
        // Retention: archive the checkpoint this one supersedes (and
        // the WAL segment anchored to it) before anything is
        // overwritten, then bound the anchor count.
        if self.retain_anchors > 0 && self.ckpt_version.is_some_and(|v| v < data.version) {
            if let Some(old) = Self::read_manifest(&self.dir)? {
                self.archive_anchor(&old)?;
                while self.anchors.len() > self.retain_anchors {
                    self.remove_anchor(self.anchors[0])?;
                }
            }
        }
        // Sections first, manifest last: a crash mid-checkpoint leaves
        // the old manifest pointing at the old (still intact) sections.
        let mut manifest = format!(
            "citesys-durable v{FORMAT_VERSION}\nversion {}\n",
            data.version
        );
        for (name, payload) in &data.sections {
            let file = format!("{name}.section");
            self.write_atomic(&file, payload)?;
            manifest.push_str(&format!(
                "section {name} {file} {}\n",
                sha256(payload.as_bytes()).to_hex()
            ));
        }
        self.write_atomic(MANIFEST_FILE, &manifest)?;
        self.ckpt_version = Some(data.version);
        // Only after the manifest is durable: the WAL records it
        // supersedes can go. (A crash before this reset is handled at
        // open by dropping records at or below the manifest version.)
        self.wal.reset()
    }

    fn take_recovery(&mut self) -> Recovery {
        self.recovery.take().unwrap_or_default()
    }

    fn wal_records(&self) -> usize {
        self.wal.records()
    }

    fn history_floor(&self) -> Option<u64> {
        self.anchors.first().copied().or(self.ckpt_version)
    }

    fn checkpoints_retained(&self) -> usize {
        self.anchors.len() + usize::from(self.ckpt_version.is_some())
    }

    fn checkpoint_at(
        &self,
        version: u64,
    ) -> Result<Option<(CheckpointData, Vec<WalRecord>)>, DurabilityError> {
        // The nearest retained replay base at or below `version`: the
        // live checkpoint if it qualifies (it is always newer than any
        // anchor), else the greatest qualifying anchor.
        if self.ckpt_version.is_some_and(|v| v <= version) {
            let Some(ckpt) = Self::read_manifest(&self.dir)? else {
                return Ok(None);
            };
            let (records, _) = Wal::read(self.wal.path())?;
            let tail = records
                .into_iter()
                .filter(|r| r.version > ckpt.version && r.version <= version)
                .collect();
            return Ok(Some((ckpt, tail)));
        }
        let Some(&base) = self.anchors.iter().rev().find(|&&v| v <= version) else {
            return Ok(None);
        };
        let adir = self.dir.join(ANCHORS_DIR).join(base.to_string());
        let Some(ckpt) = Self::read_manifest(&adir)? else {
            return Ok(None);
        };
        let (records, _) = Wal::read(adir.join(WAL_FILE))?;
        let tail = records
            .into_iter()
            .filter(|r| r.version > base && r.version <= version)
            .collect();
        Ok(Some((ckpt, tail)))
    }

    fn prune_history(&mut self, floor: u64) -> Result<usize, DurabilityError> {
        // Keep the greatest anchor at or below `floor` (the replay base
        // for `floor` itself) and everything newer.
        let keep_from = self
            .anchors
            .iter()
            .rev()
            .find(|&&v| v <= floor)
            .copied()
            .unwrap_or(0);
        let doomed: Vec<u64> = self
            .anchors
            .iter()
            .filter(|&&v| v < keep_from)
            .copied()
            .collect();
        let pruned = doomed.len();
        for v in doomed {
            self.remove_anchor(v)?;
        }
        Ok(pruned)
    }

    fn data_dir(&self) -> Option<&Path> {
        Some(&self.dir)
    }
}

// ---------------------------------------------------------------------------
// In-memory backend (tests; proves the trait abstracts the layout)
// ---------------------------------------------------------------------------

/// A [`DurableStore`] that "persists" to shared memory — used by tests
/// and as the template for future non-file backends (replicas, object
/// stores). Clones share the persisted state; each clone behaves like a
/// fresh process opening it ([`reopen`](Self::reopen)), recovering
/// whatever checkpoint and WAL records the previous handles left.
#[derive(Debug, Default)]
pub struct MemStore {
    inner: Arc<parking_lot::Mutex<MemInner>>,
    recovery_taken: bool,
}

#[derive(Debug, Default)]
struct MemInner {
    checkpoint: Option<CheckpointData>,
    wal: Vec<WalRecord>,
}

impl MemStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Simulates a process restart: a handle over the same persisted
    /// state whose [`take_recovery`](DurableStore::take_recovery) yields
    /// the current checkpoint + WAL.
    pub fn reopen(&self) -> MemStore {
        MemStore {
            inner: Arc::clone(&self.inner),
            recovery_taken: false,
        }
    }
}

impl DurableStore for MemStore {
    fn log_changeset(&mut self, version: u64, changes: &Changeset) -> Result<(), DurabilityError> {
        self.inner.lock().wal.push(WalRecord {
            version,
            changes: changes.clone(),
        });
        Ok(())
    }

    fn checkpoint(&mut self, data: &CheckpointData) -> Result<(), DurabilityError> {
        let mut inner = self.inner.lock();
        inner.checkpoint = Some(data.clone());
        inner.wal.clear();
        Ok(())
    }

    fn take_recovery(&mut self) -> Recovery {
        if self.recovery_taken {
            return Recovery::default();
        }
        self.recovery_taken = true;
        let inner = self.inner.lock();
        Recovery {
            checkpoint: inner.checkpoint.clone(),
            wal: inner.wal.clone(),
            wal_truncated: false,
        }
    }

    fn wal_records(&self) -> usize {
        self.inner.lock().wal.len()
    }

    fn history_floor(&self) -> Option<u64> {
        self.inner.lock().checkpoint.as_ref().map(|c| c.version)
    }

    fn checkpoints_retained(&self) -> usize {
        usize::from(self.inner.lock().checkpoint.is_some())
    }

    fn checkpoint_at(
        &self,
        version: u64,
    ) -> Result<Option<(CheckpointData, Vec<WalRecord>)>, DurabilityError> {
        let inner = self.inner.lock();
        match &inner.checkpoint {
            Some(c) if c.version <= version => {
                let tail = inner
                    .wal
                    .iter()
                    .filter(|r| r.version > c.version && r.version <= version)
                    .cloned()
                    .collect();
                Ok(Some((c.clone(), tail)))
            }
            _ => Ok(None),
        }
    }
}

/// A [`MemStore`] whose next `failures` WAL appends fail, as on a full
/// disk — fault injection for the write path's error handling. Every
/// other operation goes straight to `inner`.
#[derive(Debug)]
pub struct FailingAppends {
    /// The backend that persists everything that does not fail.
    pub inner: MemStore,
    /// How many of the next appends to refuse.
    pub failures: usize,
}

impl DurableStore for FailingAppends {
    fn log_changeset(&mut self, version: u64, changes: &Changeset) -> Result<(), DurabilityError> {
        if self.failures > 0 {
            self.failures -= 1;
            return Err(DurabilityError::Io {
                path: PathBuf::from(WAL_FILE),
                source: io::Error::other("injected append failure"),
            });
        }
        self.inner.log_changeset(version, changes)
    }

    fn checkpoint(&mut self, data: &CheckpointData) -> Result<(), DurabilityError> {
        self.inner.checkpoint(data)
    }

    fn take_recovery(&mut self) -> Recovery {
        self.inner.take_recovery()
    }

    fn wal_records(&self) -> usize {
        self.inner.wal_records()
    }
}

/// Groups per-relation tuple counts for human-facing recovery summaries
/// (`citesys recover`).
pub fn summarize_database(db: &Database) -> BTreeMap<String, usize> {
    db.relations()
        .map(|(name, rel)| (name.to_string(), rel.len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use citesys_cq::ValueType;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("citesys-durability-test")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn family_schema() -> RelationSchema {
        RelationSchema::from_parts(
            "Family",
            &[("FID", ValueType::Int), ("FName", ValueType::Text)],
            &[0],
        )
    }

    #[test]
    fn changeset_text_round_trips() {
        let mut c = Changeset::new();
        c.insert("Family", tuple![11, "Cal, 'quoted' \\ text"])
            .delete("Family", tuple![12, "x"])
            .insert("Flags", tuple![true, false, -5]);
        let text = c.to_text();
        assert!(text.starts_with("citesys-changeset v1\n"));
        let back = Changeset::from_text(&text).unwrap();
        assert_eq!(back, c);
        // CRLF + trailing blanks tolerated, like RewritePlan::from_text.
        let crlf = format!("{}\r\n\r\n", text.replace('\n', "\r\n"));
        assert_eq!(Changeset::from_text(&crlf).unwrap(), c);
        assert!(Changeset::from_text("bogus\n").is_err());
        assert!(Changeset::from_text("citesys-changeset v1\nx R(1)\n").is_err());
    }

    #[test]
    fn embedded_newlines_survive_every_durable_codec() {
        // CSV bulk loads can insert text with embedded newlines; the
        // line-oriented durable formats must escape them, or a WAL
        // record / checkpoint section would split mid-value and an
        // ACKED commit would be unreadable on reopen.
        let sneaky = tuple![1, "line1\nline2\r\nline3"];
        let mut c = Changeset::new();
        c.insert("Family", sneaky.clone());
        let text = c.to_text();
        assert_eq!(
            text.lines().count(),
            2,
            "one header + one op line, newline escaped: {text:?}"
        );
        assert_eq!(Changeset::from_text(&text).unwrap(), c);
        // Through the WAL: append, reopen, replay — not torn, not lost.
        let dir = temp_dir("wal-newline");
        let path = dir.join(WAL_FILE);
        {
            let (mut wal, _, _) = Wal::open(&path).unwrap();
            wal.append(1, &c).unwrap();
        }
        let (_, recovered, truncated) = Wal::open(&path).unwrap();
        assert!(!truncated, "an escaped newline is not a torn record");
        assert_eq!(
            recovered,
            vec![WalRecord {
                version: 1,
                changes: c
            }]
        );
        // Through the database section codec.
        let mut db = Database::new();
        db.create_relation(family_schema()).unwrap();
        db.insert("Family", sneaky.clone()).unwrap();
        let back = database_from_text(&database_to_text(&db)).unwrap();
        assert!(back.relation("Family").unwrap().contains(&sneaky));
    }

    #[test]
    fn wal_read_is_read_only() {
        let dir = temp_dir("wal-read-only");
        let path = dir.join(WAL_FILE);
        let mut c = Changeset::new();
        c.insert("Family", tuple![1, "a"]);
        {
            let (mut wal, _, _) = Wal::open(&path).unwrap();
            wal.append(1, &c).unwrap();
        }
        // Tear the tail, then inspect: the torn bytes must stay put (a
        // live server may still be appending to them).
        let mut torn = std::fs::read_to_string(&path).unwrap();
        torn.push_str("record 2 1\ni Fam");
        std::fs::write(&path, &torn).unwrap();
        let (records, truncated) = Wal::read(&path).unwrap();
        assert!(truncated);
        assert_eq!(records.len(), 1);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            torn,
            "read() must not truncate the file"
        );
        // And a missing file is an error, not a silently created log.
        let missing = dir.join("nope.log");
        assert!(Wal::read(&missing).is_err());
        assert!(!missing.exists());
    }

    #[test]
    fn wal_read_from_skips_the_prefix() {
        let dir = temp_dir("wal-read-from");
        let path = dir.join(WAL_FILE);
        {
            let (mut wal, _, _) = Wal::open(&path).unwrap();
            for v in 1..=4u64 {
                let mut c = Changeset::new();
                c.insert("Family", tuple![v as i64, format!("f{v}")]);
                wal.append(v, &c).unwrap();
            }
        }
        // Floor 0 behaves exactly like read().
        let (all, _) = Wal::read_from(&path, 0).unwrap();
        assert_eq!(all, Wal::read(&path).unwrap().0);
        assert_eq!(all.len(), 4);
        // A mid-log floor returns only the suffix, versions intact.
        let (tail, truncated) = Wal::read_from(&path, 2).unwrap();
        assert!(!truncated);
        assert_eq!(
            tail.iter().map(|r| r.version).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert_eq!(tail, all[2..].to_vec());
        // A floor at or past the end yields nothing.
        assert!(Wal::read_from(&path, 4).unwrap().0.is_empty());
        assert!(Wal::read_from(&path, 99).unwrap().0.is_empty());
        // Torn-tail detection still sees through skipped records.
        let mut torn = std::fs::read_to_string(&path).unwrap();
        torn.push_str("record 5 2\ni Family(9");
        std::fs::write(&path, &torn).unwrap();
        let (tail, truncated) = Wal::read_from(&path, 4).unwrap();
        assert!(truncated, "torn tail reported even when fully skipped");
        assert!(tail.is_empty());
        // A damaged record *before* intact ones is still corruption,
        // even when the floor would have skipped the damaged record.
        let healthy = torn.trim_end_matches("record 5 2\ni Family(9").to_string();
        let broken = healthy.replace("i Family(2, 'f2')", "i Family(2, ");
        std::fs::write(&path, &broken).unwrap();
        assert!(Wal::read(&path).is_err(), "read sees the corruption");
    }

    #[test]
    fn database_text_round_trips() {
        let mut db = Database::new();
        db.create_relation(family_schema()).unwrap();
        db.create_relation(RelationSchema::from_parts(
            "Log",
            &[("Msg", ValueType::Text)],
            &[],
        ))
        .unwrap();
        db.insert("Family", tuple![1, "a'b"]).unwrap();
        db.insert("Family", tuple![2, "c,d"]).unwrap();
        db.insert("Log", tuple!["hello #world"]).unwrap();
        let text = database_to_text(&db);
        let back = database_from_text(&text).unwrap();
        assert_eq!(back.total_tuples(), 3);
        assert!(back.relation("Family").unwrap().contains(&tuple![1, "a'b"]));
        assert!(back
            .relation("Log")
            .unwrap()
            .contains(&tuple!["hello #world"]));
        assert_eq!(back.relation("Family").unwrap().schema().key, vec![0]);
    }

    #[test]
    fn versioned_text_restores_at_base_version() {
        let mut v = VersionedDatabase::new(vec![family_schema()]).unwrap();
        v.insert("Family", tuple![1, "a"]).unwrap();
        v.commit();
        v.insert("Family", tuple![2, "b"]).unwrap();
        v.commit();
        v.insert("Family", tuple![3, "pending"]).unwrap(); // not committed
        let text = versioned_to_text(&v).unwrap();
        let back = versioned_from_text(&text).unwrap();
        assert_eq!(back.latest_version(), 2);
        assert_eq!(back.base_version(), 2);
        assert_eq!(back.snapshot(2).unwrap().total_tuples(), 2, "no pending");
        // Pre-checkpoint history is compacted.
        assert!(back.snapshot(1).is_err());
        // Digest of the recovered version equals the original's.
        assert_eq!(back.digest_at(2).unwrap(), v.digest_at(2).unwrap());
    }

    #[test]
    fn wal_append_replay_round_trip() {
        let dir = temp_dir("wal-round-trip");
        let path = dir.join(WAL_FILE);
        let mut c1 = Changeset::new();
        c1.insert("Family", tuple![1, "a"]);
        let mut c2 = Changeset::new();
        c2.delete("Family", tuple![1, "a"])
            .insert("Family", tuple![2, "b"]);
        {
            let (mut wal, recovered, truncated) = Wal::open(&path).unwrap();
            assert!(recovered.is_empty());
            assert!(!truncated);
            wal.append(1, &c1).unwrap();
            wal.append(2, &c2).unwrap();
            assert_eq!(wal.records(), 2);
        }
        let (wal, recovered, truncated) = Wal::open(&path).unwrap();
        assert!(!truncated);
        assert_eq!(wal.records(), 2);
        assert_eq!(
            recovered,
            vec![
                WalRecord {
                    version: 1,
                    changes: c1
                },
                WalRecord {
                    version: 2,
                    changes: c2
                },
            ]
        );
    }

    #[test]
    fn torn_final_record_truncates_cleanly() {
        let dir = temp_dir("wal-torn");
        let path = dir.join(WAL_FILE);
        let mut c = Changeset::new();
        c.insert("Family", tuple![1, "a"]);
        {
            let (mut wal, _, _) = Wal::open(&path).unwrap();
            wal.append(1, &c).unwrap();
        }
        let intact = std::fs::read_to_string(&path).unwrap();
        // A crash mid-append: header + one op, no `end` trailer.
        for torn_tail in [
            "record 2 2\ni Family(2, 'b')\n",
            "record 2 2\n",
            "record 2",
            "garbage that is not a record header\n",
        ] {
            std::fs::write(&path, format!("{intact}{torn_tail}")).unwrap();
            let (wal, recovered, truncated) = Wal::open(&path).unwrap();
            assert!(truncated, "tail {torn_tail:?} must be detected");
            assert_eq!(recovered.len(), 1, "intact record survives");
            assert_eq!(recovered[0].version, 1);
            drop(wal);
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                intact,
                "file physically truncated back to the good prefix"
            );
        }
    }

    #[test]
    fn appending_after_truncation_works() {
        let dir = temp_dir("wal-truncate-append");
        let path = dir.join(WAL_FILE);
        let mut c = Changeset::new();
        c.insert("Family", tuple![1, "a"]);
        {
            let (mut wal, _, _) = Wal::open(&path).unwrap();
            wal.append(1, &c).unwrap();
        }
        let mut raw = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        raw.write_all(b"record 2 1\ni Fam").unwrap(); // torn
        drop(raw);
        let (mut wal, recovered, truncated) = Wal::open(&path).unwrap();
        assert!(truncated);
        assert_eq!(recovered.len(), 1);
        let mut c2 = Changeset::new();
        c2.insert("Family", tuple![2, "b"]);
        wal.append(2, &c2).unwrap();
        drop(wal);
        let (_, recovered, truncated) = Wal::open(&path).unwrap();
        assert!(!truncated);
        assert_eq!(recovered.len(), 2, "append lands after the cut point");
    }

    #[test]
    fn damaged_middle_is_corruption_not_tearing() {
        let dir = temp_dir("wal-corrupt");
        let path = dir.join(WAL_FILE);
        let mut c = Changeset::new();
        c.insert("Family", tuple![1, "a"]);
        {
            let (mut wal, _, _) = Wal::open(&path).unwrap();
            wal.append(1, &c).unwrap();
            wal.append(2, &c).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        // Damage the FIRST record while the second stays intact: a torn
        // write cannot do this, so open must refuse rather than drop the
        // acknowledged second commit.
        let damaged = text.replacen("record 1 1", "recxrd 1 1", 1);
        std::fs::write(&path, damaged).unwrap();
        let e = Wal::open(&path).unwrap_err();
        assert!(matches!(e, DurabilityError::Corrupt { .. }), "{e}");
    }

    #[test]
    fn wal_format_version_gate() {
        let dir = temp_dir("wal-version");
        let path = dir.join(WAL_FILE);
        std::fs::write(&path, "citesys-wal v9\n").unwrap();
        let e = Wal::open(&path).unwrap_err();
        assert!(
            matches!(
                e,
                DurabilityError::FormatVersion {
                    found: 9,
                    supported: FORMAT_VERSION
                }
            ),
            "{e}"
        );
    }

    #[test]
    fn file_store_checkpoint_and_recover() {
        let dir = temp_dir("file-store");
        let mut c = Changeset::new();
        c.insert("Family", tuple![1, "a"]);
        {
            let mut store = FileStore::open(&dir).unwrap();
            let rec = store.take_recovery();
            assert!(rec.checkpoint.is_none());
            assert!(rec.wal.is_empty());
            store
                .checkpoint(&CheckpointData {
                    version: 3,
                    sections: vec![
                        ("database".into(), "citesys-database v1\n".into()),
                        ("notes".into(), "hello\n".into()),
                    ],
                })
                .unwrap();
            assert_eq!(store.wal_records(), 0);
            store.log_changeset(4, &c).unwrap();
            assert_eq!(store.wal_records(), 1);
        }
        let mut store = FileStore::open(&dir).unwrap();
        let rec = store.take_recovery();
        let cp = rec.checkpoint.expect("checkpoint recovered");
        assert_eq!(cp.version, 3);
        assert_eq!(cp.section("notes"), Some("hello\n"));
        assert_eq!(rec.wal.len(), 1);
        assert_eq!(rec.wal[0].version, 4);
        assert_eq!(rec.wal[0].changes, c);
        assert!(!rec.wal_truncated);
        // Recovery is consumed exactly once.
        assert!(store.take_recovery().checkpoint.is_none());
    }

    #[test]
    fn checkpoint_supersedes_earlier_wal_records() {
        // A crash between manifest rename and WAL reset leaves records
        // at or below the checkpoint version in the log; open must drop
        // them instead of replaying them twice.
        let dir = temp_dir("file-store-supersede");
        let mut c = Changeset::new();
        c.insert("Family", tuple![1, "a"]);
        let mut store = FileStore::open(&dir).unwrap();
        store.log_changeset(1, &c).unwrap();
        store.log_changeset(2, &c).unwrap();
        store
            .checkpoint(&CheckpointData {
                version: 2,
                sections: vec![],
            })
            .unwrap();
        store.log_changeset(3, &c).unwrap();
        drop(store);
        // Simulate the crash: re-append a stale record manually.
        let wal_path = dir.join(WAL_FILE);
        let stale = "record 2 1\ni Family(1, 'a')\nend 2\n";
        let text = std::fs::read_to_string(&wal_path).unwrap();
        std::fs::write(
            &wal_path,
            format!(
                "citesys-wal v1\n{stale}{}",
                &text["citesys-wal v1\n".len()..]
            ),
        )
        .unwrap();
        let mut store = FileStore::open(&dir).unwrap();
        let rec = store.take_recovery();
        assert_eq!(
            rec.wal.iter().map(|r| r.version).collect::<Vec<_>>(),
            vec![3],
            "records ≤ checkpoint version dropped"
        );
    }

    /// Drives a retention-enabled store through `n` single-op commits
    /// with a checkpoint every `every` commits; the checkpoint sections
    /// are tiny database texts so anchors can be read back.
    fn storm(store: &mut FileStore, n: u64, every: u64) {
        for v in 1..=n {
            let mut c = Changeset::new();
            c.insert("Family", tuple![v as i64, format!("f{v}")]);
            store.log_changeset(v, &c).unwrap();
            if v % every == 0 {
                store
                    .checkpoint(&CheckpointData {
                        version: v,
                        sections: vec![("database".into(), format!("state at v{v}\n"))],
                    })
                    .unwrap();
            }
        }
    }

    #[test]
    fn retention_archives_superseded_checkpoints_as_anchors() {
        let dir = temp_dir("file-store-anchors");
        let mut store = FileStore::open_with_retention(&dir, 2).unwrap();
        assert_eq!(store.history_floor(), None);
        assert_eq!(store.checkpoints_retained(), 0);
        storm(&mut store, 12, 3); // checkpoints at 3, 6, 9, 12
                                  // Retention 2: anchors 6 and 9 retained, 3 pruned; live is 12.
        assert_eq!(store.checkpoints_retained(), 3);
        assert_eq!(store.history_floor(), Some(6));
        // checkpoint_at picks the nearest base and the exact record tail.
        let (base, tail) = store.checkpoint_at(8).unwrap().expect("anchored");
        assert_eq!(base.version, 6);
        assert_eq!(base.section("database"), Some("state at v6\n"));
        assert_eq!(tail.iter().map(|r| r.version).collect::<Vec<_>>(), [7, 8]);
        // A version at an anchor needs no tail.
        let (base, tail) = store.checkpoint_at(9).unwrap().expect("anchored");
        assert_eq!((base.version, tail.len()), (9, 0));
        // At or above the live checkpoint: the live manifest + live WAL.
        let (base, tail) = store.checkpoint_at(12).unwrap().expect("live");
        assert_eq!((base.version, tail.len()), (12, 0));
        // Below the oldest anchor: compacted.
        assert!(store.checkpoint_at(5).unwrap().is_none());
        // Reopen sees the same anchors (they live on disk).
        drop(store);
        let store = FileStore::open_with_retention(&dir, 2).unwrap();
        assert_eq!(store.history_floor(), Some(6));
        assert_eq!(store.checkpoints_retained(), 3);
    }

    #[test]
    fn checkpoint_at_covers_the_live_wal_tail() {
        let dir = temp_dir("file-store-live-tail");
        let mut store = FileStore::open_with_retention(&dir, 4).unwrap();
        storm(&mut store, 5, 3); // checkpoint at 3; records 4, 5 live
        let (base, tail) = store.checkpoint_at(4).unwrap().expect("live base");
        assert_eq!(base.version, 3);
        assert_eq!(tail.iter().map(|r| r.version).collect::<Vec<_>>(), [4]);
    }

    #[test]
    fn prune_history_keeps_the_replay_base_for_the_floor() {
        let dir = temp_dir("file-store-prune");
        let mut store = FileStore::open_with_retention(&dir, 10).unwrap();
        storm(&mut store, 12, 3); // anchors 3, 6, 9; live 12
        assert_eq!(store.history_floor(), Some(3));
        // Floor 8: anchor 6 is the replay base for v8 and must survive;
        // only 3 goes.
        assert_eq!(store.prune_history(8).unwrap(), 1);
        assert_eq!(store.history_floor(), Some(6));
        assert!(store.checkpoint_at(7).unwrap().is_some());
        assert!(store.checkpoint_at(5).unwrap().is_none());
        // Pruning is idempotent.
        assert_eq!(store.prune_history(8).unwrap(), 0);
        // A floor below every anchor prunes nothing.
        assert_eq!(store.prune_history(0).unwrap(), 0);
    }

    #[test]
    fn zero_retention_keeps_no_anchors() {
        let dir = temp_dir("file-store-no-anchors");
        let mut store = FileStore::open(&dir).unwrap();
        storm(&mut store, 6, 3);
        assert_eq!(store.checkpoints_retained(), 1, "live checkpoint only");
        assert_eq!(store.history_floor(), Some(6));
        assert!(store.checkpoint_at(4).unwrap().is_none());
        assert!(!dir.join(ANCHORS_DIR).exists());
    }

    #[test]
    fn manifest_version_probe() {
        let dir = temp_dir("manifest-version");
        assert_eq!(manifest_version(&dir).unwrap(), None);
        let mut store = FileStore::open(&dir).unwrap();
        store
            .checkpoint(&CheckpointData {
                version: 7,
                sections: vec![],
            })
            .unwrap();
        assert_eq!(manifest_version(&dir).unwrap(), Some(7));
        std::fs::write(dir.join(MANIFEST_FILE), "citesys-durable v99\nversion 0\n").unwrap();
        assert!(matches!(
            manifest_version(&dir).unwrap_err(),
            DurabilityError::FormatVersion { found: 99, .. }
        ));
    }

    #[test]
    fn tampered_section_is_rejected() {
        let dir = temp_dir("file-store-tamper");
        {
            let mut store = FileStore::open(&dir).unwrap();
            store
                .checkpoint(&CheckpointData {
                    version: 1,
                    sections: vec![("database".into(), "citesys-database v1\n".into())],
                })
                .unwrap();
        }
        std::fs::write(dir.join("database.section"), "tampered\n").unwrap();
        let e = FileStore::open(&dir).unwrap_err();
        assert!(matches!(e, DurabilityError::Corrupt { .. }), "{e}");
    }

    #[test]
    fn manifest_format_version_gate() {
        let dir = temp_dir("file-store-version");
        std::fs::write(dir.join(MANIFEST_FILE), "citesys-durable v99\nversion 0\n").unwrap();
        let e = FileStore::open(&dir).unwrap_err();
        assert!(
            matches!(e, DurabilityError::FormatVersion { found: 99, .. }),
            "{e}"
        );
    }

    #[test]
    fn mem_store_implements_the_trait() {
        let mut c = Changeset::new();
        c.insert("Family", tuple![1, "a"]);
        let mut store = MemStore::new();
        store
            .checkpoint(&CheckpointData {
                version: 1,
                sections: vec![("x".into(), "y".into())],
            })
            .unwrap();
        store.log_changeset(2, &c).unwrap();
        let mut reopened = store.reopen();
        let rec = reopened.take_recovery();
        assert_eq!(rec.checkpoint.unwrap().version, 1);
        assert_eq!(rec.wal.len(), 1);
        // Works through the trait object, as callers use it.
        let mut boxed: Box<dyn DurableStore + Send> = Box::new(MemStore::new());
        boxed.log_changeset(1, &c).unwrap();
        assert_eq!(boxed.wal_records(), 1);
    }
}
