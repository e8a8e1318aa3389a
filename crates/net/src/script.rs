//! The stateful interpreter behind every citesys front end.
//!
//! ```text
//! # comments start with '#'
//! schema Family(FID:int, FName:text, Desc:text) key(0)
//! insert Family(11, 'Calcitonin', 'C1')
//! view λ FID. V1(FID, N, D) :- Family(FID, N, D) | cite λ FID. CV1(FID, P) :- Committee(FID, P) | static database=GtoPdb
//! commit
//! cite Q(N) :- Family(F, N, D) | format bibtex | mode formal | policy union
//! begin                          # buffer a transaction…
//! insert Family(14, 'Ghrelin', 'G1')
//! delete Family(11, 'Calcitonin', 'C1')
//! commit                         # …applied atomically as one changeset
//! tables
//! dump Family
//! ```
//!
//! Commands are parsed by the shared [`protocol`]
//! module — the same grammar the TCP wire protocol speaks — and executed
//! here. The state splits in two:
//!
//! * [`SharedStore`] — a [`Store`] (versioned database, registry, plan
//!   caches, cached service, durability: the one write path) plus the
//!   instruments and replication telemetry, behind an `Arc<Mutex<…>>` so
//!   many sessions (the TCP server's connections) can share it. A solo
//!   [`Interpreter`] simply owns a private one.
//! * [`Interpreter`] — per-session state: the open transaction buffer,
//!   the last fixity token, the trace flag and accumulated output.
//!
//! `begin` opens a transaction: subsequent `insert`/`delete` lines are
//! buffered and `commit` applies them **atomically** as one
//! [`Changeset`] (all-or-nothing; `rollback` discards the buffer). With
//! or without `begin`, each `commit` is one [`Store::seal`]: WAL append,
//! a new version, and one delta-maintained snapshot swap, however many
//! tuples changed.
//!
//! **Session isolation** ([`Interpreter::session`], used by the TCP
//! server): every mutation buffers in the session until its `commit`,
//! which submits the buffer to the server's
//! [group committer](crate::group::GroupCommitter). Racing commits from
//! different connections coalesce into one merged changeset and one
//! snapshot swap per commit window; a connection that dies mid-
//! transaction takes its buffer with it — nothing leaks into the shared
//! store.
//!
//! Every `cite` runs against the latest committed version and embeds a
//! fixity token; `verify` re-checks the last citation. The store's
//! cached service and plan caches are shared across `cite` commands, so
//! a script (or a long-running `citesys serve` session) that re-cites the
//! same query shape — even at different λ-parameter constants — pays for
//! the rewriting search only once.

use std::fmt;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;

use citesys_core::{
    cite_with_service_spanned, format_citation, verify, AsOf, CitationService, CitationView,
    Coverage, DurableHandle, EngineOptions, FixityToken, Store, StoreError,
};
use citesys_ingest::{
    append_audit, manifest_path, verify_sources, AuditRecord, CsvReader, DatasetEntry,
    DatasetManifest, HashCountRead, IngestConfig, JsonlReader, SourceFile, VerifyIssue, AUDIT_FILE,
};
use citesys_obs::{SpanSet, SpanTimer};
use citesys_storage::{
    digest_database, to_csv, Changeset, CheckpointData, Digest, RelationSchema, StorageError, Tuple,
};
use parking_lot::Mutex;

use crate::group::{CommitAck, GroupCommitHandle};
use crate::obs::{slow_cite_line, StoreObs};
use crate::protocol::{self, CiteSpec, Command, ViewSpec};

/// What went wrong, at the granularity the CLI's exit codes report.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScriptErrorKind {
    /// The script itself is malformed (unknown command, bad syntax).
    Parse,
    /// The script is well-formed but a data/citation operation failed.
    Citation,
    /// The command mutates state but this store is a read-only replica
    /// (`serve --follow`); the message names the primary to write to.
    Readonly,
}

/// A script-level error, tagged with its 1-based line number and kind.
#[derive(Debug)]
pub struct ScriptError {
    /// Line the error occurred on.
    pub line: usize,
    /// Parse vs citation/runtime failure (drives the CLI exit code).
    pub kind: ScriptErrorKind,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScriptError {}

/// Internal command-level error: a kind plus a message.
pub(crate) type CmdError = (ScriptErrorKind, String);

pub(crate) fn parse_err(message: impl Into<String>) -> CmdError {
    (ScriptErrorKind::Parse, message.into())
}

pub(crate) fn cite_err(message: impl Into<String>) -> CmdError {
    (ScriptErrorKind::Citation, message.into())
}

pub(crate) fn readonly_err(message: impl Into<String>) -> CmdError {
    (ScriptErrorKind::Readonly, message.into())
}

// ---------------------------------------------------------------------------
// Shared store
// ---------------------------------------------------------------------------

/// Maps a [`Store`] refusal onto the command error kinds: out-of-order
/// commands are parse errors (exit 3), everything else a citation error.
pub(crate) fn store_err(e: StoreError) -> CmdError {
    match e {
        StoreError::Usage(m) => parse_err(m),
        StoreError::Failed(m) => cite_err(m),
    }
}

/// A [`Store`] shared by many sessions, plus what only a server has:
/// the registry-backed instruments ([`StoreObs`]), the slow-cite
/// threshold and the replication telemetry (follow state, per-feed
/// shipped counts).
///
/// A solo [`Interpreter`] owns a private one; the TCP server puts one
/// behind an `Arc<Mutex<…>>` and hands clones of the `Arc` to every
/// connection session, the group committer and the replication runtime.
pub struct SharedStore {
    store: Store,
    /// Registry-backed instruments: the `stats` counters' single source
    /// of truth plus the latency histograms and the scrape registry.
    obs: StoreObs,
    /// Slow-cite threshold (`serve --slow-cite-ms <n>`): cites at or
    /// over `n` milliseconds end-to-end log one `slow-cite` line to
    /// stderr with their per-stage span breakdown. `None` disables.
    slow_cite_ms: Option<u64>,
    /// Follower role (`serve --follow`): the primary's address plus
    /// stream progress. `None` on a primary / standalone store.
    follow: Option<FollowState>,
    /// Per-feed shipped counters (primary side), keyed by peer address.
    replicas: Vec<ReplicaPeer>,
}

/// Follower-side replication progress.
#[derive(Clone, Debug)]
struct FollowState {
    /// Address of the primary this store replicates.
    primary: String,
    /// Highest version the primary has reported (via `wal` or `ping`).
    primary_version: u64,
    /// Whether the feed connection is currently up.
    connected: bool,
}

/// Primary-side per-feed telemetry.
#[derive(Clone, Debug)]
struct ReplicaPeer {
    /// The follower's peer address.
    peer: String,
    /// Records shipped on this feed.
    shipped: u64,
}

impl SharedStore {
    /// Serves `store`.
    pub fn new(store: Store) -> Self {
        SharedStore {
            store,
            obs: StoreObs::new(),
            slow_cite_ms: None,
            follow: None,
            replicas: Vec::new(),
        }
    }

    /// An empty in-memory store, wrapped for sharing across sessions.
    pub fn new_shared() -> Arc<Mutex<SharedStore>> {
        Arc::new(Mutex::new(SharedStore::new(Store::new())))
    }

    /// Opens a **durable** store over a data directory ([`Store::open`]:
    /// checkpoint + WAL replay, views and plans warm), wrapped for
    /// sharing across sessions. A fresh directory starts an empty
    /// durable store.
    pub fn open_durable_shared(dir: impl AsRef<Path>) -> Result<Arc<Mutex<SharedStore>>, String> {
        Self::open_durable_shared_with_retention(dir, 0)
    }

    /// [`open_durable_shared`](Self::open_durable_shared) with a
    /// checkpoint retention policy: each checkpoint archives the
    /// superseded one (plus its WAL segment) as a time-travel anchor,
    /// keeping the newest `retain` so `cite … @ <version>` can reach back
    /// past restarts.
    pub fn open_durable_shared_with_retention(
        dir: impl AsRef<Path>,
        retain: usize,
    ) -> Result<Arc<Mutex<SharedStore>>, String> {
        let handle = DurableHandle::file_with_retention(dir, retain).map_err(|e| e.to_string())?;
        let store = Store::open(handle).map_err(|e| e.to_string())?;
        Ok(Arc::new(Mutex::new(SharedStore::new(store))))
    }

    /// The store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The store, for configuration ([`Store::set_checkpoint_every`]) —
    /// writes that should be counted go through the sessions.
    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// Runs one store write, feeding the durability spans it recorded
    /// (`wal_fsync`, `snapshot_swap`, `checkpoint`) into their
    /// histograms.
    pub(crate) fn write<T>(
        &mut self,
        f: impl FnOnce(&mut Store, &mut SpanSet) -> Result<T, StoreError>,
    ) -> Result<T, CmdError> {
        let mut spans = SpanSet::new(self.obs.timings_enabled());
        let out = f(&mut self.store, &mut spans);
        self.obs.observe_write(&spans);
        out.map_err(store_err)
    }

    /// Seals everything pending as one version ([`Store::seal`]) and
    /// accounts for it: the snapshot swap, the auto-checkpoint and the
    /// commit latency.
    pub(crate) fn seal(&mut self) -> Result<u64, CmdError> {
        let commit = SpanTimer::start(self.obs.timings_enabled());
        let sealed = self.write(|store, spans| store.seal(spans))?;
        if sealed.swapped {
            self.obs.snapshot_swaps.inc();
        }
        self.write(|store, spans| store.checkpoint_if_due(spans))?;
        self.obs
            .commit_seconds
            .observe_micros(commit.elapsed_micros());
        Ok(sealed.version)
    }

    /// Applies one `wal` frame shipped by the primary
    /// ([`Store::apply_replicated`]) and accounts for it like a commit.
    pub(crate) fn apply_replicated(
        &mut self,
        version: u64,
        changes: &Changeset,
    ) -> Result<u64, CmdError> {
        let sealed = self.write(|store, spans| store.apply_replicated(version, changes, spans))?;
        self.obs.commits.inc();
        self.obs.replica_lag_records.dec_sat();
        if sealed.swapped {
            self.obs.snapshot_swaps.inc();
        }
        self.note_primary_version(sealed.version);
        self.write(|store, spans| store.checkpoint_if_due(spans))?;
        Ok(sealed.version)
    }

    /// Installs a `ckpt` frame shipped by the primary
    /// ([`Store::install_checkpoint`]).
    pub(crate) fn install_checkpoint(&mut self, data: &CheckpointData) -> Result<u64, CmdError> {
        let version = self.store.install_checkpoint(data).map_err(store_err)?;
        self.obs.service_builds.inc();
        self.note_primary_version(version);
        Ok(version)
    }

    /// [`Store::service_at`], counting cold builds.
    fn service_at(
        &mut self,
        version: u64,
        options: EngineOptions,
    ) -> Result<CitationService, CmdError> {
        let (service, built) = self.store.service_at(version, options).map_err(store_err)?;
        if built {
            self.obs.service_builds.inc();
        }
        Ok(service)
    }

    /// Marks this store as a read-only replica of `primary`. Sessions
    /// reject every mutating command with a `readonly` error from here
    /// on; only the replication runtime applies changes.
    pub fn set_follow(&mut self, primary: String) {
        self.follow = Some(FollowState {
            primary,
            primary_version: 0,
            connected: false,
        });
    }

    /// The primary's address when this store is a follower.
    pub fn primary_addr(&self) -> Option<&str> {
        self.follow.as_ref().map(|f| f.primary.as_str())
    }

    /// Records the primary's latest version (from a `wal` or `ping`
    /// frame) and recomputes the follower's version lag.
    pub(crate) fn note_primary_version(&mut self, version: u64) {
        let latest = self.store.latest_version();
        if let Some(f) = &mut self.follow {
            f.primary_version = f.primary_version.max(version);
            self.obs
                .replica_lag_versions
                .set(f.primary_version.saturating_sub(latest));
        }
    }

    /// Flips the follower's connected flag; counts a reconnect on each
    /// up→down transition.
    pub(crate) fn set_follow_connected(&mut self, connected: bool) {
        if let Some(f) = &mut self.follow {
            if f.connected && !connected {
                self.obs.replica_reconnects.inc();
            }
            f.connected = connected;
        }
    }

    /// Registers a feed for `peer` (primary side).
    pub(crate) fn register_replica(&mut self, peer: &str) {
        self.replicas.push(ReplicaPeer {
            peer: peer.to_string(),
            shipped: 0,
        });
        self.obs.replicas_connected.set(self.replicas.len() as u64);
    }

    /// Drops `peer`'s feed registration (primary side).
    pub(crate) fn unregister_replica(&mut self, peer: &str) {
        if let Some(i) = self.replicas.iter().position(|r| r.peer == peer) {
            self.replicas.remove(i);
        }
        self.obs.replicas_connected.set(self.replicas.len() as u64);
    }

    /// Accounts `n` records shipped to `peer` (primary side).
    pub(crate) fn note_shipped(&mut self, peer: &str, n: u64) {
        if let Some(r) = self.replicas.iter_mut().find(|r| r.peer == peer) {
            r.shipped += n;
        }
        self.obs.replica_records_shipped.add(n);
    }

    /// `(peer address, records shipped)` for every attached feed.
    pub fn replica_peers(&self) -> Vec<(String, u64)> {
        self.replicas
            .iter()
            .map(|r| (r.peer.clone(), r.shipped))
            .collect()
    }

    /// The store's observability instruments. The group committer, the
    /// transports and the replication runtime record through clones of
    /// this bundle without holding the store lock; embedders use it to
    /// toggle latency timings ([`StoreObs::set_timings_enabled`]).
    pub fn obs(&self) -> &StoreObs {
        &self.obs
    }

    /// Arms the slow-cite log: cites taking `ms` milliseconds or more
    /// end-to-end log one `slow-cite` line to stderr with their
    /// per-stage span breakdown. `None` disables (the default).
    pub fn set_slow_cite_ms(&mut self, ms: Option<u64>) {
        self.slow_cite_ms = ms;
    }

    /// Renders the full metrics registry in Prometheus text exposition
    /// format, first refreshing the scrape-time mirrors whose source of
    /// truth lives outside the registry (plan cache, view cache, WAL
    /// and history gauges).
    pub fn render_metrics(&mut self) -> String {
        let store = &self.store;
        let plans = store.plan_cache_stats();
        self.obs.plan_cache_hits.set(plans.hits);
        self.obs.plan_cache_misses.set(plans.misses);
        self.obs.plan_cache_evictions.set(plans.evictions);
        let views = store.view_cache_stats().unwrap_or_default();
        self.obs.view_materializations.set(views.materializations);
        self.obs.view_deltas_applied.set(views.deltas_applied);
        self.obs.wal_records.set(store.wal_records() as u64);
        self.obs
            .history_base_version
            .set(store.history_base_version());
        self.obs
            .checkpoints_retained
            .set(store.checkpoints_retained() as u64);
        self.obs.latest_version.set(store.latest_version());
        self.obs.render()
    }
}

// ---------------------------------------------------------------------------
// Session control
// ---------------------------------------------------------------------------

/// What an interactive front end should do after a line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SessionControl {
    /// Keep reading lines.
    Continue,
    /// Close this session (`quit`).
    Quit,
    /// Close this session and stop the server (`shutdown`).
    Shutdown,
}

/// One executed session line: its output plus the control outcome.
#[derive(Debug)]
pub struct SessionReply {
    /// Accumulated command output (possibly empty).
    pub output: String,
    /// Whether the front end should keep going.
    pub control: SessionControl,
}

/// The canonical `commit` acknowledgement line for an isolated session.
/// Both commit paths — an in-process session's `cmd_commit` and the
/// network transport's deferred ack — build their output here, so the
/// two stay byte-identical.
pub fn commit_ack_message(ack: &CommitAck) -> String {
    format!(
        "committed version {} ({} op(s), group of {})",
        ack.version, ack.applied, ack.group_size
    )
}

// ---------------------------------------------------------------------------
// The interpreter
// ---------------------------------------------------------------------------

/// The stateful interpreter: per-session state over a (possibly shared)
/// [`SharedStore`].
pub struct Interpreter {
    shared: Arc<Mutex<SharedStore>>,
    /// Clone of the store's instrument bundle, cached at construction
    /// so hot-path recording (the `parse` span) never takes the store
    /// lock.
    obs: StoreObs,
    /// Commit pipeline of the owning server (network sessions); `None`
    /// commits inline under the store lock.
    committer: Option<GroupCommitHandle>,
    /// Network sessions buffer **every** mutation until `commit`, so a
    /// dropped connection can never leak half a transaction into the
    /// shared store.
    isolated: bool,
    /// An open `begin … commit` transaction (or, for isolated sessions,
    /// the implicit buffer of all uncommitted mutations).
    txn: Option<Changeset>,
    /// Whether `txn` was opened by an explicit `begin`.
    explicit_txn: bool,
    last_token: Option<FixityToken>,
    trace_next: bool,
    out: String,
}

impl Default for Interpreter {
    fn default() -> Self {
        Self::new()
    }
}

impl Interpreter {
    /// A fresh solo interpreter with a private store and no schema.
    pub fn new() -> Self {
        Self::with_store(SharedStore::new_shared())
    }

    /// A solo (non-isolated) interpreter over an existing store —
    /// typically one opened with
    /// [`SharedStore::open_durable_shared`]. Mutations apply directly
    /// (buffering only inside `begin…commit`), exactly like
    /// [`new`](Self::new).
    pub fn with_store(shared: Arc<Mutex<SharedStore>>) -> Self {
        let obs = shared.lock().obs().clone();
        Interpreter {
            shared,
            obs,
            committer: None,
            isolated: false,
            txn: None,
            explicit_txn: false,
            last_token: None,
            trace_next: false,
            out: String::new(),
        }
    }

    /// An **isolated session** over a shared store: every mutation
    /// buffers in the session until `commit`, which goes through
    /// `committer` (or inline when `None`). This is what the TCP server
    /// creates per connection.
    pub fn session(shared: Arc<Mutex<SharedStore>>, committer: Option<GroupCommitHandle>) -> Self {
        let obs = shared.lock().obs().clone();
        Interpreter {
            shared,
            obs,
            committer,
            isolated: true,
            txn: None,
            explicit_txn: false,
            last_token: None,
            trace_next: false,
            out: String::new(),
        }
    }

    /// The store this interpreter executes against.
    pub fn shared(&self) -> &Arc<Mutex<SharedStore>> {
        &self.shared
    }

    /// Runs a whole script, returning the accumulated output.
    pub fn run(&mut self, script: &str) -> Result<String, ScriptError> {
        for (i, raw) in script.lines().enumerate() {
            self.run_numbered_line(i + 1, raw)?;
        }
        Ok(std::mem::take(&mut self.out))
    }

    /// Runs a single script line, returning the output it produced.
    /// State persists across calls. Session-control commands (`quit`,
    /// `shutdown`) are errors here — interactive front ends use
    /// [`run_session_line`](Self::run_session_line) instead.
    pub fn run_line(&mut self, raw: &str) -> Result<String, ScriptError> {
        self.run_numbered_line(1, raw)?;
        Ok(std::mem::take(&mut self.out))
    }

    /// Runs one line for an interactive front end: like
    /// [`run_line`](Self::run_line), but `quit`/`shutdown` come back as
    /// [`SessionControl`] outcomes instead of executing (or erroring).
    pub fn run_session_line(&mut self, raw: &str) -> Result<SessionReply, ScriptError> {
        let parse = SpanTimer::start(self.obs.timings_enabled());
        let cmd = protocol::parse_command(raw).map_err(|e| ScriptError {
            line: 1,
            kind: ScriptErrorKind::Parse,
            message: e.message,
        })?;
        self.obs.observe_stage("parse", parse.elapsed_micros());
        self.run_session_command(cmd.as_ref())
    }

    /// [`run_session_line`](Self::run_session_line) over an
    /// already-parsed command (`None` for a blank or comment-only
    /// line). Front ends that parse lines themselves — the event-driven
    /// transport splits request tags and inspects the command to
    /// schedule it — use this to avoid a second parse.
    pub fn run_session_command(
        &mut self,
        cmd: Option<&Command>,
    ) -> Result<SessionReply, ScriptError> {
        let control = match cmd {
            Some(Command::Quit) => SessionControl::Quit,
            Some(Command::Shutdown) => SessionControl::Shutdown,
            Some(cmd) => {
                self.exec(cmd).map_err(|(kind, message)| ScriptError {
                    line: 1,
                    kind,
                    message,
                })?;
                SessionControl::Continue
            }
            None => SessionControl::Continue,
        };
        Ok(SessionReply {
            output: std::mem::take(&mut self.out),
            control,
        })
    }

    /// Begins an **asynchronous** commit for an isolated session: runs
    /// the same admission checks as `commit` (read-only replicas are
    /// rejected) and hands back the buffered transaction for the caller
    /// to submit via [`GroupCommitHandle::submit`]. The event-driven
    /// transport uses this so a worker never blocks on a commit window;
    /// the acknowledgement text is rebuilt with [`commit_ack_message`].
    pub fn take_commit_changes(&mut self) -> Result<Changeset, ScriptError> {
        debug_assert!(self.isolated, "async commits are a session-only path");
        self.reject_if_follower("commit")
            .map_err(|(kind, message)| ScriptError {
                line: 1,
                kind,
                message,
            })?;
        self.explicit_txn = false;
        Ok(self.txn.take().unwrap_or_default())
    }

    fn run_numbered_line(&mut self, line_no: usize, raw: &str) -> Result<(), ScriptError> {
        let parse = SpanTimer::start(self.obs.timings_enabled());
        let cmd = protocol::parse_command(raw).map_err(|e| ScriptError {
            line: line_no,
            kind: ScriptErrorKind::Parse,
            message: e.message,
        })?;
        self.obs.observe_stage("parse", parse.elapsed_micros());
        let Some(cmd) = cmd else {
            return Ok(());
        };
        self.exec(&cmd).map_err(|(kind, message)| ScriptError {
            line: line_no,
            kind,
            message,
        })
    }

    fn say(&mut self, s: impl AsRef<str>) {
        self.out.push_str(s.as_ref());
        self.out.push('\n');
    }

    /// Rejects mutating commands on a read-only replica, naming the
    /// primary to write to. Reads (`cite`, `verify`, `tables`, `dump`,
    /// `stats`, `trace`) and local operations (`checkpoint`) pass.
    fn reject_if_follower(&self, what: &str) -> Result<(), CmdError> {
        if let Some(primary) = self.shared.lock().primary_addr() {
            return Err(readonly_err(format!(
                "read-only replica of {primary}: '{what}' must run on the primary"
            )));
        }
        Ok(())
    }

    fn exec(&mut self, cmd: &Command) -> Result<(), CmdError> {
        let mutating = match cmd {
            Command::Schema(_) => Some("schema"),
            Command::Insert { .. } => Some("insert"),
            Command::Delete { .. } => Some("delete"),
            Command::View(_) => Some("view"),
            Command::Begin => Some("begin"),
            Command::Rollback => Some("rollback"),
            Command::Commit => Some("commit"),
            Command::Load { .. } => Some("load"),
            Command::Ingest { .. } => Some("ingest"),
            _ => None,
        };
        if let Some(what) = mutating {
            self.reject_if_follower(what)?;
        }
        match cmd {
            Command::Schema(schema) => self.cmd_schema(schema.clone()),
            Command::Insert { rel, tuple } => self.cmd_write(true, rel, tuple.clone()),
            Command::Delete { rel, tuple } => self.cmd_write(false, rel, tuple.clone()),
            Command::View(spec) => self.cmd_view(spec),
            Command::Begin => self.cmd_begin(),
            Command::Rollback => self.cmd_rollback(),
            Command::Commit => self.cmd_commit(),
            Command::Cite(spec) => self.cmd_cite(spec),
            Command::Verify => self.cmd_verify(),
            Command::Tables => self.cmd_tables(),
            Command::Dump { rel } => self.cmd_dump(rel),
            Command::Load { rel, path, key } => self.cmd_load(rel, path, key.as_deref()),
            Command::Ingest {
                dir,
                dataset,
                manifest,
                batch,
            } => self.cmd_ingest(dir, dataset.as_deref(), manifest.as_deref(), *batch),
            Command::Datasets => self.cmd_datasets(),
            Command::DatasetVerify { manifest } => self.cmd_dataset_verify(manifest.as_deref()),
            Command::Trace => {
                // `trace` arms a derivation trace for the next `cite`.
                self.trace_next = true;
                Ok(())
            }
            Command::Stats => self.cmd_stats(),
            Command::Metrics => self.cmd_metrics(),
            Command::Snapshot { version } => self.cmd_snapshot(*version),
            Command::Compact { window } => self.cmd_compact(*window),
            Command::Checkpoint => self.cmd_checkpoint(),
            Command::Quit | Command::Shutdown => Err(parse_err(
                "session command: only available in an interactive or network session",
            )),
        }
    }

    fn cmd_schema(&mut self, schema: RelationSchema) -> Result<(), CmdError> {
        let said = format!("schema {} ({} attributes)", schema.name, schema.arity());
        self.shared
            .lock()
            .write(|store, spans| store.declare_relation(schema, spans))?;
        self.say(said);
        Ok(())
    }

    /// `insert` / `delete`: buffered in a session or an open transaction
    /// (validated and applied atomically at `commit`), otherwise applied
    /// to the working state at once and sealed by the next `commit`.
    fn cmd_write(&mut self, insert: bool, rel: &str, tuple: Tuple) -> Result<(), CmdError> {
        if self.isolated || self.txn.is_some() {
            let txn = self.txn.get_or_insert_with(Changeset::new);
            if insert {
                txn.insert(rel, tuple);
            } else {
                txn.delete(rel, tuple);
            }
            return Ok(());
        }
        let changed = {
            let mut sh = self.shared.lock();
            let db = sh.store.database_mut().map_err(store_err)?;
            match insert {
                true => db.insert(rel, tuple),
                false => db.delete(rel, &tuple),
            }
            .map_err(|e| cite_err(e.to_string()))?
        };
        if !changed {
            self.say(if insert {
                "(duplicate ignored)"
            } else {
                "(no such tuple)"
            });
        }
        Ok(())
    }

    /// Opens a transaction: subsequent insert/delete lines buffer into
    /// one changeset until `commit` (atomic) or `rollback` (discard).
    fn cmd_begin(&mut self) -> Result<(), CmdError> {
        if self.txn.is_some() {
            return Err(cite_err(
                "transaction already open: run 'commit' or 'rollback' first",
            ));
        }
        self.txn = Some(Changeset::new());
        self.explicit_txn = true;
        self.say("transaction open");
        Ok(())
    }

    /// Discards an open transaction's buffered ops.
    fn cmd_rollback(&mut self) -> Result<(), CmdError> {
        self.explicit_txn = false;
        match self.txn.take() {
            Some(changes) => {
                self.say(format!("rolled back {} buffered op(s)", changes.len()));
                Ok(())
            }
            None => Err(cite_err("no open transaction")),
        }
    }

    fn cmd_view(&mut self, spec: &ViewSpec) -> Result<(), CmdError> {
        let name = spec.view.name().to_string();
        let cv = CitationView::new(spec.view.clone(), spec.cites.clone(), spec.function.clone())
            .map_err(|e| cite_err(e.to_string()))?;
        self.shared
            .lock()
            .write(|store, spans| store.register_view(cv, spans))?;
        self.say(format!("view {name} registered"));
        Ok(())
    }

    fn cmd_commit(&mut self) -> Result<(), CmdError> {
        let txn = self.txn.take();
        self.explicit_txn = false;
        if self.isolated {
            let ack = self.commit_changes(txn.unwrap_or_default())?;
            self.say(commit_ack_message(&ack));
            return Ok(());
        }
        // Solo path: apply the buffered transaction (if any) atomically,
        // then seal EVERYTHING pending — including non-transactional ops
        // applied before any `begin` — as one version.
        let txn_ops = txn.as_ref().map(Changeset::len);
        let v = {
            let mut sh = self.shared.lock();
            if let Some(changes) = txn {
                sh.store.apply(&changes).map_err(store_err)?;
            }
            let v = sh.seal()?;
            sh.obs.commits.inc();
            v
        };
        match txn_ops {
            Some(n) => self.say(format!(
                "committed version {v} ({n} op(s) in one transaction)"
            )),
            None => self.say(format!("committed version {v}")),
        }
        Ok(())
    }

    fn cmd_cite(&mut self, spec: &CiteSpec) -> Result<(), CmdError> {
        if self.txn.is_some() {
            return Err(cite_err(if self.explicit_txn {
                "transaction open: run 'commit' (or 'rollback') before 'cite'"
            } else {
                "uncommitted changes: run 'commit' before 'cite'"
            }));
        }
        let mut sh = self.shared.lock();
        let slow_ms = sh.slow_cite_ms;
        // Spans are collected when histogram timings are on OR the
        // slow-cite log is armed; with both off the tracing cost is a
        // branch per stage (no clock reads).
        let timed = self.obs.timings_enabled() || slow_ms.is_some();
        let total = SpanTimer::start(timed);
        let latest = sh.store.committed_version().map_err(store_err)?;
        // The service that answers: the live one; for `@ <version>`
        // still in the in-memory op log, the live service's as-of cache
        // (kept apart from the warm live caches); for a version compacted
        // from memory but covered by a retained durable anchor, a cold
        // service rebuilt from the anchor checkpoint plus its WAL
        // segment, under the registry that governed that version.
        let (service, version, as_of_snapshot) = match spec.as_of {
            None => (sh.service_at(latest, spec.options)?, latest, None),
            Some(version) => match sh.store.as_of(version).map_err(store_err)? {
                AsOf::Memory(snapshot) => (
                    sh.service_at(latest, spec.options)?,
                    version,
                    Some(snapshot),
                ),
                AsOf::Anchor(snapshot, registry) => {
                    let service = CitationService::builder()
                        .database(snapshot)
                        .registry(registry)
                        .options(spec.options)
                        .build()
                        .map_err(|e| cite_err(e.to_string()))?;
                    (service, version, None)
                }
                AsOf::Compacted { oldest } => return Err(compacted(version, oldest)),
            },
        };
        drop(sh);
        let service = match as_of_snapshot {
            Some(snapshot) => service
                .as_of_service(version, &snapshot, spec.options)
                .map_err(|e| cite_err(e.to_string()))?,
            None => service,
        };
        let mut spans = SpanSet::new(timed);
        // The expensive part — rewriting search (on a plan-cache miss),
        // evaluation and annotation — runs on the service clone OUTSIDE
        // the store lock, so concurrent sessions cite in parallel.
        let (cited, token) = cite_with_service_spanned(&service, version, &spec.query, &mut spans)
            .map_err(|e| cite_err(e.to_string()))?;
        self.obs
            .cite_unmatched_tuples
            .add(cited.unmatched_tuples as u64);
        let render = SpanTimer::start(timed);
        self.report_citation(cited, token, spec.format);
        spans.record_micros("render", render.elapsed_micros());
        let total_us = total.elapsed_micros();
        self.obs.observe_cite(total_us, &spans);
        if let Some(ms) = slow_ms {
            if total_us >= ms.saturating_mul(1000) {
                self.obs.slow_cites.inc();
                eprintln!(
                    "{}",
                    slow_cite_line(total_us, &spans, version, &spec.query.to_string())
                );
            }
        }
        Ok(())
    }

    /// Output of `cite` (live or `@ <version>`): the answer count,
    /// coverage, the formatted citation with its fixity token, an armed
    /// trace, and the token for `verify`. A time-travel cite is
    /// byte-identical to what the live cite printed at that version.
    fn report_citation(
        &mut self,
        cited: citesys_core::CitedAnswer,
        token: FixityToken,
        format: citesys_core::CitationFormat,
    ) {
        self.say(format!(
            "{} answer tuple(s) at version {}",
            cited.answer.len(),
            token.version
        ));
        if let Coverage::Partial { uncited } = cited.coverage {
            self.say(format!("coverage: partial ({uncited} uncited)"));
        }
        if let Some(agg) = &cited.aggregate {
            self.say(format_citation(&agg.snippets, Some(&token), format).trim_end());
        }
        if self.trace_next {
            self.trace_next = false;
            self.say(citesys_core::trace_answer(&cited).trim_end());
        }
        self.last_token = Some(token);
    }

    fn cmd_verify(&mut self) -> Result<(), CmdError> {
        let token = self
            .last_token
            .clone()
            .ok_or_else(|| cite_err("no citation to verify"))?;
        {
            let sh = self.shared.lock();
            let store = sh.store.database().ok_or_else(|| cite_err("no data"))?;
            verify(store, &token).map_err(|e| cite_err(e.to_string()))?;
        }
        self.say(format!(
            "fixity verified: v{} {}",
            token.version, token.digest
        ));
        Ok(())
    }

    fn cmd_tables(&mut self) -> Result<(), CmdError> {
        let lines: Vec<String> = {
            let mut sh = self.shared.lock();
            let store = sh.store.database_mut().map_err(store_err)?;
            store
                .current()
                .relations()
                .map(|(name, rel)| format!("{name}: {} tuples", rel.len()))
                .collect()
        };
        for l in lines {
            self.say(l);
        }
        Ok(())
    }

    fn cmd_dump(&mut self, rel: &str) -> Result<(), CmdError> {
        let csv = {
            let mut sh = self.shared.lock();
            let store = sh.store.database_mut().map_err(store_err)?;
            let rel = store
                .current()
                .relation(rel)
                .map_err(|e| cite_err(e.to_string()))?;
            to_csv(rel)
        };
        self.say(csv.trim_end());
        Ok(())
    }

    // load Family from 'path.csv' key(0) — bulk-loads CSV rows. The
    // header row's name:type columns must match the declared schema; when
    // the relation is not declared yet (and no data command initialized
    // the store), the header declares it — `key(i, …)` picks the key
    // attributes, defaulting to all columns in header order.
    fn cmd_load(&mut self, rel: &str, path: &str, key: Option<&[usize]>) -> Result<(), CmdError> {
        let content = std::fs::read_to_string(path)
            .map_err(|e| cite_err(format!("cannot read {path}: {e}")))?;
        let (header, tuples) =
            citesys_storage::from_csv(rel, &[], &content).map_err(|e| cite_err(e.to_string()))?;
        let arity = header.arity();
        let key: Vec<usize> = match key {
            Some(k) => {
                if let Some(&bad) = k.iter().find(|&&i| i >= arity) {
                    return Err(parse_err(format!(
                        "key position {bad} out of range (header has {arity} column(s))"
                    )));
                }
                k.to_vec()
            }
            // Header-order inference: every column, in order.
            None => (0..arity).collect(),
        };
        let schema = RelationSchema::new(rel, header.attributes, key);
        self.shared
            .lock()
            .write(|store, spans| store.ensure_relation(&schema, spans))?;
        if self.isolated {
            let txn = self.txn.get_or_insert_with(Changeset::new);
            let mut n = 0usize;
            for t in tuples {
                txn.insert(rel, t);
                n += 1;
            }
            self.say(format!(
                "buffered {n} tuple(s) into {rel} (commit to apply)"
            ));
            return Ok(());
        }
        let n = {
            let mut sh = self.shared.lock();
            let store = sh.store.database_mut().map_err(store_err)?;
            let mut n = 0usize;
            for t in tuples {
                if store.insert(rel, t).map_err(|e| cite_err(e.to_string()))? {
                    n += 1;
                }
            }
            n
        };
        self.say(format!("loaded {n} tuple(s) into {rel}"));
        Ok(())
    }

    /// Commits one transaction through the normal write path: the group
    /// committer when this session has one (network sessions), otherwise
    /// the same apply + seal inline under the store lock.
    fn commit_changes(&self, changes: Changeset) -> Result<CommitAck, CmdError> {
        if let Some(handle) = &self.committer {
            return handle.commit(changes).map_err(cite_err);
        }
        let mut sh = self.shared.lock();
        let applied = sh.store.apply(&changes).map_err(store_err)?;
        let version = sh.seal()?;
        sh.obs.commits.inc();
        Ok(CommitAck {
            version,
            applied,
            group_size: 1,
        })
    }

    /// `ingest '<dir>'`: stream every `<Relation>.csv` / `<Relation>.jsonl`
    /// dump under `dir` into the store in changeset-sized batches. Each
    /// batch commits through the normal WAL + delta-maintenance path, so
    /// the load looks like ordinary commits to every layer above — views
    /// stay warm, replicas follow, recovery replays it. The load is then
    /// pinned in the dataset registry (`datasets.lock`) and recorded in
    /// the append-only audit log.
    fn cmd_ingest(
        &mut self,
        dir: &str,
        dataset: Option<&str>,
        manifest: Option<&str>,
        batch: Option<usize>,
    ) -> Result<(), CmdError> {
        if self.txn.is_some() {
            return Err(cite_err(
                "transaction open: run 'commit' (or 'rollback') before 'ingest'",
            ));
        }
        let dir_path = Path::new(dir);
        let files = list_dump_files(dir_path)?;
        if files.is_empty() {
            return Err(cite_err(format!("no .csv or .jsonl dumps in {dir}")));
        }
        let cfg = IngestConfig {
            batch_size: batch.unwrap_or_else(|| IngestConfig::default().batch_size),
        };
        let dataset_name = dataset.map(str::to_string).unwrap_or_else(|| {
            dir_path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "dataset".to_string())
        });
        // Pre-pass: admit every header before any data moves — a schema
        // mismatch on the sixth file must not leave the first five
        // committed. Declaring relations here also folds all DDL into
        // one checkpoint instead of one per file.
        for f in &files {
            let r = DumpReader::open(&dir_path.join(&f.file), &f.relation, f.jsonl, &cfg)?;
            self.shared
                .lock()
                .write(|store, spans| store.ensure_relation(r.schema(), spans))?;
        }
        let mut first_version = 0u64;
        let mut last_version = 0u64;
        let mut sources = Vec::new();
        let mut total = 0u64;
        for f in &files {
            let mut reader = DumpReader::open(&dir_path.join(&f.file), &f.relation, f.jsonl, &cfg)?;
            loop {
                let timer = SpanTimer::start(self.obs.timings_enabled());
                let Some(batch) = reader.next_batch()? else {
                    break;
                };
                let n = batch.len() as u64;
                let mut changes = Changeset::new();
                for t in batch {
                    changes.insert(&f.relation, t);
                }
                let version = self.commit_changes(changes)?.version;
                if first_version == 0 {
                    first_version = version;
                }
                last_version = version;
                self.obs.ingest_records.add(n);
                self.obs.ingest_batches.inc();
                self.obs
                    .ingest_batch_seconds
                    .observe_micros(timer.elapsed_micros());
            }
            let (records, batches) = (reader.records(), reader.batches());
            let (sha256, bytes) = reader.finish()?;
            total += records;
            self.say(format!(
                "  {}: {} record(s) into {} ({} batch(es))",
                f.file, records, f.relation, batches
            ));
            sources.push(SourceFile {
                file: f.file.clone(),
                relation: f.relation.clone(),
                sha256,
                bytes,
                records,
            });
        }
        let fixity = {
            let mut sh = self.shared.lock();
            let store = sh.store.database_mut().map_err(store_err)?;
            if last_version == 0 {
                // All dump files were empty: pin against the store's
                // current version.
                last_version = store.latest_version();
                first_version = last_version;
            }
            store
                .digest_at(last_version)
                .map_err(|e| cite_err(e.to_string()))?
        };
        self.say(format!(
            "ingested {total} record(s) from {} file(s) as dataset {dataset_name} \
             (versions {first_version}..{last_version})",
            files.len()
        ));
        let Some(path) = manifest_path(self.shared.lock().store.data_dir(), manifest) else {
            self.say(
                "no manifest written (in-memory store: pass manifest '<path>' or serve --data-dir)",
            );
            return Ok(());
        };
        let mut m = DatasetManifest::load(&path)
            .map_err(|e| cite_err(e.to_string()))?
            .unwrap_or_default();
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let by = std::env::var("USER").unwrap_or_else(|_| "local".to_string());
        let recorded_dir = dir_path
            .canonicalize()
            .unwrap_or_else(|_| dir_path.to_path_buf());
        m.register(DatasetEntry {
            name: dataset_name.clone(),
            dir: recorded_dir.display().to_string(),
            loaded_by: by.clone(),
            loaded_at: now,
            first_version,
            last_version,
            fixity,
            sources,
        });
        m.write_atomic(&path).map_err(|e| cite_err(e.to_string()))?;
        let audit_path = path
            .parent()
            .unwrap_or_else(|| Path::new("."))
            .join(AUDIT_FILE);
        append_audit(
            &audit_path,
            &AuditRecord {
                at: now,
                by,
                dataset: dataset_name,
                files: files.len() as u64,
                records: total,
                first_version,
                last_version,
            },
        )
        .map_err(|e| cite_err(e.to_string()))?;
        self.say(format!(
            "manifest {} (fixity sha256:{})",
            path.display(),
            fixity.to_hex()
        ));
        Ok(())
    }

    /// `datasets`: list the loads registered in the store's manifest.
    fn cmd_datasets(&mut self) -> Result<(), CmdError> {
        let Some(path) = manifest_path(self.shared.lock().store.data_dir(), None) else {
            return Err(cite_err(
                "no durable data directory (datasets are registered in <data-dir>/datasets.lock)",
            ));
        };
        let m = DatasetManifest::load(&path).map_err(|e| cite_err(e.to_string()))?;
        let Some(m) = m.filter(|m| !m.datasets.is_empty()) else {
            self.say("no datasets registered");
            return Ok(());
        };
        for d in &m.datasets {
            let records: u64 = d.sources.iter().map(|s| s.records).sum();
            self.say(format!(
                "dataset {}: {} file(s), {} record(s), versions {}..{}, fixity sha256:{}",
                d.name,
                d.sources.len(),
                records,
                d.first_version,
                d.last_version,
                d.fixity.to_hex(),
            ));
        }
        Ok(())
    }

    /// `dataset verify`: re-hash every pinned source file in a
    /// streaming pass (tamper check) and re-digest the store at each
    /// load's recorded last version (fixity-drift check; versions
    /// compacted from memory are reached through a retained durable
    /// anchor when one covers them). Any issue is a citation-kind error
    /// naming every failure.
    fn cmd_dataset_verify(&mut self, manifest: Option<&str>) -> Result<(), CmdError> {
        let Some(path) = manifest_path(self.shared.lock().store.data_dir(), manifest) else {
            return Err(parse_err(
                "no durable data directory: pass dataset verify '<manifest>'",
            ));
        };
        let m = DatasetManifest::load(&path)
            .map_err(|e| cite_err(e.to_string()))?
            .ok_or_else(|| parse_err(format!("no manifest at {}", path.display())))?;
        let mut issues = verify_sources(&m, None).map_err(|e| cite_err(e.to_string()))?;
        let mut notes = Vec::new();
        {
            let mut sh = self.shared.lock();
            for d in &m.datasets {
                let got = match sh.store.as_of(d.last_version).map_err(store_err)? {
                    AsOf::Memory(snapshot) | AsOf::Anchor(snapshot, _) => {
                        Some(digest_database(&snapshot))
                    }
                    AsOf::Compacted { .. } => {
                        notes.push(format!(
                            "dataset {}: fixity unverifiable (version {} compacted)",
                            d.name, d.last_version
                        ));
                        None
                    }
                };
                if let Some(got) = got {
                    if got != d.fixity {
                        issues.push(VerifyIssue::FixityDrift {
                            dataset: d.name.clone(),
                            expected: d.fixity,
                            got,
                        });
                    }
                }
            }
        }
        for n in notes {
            self.say(n);
        }
        if issues.is_empty() {
            let sources: usize = m.datasets.iter().map(|d| d.sources.len()).sum();
            self.say(format!(
                "datasets verified: {} dataset(s), {} source file(s) ok",
                m.datasets.len(),
                sources
            ));
            return Ok(());
        }
        let msgs: Vec<String> = issues.iter().map(VerifyIssue::to_string).collect();
        Err(cite_err(format!(
            "dataset verification failed: {}",
            msgs.join("; ")
        )))
    }

    /// `snapshot [@] <version>`: prints the fixity digest of the
    /// database as of a committed version (latest when omitted), so a
    /// citation's `@ version` claim can be verified out of band.
    /// Versions compacted from memory are digested from their durable
    /// anchor when one covers them.
    fn cmd_snapshot(&mut self, version: Option<u64>) -> Result<(), CmdError> {
        let (version, snapshot) = {
            let mut sh = self.shared.lock();
            let v = match version {
                Some(v) => v,
                None => sh.store.database_mut().map_err(store_err)?.latest_version(),
            };
            match sh.store.as_of(v).map_err(store_err)? {
                AsOf::Memory(snapshot) | AsOf::Anchor(snapshot, _) => (v, snapshot),
                AsOf::Compacted { oldest } => return Err(compacted(v, oldest)),
            }
        };
        let digest = digest_database(&snapshot);
        self.say(format!("snapshot v{version} sha256:{digest}"));
        Ok(())
    }

    /// `compact [<window>]`: checkpoint, then trim queryable history to
    /// the newest `window` versions (0 when omitted: only the latest
    /// stays queryable). In-window versions keep serving `@ version`
    /// reads; older ones return the compacted-history error.
    fn cmd_compact(&mut self, window: Option<u64>) -> Result<(), CmdError> {
        if self.txn.is_some() {
            return Err(cite_err(
                "transaction open: run 'commit' (or 'rollback') before 'compact'",
            ));
        }
        let window = window.unwrap_or(0);
        let (floor, pruned) = self
            .shared
            .lock()
            .write(|store, spans| store.compact(window, spans))?;
        self.say(format!(
            "compacted to version {floor} ({pruned} anchor(s) pruned)"
        ));
        Ok(())
    }

    /// `checkpoint`: snapshot the durable store and reset the WAL.
    /// Requires a durable backend (`serve --data-dir`) and no open
    /// transaction in this session.
    fn cmd_checkpoint(&mut self) -> Result<(), CmdError> {
        if self.txn.is_some() {
            return Err(cite_err(
                "transaction open: run 'commit' (or 'rollback') before 'checkpoint'",
            ));
        }
        let version = self
            .shared
            .lock()
            .write(|store, spans| store.write_checkpoint(spans))?;
        self.say(format!("checkpoint at version {version}"));
        Ok(())
    }

    /// `stats`: the write-path and replication counters straight from
    /// the [`StoreObs`] instruments (the atomics `metrics` renders, so
    /// the two cannot disagree) plus the strict plan cache's hit/miss
    /// counters and the cached service's view warmth, one `name value`
    /// pair per line, **sorted by name** so the output is deterministic
    /// (the per-replica `replica[<peer>]` lines sort with everything
    /// else).
    fn cmd_stats(&mut self) -> Result<(), CmdError> {
        let (plans, views, wal, base, retained, primary, peers) = {
            let sh = self.shared.lock();
            (
                sh.store.plan_cache_stats(),
                sh.store.view_cache_stats().unwrap_or_default(),
                sh.store.wal_records(),
                sh.store.history_base_version(),
                sh.store.checkpoints_retained(),
                sh.primary_addr().map(str::to_string),
                sh.replica_peers(),
            )
        };
        let obs = &self.obs;
        let mut lines = vec![
            format!("commits {}", obs.commits.get()),
            format!("snapshot_swaps {}", obs.snapshot_swaps.get()),
            format!("group_windows {}", obs.group_windows.get()),
            format!("largest_group {}", obs.largest_group.get()),
            format!("service_builds {}", obs.service_builds.get()),
            format!("disconnects_idle {}", obs.disconnects_idle.get()),
            format!("disconnects_oversized {}", obs.disconnects_oversized.get()),
            format!("plan_cache_hits {}", plans.hits),
            format!("plan_cache_misses {}", plans.misses),
            format!("view_materializations {}", views.materializations),
            format!("view_deltas_applied {}", views.deltas_applied),
            format!("wal_records {wal}"),
            format!("history_base_version {base}"),
            format!("checkpoints_retained {retained}"),
            format!("replicas_connected {}", obs.replicas_connected.get()),
            format!(
                "replica_records_shipped {}",
                obs.replica_records_shipped.get()
            ),
            format!("replica_lag_versions {}", obs.replica_lag_versions.get()),
            format!("replica_lag_records {}", obs.replica_lag_records.get()),
            format!("replica_reconnects {}", obs.replica_reconnects.get()),
        ];
        if let Some(primary) = primary {
            lines.push(format!("following {primary}"));
        }
        for (peer, shipped) in peers {
            lines.push(format!("replica[{peer}] {shipped}"));
        }
        lines.sort();
        for l in lines {
            self.say(l);
        }
        Ok(())
    }

    /// `metrics`: the full registry in Prometheus text exposition
    /// format — the same payload `serve --metrics` serves over HTTP.
    fn cmd_metrics(&mut self) -> Result<(), CmdError> {
        let text = self.shared.lock().render_metrics();
        self.say(text.trim_end());
        Ok(())
    }
}

/// The compacted-history error, naming the oldest version that still
/// serves — after a restart the in-memory log starts at the last
/// checkpoint, but retained anchors can reach further back.
fn compacted(version: u64, oldest: u64) -> CmdError {
    cite_err(StorageError::CompactedVersion { version, oldest }.to_string())
}

/// One ingestible dump file discovered under an `ingest` directory.
struct DumpFile {
    /// File name relative to the ingest directory.
    file: String,
    /// Target relation — the file stem.
    relation: String,
    /// `true` for `.jsonl`, `false` for `.csv`.
    jsonl: bool,
}

/// Lists the `.csv` / `.jsonl` dumps directly under `dir`, sorted by
/// file name so a load is deterministic regardless of directory order.
fn list_dump_files(dir: &Path) -> Result<Vec<DumpFile>, CmdError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| cite_err(format!("cannot read {}: {e}", dir.display())))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| cite_err(format!("cannot read {}: {e}", dir.display())))?;
        if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        let (relation, jsonl) = if let Some(stem) = name.strip_suffix(".csv") {
            (stem.to_string(), false)
        } else if let Some(stem) = name.strip_suffix(".jsonl") {
            (stem.to_string(), true)
        } else {
            continue;
        };
        files.push(DumpFile {
            file: name,
            relation,
            jsonl,
        });
    }
    files.sort_by(|a, b| a.file.cmp(&b.file));
    Ok(files)
}

/// Format-dispatching wrapper over the two streaming dump readers, so
/// `cmd_ingest` drives CSV and JSONL dumps through one loop.
enum DumpReader {
    Csv(CsvReader<BufReader<HashCountRead<File>>>),
    Jsonl(JsonlReader<BufReader<HashCountRead<File>>>),
}

impl DumpReader {
    fn open(
        path: &Path,
        relation: &str,
        jsonl: bool,
        cfg: &IngestConfig,
    ) -> Result<Self, CmdError> {
        if jsonl {
            JsonlReader::open_path(path, relation, None, cfg)
                .map(DumpReader::Jsonl)
                .map_err(|e| cite_err(e.to_string()))
        } else {
            CsvReader::open_path(path, relation, None, cfg)
                .map(DumpReader::Csv)
                .map_err(|e| cite_err(e.to_string()))
        }
    }

    fn schema(&self) -> &RelationSchema {
        match self {
            DumpReader::Csv(r) => r.schema(),
            DumpReader::Jsonl(r) => r.schema(),
        }
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Tuple>>, CmdError> {
        match self {
            DumpReader::Csv(r) => r.next_batch(),
            DumpReader::Jsonl(r) => r.next_batch(),
        }
        .map_err(|e| cite_err(e.to_string()))
    }

    fn records(&self) -> u64 {
        match self {
            DumpReader::Csv(r) => r.records(),
            DumpReader::Jsonl(r) => r.records(),
        }
    }

    fn batches(&self) -> u64 {
        match self {
            DumpReader::Csv(r) => r.batches(),
            DumpReader::Jsonl(r) => r.batches(),
        }
    }

    fn finish(self) -> Result<(Digest, u64), CmdError> {
        match self {
            DumpReader::Csv(r) => r.finish(),
            DumpReader::Jsonl(r) => r.finish(),
        }
        .map_err(|e| cite_err(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citesys_core::{PlanCacheStats, ViewCacheStats};
    use citesys_storage::{DurableStore, FailingAppends, MemStore};

    fn view_stats(interp: &Interpreter) -> Option<ViewCacheStats> {
        interp.shared().lock().store().view_cache_stats()
    }

    fn plan_stats(interp: &Interpreter) -> PlanCacheStats {
        interp.shared().lock().store().plan_cache_stats()
    }

    const PAPER_SCRIPT: &str = r#"
# the paper's worked example
schema Family(FID:int, FName:text, Desc:text) key(0)
schema Committee(FID:int, PName:text) key(0, 1)
schema FamilyIntro(FID:int, Text:text) key(0)
insert Family(11, 'Calcitonin', 'C1')
insert Family(12, 'Calcitonin', 'C2')
insert Family(13, 'Dopamine', 'D1')
insert FamilyIntro(11, '1st')
insert FamilyIntro(12, '2nd')
insert Committee(11, 'Alice')
insert Committee(11, 'Bob')
insert Committee(12, 'Carol')
view λ FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc) | cite λ FID. CV1(FID, PName) :- Committee(FID, PName) | static database=GtoPdb
view V2(FID, FName, Desc) :- Family(FID, FName, Desc) | cite CV2(D) :- D = 'IUPHAR/BPS Guide to PHARMACOLOGY...'
view V3(FID, Text) :- FamilyIntro(FID, Text) | cite CV3(D) :- D = 'IUPHAR/BPS Guide to PHARMACOLOGY...'
commit
cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)
verify
"#;

    #[test]
    fn paper_script_end_to_end() {
        let mut interp = Interpreter::new();
        let out = interp.run(PAPER_SCRIPT).unwrap();
        assert!(out.contains("schema Family"));
        assert!(out.contains("view V1 registered"));
        assert!(out.contains("committed version 1"));
        assert!(out.contains("1 answer tuple(s) at version 1"));
        assert!(out.contains("IUPHAR/BPS Guide to PHARMACOLOGY..."));
        assert!(out.contains("fixity verified: v1"));
        assert_eq!(interp.shared().lock().store().registry().len(), 3);
    }

    #[test]
    fn cite_options_parse() {
        let mut interp = Interpreter::new();
        let script = format!(
            "{PAPER_SCRIPT}\ncite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text) | format bibtex | mode pruned | policy union\n"
        );
        let out = interp.run(&script).unwrap();
        assert!(out.contains("@misc{"));
    }

    #[test]
    fn partial_clause() {
        let mut interp = Interpreter::new();
        let script = "\
schema Family(FID:int, FName:text) key(0)
schema FamilyIntro(FID:int, Text:text) key(0)
insert Family(1, 'A')
insert Family(2, 'B')
insert FamilyIntro(1, 'i')
view V(FID, N) :- Family(FID, N), FamilyIntro(FID, T) | cite CV(D) :- D = 'db'
commit
cite Q(N) :- Family(F, N) | partial
";
        let out = interp.run(script).unwrap();
        assert!(out.contains("coverage: partial (1 uncited)"), "{out}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let mut interp = Interpreter::new();
        let e = interp.run("schema R(A:int)\nbogus command\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("unknown command"));
    }

    #[test]
    fn uncommitted_cite_rejected() {
        let mut interp = Interpreter::new();
        let script = "\
schema R(A:int)
insert R(1)
view V(A) :- R(A) | cite CV(D) :- D = 'x'
cite Q(A) :- R(A)
";
        let e = interp.run(script).unwrap_err();
        assert!(e.message.contains("uncommitted"));
    }

    #[test]
    fn tables_and_dump() {
        let mut interp = Interpreter::new();
        let out = interp
            .run("schema R(A:int, B:text)\ninsert R(1, 'x, y')\ntables\ndump R\n")
            .unwrap();
        assert!(out.contains("R: 1 tuples"));
        assert!(out.contains("\"A:int\",\"B:text\""));
        assert!(out.contains("1,\"x, y\""));
    }

    #[test]
    fn schema_errors() {
        let mut interp = Interpreter::new();
        assert!(interp.run("schema R(A:float)\n").is_err());
        let mut interp = Interpreter::new();
        assert!(interp.run("schema R(A:int) key(3)\n").is_err());
        let mut interp = Interpreter::new();
        assert!(
            interp
                .run("schema R(A:int)\ninsert R(1)\nschema S(B:int)\n")
                .is_err(),
            "schema after data"
        );
    }

    #[test]
    fn load_from_csv_file() {
        let dir = std::env::temp_dir().join("citesys-script-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.csv");
        std::fs::write(&path, "\"A:int\",\"B:text\"\n1,\"x\"\n2,\"y\"\n").unwrap();
        let mut interp = Interpreter::new();
        let script = format!(
            "schema R(A:int, B:text)\nload R from '{}'\ntables\n",
            path.display()
        );
        let out = interp.run(&script).unwrap();
        assert!(out.contains("loaded 2 tuple(s) into R"));
        assert!(out.contains("R: 2 tuples"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_command_explains_next_cite() {
        let mut interp = Interpreter::new();
        let script = format!(
            "{PAPER_SCRIPT}\ntrace\ncite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)\n"
        );
        let out = interp.run(&script).unwrap();
        assert!(out.contains("tuple (Calcitonin)"), "{out}");
        assert!(out.contains("← chosen by +R"));
        assert!(out.contains("binding 1: CV1(11)·CV3"));
    }

    #[test]
    fn csl_format_clause() {
        let mut interp = Interpreter::new();
        let script = format!(
            "{PAPER_SCRIPT}\ncite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text) | format csl\n"
        );
        let out = interp.run(&script).unwrap();
        assert!(out.contains("\"type\":\"dataset\""));
    }

    #[test]
    fn duplicate_insert_reported() {
        let mut interp = Interpreter::new();
        let out = interp
            .run("schema R(A:int)\ninsert R(1)\ninsert R(1)\n")
            .unwrap();
        assert!(out.contains("(duplicate ignored)"));
    }

    #[test]
    fn delete_works() {
        let mut interp = Interpreter::new();
        let out = interp
            .run("schema R(A:int)\ninsert R(1)\ndelete R(1)\ndelete R(9)\ntables\n")
            .unwrap();
        assert!(out.contains("(no such tuple)"));
        assert!(out.contains("R: 0 tuples"));
    }

    #[test]
    fn hash_inside_quoted_string_is_not_a_comment() {
        let mut interp = Interpreter::new();
        let out = interp
            .run("schema R(A:int, B:text)\ninsert R(1, 'bug #42') # trailing comment\ndump R\n")
            .unwrap();
        assert!(out.contains("bug #42"), "{out}");
    }

    #[test]
    fn error_kinds_distinguish_parse_from_citation() {
        // Unknown command: parse error.
        let e = Interpreter::new().run("bogus\n").unwrap_err();
        assert_eq!(e.kind, ScriptErrorKind::Parse);
        // Malformed query: parse error.
        let e = Interpreter::new()
            .run("schema R(A:int)\ncite Q( :- R\n")
            .unwrap_err();
        assert_eq!(e.kind, ScriptErrorKind::Parse);
        // Well-formed script, uncoverable query: citation error.
        let script = "\
schema R(A:int)
insert R(1)
view V(A) :- R(A) | cite CV(D) :- D = 'x'
commit
cite Q(B) :- S(B)
";
        let e = Interpreter::new().run(script).unwrap_err();
        assert_eq!(e.kind, ScriptErrorKind::Citation);
        // Unknown relation on insert: citation (runtime) error.
        let e = Interpreter::new()
            .run("schema R(A:int)\ninsert S(1)\n")
            .unwrap_err();
        assert_eq!(e.kind, ScriptErrorKind::Citation);
    }

    #[test]
    fn run_line_is_incremental() {
        let mut interp = Interpreter::new();
        assert_eq!(
            interp.run_line("schema R(A:int)").unwrap(),
            "schema R (1 attributes)\n"
        );
        interp.run_line("insert R(1)").unwrap();
        interp
            .run_line("view V(A) :- R(A) | cite CV(D) :- D = 'x'")
            .unwrap();
        interp.run_line("commit").unwrap();
        let out = interp.run_line("cite Q(A) :- R(A)").unwrap();
        assert!(out.contains("1 answer tuple(s) at version 1"), "{out}");
        // Errors do not poison the session.
        assert!(interp.run_line("bogus").is_err());
        let out = interp.run_line("tables").unwrap();
        assert!(out.contains("R: 1 tuples"));
    }

    #[test]
    fn transaction_commits_atomically() {
        let mut interp = Interpreter::new();
        interp.run(PAPER_SCRIPT).unwrap();
        let out = interp
            .run(
                "begin\n\
                 insert Family(14, 'Ghrelin', 'G1')\n\
                 insert FamilyIntro(14, '4th')\n\
                 delete Family(13, 'Dopamine', 'D1')\n\
                 commit\n\
                 tables\n",
            )
            .unwrap();
        assert!(out.contains("transaction open"), "{out}");
        assert!(
            out.contains("committed version 2 (3 op(s) in one transaction)"),
            "{out}"
        );
        assert!(out.contains("Family: 3 tuples"), "{out}");
        assert!(out.contains("FamilyIntro: 3 tuples"), "{out}");
    }

    #[test]
    fn failed_transaction_rolls_back_everything() {
        let mut interp = Interpreter::new();
        interp.run(PAPER_SCRIPT).unwrap();
        // The second op violates Family's key(0): the first op must be
        // rolled back too, and no version committed.
        let e = interp
            .run(
                "begin\n\
                 insert FamilyIntro(13, '3rd')\n\
                 insert Family(11, 'Clash', 'X')\n\
                 commit\n",
            )
            .unwrap_err();
        assert!(e.message.contains("transaction rolled back"), "{e}");
        let out = interp.run("tables\ncommit\n").unwrap();
        assert!(out.contains("FamilyIntro: 2 tuples"), "rolled back: {out}");
        assert!(out.contains("committed version 2"), "v2 still free: {out}");
    }

    #[test]
    fn commit_carries_pre_begin_ops_into_the_maintained_views() {
        // Regression: a commit sealing both non-transactional ops (applied
        // before `begin`) and a transaction buffer must delta-maintain the
        // cached service with ALL of them — staging only the buffer would
        // leave the pre-`begin` tuple out of the materialized views and
        // silently serve wrong answers.
        let mut interp = Interpreter::new();
        interp.run(PAPER_SCRIPT).unwrap(); // cite → service cached at v1
        let warm = view_stats(&interp).unwrap();
        let out = interp
            .run(
                "insert FamilyIntro(13, '3rd')\n\
                 begin\n\
                 insert Family(14, 'Ghrelin', 'G1')\n\
                 insert FamilyIntro(14, '4th')\n\
                 commit\n\
                 cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)\n",
            )
            .unwrap();
        // All three intros visible: the pre-begin Dopamine intro AND the
        // transactional Ghrelin family+intro.
        assert!(out.contains("3 answer tuple(s) at version 2"), "{out}");
        let s = view_stats(&interp).unwrap();
        assert_eq!(
            s.materializations, warm.materializations,
            "carried by delta, not re-materialized: {s:?}"
        );
        assert_eq!(s.drops, 0, "{s:?}");
    }

    #[test]
    fn cite_rejected_inside_open_transaction() {
        let mut interp = Interpreter::new();
        interp.run(PAPER_SCRIPT).unwrap();
        interp.run_line("begin").unwrap();
        interp.run_line("insert FamilyIntro(13, '3rd')").unwrap();
        let e = interp
            .run_line("cite Q(FName) :- Family(FID, FName, Desc)")
            .unwrap_err();
        assert!(e.message.contains("transaction open"), "{e}");
        // Nested begin is rejected; rollback discards the buffer.
        assert!(interp.run_line("begin").is_err());
        let out = interp.run_line("rollback").unwrap();
        assert!(out.contains("rolled back 1 buffered op(s)"), "{out}");
        assert!(interp.run_line("rollback").is_err(), "nothing open");
        // The buffered insert never landed.
        let out = interp.run_line("tables").unwrap();
        assert!(out.contains("FamilyIntro: 2 tuples"), "{out}");
    }

    #[test]
    fn commit_delta_maintains_the_cached_service() {
        let mut interp = Interpreter::new();
        interp.run(PAPER_SCRIPT).unwrap();
        let warm = view_stats(&interp).expect("service built by cite");
        assert!(warm.materializations > 0);
        assert_eq!(warm.drops, 0);
        // A transactional commit: the service is carried by one batch
        // delta (no view re-materialized, no whole-cache drop), and the
        // next cite reuses the cached plan.
        interp
            .run("begin\ninsert FamilyIntro(13, '3rd')\ncommit\n")
            .unwrap();
        let out = interp
            .run_line("cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
            .unwrap();
        assert!(out.contains("2 answer tuple(s) at version 2"), "{out}");
        let s = view_stats(&interp).unwrap();
        assert_eq!(
            s.materializations, warm.materializations,
            "no re-materialization across the commit: {s:?}"
        );
        assert!(s.deltas_applied > 0, "{s:?}");
        assert_eq!(s.drops, 0, "{s:?}");
        let stats = plan_stats(&interp);
        assert!(stats.hits >= 1, "plan survived the commit: {stats:?}");
    }

    #[test]
    fn repeated_cites_reuse_the_plan_cache() {
        let mut interp = Interpreter::new();
        interp.run(PAPER_SCRIPT).unwrap();
        // Same query shape at different λ-constants, repeatedly.
        for fid in [11, 12, 11, 13] {
            interp
                .run_line(&format!(
                    "cite Q(FName) :- Family({fid}, FName, Desc), FamilyIntro({fid}, Text)"
                ))
                .unwrap();
        }
        let stats = plan_stats(&interp);
        assert_eq!(stats.misses, 2, "paper query + the parameterized shape");
        assert!(stats.hits >= 3, "λ-variants must share one plan: {stats:?}");
    }

    #[test]
    fn view_registration_invalidates_plans() {
        let mut interp = Interpreter::new();
        interp
            .run(
                "schema R(A:int)\nschema S(A:int)\ninsert R(1)\ninsert S(1)\n\
                 view VR(A) :- R(A) | cite CVR(D) :- D = 'r'\ncommit\n",
            )
            .unwrap();
        // S is uncoverable; the empty plan gets cached.
        assert!(interp.run_line("cite Q(A) :- S(A)").is_err());
        assert!(interp.run_line("cite Q(A) :- S(A)").is_err());
        // Registering a covering view must clear the cached empty plan.
        interp
            .run_line("view VS(A) :- S(A) | cite CVS(D) :- D = 's'")
            .unwrap();
        let out = interp.run_line("cite Q(A) :- S(A)").unwrap();
        assert!(out.contains("1 answer tuple(s)"), "{out}");
    }

    #[test]
    fn session_lines_expose_control_flow() {
        let mut interp = Interpreter::new();
        let reply = interp.run_session_line("schema R(A:int)").unwrap();
        assert_eq!(reply.control, SessionControl::Continue);
        assert!(reply.output.contains("schema R"));
        let reply = interp.run_session_line("quit").unwrap();
        assert_eq!(reply.control, SessionControl::Quit);
        let reply = interp.run_session_line("shutdown").unwrap();
        assert_eq!(reply.control, SessionControl::Shutdown);
        // In a script file, the session commands are errors.
        assert!(Interpreter::new().run("quit\n").is_err());
    }

    #[test]
    fn stats_command_reports_counters() {
        let mut interp = Interpreter::new();
        interp.run(PAPER_SCRIPT).unwrap();
        let out = interp.run_line("stats").unwrap();
        assert!(out.contains("commits 1"), "{out}");
        assert!(out.contains("plan_cache_misses 1"), "{out}");
        assert!(out.contains("service_builds 1"), "{out}");
    }

    #[test]
    fn isolated_sessions_share_one_store() {
        // Two sessions over one shared store, no committer: writes from
        // one are visible to the other only after its commit.
        let shared = SharedStore::new_shared();
        let mut a = Interpreter::session(Arc::clone(&shared), None);
        let mut b = Interpreter::session(Arc::clone(&shared), None);
        a.run_line("schema R(A:int)").unwrap();
        a.run_line("insert R(1)").unwrap();
        // Buffered in a's session: b sees nothing yet.
        let out = b.run_line("tables").unwrap();
        assert!(out.contains("R: 0 tuples"), "{out}");
        let out = a.run_line("commit").unwrap();
        assert!(
            out.contains("committed version 1 (1 op(s), group of 1)"),
            "{out}"
        );
        let out = b.run_line("tables").unwrap();
        assert!(out.contains("R: 1 tuples"), "{out}");
        // A dropped session takes its uncommitted buffer with it.
        b.run_line("insert R(2)").unwrap();
        drop(b);
        let out = a.run_line("tables").unwrap();
        assert!(out.contains("R: 1 tuples"), "{out}");
    }

    #[test]
    fn isolated_conflict_rolls_back_only_that_transaction() {
        let shared = SharedStore::new_shared();
        let mut a = Interpreter::session(Arc::clone(&shared), None);
        let mut b = Interpreter::session(Arc::clone(&shared), None);
        a.run_line("schema R(A:int, B:text) key(0)").unwrap();
        a.run_line("insert R(1, 'a')").unwrap();
        a.run_line("commit").unwrap();
        // b's transaction violates the key; a's next one is unaffected.
        b.run_line("begin").unwrap();
        b.run_line("insert R(1, 'clash')").unwrap();
        let e = b.run_line("commit").unwrap_err();
        assert!(e.message.contains("transaction rolled back"), "{e}");
        let out = a.run_line("tables").unwrap();
        assert!(out.contains("R: 1 tuples"), "{out}");
    }

    #[test]
    fn failed_wal_append_refuses_the_commit_and_leaks_nothing() {
        let backend = MemStore::new();
        let open = |backend: Box<dyn DurableStore + Send>| {
            let store = Store::open(DurableHandle::new(backend)).unwrap();
            Arc::new(Mutex::new(SharedStore::new(store)))
        };
        Interpreter::with_store(open(Box::new(backend.reopen())))
            .run(PAPER_SCRIPT)
            .unwrap();
        // Restart with a disk that refuses the next append.
        let failing = FailingAppends {
            inner: backend.reopen(),
            failures: 1,
        };
        let mut session = Interpreter::session(open(Box::new(failing)), None);
        let cite = "cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)";
        session.run_line("insert FamilyIntro(13, '3rd')").unwrap();
        let e = session.run_line("commit").unwrap_err();
        assert!(e.message.starts_with("write-ahead log:"), "{e}");
        assert!(e.message.contains("injected"), "{e}");
        // The refused commit left nothing pending: cites serve version 1.
        let out = session.run_line(cite).unwrap();
        assert!(out.contains("1 answer tuple(s) at version 1"), "{out}");
        // The next commit seals its own op only.
        session.run_line("insert Committee(13, 'Eve')").unwrap();
        let out = session.run_line("commit").unwrap();
        assert!(
            out.contains("committed version 2 (1 op(s), group of 1)"),
            "{out}"
        );
        assert!(!session
            .run_line("dump FamilyIntro")
            .unwrap()
            .contains("3rd"));
        let out = session.run_line(cite).unwrap();
        assert!(out.contains("1 answer tuple(s) at version 2"), "{out}");
        // Nor did it reach the backend.
        let mut revived = Interpreter::with_store(open(Box::new(backend.reopen())));
        let dump = revived.run_line("dump FamilyIntro").unwrap();
        assert!(!dump.contains("3rd"), "{dump}");
        assert!(revived.run_line("dump Committee").unwrap().contains("Eve"));
    }
}
