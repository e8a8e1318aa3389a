//! The TCP front end: a hermetic, `std::net`-only server exposing the
//! script command language as a wire protocol.
//!
//! Architecture (see ARCHITECTURE.md §"Network front end"):
//!
//! * **one transport** ([`crate::event`]) — an acceptor thread owns the
//!   listener and hands each connection to the least-loaded of
//!   `workers` event workers, which multiplex their connections over
//!   readiness pollers (pipelining, `@tag` request tags);
//! * **per-connection sessions** — each connection gets an isolated
//!   [`Interpreter::session`](crate::script::Interpreter::session) over
//!   the one shared store: mutations buffer in the session, cites run
//!   on lock-free service clones, and a dropped connection discards its
//!   open transaction;
//! * the **group committer** — every session `commit` goes through one
//!   [`GroupCommitter`] thread that coalesces racing transactions into
//!   one merged changeset and one snapshot swap per commit window;
//! * **one persistence path** — with a `data_dir` the store recovers
//!   checkpoint + WAL at startup (data, registry, warm views and rewrite
//!   plans) and WAL-logs every commit before acking; nothing else is
//!   written to disk.
//!
//! Sessions end on `quit`, EOF, an idle timeout, an oversized line, or
//! server shutdown; the `shutdown` command stops the whole server
//! gracefully (queued responses flush, the committer drains).

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::event::{EventCtx, Transport};
use crate::group::GroupCommitter;
use crate::protocol;
use crate::script::SharedStore;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Event-worker threads; each multiplexes the connections the
    /// acceptor hands it.
    pub workers: usize,
    /// Close a session after this much input silence.
    pub idle_timeout: Duration,
    /// Group-commit coalescing window (`ZERO` = per-transaction
    /// commits).
    pub commit_window: Duration,
    /// Durable data directory: recover checkpoint + WAL at startup,
    /// WAL-log every commit before acking, serve the `checkpoint`
    /// command.
    pub data_dir: Option<std::path::PathBuf>,
    /// Per-line byte cap (requests beyond it are protocol errors).
    pub max_line_bytes: usize,
    /// Follow a primary at this address (`serve --follow`): the server
    /// becomes a **read-only replica** — it bootstraps from the
    /// primary's checkpoint, tails its WAL stream, serves reads from
    /// the replicated snapshots and rejects writes with `err readonly`.
    /// Combine with `data_dir` so shipped records persist locally and a
    /// restart resumes from the local version instead of
    /// re-bootstrapping.
    pub follow: Option<String>,
    /// Connection cap; connections over it are turned away with
    /// `err proto server full…`.
    pub max_connections: usize,
    /// Auto-checkpoint after this many WAL records (`serve
    /// --checkpoint-every <n>`). Requires `data_dir`; `None` disables.
    pub checkpoint_every: Option<u64>,
    /// How many superseded checkpoints to keep as time-travel anchors
    /// (`serve --retain-checkpoints <n>`). Requires `data_dir`; 0 keeps
    /// none (the historical behavior).
    pub retain_checkpoints: usize,
    /// Serve the Prometheus scrape endpoint on this address (`serve
    /// --metrics <addr>`): `GET /metrics` answers with the same text
    /// exposition the `metrics` wire command prints. Enabling the
    /// endpoint also turns latency timings on. `None` disables.
    pub metrics: Option<String>,
    /// Slow-cite log threshold in milliseconds (`serve --slow-cite-ms
    /// <n>`): cites at or over it log one `slow-cite` line to stderr
    /// with their per-stage span breakdown. `None` disables.
    pub slow_cite_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            idle_timeout: Duration::from_secs(300),
            commit_window: Duration::from_millis(2),
            data_dir: None,
            max_line_bytes: protocol::MAX_LINE_BYTES,
            follow: None,
            max_connections: 8192,
            checkpoint_every: None,
            retain_checkpoints: 0,
            metrics: None,
            slow_cite_ms: None,
        }
    }
}

/// A running server. Dropping it (or calling [`stop`](Server::stop))
/// shuts it down and joins every thread.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Mutex<SharedStore>>,
    shutdown: Arc<AtomicBool>,
    transport: Transport,
    committer: Option<GroupCommitter>,
    follower: Option<JoinHandle<()>>,
    feed_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    metrics_addr: Option<SocketAddr>,
    metrics_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving in background threads; returns
    /// immediately. Linux only (the poller shim's sole backend).
    pub fn spawn(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = match &config.data_dir {
            Some(dir) => {
                SharedStore::open_durable_shared_with_retention(dir, config.retain_checkpoints)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            }
            None => SharedStore::new_shared(),
        };
        shared
            .lock()
            .store_mut()
            .set_checkpoint_every(config.checkpoint_every);
        shared.lock().set_slow_cite_ms(config.slow_cite_ms);
        // A scrape endpoint without timings would expose empty
        // histograms, so --metrics implies timings on. (Counters and
        // gauges are always on regardless — `stats` depends on them.)
        if config.metrics.is_some() {
            shared.lock().obs().set_timings_enabled(true);
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        // Every fallible bind happens before the follower starts: an
        // early return below must not leave it streaming into a store
        // nobody serves.
        let (metrics_addr, metrics_thread) = match &config.metrics {
            Some(addr) => {
                let (bound, handle) = crate::obs::spawn_metrics_server(
                    addr,
                    Arc::clone(&shared),
                    Arc::clone(&shutdown),
                )?;
                (Some(bound), Some(handle))
            }
            None => (None, None),
        };
        let committer = GroupCommitter::spawn(Arc::clone(&shared), config.commit_window);
        let follower = match &config.follow {
            Some(primary) => {
                shared.lock().set_follow(primary.clone());
                Some(crate::replication::spawn_follower(
                    Arc::clone(&shared),
                    Arc::clone(&shutdown),
                    primary.clone(),
                ))
            }
            None => None,
        };
        let feed_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let ctx = EventCtx {
            shared: Arc::clone(&shared),
            committer: committer.handle(),
            shutdown: Arc::clone(&shutdown),
            idle_timeout: config.idle_timeout,
            max_line_bytes: config.max_line_bytes,
            max_connections: config.max_connections.max(1),
            feed_threads: Arc::clone(&feed_threads),
            obs: shared.lock().obs().clone(),
        };
        let transport = match crate::event::spawn(listener, config.workers, ctx) {
            Ok(transport) => transport,
            Err(e) => {
                // Unwind the threads already running (no poller backend
                // on this platform, most likely).
                shutdown.store(true, Ordering::SeqCst);
                for t in follower.into_iter().chain(metrics_thread) {
                    let _ = t.join();
                }
                return Err(e);
            }
        };
        Ok(Server {
            addr,
            shared,
            shutdown,
            transport,
            committer: Some(committer),
            follower,
            feed_threads,
            metrics_addr,
            metrics_thread,
        })
    }

    /// The bound scrape-endpoint address when `--metrics` is on.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The bound address (useful with an ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared store (stats inspection, tests).
    pub fn shared(&self) -> &Arc<Mutex<SharedStore>> {
        &self.shared
    }

    /// Connections currently held open by the transport (replication
    /// feeds are counted separately). Leak tests poll this back to zero
    /// after disconnects.
    pub fn open_connections(&self) -> usize {
        self.transport.open_connections()
    }

    /// Blocks until a client issues `shutdown`, then tears down.
    pub fn wait(mut self) {
        self.teardown();
    }

    /// Initiates shutdown and joins every thread.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.teardown();
    }

    /// Joins every thread: the transport's return once the shutdown
    /// flag is set, and the rest follow it.
    fn teardown(&mut self) {
        self.transport.join();
        for f in self.feed_threads.lock().drain(..) {
            let _ = f.join();
        }
        if let Some(f) = self.follower.take() {
            let _ = f.join();
        }
        if let Some(m) = self.metrics_thread.take() {
            let _ = m.join();
        }
        // After the workers: no more commits can arrive.
        self.committer.take();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.committer.is_some() {
            self.shutdown.store(true, Ordering::SeqCst);
            self.teardown();
        }
    }
}
