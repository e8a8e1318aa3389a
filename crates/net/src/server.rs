//! The TCP front end: a hermetic, `std::net`-only server exposing the
//! script command language as a wire protocol.
//!
//! Architecture (see ARCHITECTURE.md §"Network front end"):
//!
//! * a **bounded worker pool** — `workers` threads each accept and serve
//!   one connection at a time on a shared non-blocking listener, so at
//!   most `workers` sessions run concurrently and extra connections wait
//!   in the OS accept backlog (no unbounded thread spawning);
//! * **per-connection sessions** — each connection gets an isolated
//!   [`Interpreter::session`] over the one shared store: mutations buffer
//!   in the session, cites run on lock-free service clones, and a
//!   dropped connection discards its open transaction;
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
//! gracefully (workers finish their current command, the committer
//! drains).

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::group::{GroupCommitHandle, GroupCommitter};
use crate::protocol::{self, LineRead, LineReader, Response, WireErrorKind};
use crate::script::{Interpreter, ScriptErrorKind, SessionControl, SharedStore};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads = maximum concurrent sessions.
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
    /// Use the event-driven transport (`crate::event`): `workers`
    /// becomes a fixed set of readiness-loop threads multiplexing every
    /// connection instead of a one-session-per-thread pool, and the
    /// wire grows pipelining with optional `@tag` request tags. Linux
    /// only (the poller shim's sole backend).
    pub event_loop: bool,
    /// Connection cap for the event-driven transport; connections over
    /// it are turned away with `err proto server full…`. Ignored by the
    /// blocking transport (its cap is `workers`).
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
            event_loop: false,
            max_connections: 8192,
            checkpoint_every: None,
            retain_checkpoints: 0,
            metrics: None,
            slow_cite_ms: None,
        }
    }
}

/// How often a blocked read wakes up to check idle budget and the
/// shutdown flag.
const READ_TICK: Duration = Duration::from_millis(50);

/// A running server. Dropping it (or calling [`stop`](Server::stop))
/// shuts it down and joins every thread.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Mutex<SharedStore>>,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    committer: Option<GroupCommitter>,
    follower: Option<JoinHandle<()>>,
    open_conns: Arc<AtomicUsize>,
    feed_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    metrics_addr: Option<SocketAddr>,
    metrics_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving in background threads; returns
    /// immediately.
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
        let obs = shared.lock().obs().clone();
        let listener = Arc::new(listener);
        let open_conns = Arc::new(AtomicUsize::new(0));
        let feed_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let workers = if config.event_loop {
            let ctx = crate::event::EventCtx {
                shared: Arc::clone(&shared),
                committer: committer.handle(),
                shutdown: Arc::clone(&shutdown),
                idle_timeout: config.idle_timeout,
                max_line_bytes: config.max_line_bytes,
                max_connections: config.max_connections.max(1),
                open_conns: Arc::clone(&open_conns),
                feed_threads: Arc::clone(&feed_threads),
                obs: obs.clone(),
            };
            match crate::event::spawn_workers(Arc::clone(&listener), config.workers.max(1), ctx) {
                Ok(workers) => workers,
                Err(e) => {
                    // Unwind the threads already running (no poller
                    // backend on this platform, most likely).
                    shutdown.store(true, Ordering::SeqCst);
                    if let Some(f) = follower {
                        let _ = f.join();
                    }
                    return Err(e);
                }
            }
        } else {
            (0..config.workers.max(1))
                .map(|i| {
                    let ctx = WorkerCtx {
                        listener: Arc::clone(&listener),
                        shared: Arc::clone(&shared),
                        committer: committer.handle(),
                        shutdown: Arc::clone(&shutdown),
                        idle_timeout: config.idle_timeout,
                        max_line_bytes: config.max_line_bytes,
                        open_conns: Arc::clone(&open_conns),
                        obs: obs.clone(),
                    };
                    std::thread::Builder::new()
                        .name(format!("citesys-net-worker-{i}"))
                        .spawn(move || worker_loop(ctx))
                        .expect("spawn worker")
                })
                .collect()
        };
        Ok(Server {
            addr,
            shared,
            shutdown,
            workers,
            committer: Some(committer),
            follower,
            open_conns,
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

    /// Connections currently held open by the transport (sessions on
    /// either transport; replication feeds are counted separately).
    /// Leak tests poll this back to zero after disconnects.
    pub fn open_connections(&self) -> usize {
        self.open_conns.load(Ordering::SeqCst)
    }

    /// True once a `shutdown` command (or [`stop`](Self::stop)) was
    /// issued.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until a client issues `shutdown`, then tears down.
    pub fn wait(mut self) {
        while !self.is_shutdown() {
            std::thread::sleep(READ_TICK);
        }
        self.teardown();
    }

    /// Initiates shutdown and joins every thread.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.teardown();
    }

    fn teardown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
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
        if !self.workers.is_empty() || self.committer.is_some() {
            self.teardown();
        }
    }
}

struct WorkerCtx {
    listener: Arc<TcpListener>,
    shared: Arc<Mutex<SharedStore>>,
    committer: GroupCommitHandle,
    shutdown: Arc<AtomicBool>,
    idle_timeout: Duration,
    max_line_bytes: usize,
    open_conns: Arc<AtomicUsize>,
    obs: crate::obs::StoreObs,
}

fn worker_loop(ctx: WorkerCtx) {
    while !ctx.shutdown.load(Ordering::SeqCst) {
        match ctx.listener.accept() {
            Ok((stream, _peer)) => {
                // Connection errors end that session only; the worker
                // moves on to the next accept.
                ctx.open_conns.fetch_add(1, Ordering::SeqCst);
                let _ = serve_connection(&ctx, stream);
                ctx.open_conns.fetch_sub(1, Ordering::SeqCst);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(READ_TICK);
            }
            Err(_) => std::thread::sleep(READ_TICK),
        }
    }
}

pub(crate) fn wire_kind(kind: ScriptErrorKind) -> WireErrorKind {
    match kind {
        ScriptErrorKind::Parse => WireErrorKind::Parse,
        ScriptErrorKind::Citation => WireErrorKind::Citation,
        ScriptErrorKind::Readonly => WireErrorKind::Readonly,
    }
}

fn serve_connection(ctx: &WorkerCtx, stream: TcpStream) -> io::Result<()> {
    // Short read timeouts act as ticks: they bound how long a worker
    // takes to notice shutdown or an exhausted idle budget, and the
    // LineReader keeps partial lines across them.
    stream.set_read_timeout(Some(READ_TICK))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    writeln!(writer, "{}", protocol::BANNER)?;
    writer.flush()?;
    let mut reader = LineReader::new(stream, ctx.max_line_bytes);
    let mut interp = Interpreter::session(Arc::clone(&ctx.shared), Some(ctx.committer.clone()));
    // Idle budget is wall time since the last COMPLETED line: the
    // deadline-aware read enforces it even against a client trickling
    // bytes that never finish a line (which would evade a plain
    // silence-based timeout and pin this worker forever).
    let mut last_line = Instant::now();
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            let _ = protocol::write_response(
                &mut writer,
                &Response::Err {
                    kind: WireErrorKind::Proto,
                    message: "server shutting down".into(),
                },
            );
            return Ok(());
        }
        let deadline = last_line + ctx.idle_timeout;
        let line = match reader.read_line_deadline(Some(deadline)) {
            Ok(LineRead::Line(l)) => l,
            Ok(LineRead::Eof) => return Ok(()),
            Ok(LineRead::Oversized) => {
                // Reject and close: resyncing would mean buffering the
                // rest of an unbounded line. The session's open
                // transaction dies with the connection.
                ctx.obs.disconnects_oversized.inc();
                let _ = protocol::write_response(
                    &mut writer,
                    &Response::Err {
                        kind: WireErrorKind::Proto,
                        message: format!("line exceeds {} bytes", ctx.max_line_bytes),
                    },
                );
                return Ok(());
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // WouldBlock = one READ_TICK of full silence; TimedOut =
                // the reader hit the deadline mid-line. Either way the
                // wall clock decides.
                if Instant::now() >= deadline {
                    ctx.obs.disconnects_idle.inc();
                    let _ = protocol::write_response(
                        &mut writer,
                        &Response::Err {
                            kind: WireErrorKind::Proto,
                            message: "idle timeout".into(),
                        },
                    );
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        last_line = Instant::now();
        if let Some(hello) = line.strip_prefix(protocol::REPLICA_HELLO) {
            // The connection switches into the replication sub-protocol
            // for its lifetime: this worker becomes the feed thread for
            // one follower (so each attached replica occupies a worker
            // slot — size `workers` accordingly).
            return crate::replication::serve_feed(&ctx.shared, &ctx.shutdown, writer, hello);
        }
        // Request tags ride both transports: split here so a tagged
        // command on the blocking path answers with the same tagged
        // frame the event loop would produce.
        let (tag, body) = protocol::split_tag(&line);
        match interp.run_session_line(body) {
            Ok(reply) => match reply.control {
                SessionControl::Continue => {
                    protocol::write_tagged_response(
                        &mut writer,
                        tag,
                        &Response::from_output(&reply.output),
                    )?;
                }
                SessionControl::Quit => {
                    protocol::write_tagged_response(
                        &mut writer,
                        tag,
                        &Response::Ok(vec!["bye".into()]),
                    )?;
                    return Ok(());
                }
                SessionControl::Shutdown => {
                    protocol::write_tagged_response(
                        &mut writer,
                        tag,
                        &Response::Ok(vec!["shutting down".into()]),
                    )?;
                    ctx.shutdown.store(true, Ordering::SeqCst);
                    return Ok(());
                }
            },
            Err(e) => {
                protocol::write_tagged_response(
                    &mut writer,
                    tag,
                    &Response::Err {
                        kind: wire_kind(e.kind),
                        message: e.message,
                    },
                )?;
            }
        }
    }
}
