//! The **event-driven transport**: a readiness-based connection layer
//! that multiplexes thousands of sockets over a fixed worker set
//! (`ServerConfig { event_loop: true, .. }`).
//!
//! Where the blocking transport parks one worker thread per live
//! session, each event worker here owns a [`polling::Poller`] (the
//! hermetic epoll shim) and drives every connection assigned to it
//! through a small per-connection state machine:
//!
//! ```text
//!             readable                    runnable            resolved
//!   socket ──────────────▶ LineReader ──▶ pending ──▶ exec ──▶ slots ──▶ out ──▶ socket
//!             (nonblocking)  split_tag     (parsed     │        (ordered   (write
//!                            parse_command  commands)  │         acks)      buffer)
//!                                                      └─ commit ⇒ GroupCommitHandle::submit
//! ```
//!
//! **Pipelining.** Clients may send any number of commands without
//! waiting. Responses are queued as ordered *slots* and flush strictly
//! in request order per connection; an optional `@tag` request prefix
//! is echoed in the response frame so clients can correlate. A `commit`
//! never blocks the worker: it becomes a pending [`CommitTicket`] slot,
//! and because session-local commands (`insert`, `delete`, `begin`,
//! `rollback`, `load`, another `commit`) keep executing behind an
//! in-flight commit, a pipelined burst of commits lands on the
//! [`GroupCommitter`](crate::group::GroupCommitter) inside one
//! coalescing window. Commands that read the shared store wait for the
//! connection's commit slots to drain first, preserving the blocking
//! transport's per-session semantics.
//!
//! **Fairness & backpressure.** A worker executes at most
//! `MAX_CMDS_PER_PUMP` commands per connection per wakeup before
//! round-robining to the next ready connection. Reading from a socket
//! pauses while the connection has `MAX_PENDING_LINES` parsed-but-
//! unexecuted commands or `OUT_HIGH_WATER` unflushed response bytes —
//! the kernel socket buffer then throttles the client end to end.
//!
//! **Lifecycle.** Idle sessions are reaped on the same wall-clock
//! budget as the blocking transport (`err proto idle timeout`); an
//! oversized line fails *that request* with `err proto` and closes the
//! connection only after every earlier queued response has flushed; a
//! `replica hello` line hands the socket to a dedicated feed thread
//! (replication keeps its one-thread-per-follower model); shutdown
//! notifies every connection and drains write buffers before closing.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use polling::{Event, Poller};

use crate::group::{CommitTicket, GroupCommitHandle};
use crate::protocol::{self, Command, LineRead, LineReader, Response, WireErrorKind};
use crate::script::{commit_ack_message, Interpreter, SessionControl, SharedStore};
use crate::server::wire_kind;

/// Poller key reserved for the shared listener; connection keys start
/// above it.
const LISTENER_KEY: usize = 0;

/// Poll timeout with nothing in flight — bounds how fast a worker
/// notices shutdown or an exhausted idle budget.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Poll timeout while any commit ticket is outstanding: acks arrive on
/// an mpsc channel, not the poller, so the worker re-checks quickly.
const COMMIT_TICK: Duration = Duration::from_millis(1);

/// Fairness cap: commands executed per connection per wakeup before
/// other ready connections get the worker.
const MAX_CMDS_PER_PUMP: usize = 64;

/// Read backpressure: stop pulling lines off a socket while this many
/// parsed commands are already queued for the connection.
const MAX_PENDING_LINES: usize = 256;

/// Write backpressure: stop reading (and thus executing) for a
/// connection holding this many unflushed response bytes.
const OUT_HIGH_WATER: usize = 256 * 1024;

/// How long shutdown waits for queued responses to flush before
/// closing connections regardless.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(1);

/// Everything the event workers share.
pub(crate) struct EventCtx {
    pub(crate) shared: Arc<Mutex<SharedStore>>,
    pub(crate) committer: GroupCommitHandle,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) idle_timeout: Duration,
    pub(crate) max_line_bytes: usize,
    pub(crate) max_connections: usize,
    /// Connections currently held across all workers (the
    /// `Server::open_connections` figure; leak checks poll it to zero).
    pub(crate) open_conns: Arc<AtomicUsize>,
    /// Replication feed threads spawned off handed-over connections,
    /// joined at server teardown.
    pub(crate) feed_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Shared instrument bundle: parse spans and disconnect counters
    /// record here without touching the store lock.
    pub(crate) obs: crate::obs::StoreObs,
}

/// Spawns `workers` event workers over the shared listener. Fails fast
/// (before any thread starts) if the platform has no poller backend.
pub(crate) fn spawn_workers(
    listener: Arc<TcpListener>,
    workers: usize,
    ctx: EventCtx,
) -> io::Result<Vec<JoinHandle<()>>> {
    let pollers: Vec<Poller> = (0..workers.max(1))
        .map(|_| Poller::new())
        .collect::<io::Result<_>>()?;
    let ctx = Arc::new(ctx);
    pollers
        .into_iter()
        .enumerate()
        .map(|(i, poller)| {
            let listener = Arc::clone(&listener);
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name(format!("citesys-net-event-{i}"))
                .spawn(move || worker_loop(poller, listener, ctx))
        })
        .collect()
}

/// One parsed-but-unexecuted request line.
enum PendingItem {
    /// A syntactically processed line: its tag and command (`None` for
    /// a blank/comment line).
    Cmd {
        tag: Option<String>,
        cmd: Option<Command>,
    },
    /// A line the parser rejected (answered `err parse` in order).
    ParseErr {
        tag: Option<String>,
        message: String,
    },
    /// A line that blew the byte cap: answered `err proto` in order,
    /// then the connection closes (resyncing would mean buffering an
    /// unbounded line).
    Oversized,
}

/// One ordered response slot.
enum Slot {
    /// A fully rendered response frame, ready to flush.
    Ready(Vec<u8>),
    /// A commit awaiting its group-committer acknowledgement; rendered
    /// when the ticket resolves. Slots behind it wait so responses
    /// leave in request order.
    Commit {
        tag: Option<String>,
        ticket: CommitTicket,
    },
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    reader: LineReader<TcpStream>,
    interp: Interpreter,
    pending: VecDeque<PendingItem>,
    slots: VecDeque<Slot>,
    out: Vec<u8>,
    written: usize,
    last_line: Instant,
    want_write: bool,
    /// No further execution: farewell (or fatal) response queued.
    closing: bool,
    /// No further reads: EOF, oversized, farewell, or replica handoff.
    read_done: bool,
    /// Fatal socket error — close without draining.
    abort: bool,
    /// A `replica hello` arrived: hand the socket to a feed thread once
    /// everything queued before it has flushed.
    replica_hello: Option<String>,
}

impl Conn {
    fn new(ctx: &EventCtx, stream: TcpStream, reader_stream: TcpStream) -> Conn {
        Conn {
            stream,
            reader: LineReader::new(reader_stream, ctx.max_line_bytes),
            interp: Interpreter::session(Arc::clone(&ctx.shared), Some(ctx.committer.clone())),
            pending: VecDeque::new(),
            slots: VecDeque::new(),
            out: Vec::new(),
            written: 0,
            last_line: Instant::now(),
            want_write: false,
            closing: false,
            read_done: false,
            abort: false,
            replica_hello: None,
        }
    }

    fn out_drained(&self) -> bool {
        self.written == self.out.len()
    }

    /// Work the poller cannot signal: queued commands, unresolved
    /// commit slots, or a replica handoff waiting on its drain.
    fn has_work(&self) -> bool {
        !self.pending.is_empty() || !self.slots.is_empty() || self.replica_hello.is_some()
    }
}

/// What the worker should do with a connection after a pump pass.
enum Outcome {
    Keep,
    Close,
    Replica(String),
}

fn worker_loop(poller: Poller, listener: Arc<TcpListener>, ctx: Arc<EventCtx>) {
    if poller
        .add(&*listener, Event::readable(LISTENER_KEY))
        .is_err()
    {
        return;
    }
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key: usize = LISTENER_KEY + 1;
    let mut events: Vec<Event> = Vec::new();
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            drain_on_shutdown(&ctx, &poller, &mut conns);
            return;
        }
        let _ = poller.wait(&mut events, Some(poll_timeout(&conns)));
        let mut pump_set: BTreeSet<usize> = BTreeSet::new();
        let mut accept = false;
        for ev in &events {
            if ev.key == LISTENER_KEY {
                accept = true;
            } else {
                pump_set.insert(ev.key);
            }
        }
        if accept {
            accept_new(
                &ctx,
                &poller,
                &listener,
                &mut conns,
                &mut next_key,
                &mut pump_set,
            );
        }
        let now = Instant::now();
        for (key, conn) in conns.iter_mut() {
            if conn.has_work() {
                pump_set.insert(*key);
            } else if !conn.closing
                && conn.replica_hello.is_none()
                && now >= conn.last_line + ctx.idle_timeout
            {
                ctx.obs.disconnects_idle.inc();
                push_err(conn, None, WireErrorKind::Proto, "idle timeout");
                conn.closing = true;
                conn.read_done = true;
                pump_set.insert(*key);
            }
        }
        for key in pump_set {
            let Some(conn) = conns.get_mut(&key) else {
                continue;
            };
            match pump(&ctx, conn) {
                Outcome::Keep => update_interest(&poller, key, conn),
                Outcome::Close => {
                    let conn = conns.remove(&key).expect("pumped conn exists");
                    close_conn(&ctx, &poller, &conn);
                }
                Outcome::Replica(hello) => {
                    let conn = conns.remove(&key).expect("pumped conn exists");
                    hand_to_feed(&ctx, &poller, conn, hello);
                }
            }
        }
    }
}

/// Next poll timeout, from the most urgent latent work across the
/// worker's connections.
fn poll_timeout(conns: &HashMap<usize, Conn>) -> Duration {
    let mut timeout = POLL_TICK;
    for conn in conns.values() {
        if !conn.pending.is_empty() && conn.slots.is_empty() {
            // Runnable commands queued (fairness cap round-robin):
            // come straight back.
            return Duration::ZERO;
        }
        if !conn.slots.is_empty() {
            timeout = COMMIT_TICK;
        }
    }
    timeout
}

fn accept_new(
    ctx: &EventCtx,
    poller: &Poller,
    listener: &TcpListener,
    conns: &mut HashMap<usize, Conn>,
    next_key: &mut usize,
    pump_set: &mut BTreeSet<usize>,
) {
    loop {
        // Every worker polls the same listener; a race lost to another
        // worker is just WouldBlock here.
        match listener.accept() {
            Ok((stream, _peer)) => {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    continue;
                }
                let held = ctx.open_conns.fetch_add(1, Ordering::SeqCst);
                if held >= ctx.max_connections {
                    ctx.open_conns.fetch_sub(1, Ordering::SeqCst);
                    // Rejected connections still get the banner + a
                    // proto error, so clients see *why* (the accepted
                    // socket is still blocking; these writes are tiny).
                    let mut stream = stream;
                    let _ = writeln!(stream, "{}", protocol::BANNER);
                    let _ = protocol::write_response(
                        &mut stream,
                        &Response::Err {
                            kind: WireErrorKind::Proto,
                            message: format!(
                                "server full: {} connections held",
                                ctx.max_connections
                            ),
                        },
                    );
                    continue;
                }
                let registered = stream.set_nonblocking(true).is_ok();
                stream.set_nodelay(true).ok();
                let reader_stream = match (registered, stream.try_clone()) {
                    (true, Ok(s)) => s,
                    _ => {
                        ctx.open_conns.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                };
                let key = *next_key;
                *next_key += 1;
                if poller.add(&stream, Event::readable(key)).is_err() {
                    ctx.open_conns.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                let mut conn = Conn::new(ctx, stream, reader_stream);
                conn.out
                    .extend_from_slice(format!("{}\n", protocol::BANNER).as_bytes());
                conns.insert(key, conn);
                pump_set.insert(key);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// One full turn of a connection's state machine: read → execute →
/// render → flush → decide.
fn pump(ctx: &EventCtx, conn: &mut Conn) -> Outcome {
    read_lines(ctx, conn);
    exec_pending(ctx, conn);
    fill_out(conn);
    if flush(conn).is_err() || conn.abort {
        return Outcome::Close;
    }
    if conn.slots.is_empty() && conn.out_drained() {
        if conn.closing {
            return Outcome::Close;
        }
        if conn.pending.is_empty() {
            if let Some(hello) = conn.replica_hello.take() {
                return Outcome::Replica(hello);
            }
            if conn.read_done {
                // EOF with everything executed and flushed.
                return Outcome::Close;
            }
        }
    }
    Outcome::Keep
}

/// Drains complete lines off the socket into the pending queue,
/// stopping at backpressure limits or the first would-block.
fn read_lines(ctx: &EventCtx, conn: &mut Conn) {
    while !conn.read_done
        && conn.pending.len() < MAX_PENDING_LINES
        && conn.out.len() - conn.written < OUT_HIGH_WATER
    {
        match conn.reader.read_line() {
            Ok(LineRead::Line(line)) => {
                conn.last_line = Instant::now();
                if let Some(hello) = line.strip_prefix(protocol::REPLICA_HELLO) {
                    conn.replica_hello = Some(hello.to_string());
                    conn.read_done = true;
                    break;
                }
                let (tag, body) = protocol::split_tag(&line);
                let tag = tag.map(str::to_string);
                let parse = citesys_obs::SpanTimer::start(ctx.obs.timings_enabled());
                let parsed = protocol::parse_command(body);
                ctx.obs.observe_stage("parse", parse.elapsed_micros());
                let item = match parsed {
                    Ok(cmd) => PendingItem::Cmd { tag, cmd },
                    Err(e) => PendingItem::ParseErr {
                        tag,
                        message: e.message,
                    },
                };
                conn.pending.push_back(item);
            }
            Ok(LineRead::Eof) => {
                conn.read_done = true;
                break;
            }
            Ok(LineRead::Oversized) => {
                conn.pending.push_back(PendingItem::Oversized);
                conn.read_done = true;
                break;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                break;
            }
            Err(_) => {
                conn.abort = true;
                break;
            }
        }
    }
}

/// Commands that keep executing while this connection has a commit in
/// flight: they touch only session-local state (or submit another
/// commit), so running them early is indistinguishable from the
/// blocking transport's strict sequencing — and it is exactly what
/// lets a pipelined commit burst coalesce into one window.
fn safe_during_commit(cmd: &Command) -> bool {
    matches!(
        cmd,
        Command::Insert { .. }
            | Command::Delete { .. }
            | Command::Begin
            | Command::Rollback
            | Command::Load { .. }
            | Command::Commit
    )
}

/// Executes queued commands in order, up to the fairness cap, stalling
/// when the next command must observe an in-flight commit's outcome.
fn exec_pending(ctx: &EventCtx, conn: &mut Conn) {
    let mut budget = MAX_CMDS_PER_PUMP;
    while budget > 0 && !conn.closing {
        let commit_in_flight = conn.slots.iter().any(|s| matches!(s, Slot::Commit { .. }));
        match conn.pending.front() {
            None => break,
            Some(PendingItem::Cmd { cmd: Some(c), .. })
                if commit_in_flight && !safe_during_commit(c) =>
            {
                break;
            }
            Some(_) => {}
        }
        budget -= 1;
        match conn.pending.pop_front().expect("checked front") {
            PendingItem::ParseErr { tag, message } => {
                push_err(conn, tag.as_deref(), WireErrorKind::Parse, &message);
            }
            PendingItem::Oversized => {
                ctx.obs.disconnects_oversized.inc();
                push_err(
                    conn,
                    None,
                    WireErrorKind::Proto,
                    &format!("line exceeds {} bytes", ctx.max_line_bytes),
                );
                conn.closing = true;
            }
            PendingItem::Cmd { tag, cmd } => {
                if matches!(cmd, Some(Command::Commit)) {
                    // Asynchronous commit: same admission checks as the
                    // blocking path, but the ack becomes an ordered slot
                    // instead of parking the worker.
                    match conn.interp.take_commit_changes() {
                        Ok(changes) => conn.slots.push_back(Slot::Commit {
                            tag,
                            ticket: ctx.committer.submit(changes),
                        }),
                        Err(e) => push_err(conn, tag.as_deref(), wire_kind(e.kind), &e.message),
                    }
                    continue;
                }
                match conn.interp.run_session_command(cmd.as_ref()) {
                    Ok(reply) => match reply.control {
                        SessionControl::Continue => push_response(
                            conn,
                            tag.as_deref(),
                            &Response::from_output(&reply.output),
                        ),
                        SessionControl::Quit => {
                            push_response(conn, tag.as_deref(), &Response::Ok(vec!["bye".into()]));
                            farewell(conn);
                        }
                        SessionControl::Shutdown => {
                            push_response(
                                conn,
                                tag.as_deref(),
                                &Response::Ok(vec!["shutting down".into()]),
                            );
                            ctx.shutdown.store(true, Ordering::SeqCst);
                            farewell(conn);
                        }
                    },
                    Err(e) => push_err(conn, tag.as_deref(), wire_kind(e.kind), &e.message),
                }
            }
        }
    }
}

/// `quit`/`shutdown`: the farewell is the session's last frame — stop
/// reading and drop anything the client pipelined after it (the
/// blocking transport never reads those lines either).
fn farewell(conn: &mut Conn) {
    conn.closing = true;
    conn.read_done = true;
    conn.pending.clear();
}

fn push_response(conn: &mut Conn, tag: Option<&str>, resp: &Response) {
    let mut buf = Vec::new();
    protocol::write_tagged_response(&mut buf, tag, resp).expect("vec write");
    conn.slots.push_back(Slot::Ready(buf));
}

fn push_err(conn: &mut Conn, tag: Option<&str>, kind: WireErrorKind, message: &str) {
    push_response(
        conn,
        tag,
        &Response::Err {
            kind,
            message: message.to_string(),
        },
    );
}

/// Moves resolved slots, in order, into the write buffer; stops at the
/// first still-in-flight commit so responses never reorder.
fn fill_out(conn: &mut Conn) {
    while let Some(slot) = conn.slots.pop_front() {
        match slot {
            Slot::Ready(bytes) => conn.out.extend_from_slice(&bytes),
            Slot::Commit { tag, ticket } => match ticket.try_ack() {
                None => {
                    conn.slots.push_front(Slot::Commit { tag, ticket });
                    break;
                }
                Some(result) => {
                    let resp = match result {
                        Ok(ack) => {
                            Response::from_output(&format!("{}\n", commit_ack_message(&ack)))
                        }
                        Err(message) => Response::Err {
                            kind: WireErrorKind::Citation,
                            message,
                        },
                    };
                    protocol::write_tagged_response(&mut conn.out, tag.as_deref(), &resp)
                        .expect("vec write");
                }
            },
        }
    }
}

/// Writes as much of the buffer as the socket accepts right now.
fn flush(conn: &mut Conn) -> io::Result<()> {
    while conn.written < conn.out.len() {
        match conn.stream.write(&conn.out[conn.written..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.out_drained() && !conn.out.is_empty() {
        conn.out.clear();
        conn.written = 0;
    }
    Ok(())
}

/// Arms (or disarms) write interest to match the buffer state.
fn update_interest(poller: &Poller, key: usize, conn: &mut Conn) {
    let want = !conn.out_drained();
    if want != conn.want_write {
        let interest = if want {
            Event::all(key)
        } else {
            Event::readable(key)
        };
        if poller.modify(&conn.stream, interest).is_ok() {
            conn.want_write = want;
        }
    }
}

fn close_conn(ctx: &EventCtx, poller: &Poller, conn: &Conn) {
    let _ = poller.delete(&conn.stream);
    ctx.open_conns.fetch_sub(1, Ordering::SeqCst);
}

/// Switches a drained connection into the replication sub-protocol on
/// its own thread (feeds are long-lived writers; multiplexing them
/// through the poller would buy nothing).
fn hand_to_feed(ctx: &EventCtx, poller: &Poller, conn: Conn, hello: String) {
    let _ = poller.delete(&conn.stream);
    ctx.open_conns.fetch_sub(1, Ordering::SeqCst);
    let Conn { stream, .. } = conn;
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let shared = Arc::clone(&ctx.shared);
    let shutdown = Arc::clone(&ctx.shutdown);
    let spawned = std::thread::Builder::new()
        .name("citesys-net-feed".into())
        .spawn(move || {
            let _ = crate::replication::serve_feed(&shared, &shutdown, stream, &hello);
        });
    if let Ok(handle) = spawned {
        ctx.feed_threads.lock().push(handle);
    }
}

/// Shutdown: notify every live session, give buffered responses (and
/// in-flight commit acks — the committer outlives the workers) a
/// bounded drain, then close everything.
fn drain_on_shutdown(ctx: &EventCtx, poller: &Poller, conns: &mut HashMap<usize, Conn>) {
    for conn in conns.values_mut() {
        if !conn.closing {
            push_err(conn, None, WireErrorKind::Proto, "server shutting down");
            conn.closing = true;
            conn.read_done = true;
            conn.pending.clear();
            conn.replica_hello = None;
        }
    }
    let deadline = Instant::now() + SHUTDOWN_DRAIN;
    while !conns.is_empty() && Instant::now() < deadline {
        let keys: Vec<usize> = conns.keys().copied().collect();
        let mut progressed = false;
        for key in keys {
            let conn = conns.get_mut(&key).expect("listed key exists");
            fill_out(conn);
            let dead = flush(conn).is_err();
            if dead || (conn.slots.is_empty() && conn.out_drained()) {
                let conn = conns.remove(&key).expect("listed key exists");
                close_conn(ctx, poller, &conn);
                progressed = true;
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    for (_, conn) in conns.drain() {
        close_conn(ctx, poller, &conn);
    }
}
