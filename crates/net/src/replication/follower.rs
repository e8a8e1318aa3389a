//! Follower side of replication: the runtime thread a `serve --follow`
//! server runs alongside its worker pool.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::protocol::{self, LineRead, LineReader, ReplicaFrame, MAX_LINE_BYTES};
use crate::script::SharedStore;

/// Socket read timeout — doubles as the shutdown-check tick.
const READ_TICK: Duration = Duration::from_millis(50);

/// How long a single frame may take to finish arriving once its header
/// line has been read.
const FRAME_DEADLINE: Duration = Duration::from_secs(30);

/// First reconnect delay after losing the primary; doubles per failed
/// attempt up to [`BACKOFF_MAX`].
const BACKOFF_START: Duration = Duration::from_millis(100);

/// Reconnect delay ceiling.
const BACKOFF_MAX: Duration = Duration::from_secs(5);

/// Spawns the follower runtime: connect to `primary`, stream, apply,
/// reconnect with exponential backoff — until shutdown or a fatal
/// divergence.
pub(crate) fn spawn_follower(
    shared: Arc<Mutex<SharedStore>>,
    shutdown: Arc<AtomicBool>,
    primary: String,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("citesys-replica".to_string())
        .spawn(move || run(&shared, &shutdown, &primary))
        .expect("spawn follower runtime")
}

/// Why one streaming attempt ended.
enum StreamEnd {
    /// Transient: reconnect after backoff. `connected` says whether the
    /// attempt got as far as an accepted hello (resets the backoff).
    Retry { connected: bool },
    /// Unrecoverable (histories diverged, feed rejected): stop
    /// replicating and leave the server serving its last state.
    Fatal(String),
}

fn run(shared: &Arc<Mutex<SharedStore>>, shutdown: &Arc<AtomicBool>, primary: &str) {
    let mut backoff = BACKOFF_START;
    while !shutdown.load(Ordering::SeqCst) {
        match stream_once(shared, shutdown, primary) {
            Ok(()) => return, // clean shutdown
            Err(StreamEnd::Fatal(message)) => {
                shared.lock().set_follow_connected(false);
                eprintln!("replica: replication stopped: {message}");
                return;
            }
            Err(StreamEnd::Retry { connected }) => {
                shared.lock().set_follow_connected(false);
                if connected {
                    backoff = BACKOFF_START;
                }
                sleep_checked(shutdown, backoff);
                backoff = (backoff * 2).min(BACKOFF_MAX);
            }
        }
    }
}

/// Sleeps `total` in [`READ_TICK`] slices so shutdown stays responsive.
fn sleep_checked(shutdown: &AtomicBool, total: Duration) {
    let until = Instant::now() + total;
    while Instant::now() < until && !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(READ_TICK.min(until - Instant::now()));
    }
}

/// One connect-hello-stream cycle. `Ok(())` means shutdown was
/// requested; every other exit is a [`StreamEnd`].
fn stream_once(
    shared: &Arc<Mutex<SharedStore>>,
    shutdown: &Arc<AtomicBool>,
    primary: &str,
) -> Result<(), StreamEnd> {
    let retry = |connected: bool| move |_e: std::io::Error| StreamEnd::Retry { connected };
    let stream = TcpStream::connect(primary).map_err(retry(false))?;
    stream
        .set_read_timeout(Some(READ_TICK))
        .map_err(retry(false))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().map_err(retry(false))?;
    let mut reader = LineReader::new(stream, MAX_LINE_BYTES);

    // Banner, then hello with our local version + setup digest. The
    // local version is whatever checkpoint + WAL the data directory
    // recovered, so a restarted replica resumes instead of
    // re-bootstrapping.
    let banner_deadline = Instant::now() + FRAME_DEADLINE;
    let banner = read_header(&mut reader, shutdown, Some(banner_deadline))?
        .ok_or(StreamEnd::Retry { connected: false })?;
    if !banner.starts_with("citesys-net") {
        return Err(StreamEnd::Fatal(format!(
            "{primary} is not a citesys-net server (banner: '{banner}')"
        )));
    }
    let (version, digest) = {
        let sh = shared.lock();
        (sh.store().latest_version(), sh.store().setup_digest())
    };
    writeln!(
        writer,
        "{}",
        protocol::format_replica_hello(version, &digest)
    )
    .and_then(|_| writer.flush())
    .map_err(retry(false))?;
    shared.lock().set_follow_connected(true);

    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let Some(header) = read_header(&mut reader, shutdown, None)? else {
            return Ok(()); // shutdown mid-read
        };
        if let Some(rest) = header.strip_prefix("err ") {
            // The feed answered with a protocol error instead of frames.
            return Err(StreamEnd::Fatal(format!(
                "primary rejected the feed: {rest}"
            )));
        }
        let deadline = Instant::now() + FRAME_DEADLINE;
        let frame =
            protocol::read_replica_frame(&header, &mut reader, deadline).map_err(retry(true))?;
        match frame {
            ReplicaFrame::Ping { version } => {
                shared.lock().note_primary_version(version);
            }
            ReplicaFrame::Wal { version, changes } => {
                let mut sh = shared.lock();
                sh.obs().replica_lag_records.inc();
                sh.note_primary_version(version);
                // Applies through the store's commit routine (local WAL
                // append before the version is cut); decrements
                // lag_records.
                if let Err((_, message)) = sh.apply_replicated(version, &changes) {
                    return Err(StreamEnd::Fatal(message));
                }
            }
            ReplicaFrame::Ckpt(data) => {
                let mut sh = shared.lock();
                if let Err((_, message)) = sh.install_checkpoint(&data) {
                    return Err(StreamEnd::Fatal(message));
                }
            }
        }
    }
}

/// Reads one header line, treating socket-timeout ticks as chances to
/// check the shutdown flag (and the optional deadline). Returns
/// `Ok(None)` when shutdown was requested mid-read.
fn read_header<R: std::io::Read>(
    reader: &mut LineReader<R>,
    shutdown: &AtomicBool,
    deadline: Option<Instant>,
) -> Result<Option<String>, StreamEnd> {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match reader.read_line_deadline(deadline) {
            Ok(LineRead::Line(l)) => return Ok(Some(l)),
            Ok(LineRead::Eof) => return Err(StreamEnd::Retry { connected: true }),
            Ok(LineRead::Oversized) => return Err(StreamEnd::Retry { connected: true }),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if let Some(deadline) = deadline {
                    if Instant::now() >= deadline {
                        return Err(StreamEnd::Retry { connected: false });
                    }
                }
            }
            Err(_) => return Err(StreamEnd::Retry { connected: true }),
        }
    }
}
