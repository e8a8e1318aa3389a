//! Primary side of replication: one feed per attached follower.

use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::protocol::{self, ReplicaFrame, Response, WireErrorKind};
use crate::script::SharedStore;

/// How often an idle feed re-checks the store for new versions (and the
/// shutdown flag).
const FEED_TICK: Duration = Duration::from_millis(20);

/// Heartbeat cadence on an idle feed — keeps the follower's lag figure
/// current and turns a dead follower socket into a write error.
const PING_EVERY: Duration = Duration::from_millis(250);

/// Upper bound on `wal` frames materialized per lock acquisition, so a
/// far-behind follower cannot pin the store lock while it catches up.
const MAX_BATCH: u64 = 64;

/// Serves the replication feed on a connection whose `replica hello`
/// line the server just read; `hello` is the remainder of that line.
/// Runs until the follower disconnects, the server shuts down, or the
/// feed cannot continue. Consumes the calling worker thread.
pub(crate) fn serve_feed(
    shared: &Arc<Mutex<SharedStore>>,
    shutdown: &Arc<AtomicBool>,
    mut stream: TcpStream,
    hello: &str,
) -> io::Result<()> {
    let (version, digest) = match protocol::parse_replica_hello(hello) {
        Ok(h) => h,
        Err(message) => {
            let _ = protocol::write_response(
                &mut stream,
                &Response::Err {
                    kind: WireErrorKind::Proto,
                    message,
                },
            );
            return Ok(());
        }
    };
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    shared.lock().register_replica(&peer);
    let result = feed_loop(shared, shutdown, &peer, &mut stream, version, digest);
    shared.lock().unregister_replica(&peer);
    result
}

fn feed_loop(
    shared: &Arc<Mutex<SharedStore>>,
    shutdown: &Arc<AtomicBool>,
    peer: &str,
    stream: &mut TcpStream,
    mut sent: u64,
    hello_digest: String,
) -> io::Result<()> {
    // Until the first batch decision, incremental shipping requires the
    // follower's setup digest to match ours; from then on the DDL
    // generation check takes over (every frame we send reflects our own
    // setup, so the digests agree by construction).
    let mut check_digest = Some(hello_digest);
    let mut generation: Option<(u64, usize)> = None;
    let mut last_ping = Instant::now();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let mut to_send: Vec<ReplicaFrame> = Vec::new();
        let mut fatal: Option<String> = None;
        let latest;
        {
            let sh = shared.lock();
            let store = sh.store();
            latest = store.latest_version();
            let gen_now = store.replication_generation();
            let setup_ok = check_digest
                .as_ref()
                .is_none_or(|d| *d == store.setup_digest())
                && generation.is_none_or(|g| g == gen_now);
            // Incremental shipping needs every version in (sent, latest]
            // to still be in the op log: a follower ahead of us (unknown
            // version) or behind the compaction floor must re-bootstrap.
            let tailable = sent <= latest && sent >= store.base_version();
            if setup_ok && tailable {
                let hi = latest.min(sent.saturating_add(MAX_BATCH));
                for v in sent + 1..=hi {
                    match store.changes_in(v) {
                        Some(changes) => to_send.push(ReplicaFrame::Wal {
                            version: v,
                            changes,
                        }),
                        None => break,
                    }
                }
            } else {
                // Bootstrap (or resync after DDL): one full checkpoint
                // assembled from memory — works without `--data-dir`.
                match store.checkpoint_data() {
                    Ok(data) => to_send.push(ReplicaFrame::Ckpt(data)),
                    Err(e) => fatal = Some(e.to_string()),
                }
            }
            if fatal.is_none() {
                generation = Some(gen_now);
                check_digest = None;
            }
        }
        if let Some(message) = fatal {
            let _ = protocol::write_response(
                stream,
                &Response::Err {
                    kind: WireErrorKind::Proto,
                    message,
                },
            );
            return Ok(());
        }
        if to_send.is_empty() {
            if last_ping.elapsed() >= PING_EVERY {
                protocol::write_replica_frame(stream, &ReplicaFrame::Ping { version: latest })?;
                last_ping = Instant::now();
            }
            std::thread::sleep(FEED_TICK);
            continue;
        }
        // Frames are written OUTSIDE the store lock: a slow follower
        // stalls only its own feed, never the primary's write path.
        // Shipped counters are bumped only after the frame actually hit
        // the socket, so a feed dying mid-batch (follower gone) does not
        // count records the replica never received.
        for frame in &to_send {
            protocol::write_replica_frame(stream, frame)?;
            sent = match frame {
                ReplicaFrame::Wal { version, .. } => {
                    shared.lock().note_shipped(peer, 1);
                    *version
                }
                ReplicaFrame::Ckpt(data) => data.version,
                ReplicaFrame::Ping { .. } => sent,
            };
        }
        last_ping = Instant::now();
    }
}
