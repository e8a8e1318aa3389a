//! Cross-connection **group commit**.
//!
//! Every network session's `commit` submits its buffered [`Changeset`]
//! to one dedicated committer thread instead of taking the store lock
//! itself. The committer drains whatever requests are queued (plus a
//! short coalescing window for racing ones), applies each transaction
//! **atomically and in arrival order** against the shared store, then
//! seals everything as **one** version with **one** delta-maintained
//! service snapshot swap — the cross-transaction batching the paper's
//! evolving-database story calls for at serving scale.
//!
//! Per-transaction semantics are preserved: a changeset that fails
//! (e.g. a key violation against the state left by an earlier
//! transaction in the same window) is rolled back alone and its session
//! gets a conflict error; the other transactions in the window commit.
//! The merged result equals running the same transactions sequentially
//! in window order — the window only amortizes version sealing and
//! snapshot publication, never reorders or interleaves ops.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use citesys_storage::Changeset;
use parking_lot::Mutex;

use crate::script::SharedStore;

/// A successful commit acknowledgement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CommitAck {
    /// The version the transaction was sealed into.
    pub version: u64,
    /// How many of the transaction's ops changed data (net of no-ops).
    pub applied: usize,
    /// How many transactions shared this commit window.
    pub group_size: usize,
}

struct CommitRequest {
    changes: Changeset,
    reply: mpsc::Sender<Result<CommitAck, String>>,
}

enum Msg {
    Commit(CommitRequest),
    Stop,
}

/// A cloneable handle sessions use to submit commits.
#[derive(Clone)]
pub struct GroupCommitHandle {
    tx: mpsc::Sender<Msg>,
}

impl GroupCommitHandle {
    /// Submits one transaction and blocks until the committer has sealed
    /// (or rejected) it. `Err` carries the conflict message.
    pub fn commit(&self, changes: Changeset) -> Result<CommitAck, String> {
        self.submit(changes).wait()
    }

    /// Submits one transaction **without blocking** and returns a
    /// ticket to poll for the acknowledgement. This is how the
    /// event-driven transport keeps a worker serving other connections
    /// while a pipelined commit burst rides one coalescing window; the
    /// blocking [`commit`](Self::commit) is `submit(..).wait()`.
    pub fn submit(&self, changes: Changeset) -> CommitTicket {
        let (reply, rx) = mpsc::channel();
        // A failed send drops `reply`, so the ticket's receiver reports
        // disconnection — the "pipeline closed" path, no special case.
        let _ = self.tx.send(Msg::Commit(CommitRequest { changes, reply }));
        CommitTicket { rx }
    }
}

/// A pending asynchronous commit handed out by
/// [`GroupCommitHandle::submit`].
pub struct CommitTicket {
    rx: mpsc::Receiver<Result<CommitAck, String>>,
}

impl CommitTicket {
    /// Polls for the acknowledgement without blocking: `None` while the
    /// commit is still in flight, `Some(..)` once the committer sealed
    /// or rejected it (or the pipeline closed).
    pub fn try_ack(&self) -> Option<Result<CommitAck, String>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => {
                Some(Err("commit pipeline closed".to_string()))
            }
        }
    }

    /// Blocks until the acknowledgement arrives.
    pub fn wait(&self) -> Result<CommitAck, String> {
        self.rx
            .recv()
            .map_err(|_| "commit pipeline closed".to_string())?
    }
}

/// The dedicated committer thread. Dropping it closes the pipeline and
/// joins the thread (pending requests are still processed first).
pub struct GroupCommitter {
    handle: GroupCommitHandle,
    thread: Option<JoinHandle<()>>,
}

impl GroupCommitter {
    /// Spawns the committer over `shared`. `window` is how long the
    /// thread waits for more racing commits after the first one arrives
    /// — `Duration::ZERO` degrades to per-transaction commits (each
    /// request usually gets its own window).
    pub fn spawn(shared: Arc<Mutex<SharedStore>>, window: Duration) -> GroupCommitter {
        let (tx, rx) = mpsc::channel::<Msg>();
        let thread = std::thread::Builder::new()
            .name("citesys-group-commit".into())
            .spawn(move || {
                let mut stopped = false;
                while !stopped {
                    let first = match rx.recv() {
                        Ok(Msg::Commit(req)) => req,
                        Ok(Msg::Stop) | Err(_) => break,
                    };
                    let mut batch = vec![first];
                    // Coalescing window: gather transactions racing with
                    // the first one. try_recv afterwards also scoops up
                    // anything that queued while we were processing the
                    // previous window.
                    let deadline = Instant::now() + window;
                    loop {
                        let left = deadline.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            break;
                        }
                        match rx.recv_timeout(left) {
                            Ok(Msg::Commit(req)) => batch.push(req),
                            Ok(Msg::Stop) => {
                                stopped = true;
                                break;
                            }
                            Err(_) => break,
                        }
                    }
                    while !stopped {
                        match rx.try_recv() {
                            Ok(Msg::Commit(req)) => batch.push(req),
                            Ok(Msg::Stop) => stopped = true,
                            Err(_) => break,
                        }
                    }
                    Self::process(&shared, batch);
                }
            })
            .expect("spawn group-commit thread");
        GroupCommitter {
            handle: GroupCommitHandle { tx },
            thread: Some(thread),
        }
    }

    /// A handle for sessions to submit commits through.
    pub fn handle(&self) -> GroupCommitHandle {
        self.handle.clone()
    }

    /// One commit window: apply each transaction atomically in arrival
    /// order, seal every success as one version (WAL-logged before the
    /// seal when the store is durable), publish one service snapshot,
    /// ack each session.
    fn process(shared: &Mutex<SharedStore>, batch: Vec<CommitRequest>) {
        let group_size = batch.len();
        let mut sh = shared.lock();
        let obs = sh.obs().clone();
        let window = citesys_obs::SpanTimer::start(obs.timings_enabled());
        obs.group_windows.inc();
        obs.largest_group.set_max(group_size as u64);
        let outcomes: Vec<Result<usize, String>> = batch
            .iter()
            .map(|req| {
                sh.store_mut()
                    .apply(&req.changes)
                    .map_err(|e| e.to_string())
            })
            .collect();
        // Seal once — only if at least one transaction survived (an
        // all-conflict window must not cut an empty version).
        let version = if outcomes.iter().any(Result::is_ok) {
            match sh.seal() {
                Ok(v) => Some(v),
                Err((_, m)) => {
                    for req in &batch {
                        let _ = req.reply.send(Err(m.clone()));
                    }
                    return;
                }
            }
        } else {
            None
        };
        // The acks below only touch the lock-free instruments, so the
        // store lock is released for good here.
        drop(sh);
        for (req, outcome) in batch.into_iter().zip(outcomes) {
            let reply = match (outcome, version) {
                (Ok(applied), Some(version)) => {
                    obs.commits.inc();
                    Ok(CommitAck {
                        version,
                        applied,
                        group_size,
                    })
                }
                (Ok(_), None) => unreachable!("a success forces a seal"),
                (Err(message), _) => Err(message),
            };
            // A session that died while waiting just drops its receiver;
            // its transaction still committed with the window.
            let _ = req.reply.send(reply);
        }
        obs.group_window_seconds
            .observe_micros(window.elapsed_micros());
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        // An explicit stop message (rather than closing the channel):
        // sessions may still hold handle clones, so sender-count-zero
        // would never come. After the thread exits, those handles get
        // "pipeline closed" errors instead of hanging.
        let _ = self.handle.tx.send(Msg::Stop);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Interpreter;

    fn setup(shared: &Arc<Mutex<SharedStore>>) {
        let mut admin = Interpreter::session(Arc::clone(shared), None);
        admin.run_line("schema R(A:int, B:text) key(0)").unwrap();
        admin.run_line("commit").unwrap();
    }

    #[test]
    fn racing_commits_coalesce_into_one_window() {
        let shared = SharedStore::new_shared();
        setup(&shared);
        let committer = GroupCommitter::spawn(Arc::clone(&shared), Duration::from_millis(100));
        let handle = committer.handle();
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let acks: Vec<CommitAck> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let handle = handle.clone();
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        let mut changes = Changeset::new();
                        changes.insert("R", citesys_storage::tuple![i as i64, format!("t{i}")]);
                        barrier.wait();
                        handle.commit(changes).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // All four transactions landed, and at least two shared a window
        // (with a 100ms window and a barrier start, usually all four).
        let obs = shared.lock().obs().clone();
        assert_eq!(obs.commits.get(), 5, "4 racing + 1 setup");
        assert!(obs.largest_group.get() >= 2);
        assert!(obs.group_windows.get() < 5, "windows must coalesce");
        let versions: std::collections::BTreeSet<u64> = acks.iter().map(|a| a.version).collect();
        assert!(
            versions.len() < 4,
            "racing commits share versions: {acks:?}"
        );
        for ack in &acks {
            assert_eq!(ack.applied, 1);
        }
        let mut check = Interpreter::session(Arc::clone(&shared), None);
        let out = check.run_line("tables").unwrap();
        assert!(out.contains("R: 4 tuples"), "{out}");
    }

    #[test]
    fn conflicting_transaction_fails_alone() {
        let shared = SharedStore::new_shared();
        setup(&shared);
        let committer = GroupCommitter::spawn(Arc::clone(&shared), Duration::ZERO);
        let handle = committer.handle();
        let mut ok = Changeset::new();
        ok.insert("R", citesys_storage::tuple![1, "a"]);
        handle.commit(ok).unwrap();
        // Key(0) clash with the committed row: rejected, store intact.
        let mut clash = Changeset::new();
        clash.insert("R", citesys_storage::tuple![1, "b"]);
        let e = handle.commit(clash).unwrap_err();
        assert!(e.contains("transaction rolled back"), "{e}");
        let mut fine = Changeset::new();
        fine.insert("R", citesys_storage::tuple![2, "c"]);
        let ack = handle.commit(fine).unwrap();
        assert_eq!(ack.applied, 1);
        let mut check = Interpreter::session(Arc::clone(&shared), None);
        let out = check.run_line("dump R").unwrap();
        assert!(out.contains("1,\"a\""), "{out}");
        assert!(!out.contains("\"b\""), "{out}");
        assert!(out.contains("2,\"c\""), "{out}");
    }

    #[test]
    fn submitted_burst_coalesces_without_blocking_the_submitter() {
        let shared = SharedStore::new_shared();
        setup(&shared);
        let committer = GroupCommitter::spawn(Arc::clone(&shared), Duration::from_millis(50));
        let handle = committer.handle();
        // One thread fires three commits back-to-back — the pipelined
        // shape — and only then starts polling for acks.
        let tickets: Vec<CommitTicket> = (0..3)
            .map(|i| {
                let mut changes = Changeset::new();
                changes.insert("R", citesys_storage::tuple![i as i64, "t"]);
                handle.submit(changes)
            })
            .collect();
        let acks: Vec<CommitAck> = tickets.iter().map(|t| t.wait().unwrap()).collect();
        assert!(
            acks.iter().all(|a| a.version == acks[0].version),
            "one window seals the whole burst: {acks:?}"
        );
        assert!(acks.iter().any(|a| a.group_size >= 2), "{acks:?}");
        // try_ack on a consumed ticket reports the closed channel
        // rather than blocking or panicking.
        drop(committer);
        let orphan = handle.submit(Changeset::new());
        assert_eq!(
            orphan.try_ack(),
            Some(Err("commit pipeline closed".to_string()))
        );
    }

    #[test]
    fn drop_joins_the_committer_thread() {
        let shared = SharedStore::new_shared();
        setup(&shared);
        let committer = GroupCommitter::spawn(Arc::clone(&shared), Duration::ZERO);
        let handle = committer.handle();
        drop(committer);
        // The pipeline is closed: commits through a stale handle error
        // instead of hanging.
        let e = handle.commit(Changeset::new()).unwrap_err();
        assert!(e.contains("pipeline closed"), "{e}");
    }
}
