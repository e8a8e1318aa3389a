//! Replication acceptance tests: a `serve --follow` replica must serve
//! byte-identical `cite` answers (same answer tuples, same version, same
//! fixity digest) at the primary's version, reject writes with a
//! distinct readonly error naming the primary, survive primary restarts
//! (reconnect + resume) and its own restarts (resume from the local WAL,
//! torn tail included), and bootstrap from a checkpoint when its version
//! is unknown to or compacted away on the primary.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use citesys_net::client::Connection;
use citesys_net::protocol::{Response, WireErrorKind};
use citesys_net::server::{Server, ServerConfig};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("citesys-replication-test")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SETUP: &str = "\
schema Family(FID:int, FName:text, Desc:text) key(0)
schema FamilyIntro(FID:int, Text:text) key(0)
insert Family(11, 'Calcitonin', 'C1')
insert Family(13, 'Dopamine', 'D1')
insert FamilyIntro(11, '1st')
view V2(FID, FName, Desc) :- Family(FID, FName, Desc) | cite CV2(D) :- D = 'GtoPdb'
view V3(FID, Text) :- FamilyIntro(FID, Text) | cite CV3(D) :- D = 'GtoPdb'
commit
";

const CITE: &str = "cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)";

fn send_ok(conn: &mut Connection, line: &str) -> Vec<String> {
    match conn.send(line).expect("round-trip") {
        Response::Ok(lines) => lines,
        Response::Err { message, .. } => panic!("server error on '{line}': {message}"),
    }
}

fn send_err(conn: &mut Connection, line: &str) -> (WireErrorKind, String) {
    match conn.send(line).expect("round-trip") {
        Response::Ok(lines) => panic!("'{line}' unexpectedly succeeded: {lines:?}"),
        Response::Err { kind, message } => (kind, message),
    }
}

fn run_setup(conn: &mut Connection) {
    for line in SETUP.lines().filter(|l| !l.trim().is_empty()) {
        send_ok(conn, line);
    }
}

/// Polls `check` until it returns `Some` or ~10s elapse (replication is
/// asynchronous: bootstrap, shipping and reconnect all race the test).
fn wait_for<T>(what: &str, mut check: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(v) = check() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Waits until a fresh `cite` on `conn` answers exactly `expected`.
fn wait_for_cite(conn: &mut Connection, expected: &[String]) {
    wait_for("follower to match the primary's cite output", || {
        match conn.send(CITE).expect("round-trip") {
            Response::Ok(lines) if lines == expected => Some(()),
            // Not caught up yet (still bootstrapping, or behind).
            _ => None,
        }
    });
}

fn follower_config(primary: &str) -> ServerConfig {
    ServerConfig {
        follow: Some(primary.to_string()),
        ..Default::default()
    }
}

/// The core contract: a follower converges to byte-identical cite
/// output (answers + version + citation + fixity digest all inside the
/// compared lines), keeps converging as the primary commits, rejects
/// every mutating command with a readonly error naming the primary, and
/// both sides report replication through `stats`.
#[test]
fn follower_serves_identical_cites_and_rejects_writes() {
    let primary = Server::spawn(ServerConfig::default()).expect("bind primary");
    let paddr = primary.local_addr().to_string();
    let mut pconn = Connection::connect(&paddr).expect("connect primary");
    run_setup(&mut pconn);
    let expected = send_ok(&mut pconn, CITE);

    let follower = Server::spawn(follower_config(&paddr)).expect("bind follower");
    let faddr = follower.local_addr().to_string();
    let mut fconn = Connection::connect(&faddr).expect("connect follower");
    wait_for_cite(&mut fconn, &expected);

    // Byte-identical fixity: `verify` re-executes against the follower's
    // snapshot and must reproduce the digest minted on the primary.
    let verify = send_ok(&mut fconn, "verify");
    assert!(
        verify.iter().any(|l| l.contains("fixity verified")),
        "{verify:?}"
    );

    // Every mutating command is rejected with the readonly kind and a
    // message pointing writers at the primary.
    for cmd in [
        "insert Family(99, 'X', 'Y')",
        "delete Family(11, 'Calcitonin', 'C1')",
        "schema Extra(A:int)",
        "view VX(FID) :- Family(FID, FName, Desc) | cite CX(D) :- D = 'x'",
        "begin",
        "commit",
        "rollback",
        "load Family from '/tmp/nope.csv'",
    ] {
        let (kind, message) = send_err(&mut fconn, cmd);
        assert_eq!(kind, WireErrorKind::Readonly, "'{cmd}': {message}");
        assert!(
            message.contains(&paddr),
            "'{cmd}' names the primary: {message}"
        );
    }

    // The primary keeps committing; the follower converges again.
    send_ok(&mut pconn, "insert FamilyIntro(13, '3rd')");
    send_ok(&mut pconn, "commit");
    let expected = send_ok(&mut pconn, CITE);
    assert!(
        expected.iter().any(|l| l.contains("2 answer tuple(s)")),
        "{expected:?}"
    );
    wait_for_cite(&mut fconn, &expected);

    // Lag accounting: caught up means zero version lag on the follower…
    let fstats = wait_for("follower lag to drain", || {
        let lines = send_ok(&mut fconn, "stats");
        lines
            .iter()
            .any(|l| l == "replica_lag_versions 0")
            .then_some(lines)
    });
    assert!(
        fstats.iter().any(|l| l == &format!("following {paddr}")),
        "{fstats:?}"
    );
    // …and the primary sees one attached replica with shipped records.
    let pstats = send_ok(&mut pconn, "stats");
    assert!(
        pstats.iter().any(|l| l == "replicas_connected 1"),
        "{pstats:?}"
    );
    assert!(
        pstats
            .iter()
            .any(|l| l.starts_with("replica[") && !l.ends_with(" 0")),
        "per-replica shipped counter: {pstats:?}"
    );

    drop(fconn);
    drop(pconn);
    follower.stop();
    primary.stop();
}

/// A follower whose version predates the primary's compaction floor
/// cannot tail the op log (a restarted primary only holds ops after its
/// checkpoint), so it must bootstrap from a full checkpoint frame — and
/// still end up byte-identical.
#[test]
fn fresh_follower_bootstraps_past_compacted_history() {
    let dir = temp_dir("compacted");
    let config = || ServerConfig {
        data_dir: Some(dir.clone()),
        ..Default::default()
    };
    let primary = Server::spawn(config()).expect("bind primary");
    let paddr = primary.local_addr().to_string();
    let mut pconn = Connection::connect(&paddr).expect("connect primary");
    run_setup(&mut pconn);
    send_ok(&mut pconn, CITE);
    send_ok(&mut pconn, "checkpoint");
    drop(pconn);
    primary.stop();

    // Reopened from the checkpoint: history before it is compacted away
    // (base version > 0, op log empty), so a fresh follower at version 0
    // is below the floor and must take the checkpoint path.
    let primary = Server::spawn(config()).expect("rebind primary");
    let paddr = primary.local_addr().to_string();
    let mut pconn = Connection::connect(&paddr).expect("reconnect primary");
    let expected = send_ok(&mut pconn, CITE);

    let follower = Server::spawn(follower_config(&paddr)).expect("bind follower");
    let mut fconn = Connection::connect(&follower.local_addr().to_string()).expect("connect");
    wait_for_cite(&mut fconn, &expected);
    let verify = send_ok(&mut fconn, "verify");
    assert!(
        verify.iter().any(|l| l.contains("fixity verified")),
        "{verify:?}"
    );

    drop(fconn);
    drop(pconn);
    follower.stop();
    primary.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Primary restart mid-stream: the follower's feed dies, it backs off
/// and reconnects, and the restarted primary (same data dir, same port)
/// resumes shipping from the follower's version.
#[test]
fn primary_restart_mid_stream_reconnects_and_resumes() {
    let dir = temp_dir("restart-primary");
    let config = |addr: &str| ServerConfig {
        addr: addr.to_string(),
        data_dir: Some(dir.clone()),
        ..Default::default()
    };
    let primary = Server::spawn(config("127.0.0.1:0")).expect("bind primary");
    let paddr = primary.local_addr().to_string();
    let mut pconn = Connection::connect(&paddr).expect("connect primary");
    run_setup(&mut pconn);
    let expected = send_ok(&mut pconn, CITE);

    let follower = Server::spawn(follower_config(&paddr)).expect("bind follower");
    let mut fconn = Connection::connect(&follower.local_addr().to_string()).expect("connect");
    wait_for_cite(&mut fconn, &expected);

    // Kill the primary mid-stream (no shutdown handshake towards the
    // follower) and bring it back on the SAME address from its data dir.
    drop(pconn);
    primary.stop();
    let primary = Server::spawn(config(&paddr)).expect("rebind primary on same port");
    let mut pconn = Connection::connect(&paddr).expect("reconnect primary");
    send_ok(&mut pconn, "insert FamilyIntro(13, '3rd')");
    send_ok(&mut pconn, "commit");
    let expected = send_ok(&mut pconn, CITE);

    wait_for_cite(&mut fconn, &expected);
    let fstats = send_ok(&mut fconn, "stats");
    let reconnects = fstats
        .iter()
        .find_map(|l| l.strip_prefix("replica_reconnects "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("replica_reconnects in stats");
    assert!(reconnects >= 1, "follower reconnected: {fstats:?}");

    drop(fconn);
    drop(pconn);
    follower.stop();
    primary.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Follower restart: shipped records were persisted to the follower's
/// own WAL before being applied, so a killed follower — even one whose
/// last local record is torn mid-write — resumes from its local version
/// and catches up *incrementally* (wal frames, not a re-bootstrap).
#[test]
fn follower_restart_resumes_from_local_wal_with_torn_tail() {
    let pdir = temp_dir("resume-primary");
    let fdir = temp_dir("resume-follower");
    let primary = Server::spawn(ServerConfig {
        data_dir: Some(pdir.clone()),
        ..Default::default()
    })
    .expect("bind primary");
    let paddr = primary.local_addr().to_string();
    let mut pconn = Connection::connect(&paddr).expect("connect primary");
    run_setup(&mut pconn);
    send_ok(&mut pconn, "insert FamilyIntro(13, '3rd')");
    send_ok(&mut pconn, "commit");
    let expected = send_ok(&mut pconn, CITE);

    let fconfig = || ServerConfig {
        data_dir: Some(fdir.clone()),
        follow: Some(paddr.clone()),
        ..Default::default()
    };
    let follower = Server::spawn(fconfig()).expect("bind follower");
    let mut fconn = Connection::connect(&follower.local_addr().to_string()).expect("connect");
    wait_for_cite(&mut fconn, &expected);
    drop(fconn);
    // SIGKILL-equivalent: stop() without any replication handshake.
    follower.stop();

    // Tear the follower's local WAL tail — a record header and half an
    // op, no `end` trailer — exactly what a crash mid-append leaves.
    let wal = fdir.join("wal.log");
    let mut text = std::fs::read_to_string(&wal).expect("follower wal exists");
    text.push_str("record 99 2\ni Family(99, 'X");
    std::fs::write(&wal, text).unwrap();

    // The primary notices the detach lazily: the stale feed lives until
    // its next write (a ping at the latest) hits the closed socket.
    // Wait it out so the frame accounting below only sees the new feed.
    wait_for("primary to drop the dead feed", || {
        send_ok(&mut pconn, "stats")
            .iter()
            .any(|l| l == "replicas_connected 0")
            .then_some(())
    });

    // While the follower is down, the primary moves on.
    send_ok(&mut pconn, "insert Family(14, 'Ghrelin', 'G1')");
    send_ok(&mut pconn, "insert FamilyIntro(14, '4th')");
    send_ok(&mut pconn, "commit");
    let expected = send_ok(&mut pconn, CITE);
    let shipped_before = shipped_total(&mut pconn);

    let follower = Server::spawn(fconfig()).expect("rebind follower");
    let mut fconn = Connection::connect(&follower.local_addr().to_string()).expect("reconnect");
    wait_for_cite(&mut fconn, &expected);
    let verify = send_ok(&mut fconn, "verify");
    assert!(
        verify.iter().any(|l| l.contains("fixity verified")),
        "{verify:?}"
    );
    // Exactly the one missed commit was shipped as a wal frame: the
    // follower resumed from its recovered local version instead of
    // re-bootstrapping (a checkpoint frame never counts as shipped).
    let shipped_after = shipped_total(&mut pconn);
    assert_eq!(
        shipped_after - shipped_before,
        1,
        "incremental resume, not re-bootstrap"
    );

    drop(fconn);
    drop(pconn);
    follower.stop();
    primary.stop();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}

/// A follower that was offline while the primary committed AND ran
/// `compact` comes back with a resume version below the primary's new
/// history floor. The op log can no longer produce its missing records,
/// so the primary must ship a fresh checkpoint frame (not wal frames)
/// and the follower must re-bootstrap from it — and still converge to
/// byte-identical cite output with a verifiable digest.
#[test]
fn follower_rebootstraps_after_live_compaction_on_primary() {
    let pdir = temp_dir("compact-primary");
    let fdir = temp_dir("compact-follower");
    let primary = Server::spawn(ServerConfig {
        data_dir: Some(pdir.clone()),
        retain_checkpoints: 4,
        ..Default::default()
    })
    .expect("bind primary");
    let paddr = primary.local_addr().to_string();
    let mut pconn = Connection::connect(&paddr).expect("connect primary");
    run_setup(&mut pconn);
    let expected = send_ok(&mut pconn, CITE);

    let fconfig = || ServerConfig {
        data_dir: Some(fdir.clone()),
        follow: Some(paddr.clone()),
        ..Default::default()
    };
    let follower = Server::spawn(fconfig()).expect("bind follower");
    let mut fconn = Connection::connect(&follower.local_addr().to_string()).expect("connect");
    wait_for_cite(&mut fconn, &expected);
    drop(fconn);
    follower.stop();
    wait_for("primary to drop the dead feed", || {
        send_ok(&mut pconn, "stats")
            .iter()
            .any(|l| l == "replicas_connected 0")
            .then_some(())
    });

    // While the follower is away: new commits, then a live compaction
    // with window 0 — only the latest version stays in the op log, so
    // the follower's resume version (1) is now below the floor.
    send_ok(&mut pconn, "insert Family(14, 'Ghrelin', 'G1')");
    send_ok(&mut pconn, "insert FamilyIntro(14, '4th')");
    send_ok(&mut pconn, "commit");
    send_ok(&mut pconn, "insert FamilyIntro(13, '3rd')");
    send_ok(&mut pconn, "commit");
    let compacted = send_ok(&mut pconn, "compact");
    assert!(
        compacted[0].starts_with("compacted to version 3"),
        "{compacted:?}"
    );
    let expected = send_ok(&mut pconn, CITE);
    let shipped_before = shipped_total(&mut pconn);

    let follower = Server::spawn(fconfig()).expect("rebind follower");
    let mut fconn = Connection::connect(&follower.local_addr().to_string()).expect("reconnect");
    wait_for_cite(&mut fconn, &expected);
    let verify = send_ok(&mut fconn, "verify");
    assert!(
        verify.iter().any(|l| l.contains("fixity verified")),
        "{verify:?}"
    );
    // The catch-up came as a checkpoint frame, which never counts as a
    // shipped wal record: the follower re-bootstrapped instead of
    // replaying the compacted-away history.
    assert_eq!(
        shipped_total(&mut pconn),
        shipped_before,
        "checkpoint bootstrap, not incremental wal replay"
    );

    // From here on, replication is incremental again.
    send_ok(&mut pconn, "insert Family(15, 'Glucagon', 'G2')");
    send_ok(&mut pconn, "insert FamilyIntro(15, '5th')");
    send_ok(&mut pconn, "commit");
    let expected = send_ok(&mut pconn, CITE);
    wait_for_cite(&mut fconn, &expected);
    assert_eq!(
        shipped_total(&mut pconn) - shipped_before,
        1,
        "post-bootstrap commits ship incrementally"
    );

    drop(fconn);
    drop(pconn);
    follower.stop();
    primary.stop();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}

fn shipped_total(conn: &mut Connection) -> u64 {
    send_ok(conn, "stats")
        .iter()
        .find_map(|l| l.strip_prefix("replica_records_shipped "))
        .and_then(|v| v.parse().ok())
        .expect("replica_records_shipped in stats")
}

/// Snapshot pinning across a shipped version bump: a session that cited
/// on the follower keeps `verify`-ing the *cited* version even after
/// replication advances the store underneath it, while a fresh cite in
/// the same session sees the new version. (The same guarantee the
/// primary gives concurrent writers, re-proven over replication.)
#[test]
fn follower_cite_stays_pinned_across_shipped_advance() {
    let primary = Server::spawn(ServerConfig::default()).expect("bind primary");
    let paddr = primary.local_addr().to_string();
    let mut pconn = Connection::connect(&paddr).expect("connect primary");
    run_setup(&mut pconn);
    let expected_v1 = send_ok(&mut pconn, CITE);

    let follower = Server::spawn(follower_config(&paddr)).expect("bind follower");
    let faddr = follower.local_addr().to_string();
    let mut pinned = Connection::connect(&faddr).expect("connect follower");
    wait_for_cite(&mut pinned, &expected_v1);
    let before = send_ok(&mut pinned, CITE);

    // Replication advances the follower underneath the open session…
    send_ok(&mut pconn, "insert FamilyIntro(13, '3rd')");
    send_ok(&mut pconn, "commit");
    let expected_v2 = send_ok(&mut pconn, CITE);
    let mut other = Connection::connect(&faddr).expect("second follower session");
    wait_for_cite(&mut other, &expected_v2);

    // …but the pinned session's `verify` re-executes its own last cite
    // against the version it cited, and the digest still reproduces.
    let verify = send_ok(&mut pinned, "verify");
    assert!(
        verify.iter().any(|l| l.contains("fixity verified")),
        "pinned verify after advance: {verify:?}"
    );
    // A fresh cite in the same session observes the shipped version.
    let after = send_ok(&mut pinned, CITE);
    assert_eq!(after, expected_v2);
    assert_ne!(after, before, "the store really did advance underneath");

    drop(pinned);
    drop(other);
    drop(pconn);
    follower.stop();
    primary.stop();
}

/// A follower ahead of the primary (its version is unknown: a different,
/// longer history) must NOT adopt the primary's shorter state — the
/// checkpoint fallback detects the rewind, replication stops as a fatal
/// divergence, and the follower keeps serving its own data read-only.
#[test]
fn diverged_follower_refuses_rewind_and_keeps_serving() {
    let fdir = temp_dir("diverged-follower");
    {
        // Build the follower's own (longer) history directly.
        use citesys_net::script::{Interpreter, SharedStore};
        let mut live = Interpreter::with_store(
            SharedStore::open_durable_shared(&fdir).expect("open follower dir"),
        );
        live.run(SETUP).unwrap();
        for fid in 20..30 {
            live.run_line(&format!("insert FamilyIntro({fid}, 'x')"))
                .unwrap();
            live.run_line("commit").unwrap();
        }
    }

    // A primary with a much shorter history.
    let primary = Server::spawn(ServerConfig::default()).expect("bind primary");
    let paddr = primary.local_addr().to_string();
    let mut pconn = Connection::connect(&paddr).expect("connect primary");
    run_setup(&mut pconn);

    let follower = Server::spawn(ServerConfig {
        data_dir: Some(fdir.clone()),
        follow: Some(paddr.clone()),
        ..Default::default()
    })
    .expect("bind follower");
    let mut fconn = Connection::connect(&follower.local_addr().to_string()).expect("connect");
    let local = send_ok(&mut fconn, CITE);
    // Give replication ample time to (wrongly) rewind us.
    std::thread::sleep(Duration::from_millis(600));
    assert_eq!(
        send_ok(&mut fconn, CITE),
        local,
        "diverged follower kept its own history"
    );
    let (kind, _) = send_err(&mut fconn, "insert Family(99, 'X', 'Y')");
    assert_eq!(kind, WireErrorKind::Readonly, "still read-only");

    drop(fconn);
    drop(pconn);
    follower.stop();
    primary.stop();
    let _ = std::fs::remove_dir_all(&fdir);
}

/// A follower whose `metrics` address cannot be bound must fail to
/// start **without** leaving a follower thread behind: an orphan (its
/// `JoinHandle` dropped, `shutdown` never set) would keep a feed open
/// on the primary forever.
#[test]
fn failed_follower_spawn_leaves_no_feed_on_the_primary() {
    let primary = Server::spawn(ServerConfig::default()).expect("bind primary");
    let paddr = primary.local_addr().to_string();
    // An address that is certainly in use: a listener this test holds.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind blocker");
    let result = Server::spawn(ServerConfig {
        metrics: Some(taken.local_addr().unwrap().to_string()),
        ..follower_config(&paddr)
    });
    assert!(result.is_err(), "metrics bind on a taken port must fail");
    // A leaked follower attaches within milliseconds; watch for a second.
    let obs = primary.shared().lock().obs().clone();
    let deadline = Instant::now() + Duration::from_secs(1);
    while Instant::now() < deadline {
        assert_eq!(obs.replicas_connected.get(), 0, "leaked follower attached");
        std::thread::sleep(Duration::from_millis(20));
    }
    primary.stop();
}
