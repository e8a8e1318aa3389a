//! End-to-end time travel over the wire: `cite … @ <version>` must
//! return byte-identical output (answer lines, citation, fixity digest)
//! to what a live `cite` printed when that version WAS the present;
//! deep history survives a restart through retained checkpoint anchors; and
//! `compact` trims the queryable window with a distinct error below it.

use std::path::PathBuf;

use citesys_net::client::Connection;
use citesys_net::protocol::{Response, WireErrorKind};
use citesys_net::server::{Server, ServerConfig};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("citesys-timetravel-test")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SETUP: &str = "\
schema Family(FID:int, FName:text, Desc:text) key(0)
schema FamilyIntro(FID:int, Text:text) key(0)
insert Family(11, 'Calcitonin', 'C1')
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

/// Commits versions 2..=5 (one new family per version) and returns the
/// LIVE cite output captured right after each commit, indexed by
/// version (index 0 and versions without a capture hold `None`).
fn grow_history(conn: &mut Connection) -> Vec<Option<Vec<String>>> {
    let mut live = vec![None, Some(send_ok(conn, CITE))];
    for i in 0..4u64 {
        let fid = 20 + i;
        send_ok(conn, &format!("insert Family({fid}, 'F{fid}', 'D')"));
        send_ok(conn, &format!("insert FamilyIntro({fid}, 'I{fid}')"));
        send_ok(conn, "commit");
        live.push(Some(send_ok(conn, CITE)));
    }
    live
}

fn assert_time_travel_matches(conn: &mut Connection, live: &[Option<Vec<String>>]) {
    for (version, captured) in live.iter().enumerate().skip(1) {
        let captured = captured.as_ref().expect("captured live output");
        let at = send_ok(conn, &format!("{CITE} @ {version}"));
        assert_eq!(
            &at, captured,
            "cite @ {version} must be byte-identical to the live cite at that version"
        );
        // And the version stamp really is the historical one.
        assert!(
            at.iter()
                .any(|l| l.ends_with(&format!("at version {version}"))),
            "{at:?}"
        );
    }
}

/// Over the event-loop transport, historical cites are byte-identical
/// to the live cites they rewind to, snapshots are stable, the edges
/// error crisply, and `stats` reports the window.
#[test]
fn at_version_cites_are_byte_identical_event_loop() {
    let server = Server::spawn(ServerConfig::default()).expect("bind server");
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).expect("connect");
    run_setup(&mut conn);
    let live = grow_history(&mut conn);
    assert_time_travel_matches(&mut conn, &live);

    // `verify` after a historical cite re-executes at the CITED version.
    send_ok(&mut conn, &format!("{CITE} @ 2"));
    let verify = send_ok(&mut conn, "verify");
    assert!(
        verify.iter().any(|l| l.contains("fixity verified")),
        "{verify:?}"
    );

    // Snapshot digests: stable across calls, distinct across versions.
    let snap2 = send_ok(&mut conn, "snapshot @ 2");
    assert_eq!(snap2, send_ok(&mut conn, "snapshot 2"));
    assert!(snap2[0].starts_with("snapshot v2 sha256:"), "{snap2:?}");
    assert_ne!(snap2, send_ok(&mut conn, "snapshot @ 3"));

    // The future is an error, not a guess.
    let (kind, message) = send_err(&mut conn, &format!("{CITE} @ 99"));
    assert_eq!(kind, WireErrorKind::Citation);
    assert!(message.contains("unknown version 99"), "{message}");

    // Inside an open transaction the present is ambiguous — rejected.
    send_ok(&mut conn, "begin");
    let (_, message) = send_err(&mut conn, &format!("{CITE} @ 2"));
    assert!(message.contains("transaction"), "{message}");
    send_ok(&mut conn, "rollback");

    // History accounting: everything since version 0 is in memory.
    let stats = send_ok(&mut conn, "stats");
    assert!(
        stats.iter().any(|l| l == "history_base_version 0"),
        "{stats:?}"
    );
    assert!(
        stats.iter().any(|l| l == "checkpoints_retained 0"),
        "{stats:?}"
    );

    drop(conn);
    server.stop();
}

/// Auto-checkpointing (`--checkpoint-every`) with retention keeps the
/// superseded checkpoints as anchors, so after a restart — when the
/// in-memory op log starts at the recovered checkpoint — versions far
/// below it are STILL served `@ version`, byte-identical, from the
/// anchor's snapshot plus its WAL segment.
#[test]
fn deep_history_survives_restart_via_anchors() {
    let dir = temp_dir("anchors");
    let config = || ServerConfig {
        data_dir: Some(dir.clone()),
        checkpoint_every: Some(1),
        retain_checkpoints: 8,
        ..Default::default()
    };
    let server = Server::spawn(config()).expect("bind server");
    let mut conn = Connection::connect(&server.local_addr().to_string()).expect("connect");
    run_setup(&mut conn);
    let live = grow_history(&mut conn);
    let stats = send_ok(&mut conn, "stats");
    assert!(
        stats
            .iter()
            .any(|l| l.starts_with("checkpoints_retained ") && l != "checkpoints_retained 0"),
        "anchors accumulated: {stats:?}"
    );
    drop(conn);
    server.stop();

    // Restart: the op log now begins at the last checkpoint, so old
    // versions are only reachable through the retained anchors.
    let server = Server::spawn(config()).expect("rebind server");
    let mut conn = Connection::connect(&server.local_addr().to_string()).expect("reconnect");
    let stats = send_ok(&mut conn, "stats");
    assert!(
        stats.iter().any(|l| l == "history_base_version 0"),
        "anchors reach back to genesis: {stats:?}"
    );
    assert_time_travel_matches(&mut conn, &live);
    let snap = send_ok(&mut conn, "snapshot @ 2");
    assert!(snap[0].starts_with("snapshot v2 sha256:"), "{snap:?}");

    drop(conn);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `compact <window>` over the wire: in-window versions keep serving
/// byte-identical historical cites; versions below the floor return the
/// distinct compacted-history error (and keep doing so after the next
/// restart, proving the durable anchors were really pruned).
#[test]
fn compact_trims_the_queryable_window() {
    let dir = temp_dir("compact");
    let config = || ServerConfig {
        data_dir: Some(dir.clone()),
        checkpoint_every: Some(1),
        retain_checkpoints: 8,
        ..Default::default()
    };
    let server = Server::spawn(config()).expect("bind server");
    let mut conn = Connection::connect(&server.local_addr().to_string()).expect("connect");
    run_setup(&mut conn);
    let live = grow_history(&mut conn); // latest = 5
    let out = send_ok(&mut conn, "compact 2");
    // Anchors 0, 1 and 2 fall below the floor; the anchor AT the floor
    // stays as the replay base for the oldest in-window version.
    assert_eq!(
        out[0], "compacted to version 3 (3 anchor(s) pruned)",
        "{out:?}"
    );

    let check_window = |conn: &mut Connection| {
        for (version, captured) in live.iter().enumerate().skip(3) {
            let at = send_ok(conn, &format!("{CITE} @ {version}"));
            assert_eq!(&at, captured.as_ref().unwrap(), "in-window v{version}");
        }
        for version in 1..=2usize {
            let (kind, message) = send_err(conn, &format!("{CITE} @ {version}"));
            assert_eq!(kind, WireErrorKind::Citation);
            assert!(
                message.contains(&format!(
                    "version {version} was compacted by a checkpoint (oldest kept is 3)"
                )),
                "{message}"
            );
        }
        let stats = send_ok(conn, "stats");
        assert!(
            stats.iter().any(|l| l == "history_base_version 3"),
            "{stats:?}"
        );
    };
    check_window(&mut conn);
    drop(conn);
    server.stop();

    let server = Server::spawn(config()).expect("rebind server");
    let mut conn = Connection::connect(&server.local_addr().to_string()).expect("reconnect");
    check_window(&mut conn);
    drop(conn);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
