//! End-to-end tests of the TCP front end: wire framing over real
//! sockets, session isolation, group commit, timeouts and durability.

use std::io::Write;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use citesys_net::client::Connection;
use citesys_net::protocol::{Response, WireErrorKind};
use citesys_net::script::Interpreter;
use citesys_net::server::{Server, ServerConfig};

fn spawn(config: ServerConfig) -> (Server, String) {
    let server = Server::spawn(config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        commit_window: Duration::from_millis(100),
        ..Default::default()
    }
}

fn ok_lines(resp: Response) -> Vec<String> {
    match resp {
        Response::Ok(lines) => lines,
        Response::Err { kind, message } => panic!("unexpected error [{kind:?}]: {message}"),
    }
}

const SETUP: &[&str] = &[
    "schema Family(FID:int, FName:text, Desc:text) key(0)",
    "schema FamilyIntro(FID:int, Text:text) key(0)",
    "insert Family(11, 'Calcitonin', 'C1')",
    "insert FamilyIntro(11, '1st')",
    "view V2(FID, FName, Desc) :- Family(FID, FName, Desc) | cite CV2(D) :- D = 'GtoPdb'",
    "view V3(FID, Text) :- FamilyIntro(FID, Text) | cite CV3(D) :- D = 'GtoPdb'",
    "commit",
];

fn run_setup(conn: &mut Connection) {
    for line in SETUP {
        ok_lines(conn.send(line).unwrap());
    }
}

#[test]
fn end_to_end_session_over_tcp() {
    let (server, addr) = spawn(quick_config());
    let mut conn = Connection::connect(&addr).unwrap();
    assert!(conn.banner().starts_with("citesys-net v1"));
    run_setup(&mut conn);
    let lines = ok_lines(
        conn.send("cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
            .unwrap(),
    );
    assert!(
        lines[0].contains("1 answer tuple(s) at version 1"),
        "{lines:?}"
    );
    assert!(lines.iter().any(|l| l.contains("GtoPdb")), "{lines:?}");
    let lines = ok_lines(conn.send("verify").unwrap());
    assert!(lines[0].contains("fixity verified: v1"), "{lines:?}");
    // Errors are framed, not fatal: the session keeps going.
    match conn.send("bogus").unwrap() {
        Response::Err { kind, message } => {
            assert_eq!(kind, WireErrorKind::Parse);
            assert!(message.contains("unknown command"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    match conn.send("cite Q(X) :- Nope(X)").unwrap() {
        Response::Err { kind, .. } => assert_eq!(kind, WireErrorKind::Citation),
        other => panic!("{other:?}"),
    }
    let lines = ok_lines(conn.send("tables").unwrap());
    assert!(
        lines.iter().any(|l| l.contains("Family: 1 tuples")),
        "{lines:?}"
    );
    // Blank and comment lines are acknowledged with empty payloads.
    assert_eq!(ok_lines(conn.send("").unwrap()).len(), 0);
    assert_eq!(ok_lines(conn.send("# comment").unwrap()).len(), 0);
    let lines = ok_lines(conn.send("quit").unwrap());
    assert_eq!(lines, vec!["bye".to_string()]);
    server.stop();
}

#[test]
fn command_split_across_tcp_segments_reassembles() {
    let (server, addr) = spawn(quick_config());
    let mut conn = Connection::connect(&addr).unwrap();
    // One logical line, written in four separate segments with pauses —
    // the server's LineReader must reassemble it (and strip the CRLF).
    for chunk in ["sche", "ma R(A:i", "nt)", "\r\n"] {
        conn.stream().write_all(chunk.as_bytes()).unwrap();
        conn.stream().flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    let lines = ok_lines(conn.read_response().unwrap().expect("response"));
    assert!(lines[0].contains("schema R (1 attributes)"), "{lines:?}");
    // Two commands in one segment are two responses.
    conn.stream()
        .write_all(b"insert R(1)\ninsert R(2)\n")
        .unwrap();
    assert_eq!(ok_lines(conn.read_response().unwrap().unwrap()).len(), 0);
    assert_eq!(ok_lines(conn.read_response().unwrap().unwrap()).len(), 0);
    let lines = ok_lines(conn.send("commit").unwrap());
    assert!(
        lines[0].contains("committed version 1 (2 op(s)"),
        "{lines:?}"
    );
    server.stop();
}

#[test]
fn oversized_line_rejected_with_protocol_error() {
    let (server, addr) = spawn(ServerConfig {
        max_line_bytes: 64,
        ..quick_config()
    });
    let mut conn = Connection::connect(&addr).unwrap();
    let huge = format!("insert R({})\n", "9".repeat(500));
    conn.stream().write_all(huge.as_bytes()).unwrap();
    match conn.read_response().unwrap().expect("error frame") {
        Response::Err { kind, message } => {
            assert_eq!(kind, WireErrorKind::Proto);
            assert!(message.contains("exceeds 64 bytes"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    // The server closes the connection after an oversized line…
    assert!(conn.read_response().unwrap().is_none(), "connection closed");
    // …and stays healthy for new connections.
    let mut conn = Connection::connect(&addr).unwrap();
    ok_lines(conn.send("schema R(A:int)").unwrap());
    server.stop();
}

#[test]
fn abrupt_disconnect_mid_transaction_rolls_back() {
    let (server, addr) = spawn(quick_config());
    let mut admin = Connection::connect(&addr).unwrap();
    run_setup(&mut admin);
    // A second client opens a transaction and vanishes mid-way.
    let mut doomed = Connection::connect(&addr).unwrap();
    ok_lines(doomed.send("begin").unwrap());
    ok_lines(doomed.send("insert Family(99, 'Ghost', 'X')").unwrap());
    ok_lines(
        doomed
            .send("delete Family(11, 'Calcitonin', 'C1')")
            .unwrap(),
    );
    drop(doomed); // no commit, no quit — the TCP connection just dies
    std::thread::sleep(Duration::from_millis(100));
    // Nothing from the dead transaction is visible, and the store still
    // commits cleanly for others.
    let lines = ok_lines(admin.send("dump Family").unwrap());
    assert!(lines.iter().any(|l| l.contains("Calcitonin")), "{lines:?}");
    assert!(!lines.iter().any(|l| l.contains("Ghost")), "{lines:?}");
    ok_lines(admin.send("insert Family(12, 'Dopamine', 'D1')").unwrap());
    let lines = ok_lines(admin.send("commit").unwrap());
    assert!(lines[0].contains("committed version 2"), "{lines:?}");
    server.stop();
}

#[test]
fn idle_session_times_out_with_protocol_error() {
    let (server, addr) = spawn(ServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..quick_config()
    });
    let mut conn = Connection::connect(&addr).unwrap();
    ok_lines(conn.send("schema R(A:int)").unwrap());
    // Say nothing and wait: the server must end the session itself.
    match conn.read_response().unwrap().expect("timeout frame") {
        Response::Err { kind, message } => {
            assert_eq!(kind, WireErrorKind::Proto);
            assert!(message.contains("idle timeout"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    assert!(
        conn.read_response().unwrap().is_none(),
        "closed after timeout"
    );
    server.stop();
}

#[test]
fn shutdown_command_stops_the_server() {
    let (server, addr) = spawn(quick_config());
    let mut conn = Connection::connect(&addr).unwrap();
    let lines = ok_lines(conn.send("shutdown").unwrap());
    assert_eq!(lines, vec!["shutting down".to_string()]);
    // wait() returns because the shutdown flag is set.
    server.wait();
    assert!(
        Connection::connect(&addr).is_err()
            || Connection::connect(&addr)
                .and_then(|mut c| c.send("tables"))
                .is_err(),
        "server no longer serves"
    );
}

/// The acceptance scenario: two concurrent clients each running
/// `begin…commit` against a live server produce final state identical
/// to sequential execution, and the swap counter stays below the commit
/// counter (group commit coalesced).
#[test]
fn concurrent_transactions_equal_sequential_with_fewer_swaps() {
    const ROUNDS: usize = 5;
    let (server, addr) = spawn(quick_config());
    let mut admin = Connection::connect(&addr).unwrap();
    run_setup(&mut admin);
    // Warm the service so commits have materializations to carry (and
    // snapshot swaps to count).
    ok_lines(
        admin
            .send("cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
            .unwrap(),
    );
    let obs = server.shared().lock().obs().clone();
    let base = (obs.commits.get(), obs.snapshot_swaps.get());

    // Two clients, ROUNDS rounds each; a barrier per round makes the
    // two `commit`s race into the same commit window.
    let barrier = Arc::new(Barrier::new(2));
    std::thread::scope(|scope| {
        for client in 0..2i64 {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut conn = Connection::connect(&addr).unwrap();
                for round in 0..ROUNDS as i64 {
                    let fid = 100 + client * 100 + round;
                    ok_lines(conn.send("begin").unwrap());
                    ok_lines(
                        conn.send(&format!("insert Family({fid}, 'F{fid}', 'D')"))
                            .unwrap(),
                    );
                    ok_lines(
                        conn.send(&format!("insert FamilyIntro({fid}, 'i{fid}')"))
                            .unwrap(),
                    );
                    barrier.wait();
                    let lines = ok_lines(conn.send("commit").unwrap());
                    assert!(lines[0].contains("committed version"), "{lines:?}");
                }
            });
        }
    });

    let commits = obs.commits.get() - base.0;
    let swaps = obs.snapshot_swaps.get() - base.1;
    assert_eq!(commits, 2 * ROUNDS as u64);
    assert!(
        swaps < commits,
        "group commit must coalesce: {swaps} swaps for {commits} commits"
    );
    assert!(obs.largest_group.get() >= 2);

    // Final state equals the same transactions run sequentially in a
    // solo interpreter (order within a round is irrelevant: the keys are
    // disjoint).
    let mut solo = Interpreter::new();
    for line in SETUP {
        solo.run_line(line).unwrap();
    }
    for client in 0..2i64 {
        for round in 0..ROUNDS as i64 {
            let fid = 100 + client * 100 + round;
            solo.run(&format!(
                "begin\ninsert Family({fid}, 'F{fid}', 'D')\ninsert FamilyIntro({fid}, 'i{fid}')\ncommit\n"
            ))
            .unwrap();
        }
    }
    for rel in ["Family", "FamilyIntro"] {
        let mut net_rows = ok_lines(admin.send(&format!("dump {rel}")).unwrap());
        let solo_dump = solo.run_line(&format!("dump {rel}")).unwrap();
        let mut solo_rows: Vec<String> = solo_dump.lines().map(str::to_string).collect();
        net_rows.sort();
        solo_rows.sort();
        assert_eq!(net_rows, solo_rows, "{rel} diverged from sequential");
    }
    // The concurrent run's answers match too.
    let lines = ok_lines(
        admin
            .send("cite Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
            .unwrap(),
    );
    assert!(
        lines[0].contains(&format!("{} answer tuple(s)", 1 + 2 * ROUNDS)),
        "{lines:?}"
    );
    server.stop();
}

#[test]
fn stats_command_visible_over_the_wire() {
    let (server, addr) = spawn(quick_config());
    let mut conn = Connection::connect(&addr).unwrap();
    run_setup(&mut conn);
    let lines = ok_lines(conn.send("stats").unwrap());
    assert!(
        lines.iter().any(|l| l.starts_with("commits 1")),
        "{lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("snapshot_swaps ")),
        "{lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("group_windows 1")),
        "{lines:?}"
    );
    server.stop();
}
